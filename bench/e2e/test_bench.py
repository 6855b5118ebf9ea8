#!/usr/bin/env python3
"""Tests of bench.py and trace_profile.py on synthetic run documents.

    python3 bench/e2e/test_bench.py

Nothing runs bench_e2e: every document and trace here is made up, so the gates, the
compare rules and the trace fold are checked without building anything.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402
import trace_profile  # noqa: E402

BENCH = bench.load_benchmark()
E_REF = bench.GATES["spins_e_ref"]


def solve(energy=E_REF, bits="c028e1428ec8396e", scale=1.0):
    return {"solve_s": 8.0 * scale, "ramp_s": [0.1, 0.2], "steady_s": [2.0 * scale] * 3,
            "bond_s": [0.04 * scale] * 90 + [0.1 * scale] * 10, "energy": energy,
            "energy_bits": bits, "recomputed": energy, "recomputed_bits": bits,
            "max_bond_dim": 256, "truncation_error": 1e-8, "peak_rss_mb": 60.0}


def doc(model="spins", serial=False, **kw):
    return {"schema": "bench-e2e-run-v1", "workload": "w", "seed": 1, "traced": False,
            "config": {"model": model, "engine": "list", "threads": 1, "ranks": 4 if serial else 1,
                       "prefetch": False, "m_final": 128, "final_sweeps": 4,
                       "backend": "builtin", "nproc": 4},
            "setup_s": [0.01] * 9, "serial": solve() if serial else None,
            "solves": [solve(**kw), solve(**kw)], "registry": {}}


def run_set(scales, workload="spins-6x4-m256", failed=()):
    """A set document with one run per scale factor on every timing."""
    runs = []
    for i, s in enumerate(scales):
        code, d = (1, None) if i in failed else (0, doc(scale=s))
        entry = bench.run_entry(workload, 1, code, d)
        entry["index"] = i
        runs.append(entry)
    return {"seed": 1, "seconds": BENCH["run_seconds"], "workloads": [workload], "runs": runs}


def verdicts(rows):
    return {(w, m): v for w, m, v, _ in rows}


class GateTest(unittest.TestCase):
    def test_clean_documents_pass(self):
        self.assertEqual(bench.gate(doc()), (2, 0, []))
        self.assertEqual(bench.gate(doc(serial=True)), (3, 0, []))

    def test_each_energy_gate_fires(self):
        # 1. the process exits non-zero
        entry = bench.run_entry("spins-6x4-ranks4", 1, 3, None)
        self.assertFalse(entry["ok"])
        self.assertIn("exit code 3", entry["failures"][0])
        # 2. an energy is non-finite
        d = doc()
        d["solves"][1]["recomputed"] = math.nan
        self.assertEqual(bench.gate(d)[1], 1)
        d = doc()
        d["solves"][0]["energy"] = None  # bench_e2e writes NaN/inf as null
        self.assertEqual(bench.gate(d)[1], 1)
        # 3. the recomputation disagrees beyond 1e-9 relative
        d = doc()
        d["solves"][0]["recomputed"] = E_REF * (1 + 3e-9)
        self.assertIn("recomputed", bench.gate(d)[2][0])
        # ... but agreement to 1e-13, as on the real workloads, passes
        d["solves"][0]["recomputed"] = E_REF * (1 + 1e-13)
        self.assertEqual(bench.gate(d)[1], 0)
        # 4. a spins energy away from E_ref; electrons have no reference
        d = doc(energy=E_REF + 2e-4)
        self.assertEqual(bench.gate(d)[1], 2)
        self.assertEqual(bench.gate(doc(model="electrons", energy=-5.3))[1], 0)
        # 5. the ranked energy is not bitwise the serial pass's
        d = doc(serial=True)
        d["solves"][0]["energy_bits"] = "c028e1428ec8396f"
        attempted, failed, msgs = bench.gate(d)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("serial pass", msgs[0])

    def test_gate_failure_marks_the_run(self):
        entry = bench.run_entry("spins-6x4-m256", 1, 0, doc(energy=E_REF + 1.0))
        self.assertFalse(entry["ok"])
        self.assertEqual(entry["failed"], 2)


class CompareTest(unittest.TestCase):
    def bound(self, name):
        return next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == name)

    def test_identical_sets_pass(self):
        a = run_set([1.0, 1.01, 0.99, 1.0, 1.02])
        rows = bench.compare(a, copy.deepcopy(a), BENCH)
        self.assertEqual(len(rows), 1 + len(BENCH["end_to_end"]))
        self.assertTrue(all(v == "ok" for _, _, v, _ in rows), rows)

    def test_slower_sweep_is_regressed(self):
        # 1.5 bounds slower, whatever bound BENCHMARK.json sets
        slower = 1 + 1.5 * self.bound("sweep_s")
        a = run_set([1.0, 1.01, 0.99, 1.0, 1.02])
        b = run_set([x * slower for x in [1.0, 1.01, 0.99, 1.0, 1.02]])
        v = verdicts(bench.compare(a, b, BENCH))
        self.assertEqual(v[("spins-6x4-m256", "sweep_s")], "regressed")
        self.assertEqual(v[("spins-6x4-m256", "setup_s")], "ok")  # setup untouched
        self.assertEqual(v[("spins-6x4-m256", "fail_frac")], "ok")

    def test_wide_spread_is_unresolved(self):
        wide = 2 * self.bound("sweep_s")
        a = run_set([1.0, 1.0 + wide, 1.0 - wide / 2, 1.0 + wide, 1.0 - wide / 2])
        v = verdicts(bench.compare(a, copy.deepcopy(a), BENCH))
        self.assertEqual(v[("spins-6x4-m256", "sweep_s")], "unresolved")
        # unless every run of B beats every run of A
        b = run_set([0.5] * 5)
        v = verdicts(bench.compare(a, b, BENCH))
        self.assertEqual(v[("spins-6x4-m256", "sweep_s")], "ok")

    def test_rising_failure_fraction_is_rejected(self):
        a = run_set([1.0] * 5)
        b = run_set([1.0] * 5, failed={2})
        rows = bench.compare(a, b, BENCH)
        self.assertEqual(verdicts(rows)[("spins-6x4-m256", "fail_frac")], "regressed")
        self.assertEqual(verdicts(bench.compare(b, a, BENCH))[("spins-6x4-m256", "fail_frac")],
                         "ok")

    def test_sets_of_other_seeds_or_lengths_are_refused(self):
        a = run_set([1.0] * 5)
        for key, value in (("seed", 2), ("seconds", a["seconds"] + 1)):
            b = copy.deepcopy(a)
            b[key] = value
            with self.assertRaisesRegex(ValueError, key):
                bench.compare(a, b, BENCH)


def write_trace(events, dropped=0):
    f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    f.write('{"displayTimeUnit":"ms","traceEvents":[')
    lines = ['{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"main"}}']
    for pid, tid, name, ts, dur in events:
        lines.append(json.dumps({"ph": "X", "pid": pid, "tid": tid, "name": name, "cat": "x",
                                 "ts": ts, "dur": dur}, separators=(",", ":")))
    f.write(",".join("\n" + x for x in lines))
    f.write(f'\n],"otherData":{{"dropped_events":{dropped}}}}}\n')
    f.close()
    return f.name


class TraceTest(unittest.TestCase):
    # Two steady sweeps of 1000 µs on the main lane, recorded in end order as
    # the tracer does; a ramp sweep and a worker lane around them.
    EVENTS = [
        (0, 0, "dmrg.sweep", 0.0, 500.0), (0, 0, "bench.sweep.ramp", 0.0, 500.0),
        (0, 0, "bench.svd", 1100.0, 300.0), (0, 0, "dmrg.bond", 1050.0, 900.0),
        (0, 0, "dmrg.sweep", 1010.0, 980.0), (0, 0, "bench.sweep.steady", 1000.0, 1000.0),
        (0, 0, "bench.svd", 2100.0, 500.0), (0, 0, "dmrg.bond", 2050.0, 900.0),
        (0, 0, "dmrg.sweep", 2010.0, 980.0), (0, 0, "bench.sweep.steady", 2000.0, 1000.0),
        (0, 1, "symm.bin", 100.0, 100.0), (0, 1, "symm.bin", 1200.0, 100.0),
        (0, 1, "symm.bin", 2200.0, 300.0),
    ]

    def test_fold_self_times(self):
        path = write_trace(self.EVENTS)
        try:
            p = trace_profile.fold(path)
        finally:
            os.unlink(path)
        self.assertEqual(p["steady_sweeps"], 2)
        self.assertAlmostEqual(p["steady_s"], 1000e-6)
        self.assertAlmostEqual(p["rows"]["bench.svd"]["self_s"], 400e-6)
        self.assertAlmostEqual(p["rows"]["dmrg.bond"]["self_s"], 500e-6)
        self.assertAlmostEqual(p["rows"]["dmrg.sweep"]["self_s"], 80e-6)
        self.assertAlmostEqual(p["unattributed_s"], 20e-6)
        self.assertNotIn("bench.sweep.ramp", p["rows"])
        self.assertEqual(p["counts"]["symm.bin"], 1.0)  # the ramp's bin is outside
        self.assertEqual(list(p["lanes"]), ["rank 0 thread-1"])
        self.assertAlmostEqual(p["lanes"]["rank 0 thread-1"]["symm.bin"], 200e-6)

    def test_dropped_events_are_refused(self):
        path = write_trace(self.EVENTS, dropped=5)
        try:
            with self.assertRaisesRegex(trace_profile.TraceError, "dropped 5 events"):
                trace_profile.fold(path)
        finally:
            os.unlink(path)


if __name__ == "__main__":
    unittest.main()
