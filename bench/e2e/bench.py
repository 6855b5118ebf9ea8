#!/usr/bin/env python3
"""Build, run, gate and compare the end-to-end DMRG benchmark (bench_e2e).

  bench.py one --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last line of stdout is the result:
      {"correct", "attempted", "failed", "metrics"} with every end-to-end
      metric of BENCHMARK.json (--trace 0) or every per-layer metric
      (--trace 1, from a traced run folded by trace_profile.py).
  bench.py run [--runs 10] [--sets 1] [--seed 1] [--out DIR]
      Every workload in its own process, interleaved run by run (and set by
      set), each run BENCHMARK.json's run_seconds long, printing median, q1,
      q3 and n of every metric per workload and writing one JSON document
      per set. Ten runs keep the quartiles clear of one or two runs caught
      in a slow phase of the host.
  bench.py compare A.json B.json [--out RECORD.json]
      One row per (workload, metric) with a verdict: ok, regressed or
      unresolved, by the bounds of BENCHMARK.json. Exits 1 on any regressed
      or unresolved row, or when the failure fraction rose; refuses sets run
      at different seeds or run lengths.
  bench.py trace [--seed 1] [--workload W ...]
      Each workload once untraced and once traced; prints the per-layer
      profile of the steady sweeps and the tracing overhead.

The bench_e2e program is built from source on first use into .bench_build/e2e/
at the repository root; run outputs and traces land there too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import trace_profile  # noqa: E402

ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"
RUNS = BUILD / "runs"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 150

# Correctness gates. The reference is the converged J1–J2 6×4 (J2 = 0.5)
# ground-state energy; both spins workloads reach it within the tolerance.
GATES = {
    "recompute_rel": 1e-9,
    "spins_e_ref": -12.4399613,
    "spins_e_rel": 1e-5,
}


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------
def build():
    """Configures (once) and builds bench_e2e; exits 1 when that fails."""
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("bench.py: no repository CMakeLists.txt to build the library from")
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("bench.py: cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = [cmake, "-S", str(HERE), "-B", str(BUILD), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", str(BUILD), "--target", "bench_e2e", "--parallel", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit(f"bench.py: build step failed: {' '.join(cmd)}")


def child_env():
    # The library's knobs (tracing, fault injection, spawn mode, backend,
    # threads) would change what is measured: bench_e2e sets its own.
    return {k: v for k, v in os.environ.items() if not k.startswith("TT_")}


def run_bench(workload, seed, seconds, trace=False, max_solves=None):
    """Runs bench_e2e once. Returns (exit code, run document or None, trace path)."""
    RUNS.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-s{seed}-{'traced' if trace else 'plain'}"
    out = RUNS / f"{tag}.json"
    trace_path = RUNS / f"{workload}.trace.json"
    for p in (out, trace_path) if trace else (out,):
        if p.exists():
            p.unlink()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out)]
    if trace:
        cmd += ["--trace", str(trace_path)]
    if max_solves is not None:
        cmd += ["--max-solves", str(max_solves)]
    # A new process group, so a timeout also takes down the scheduler's worker ranks.
    proc = subprocess.Popen(cmd, env=child_env(), start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = -signal.SIGKILL
        deadline = time.monotonic() + 10  # the ranks are not our children: poll
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    doc = None
    if code == 0 and out.is_file():
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
    return code, doc, trace_path


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------
def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def gate_solve(doc, solve, label):
    """Failure messages of one solve (the serial pass included)."""
    fails = []
    e, rec = solve.get("energy"), solve.get("recomputed")
    if not (_finite(e) and _finite(rec)):
        return [f"{label}: non-finite energy ({e}, recomputed {rec})"]
    if abs(e - rec) > GATES["recompute_rel"] * abs(e):
        fails.append(f"{label}: recomputed energy {rec!r} differs from reported {e!r}")
    if doc["config"]["model"] == "spins":
        ref = GATES["spins_e_ref"]
        if abs(e - ref) > GATES["spins_e_rel"] * abs(ref):
            fails.append(f"{label}: energy {e!r} outside {ref} ± {GATES['spins_e_rel']:g}·|E_ref|")
    return fails


def gate(doc):
    """(attempted, failed, messages) over every solve of a run document."""
    solves = [(f"solve {i}", s) for i, s in enumerate(doc.get("solves", []))]
    if doc.get("serial") is not None:
        solves.append(("serial pass", doc["serial"]))
    if not doc.get("solves"):
        return 1, 1, ["run finished no solve"]
    failed, msgs = 0, []
    for label, s in solves:
        f = gate_solve(doc, s, label)
        if label == "solve 0" and doc.get("serial") is not None:
            if s.get("energy_bits") != doc["serial"].get("energy_bits"):
                f.append(f"solve 0: ranked energy bits {s.get('energy_bits')} != "
                         f"serial pass {doc['serial'].get('energy_bits')}")
        failed += bool(f)
        msgs += f
    return len(solves), failed, msgs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


def end_to_end(doc):
    """Every end-to-end metric of one untraced run document."""
    solves = doc["solves"]
    steady = [x for s in solves for x in s["steady_s"]]
    bonds = [x for s in solves for x in s["bond_s"]]
    return {
        "sweep_s": statistics.median(steady),
        "bond_p50_s": statistics.median(bonds),
        "bond_p90_s": _p90(bonds),
        "solve_s": statistics.median(s["solve_s"] for s in solves),
        "setup_s": statistics.median(doc["setup_s"]),
        # The first solve's: later solves only add allocator fragmentation.
        "peak_rss_mb": solves[0]["peak_rss_mb"],
    }


def per_layer(doc, profile):
    """Every per-layer metric of one traced run: per steady sweep."""
    lay = doc["layers"]
    n = max(1, lay["sweeps"])
    contract_s = lay["theta_s"] + lay["matvec_s"] + lay["env_s"]
    launched = lay["prefetch_launched"]
    steady = [x for s in doc["solves"] for x in s["steady_s"]]
    serial = doc.get("serial")
    speedup = (statistics.median(serial["steady_s"]) / statistics.median(steady)
               if serial else 0.0)
    return {
        "engine.svd.calls": lay["svd_calls"] / n,
        "engine.svd_s": lay["svd_s"] / n,
        "engine.matvec.calls": lay["matvec_calls"] / n,
        "engine.matvec_s": lay["matvec_s"] / n,
        "engine.env.calls": lay["env_calls"] / n,
        "engine.env_s": lay["env_s"] / n,
        "engine.theta_s": lay["theta_s"] / n,
        "engine.flops": lay["flops"] / n,
        "engine.gflops": lay["flops"] / contract_s / 1e9 if contract_s > 0 else 0.0,
        "symm.bins": profile["counts"].get("symm.bin", 0.0),
        "env.prefetch_launched": launched / n,
        "env.prefetch_hit_ratio": lay["prefetch_hits"] / launched if launched else 0.0,
        "env.prefetch_wait_s": lay["prefetch_wait_s"] / n,
        "sched.contractions": lay["sched_contractions"] / n,
        "sched.bytes_mb": lay["sched_bytes"] / n / 1e6,
        "sched.comm_s": lay["sched_comm_s"] / n,
        "sched.critical_busy_s": lay["sched_critical_busy_s"] / n,
        "sched.imbalance_s": lay["sched_imbalance_s"] / n,
        "sched.retries": lay["sched_retries"] / n,
        "sched.speedup_vs_serial": speedup,
        "davidson.matvecs": profile["rows"].get("davidson.matvec", {}).get("count", 0.0),
        "davidson.self_s": trace_profile.self_s(profile, "dmrg.davidson", "davidson.matvec"),
        "dmrg.bond.self_s": trace_profile.self_s(profile, "dmrg.bond"),
        "sweep.unattributed_s": profile["unattributed_s"],
        "trace.sweep_s": statistics.median(steady),
    }


def units(bench, kind):
    return {m["name"]: m["unit"] for m in bench[kind]}


def traced_run(workload, seed, seconds):
    """(code, doc, gate result, profile) of one traced single-solve run."""
    code, doc, trace_path = run_bench(workload, seed, seconds, trace=True, max_solves=1)
    if doc is None:
        return code, None, None, None
    if doc.get("trace_events_dropped", 0) > 0:
        raise trace_profile.TraceError(
            f"{workload}: the tracer dropped {doc['trace_events_dropped']} events")
    return code, doc, gate(doc), trace_profile.fold(trace_path)


def cmd_one(args):
    bench = load_benchmark()
    build()
    if args.trace:
        try:
            code, doc, gates, profile = traced_run(args.workload, args.seed, args.seconds)
        except trace_profile.TraceError as e:
            sys.exit(f"bench.py: {e}")
        kind, values = "per_layer", (per_layer(doc, profile) if doc else None)
    else:
        code, doc, _ = run_bench(args.workload, args.seed, args.seconds)
        gates = gate(doc) if doc else None
        kind, values = "end_to_end", (end_to_end(doc) if doc else None)
    if doc is None:
        sys.exit(f"bench.py: bench_e2e exited with code {code} and wrote no run document")
    attempted, failed, msgs = gates
    for m in msgs:
        print(f"gate failed: {m}", file=sys.stderr)
    u = units(bench, kind)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u[k]} for k in u},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# run / compare
# ---------------------------------------------------------------------------
def summary(values):
    """(median, q1, q3, n)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def spread(values):
    """Run-to-run spread: (q3 - q1) / median."""
    med, q1, q3, _ = summary(values)
    return (q3 - q1) / med


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_entry(workload, seed, code, doc):
    """The set document's record of one run: gates, metrics and registry."""
    entry = {"workload": workload, "seed": seed, "exit_code": code}
    if doc is None:
        entry.update(ok=False, failures=[f"exit code {code}"], metrics={}, registry=None)
        return entry
    attempted, failed, msgs = gate(doc)
    entry.update(ok=failed == 0, attempted=attempted, failed=failed, failures=msgs,
                 metrics=end_to_end(doc), registry=doc["registry"])
    return entry


def print_set(doc, bench, out=sys.stdout):
    u = units(bench, "end_to_end")
    print(f"set {doc['set']}: {doc['git_sha'][:12]} {doc['build_type']} "
          f"backend={doc['backend']} nproc={doc['nproc']}", file=out)
    print(f"{'workload':<22}{'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}",
          file=out)
    for w in doc["workloads"]:
        runs = [r for r in doc["runs"] if r["workload"] == w]
        ok = [r for r in runs if r["ok"]]
        for name in u:
            vals = [r["metrics"][name] for r in ok]
            if vals:
                med, q1, q3, n = summary(vals)
                print(f"{w:<22}{name:<14}{u[name]:<6}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{n:>4}",
                      file=out)
        print(f"{w:<22}{'fail_frac':<14}{'-':<6}{fail_frac(runs):>12.3g}{'':>24}{len(runs):>4}",
              file=out)


def fail_frac(runs):
    return sum(not r["ok"] for r in runs) / len(runs) if runs else 0.0


def cmd_run(args):
    bench = load_benchmark()
    build()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    names = [chr(ord("A") + i) for i in range(args.sets)]
    sets = {}
    for s in names:
        sets[s] = {"schema": "bench-e2e-set-v1", "set": s, "git_sha": git_sha(),
                   "build_type": BUILD_TYPE, "backend": None, "nproc": os.cpu_count(),
                   "seed": args.seed, "seconds": seconds, "workloads": workloads, "runs": []}
    # Interleaved run by run (A1 B1 A2 B2 …) and workload by workload: host
    # drift then lands on every set and workload alike.
    for i in range(args.runs):
        for s in names:
            for w in workloads:
                t0 = time.monotonic()
                code, doc, _ = run_bench(w, args.seed, seconds)
                entry = run_entry(w, args.seed, code, doc)
                entry["index"] = i
                sets[s]["runs"].append(entry)
                if doc is not None:
                    sets[s]["backend"] = doc["config"]["backend"]
                status = "ok" if entry["ok"] else "FAILED " + "; ".join(entry["failures"])
                print(f"[{s}{i + 1}] {w}: {time.monotonic() - t0:.1f} s {status}",
                      file=sys.stderr)
    out_dir = Path(args.out) if args.out else RUNS
    out_dir.mkdir(parents=True, exist_ok=True)
    for s in names:
        path = out_dir / f"set-{s}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(sets[s], f, indent=1)
        print_set(sets[s], bench)
        print(f"wrote {path}")
    return 0 if all(r["ok"] for s in names for r in sets[s]["runs"]) else 1


def classify(a, b, bound, better):
    """(verdict, worse, spread) of B against A: ok, regressed or unresolved."""
    sign = 1.0 if better == "lower" else -1.0
    ma = statistics.median(a)
    worse = sign * (statistics.median(b) - ma) / ma
    wide = max(spread(a), spread(b))
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if wide > bound and not b_always_better:
        return "unresolved", worse, wide
    if worse > bound:
        return "regressed", worse, wide
    return "ok", worse, wide


def compare(a, b, bench):
    """Rows (workload, metric, verdict, detail) of B against A.

    Raises ValueError when the sets were run at different seeds or run
    lengths: their metrics would not measure the same thing.
    """
    for key in ("seed", "seconds"):
        if a.get(key) != b.get(key):
            raise ValueError(f"the sets differ in {key}: {a.get(key)} vs {b.get(key)}")
    rows = []
    for w in [x for x in a["workloads"] if x in b["workloads"]]:
        ra = [r for r in a["runs"] if r["workload"] == w]
        rb = [r for r in b["runs"] if r["workload"] == w]
        fa, fb = fail_frac(ra), fail_frac(rb)
        rows.append((w, "fail_frac", "regressed" if fb > fa else "ok",
                     f"{fa:.3g} -> {fb:.3g}"))
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in ra if r["ok"]]
            vb = [r["metrics"][m["name"]] for r in rb if r["ok"]]
            if not va or not vb:
                rows.append((w, m["name"], "unresolved", "no successful runs"))
                continue
            v, worse, wide = classify(va, vb, m["bound"], m["better"])
            rows.append((w, m["name"], v,
                         f"{statistics.median(va):.6g} -> {statistics.median(vb):.6g} {m['unit']} "
                         f"({100 * worse:+.1f}% worse, spread {100 * wide:.1f}%, "
                         f"bound {100 * m['bound']:.0f}%)"))
    return rows


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.a, encoding="utf-8") as f:
        a = json.load(f)
    with open(args.b, encoding="utf-8") as f:
        b = json.load(f)
    try:
        rows = compare(a, b, bench)
    except ValueError as e:
        sys.exit(f"bench.py compare: {e}")
    print(f"compare {args.a} (A) -> {args.b} (B)")
    for w, m, v, detail in rows:
        print(f"{w:<22}{m:<14}{v:<12}{detail}")
    bad = [r for r in rows if r[2] != "ok"]
    print(f"{len(rows)} rows, {len(bad)} not ok")
    if args.out:
        # A self-contained record: both sets and the verdicts drawn from them.
        record = {"schema": "bench-e2e-compare-v1", "bounds": bench["end_to_end"],
                  "a": a, "b": b,
                  "rows": [{"workload": w, "metric": m, "verdict": v, "detail": d}
                           for w, m, v, d in rows]}
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
        print(f"wrote {args.out}")
    return 1 if bad else 0


def cmd_trace(args):
    bench = load_benchmark()
    build()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    status = 0
    for w in workloads:
        print(f"== {w} (seed {args.seed})")
        code, plain, _ = run_bench(w, args.seed, bench["run_seconds"], max_solves=1)
        try:
            tcode, doc, gates, profile = traced_run(w, args.seed, bench["run_seconds"])
        except trace_profile.TraceError as e:
            print(f"refused: {e}")
            status = 1
            continue
        if plain is None or doc is None:
            print(f"bench_e2e failed (exit codes {code}, {tcode})")
            status = 1
            continue
        untraced = statistics.median(x for s in plain["solves"] for x in s["steady_s"])
        trace_profile.print_profile(profile, untraced)
        layers = per_layer(doc, profile)
        for k, v in layers.items():
            print(f"  {k:<26}{v:>14.6g}")
        if gates[1]:
            print("gates failed: " + "; ".join(gates[2]))
            status = 1
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("one", help="one run of one workload; last stdout line is the result")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_one)
    p = sub.add_parser("run", help="interleaved runs of every workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("compare", help="verdict per (workload, metric) of set B against set A")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", default=None, help="also write both sets and the rows here")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("trace", help="traced per-layer profile of every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.set_defaults(fn=cmd_trace)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
