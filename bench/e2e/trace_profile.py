#!/usr/bin/env python3
"""Fold a bench_e2e Chrome trace into a per-layer profile of the steady sweeps.

The steady sweeps are the ``bench.sweep.steady`` spans bench_e2e records
around each steady ``Dmrg::sweep`` call; the lane that holds them is the
rank-0 main lane. For that lane the fold gives, per span name and per steady
sweep, the count, the inclusive time and the self time (duration minus the
part its child spans cover). The self time of ``bench.sweep.steady`` itself
is the ``unattributed`` row. Every other lane (pool workers, the prefetch
worker, worker ranks) gets the time its outermost spans cover inside the
steady sweeps, per span name: for a worker rank that splits task execution
(``sched.worker_task``) from waiting for the next frame (``wire.recv``).
Span counts are taken over all lanes.

    python3 bench/e2e/trace_profile.py TRACE.json [--untraced-sweep-s S]

With ``--untraced-sweep-s`` (the median steady sweep of an untraced run of
the same workload) it also prints the tracing overhead. The fold streams the
file one event per line, as ``rt::Trace::write_chrome_json`` writes it, so a
trace of a million spans folds in little memory. A trace that dropped events
is refused.
"""

from __future__ import annotations

import argparse
import array
import bisect
import json
import re
import sys
from collections import defaultdict

STEADY = "bench.sweep.steady"
_DROPPED = re.compile(r'"dropped_events"\s*:\s*(\d+)')


class TraceError(Exception):
    pass


def _events(path):
    """Yields (kind, event) for every event line; kind is 'X', 'M' or 'end'."""
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith('{"ph":"X"'):
                yield "X", json.loads(line.rstrip(","))
            elif line.startswith('{"ph":"M"'):
                yield "M", json.loads(line.rstrip(","))
            elif "dropped_events" in line:
                m = _DROPPED.search(line)
                yield "end", int(m.group(1)) if m else None


def _windows(path):
    """Steady-sweep windows [start, end] in µs and the lane that holds them."""
    wins, lane, dropped = [], None, None
    for kind, e in _events(path):
        if kind == "end":
            dropped = e
        elif kind == "X" and e["name"] == STEADY:
            wins.append((e["ts"], e["ts"] + e["dur"]))
            lane = (e["pid"], e["tid"])
    if dropped is None:
        raise TraceError(f"{path}: not a complete Chrome trace (no dropped_events trailer)")
    if dropped > 0:
        raise TraceError(f"{path}: the tracer dropped {dropped} events; the profile would be partial")
    if not wins:
        raise TraceError(f"{path}: no {STEADY} spans")
    wins.sort()
    return wins, lane


def fold(path):
    """Profile of the steady sweeps in one trace; every value is per steady sweep."""
    wins, main = _windows(path)
    win_starts = [w[0] for w in wins]

    def inside(ts, dur):
        i = bisect.bisect_right(win_starts, ts) - 1
        return i >= 0 and ts + dur <= wins[i][1]

    labels = {}
    rows = defaultdict(lambda: [0, 0.0, 0.0])       # main lane: count, incl, self
    counts = defaultdict(int)                       # all lanes
    names = {}                                      # span name -> id
    # lane -> (starts, durations, name ids) of its unclaimed spans
    pending = defaultdict(lambda: (array.array("d"), array.array("d"), array.array("i")))
    for kind, e in _events(path):
        if kind == "M":
            if e["name"] == "thread_name":
                labels[(e["pid"], e["tid"])] = f'rank {e["pid"]} {e["args"]["name"]}'
            continue
        if kind != "X":
            continue
        lane = (e["pid"], e["tid"])
        ts, dur = e["ts"], e["dur"]
        # A lane records each span when it ends, so its spans arrive in end
        # order: a span's children are exactly the unclaimed spans that
        # started inside it, and they sit at the end of the pending list.
        starts, durs, ids = pending[lane]
        child = 0.0
        while starts and starts[-1] >= ts:
            starts.pop()
            ids.pop()
            child += durs.pop()
        starts.append(ts)
        durs.append(dur)
        ids.append(names.setdefault(e["name"], len(names)))
        if not inside(ts, dur):
            continue
        counts[e["name"]] += 1
        if lane == main:
            r = rows[e["name"]]
            r[0] += 1
            r[1] += dur
            r[2] += dur - child

    n = len(wins)
    steady_us = sum(b - a for a, b in wins)
    name_of = {i: k for k, i in names.items()}
    lanes = {}
    for lane, (starts, durs, ids) in sorted(pending.items()):
        if lane == main:
            continue
        spans = defaultdict(float)
        for t, d, i in zip(starts, durs, ids):
            if inside(t, d):
                spans[name_of[i]] += d / n / 1e6
        if spans:
            lanes[labels.get(lane, f"rank {lane[0]} thread-{lane[1]}")] = dict(sorted(spans.items()))
    return {
        "steady_sweeps": n,
        "steady_s": steady_us / n / 1e6,
        "rows": {k: {"count": v[0] / n, "incl_s": v[1] / n / 1e6, "self_s": v[2] / n / 1e6}
                 for k, v in sorted(rows.items())},
        "counts": {k: v / n for k, v in sorted(counts.items())},
        "lanes": lanes,
        "unattributed_s": rows[STEADY][2] / n / 1e6,
    }


def self_s(profile, *names):
    return sum(profile["rows"].get(k, {}).get("self_s", 0.0) for k in names)


def print_profile(p, untraced_sweep_s=None):
    steady = p["steady_s"]
    print(f"steady sweeps: {p['steady_sweeps']}, {steady:.4f} s each (traced)")
    print(f"{'span (rank-0 main lane)':<26}{'count':>10}{'incl s':>11}{'self s':>11}{'self %':>8}")
    for name, r in sorted(p["rows"].items(), key=lambda kv: -kv[1]["self_s"]):
        label = "unattributed" if name == STEADY else name
        print(f"{label:<26}{r['count']:>10.1f}{r['incl_s']:>11.4f}{r['self_s']:>11.4f}"
              f"{100 * r['self_s'] / steady:>7.1f}%")
    attributed = 1.0 - p["unattributed_s"] / steady
    print(f"attributed to named spans: {100 * attributed:.1f}% of steady-sweep wall time")
    for lane, spans in p["lanes"].items():
        cells = ", ".join(f"{k} {v:.4f} s ({100 * v / steady:.0f}%)" for k, v in spans.items())
        print(f"  {lane}: {cells}")
    if untraced_sweep_s:
        print(f"tracing overhead: {100 * (steady / untraced_sweep_s - 1):+.1f}% "
              f"(traced {steady:.4f} s vs untraced {untraced_sweep_s:.4f} s per steady sweep)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    ap.add_argument("--untraced-sweep-s", type=float, default=None)
    args = ap.parse_args(argv)
    try:
        print_profile(fold(args.trace), args.untraced_sweep_s)
    except TraceError as e:
        print(f"trace_profile: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
