#!/usr/bin/env python3
"""Compare two checkouts on the benchmark with alternated pairs of runs.

Runs ``perfbench/run.py`` of a parent and of a change checkout one after the
other, N times per workload, and swaps which side goes first on every pair,
so that a drift of the host's speed hits both sides alike.  Each run is a
fresh interpreter in its own checkout, which imports the package from that
checkout's ``src/``.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload absorb-series --pairs 10 --seconds 15 --out bench_pairs.json

The JSON written holds, per workload and per end-to-end metric of
``BENCHMARK.json``: every pair's values, the medians and interquartile
ranges of both sides, the pairs the change wins and the relative change of
the medians.  ``run_s`` and ``setup_s`` also appear unscaled (``raw_*``),
read from the record that each run writes under ``.bench_results/``: the
scaled times depend on the speed probe, the raw ones do not.  The
environment stamp of each side's first run is kept.  After the timed pairs,
each side runs the workload once more under the span tracer (``--trace 1
--seconds 0``), and the per-layer counts, ratios and byte counts of
``BENCHMARK.json`` (exact, unlike times) are stored beside the timings.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RAW_METRICS = ("run_s", "setup_s")
TRACED_UNITS = ("count", "ratio", "bytes")  # per-layer metrics that do not depend on timing


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0):
    """One benchmark run: (metrics, raw times, environment stamp, ok)."""
    results = checkout / ".bench_results"
    before = set(results.glob("*.json")) if results.is_dir() else set()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    prefix = f"{workload}-seed{seed}-trace{trace}-"
    new = [p for p in set(results.glob(f"{prefix}*.json")) - before]
    if len(new) != 1:
        raise RuntimeError(f"{checkout}: expected one new {prefix}* record, found {len(new)}")
    record = json.loads(new[0].read_text())
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    return metrics, record.get("raw"), record["env"], summary["correct"]


def quartiles(xs):
    """(q1, median, q3) of the samples, inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent, change, better):
    """Medians, IQRs and the change's wins for one metric's paired samples."""
    pq, cq = quartiles(parent), quartiles(change)
    if better == "lower":
        wins = sum(c < p for p, c in zip(parent, change))
    else:
        wins = sum(c > p for p, c in zip(parent, change))
    gain = (pq[1] - cq[1]) if better == "lower" else (cq[1] - pq[1])
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": pq[1],
        "change_median": cq[1],
        "parent_iqr": pq[2] - pq[0],
        "change_iqr": cq[2] - cq[0],
        "relative_change": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
        "change_wins": wins,
        "pairs": len(parent),
        "median_gain_exceeds_parent_iqr": gain > pq[2] - pq[0],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("bench_pairs.json"))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    traced_names = [m["name"] for m in spec["per_layer"] if m["unit"] in TRACED_UNITS]

    report = {
        "command": f"perfbench/run.py --seed {args.seed} --seconds {args.seconds} --trace 0",
        "checkouts": {k: str(v) for k, v in sides.items()},
        "host": {"platform": platform.platform(), "python": platform.python_version()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    for wl in args.workload:
        samples = {side: [] for side in sides}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                metrics, raw, env, ok = run_once(sides[side], wl, args.seed, args.seconds)
                samples[side].append({"metrics": metrics, "raw": raw, "env": env, "ok": ok})
                print(f"{wl} pair {k} {side}: step_ms_p50 {metrics.get('step_ms_p50', float('nan')):.4g}"
                      f" run_s {metrics['run_s']:.4g} (raw {raw['run_s']:.4g}) ok {ok}", flush=True)
        entry = {"order": "parent first on even pairs, change first on odd pairs",
                 "all_correct": all(s["ok"] for side in samples.values() for s in side),
                 "env": {side: runs[0]["env"] for side, runs in samples.items()},
                 "metrics": {}}
        for name, direction in better.items():
            par = [s["metrics"][name] for s in samples["parent"]]
            chg = [s["metrics"][name] for s in samples["change"]]
            entry["metrics"][name] = summarize(par, chg, direction)
        for name in RAW_METRICS:
            par = [s["raw"][name] for s in samples["parent"]]
            chg = [s["raw"][name] for s in samples["change"]]
            entry["metrics"][f"raw_{name}"] = summarize(par, chg, "lower")
        traced = {side: run_once(path, wl, args.seed, 0, trace=1) for side, path in sides.items()}
        entry["traced"] = {
            "command": f"perfbench/run.py --seed {args.seed} --seconds 0 --trace 1",
            "all_correct": all(run[3] for run in traced.values()),
            "metrics": {k: {side: run[0].get(k) for side, run in traced.items()}
                        for k in traced_names},
        }
        report["workloads"][wl] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for wl, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            rel = m["relative_change"]
            print(f"{wl} {name}: {m['parent_median']:.4g} -> {m['change_median']:.4g}"
                  f" ({'' if rel is None else f'{100 * rel:+.1f}%'}), change wins"
                  f" {m['change_wins']}/{m['pairs']}, parent IQR {m['parent_iqr']:.3g}")
        for name, m in entry["traced"]["metrics"].items():
            print(f"{wl} traced {name}: {m['parent']} -> {m['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
