#!/usr/bin/env python3
"""Compare each experiment's wall time in two checkouts in alternated pairs.

Each run is a fresh interpreter that runs the checkout's own
``scripts/run_all_experiments.py`` into a temporary output directory, with
that checkout's ``src/`` on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``,
and reads the ``timings.json`` it writes: the ``calibrate_constants`` wall
time and each experiment's ``runtime_s``.  The run's peak resident set size
(``peak_rss_mb``) is read from the rusage that ``wait4`` returns for it: the
figure ``run_all_experiments.py`` itself writes into ``timings.json``, taken
from outside so that a checkout whose script writes none is measured alike.
Which side goes first swaps on
every pair, so that a drift of the host's speed hits both sides alike.
``--skip`` is passed on to ``run_all_experiments.py``: ``--skip`` with every
experiment id times the calibration alone.

    python scripts/bench_experiments.py --parent ../parent --change . \\
        --pairs 3 --out bench_experiments.json

The JSON written holds every pair's times and peak RSS, the medians,
interquartile ranges and wins of the change per metric (in the shape
``scripts/bench_pairs.py`` writes), the SHA-256 of each run's
``summary.csv``, and whether the two sides' summaries matched in every
pair.  A run that exits non-zero (a failed experiment exits 4) prints the
last lines of its stderr before the script stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import STDERR_TAIL, summarize

TOP_LEVEL = ("wall_s", "peak_rss_mb", "calibrate_constants_s")  # the metrics not under runtime_s


def run_once(checkout: Path, *, label: str, skip: str):
    """One fresh-interpreter battery in ``checkout``:
    (timings, wall_s, peak RSS in MiB, summary.csv text)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(checkout / "scripts" / "run_all_experiments.py"), "--output-dir"]
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + [out, "--skip", skip], cwd=checkout, env=env,
                                stdout=subprocess.DEVNULL, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            tail = "\n".join(err.read().splitlines()[-STDERR_TAIL:])
            print(f"{label}: run_all_experiments exited {proc.returncode} in {checkout}; "
                  f"the last lines of its stderr:\n{tail}", file=sys.stderr, flush=True)
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        timings = json.loads(Path(out, "timings.json").read_text())
        summary = Path(out, "summary.csv").read_text()
    return timings, wall, usage.ru_maxrss / 1024, summary  # ru_maxrss is in KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--out", type=Path, default=Path("bench_experiments.json"))
    ap.add_argument("--skip", default="", help="comma-separated experiment ids to skip")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    same_summary = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        summaries = {}
        for side in order:
            timings, wall, rss, summaries[side] = run_once(sides[side], label=f"pair {k} {side}",
                                                           skip=args.skip)
            runs[side].append({
                "wall_s": wall,
                "peak_rss_mb": rss,
                "calibrate_constants_s": timings["calibrate_constants_s"],
                "runtime_s": timings["runtime_s"],
                "summary_sha256": hashlib.sha256(summaries[side].encode()).hexdigest(),
            })
            print(f"pair {k} {side}: wall_s {wall:.2f} peak_rss_mb {rss:.1f} " + " ".join(
                f"{name} {s:.2f}" for name, s in timings["runtime_s"].items()), flush=True)
        same_summary.append(summaries["parent"] == summaries["change"])

    def series(side, name):
        if name in TOP_LEVEL:
            return [r[name] for r in runs[side]]
        return [r["runtime_s"][name] for r in runs[side]]

    names = list(TOP_LEVEL) + list(runs["parent"][0]["runtime_s"])
    report = {
        "command": "scripts/run_all_experiments.py in a fresh interpreter per run, "
                   "OPENBLAS_NUM_THREADS=1",
        "checkouts": {k: str(v) for k, v in sides.items()},
        "host": {"platform": platform.platform(), "python": platform.python_version()},
        "order": "parent first on even pairs, change first on odd pairs",
        "runs": runs,
        "summary_identical": same_summary,
        "summary_identical_every_pair": all(same_summary),
        "metrics": {name: summarize(series("parent", name), series("change", name), "lower")
                    for name in names},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in report["metrics"].items():
        rel = m["relative_change"]
        print(f"{name:<22} {m['parent_median']:.4g} -> {m['change_median']:.4g}"
              f" ({'' if rel is None else f'{100 * rel:+.1f}%'}), change wins"
              f" {m['change_wins']}/{m['pairs']}, parent IQR {m['parent_iqr']:.3g}")
    print(f"summary.csv identical in every pair: {all(same_summary)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
