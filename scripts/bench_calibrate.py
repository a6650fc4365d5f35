#!/usr/bin/env python3
"""Compare the ``calibrate_constants`` wall time of two checkouts in alternated pairs.

Each run is a fresh interpreter in its own checkout, with that checkout's
``src/`` on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``.  It imports
``mhd2d.verify`` and times one ``calibrate_constants()`` call, which runs
the calib-osc strong run, the lifting and parabolic checks and the
absorbing run.  Which side goes first swaps on every pair, so that a drift
of the host's speed hits both sides alike.

    python scripts/bench_calibrate.py --parent ../parent --change . \\
        --pairs 5 --out bench_calibrate.json

The JSON written holds every pair's times (the calibration and, apart, the
package import), the medians, interquartile ranges and wins of the change
(in the shape ``scripts/bench_pairs.py`` writes), the SHA-256 of each run's
``CalibrationStore.to_text()``, and whether the two sides' texts matched in
every pair.  A run that exits non-zero prints the last lines of its stderr
before the script stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import STDERR_TAIL, summarize

RUN = """
import json, time
t0 = time.perf_counter()
from mhd2d.verify import calibrate_constants
t1 = time.perf_counter()
text = calibrate_constants().to_text()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "calibrate_s": t2 - t1, "text": text}))
"""


def run_once(checkout: Path, *, label: str):
    """One fresh-interpreter calibration in ``checkout``: (import_s, calibrate_s, text)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", RUN], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        print(f"{label}: calibrate_constants exited {proc.returncode} in {checkout}; "
              f"the last lines of its stderr:\n{tail}", file=sys.stderr, flush=True)
        proc.check_returncode()
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["import_s"], out["calibrate_s"], out["text"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", type=Path, default=Path("bench_calibrate.json"))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    same_text = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        texts = {}
        for side in order:
            import_s, calibrate_s, texts[side] = run_once(sides[side], label=f"pair {k} {side}")
            digest = hashlib.sha256(texts[side].encode()).hexdigest()
            runs[side].append({"import_s": import_s, "calibrate_s": calibrate_s,
                               "to_text_sha256": digest})
            print(f"pair {k} {side}: calibrate_s {calibrate_s:.3f} import_s {import_s:.3f}",
                  flush=True)
        same_text.append(texts["parent"] == texts["change"])

    report = {
        "command": "calibrate_constants().to_text() in a fresh interpreter, "
                   "OPENBLAS_NUM_THREADS=1",
        "checkouts": {k: str(v) for k, v in sides.items()},
        "host": {"platform": platform.platform(), "python": platform.python_version()},
        "order": "parent first on even pairs, change first on odd pairs",
        "runs": runs,
        "to_text_identical": same_text,
        "to_text_identical_every_pair": all(same_text),
        "metrics": {
            name: summarize([r[name] for r in runs["parent"]],
                            [r[name] for r in runs["change"]], "lower")
            for name in ("calibrate_s", "import_s")
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in report["metrics"].items():
        rel = m["relative_change"]
        print(f"{name}: {m['parent_median']:.4g} -> {m['change_median']:.4g}"
              f" ({'' if rel is None else f'{100 * rel:+.1f}%'}), change wins"
              f" {m['change_wins']}/{m['pairs']}, parent IQR {m['parent_iqr']:.3g}")
    print(f"to_text identical in every pair: {all(same_text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
