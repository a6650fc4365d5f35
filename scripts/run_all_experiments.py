#!/usr/bin/env python3
"""Run the full experiment battery and drop reports under an output directory.

Calibrates the inequality constants first (if no store is given), then runs
every experiment in sequence and writes one CSV per experiment plus the
cumulative summary.  ``timings.json`` beside ``summary.csv`` holds the
``calibrate_constants`` wall time in seconds (null when a store was loaded)
and each experiment's ``runtime_s``.

    python scripts/run_all_experiments.py --output-dir out/ [--calibration PATH]

A store that cannot be read or is malformed, or an unknown ``--skip`` id,
prints one line per fault and exits 2 before anything runs; a failed
experiment assertion exits 4.
"""

import argparse
import json
import os
import sys
import time

from mhd2d.errors import ConfigError
from mhd2d.estimates import CalibrationStore
from mhd2d.ioutil import atomic_write_text
from mhd2d.verify import EXPERIMENTS, REPORT_CSV_HEADER, calibrate_constants

ORDER = [
    "identities",
    "mms",
    "picard",
    "tail",
    "basis-stability",
    "brezis-gallouet",
    "cd",
    "gronwall",
    "absorbing",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output-dir", default="out")
    ap.add_argument("--calibration", default=None, help="existing calibration store")
    ap.add_argument("--skip", default="", help="comma-separated experiment ids to skip")
    args = ap.parse_args()
    skip = {s.strip() for s in args.skip.split(",") if s.strip()}
    errors = [f"--skip: unknown experiment id {name!r} (known: {', '.join(ORDER)})"
              for name in sorted(skip - set(ORDER))]
    store = None
    if args.calibration:
        try:
            store = CalibrationStore.read(args.calibration)
        except ConfigError as exc:
            errors.extend(exc.violations)
    if errors:
        for line in errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    os.makedirs(args.output_dir, exist_ok=True)

    timings = {"calibrate_constants_s": None, "runtime_s": {}}
    if store is not None:
        print(f"loaded calibration from {args.calibration}")
    else:
        t0 = time.perf_counter()
        store = calibrate_constants()
        elapsed = timings["calibrate_constants_s"] = time.perf_counter() - t0
        path = os.path.join(args.output_dir, "calibration.txt")
        store.write(path)
        print(f"calibrated {len(store.values)} constants in {elapsed:.0f}s -> {path}")

    summary = REPORT_CSV_HEADER
    all_ok = True
    for name in ORDER:
        if name in skip:
            continue
        rep = EXPERIMENTS[name](store)
        rep.write(os.path.join(args.output_dir, f"report_{name}.csv"))
        timings["runtime_s"][name] = rep.runtime_s
        summary += rep.csv_rows()
        status = "pass" if rep.passed else "FAIL"
        print(f"{name:<18} {status}  ({rep.runtime_s:.1f}s)")
        for a in rep.assertions:
            print(f"    {a.assertion_id:<28} measured={a.measured:.5g} tol={a.tolerance:.5g}")
        all_ok &= rep.passed
    atomic_write_text(os.path.join(args.output_dir, "summary.csv"), summary)
    atomic_write_text(os.path.join(args.output_dir, "timings.json"), json.dumps(timings, indent=2) + "\n")
    return 0 if all_ok else 4


if __name__ == "__main__":
    sys.exit(main())
