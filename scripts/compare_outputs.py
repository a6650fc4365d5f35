#!/usr/bin/env python3
"""Check that two checkouts write byte-identical run outputs.

In each checkout, a fresh interpreter with that checkout's ``src/`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1`` runs

    mhd2d run --config configs/oscillating.cfg --output-dir <temporary>

(the config path is taken inside each checkout), and the two runs'
``ledger.csv`` and ``final.mhdckpt`` are compared byte for byte.  Then each
side restarts from its own ``final.mhdckpt`` (the same config with
``[initial] checkpoint`` set and ``T`` 0.25 later), and the restarted
runs' ``ledger.csv`` and ``final.mhdckpt`` are compared the same way.
Last, each checkout runs ``scripts/run_all_experiments.py`` (calibration and
the nine experiments at their defaults, about a minute), and its
``calibration.txt``, ``summary.csv`` and every ``report_*.csv`` are compared
byte for byte; ``timings.json`` holds wall times and is skipped.

    python scripts/compare_outputs.py --parent ../parent --change .

Exit status: 0 when every file matches, 1 on a mismatch (the first
differing file and the offset of its first differing byte are printed, or
the file one side lacks), 2 when a run fails (the last lines of its stderr
are printed).  A failed experiment assertion (exit 4 of
``run_all_experiments.py``) still writes its reports, so they are compared.
"""

from __future__ import annotations

import argparse
import configparser
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import STDERR_TAIL

FILES = ("ledger.csv", "final.mhdckpt")
EXPERIMENT_FILES = ("calibration.txt", "summary.csv")  # and every report_*.csv
RESTART_EXTRA_T = 0.25  # how much further the restarted run goes


def run_side(checkout: Path, cmd: list, *, label: str, ok=(0,)) -> bool:
    """``python cmd...`` in ``checkout``; False (after printing why) if its exit is not in ok."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, *cmd], cwd=checkout, env=env, capture_output=True,
                          text=True)
    if proc.returncode not in ok:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        print(f"{label}: {' '.join(cmd[:3])} exited {proc.returncode} in {checkout}; "
              f"the last lines of its stderr:\n{tail}", file=sys.stderr)
        return False
    return True


def write_restart_config(config: Path, checkpoint: Path, path: Path) -> None:
    """``config`` restarted from ``checkpoint`` and run RESTART_EXTRA_T further."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep the keys' case
    cp.read(config, encoding="utf-8")
    if not cp.has_section("initial"):
        cp.add_section("initial")
    cp["initial"]["checkpoint"] = str(checkpoint)
    cp["time"]["T"] = repr(float(cp["time"]["T"]) + RESTART_EXTRA_T)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def first_difference(a: bytes, b: bytes) -> int | None:
    """Offset of the first differing byte (or of the shorter end), None if equal."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def compare(leg: str, outs: dict, names) -> bool:
    """Print whether each named file is byte-identical on both sides; False at the first
    that is not."""
    for name in names:
        paths = {side: out / name for side, out in outs.items()}
        lacking = [side for side, path in paths.items() if not path.exists()]
        if lacking:
            print(f"{leg} {name}: missing on the {' and '.join(lacking)} side")
            return False
        data = {side: path.read_bytes() for side, path in paths.items()}
        at = first_difference(data["parent"], data["change"])
        if at is not None:
            print(f"{leg} {name} differs: first differing byte at offset {at} "
                  f"({len(data['parent'])} bytes in the parent, "
                  f"{len(data['change'])} in the change)")
            return False
        print(f"{leg} {name}: identical ({len(data['parent'])} bytes)")
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--config", default="configs/oscillating.cfg",
                    help="run config, relative to each checkout (default: %(default)s)")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        for leg in ("direct", "restart"):
            outs = {side: tmp / leg / side for side in sides}
            for side, checkout in sides.items():
                config = args.config
                if leg == "restart":
                    config = tmp / f"{side}_restart.cfg"
                    write_restart_config(checkout / args.config,
                                         tmp / "direct" / side / "final.mhdckpt", config)
                cmd = ["-m", "mhd2d.cli", "run", "--config", str(checkout / config),
                       "--output-dir", str(outs[side])]
                if not run_side(checkout, cmd, label=f"{side} ({leg})"):
                    return 2
            if not compare(leg, outs, FILES):
                return 1
        outs = {side: tmp / "experiments" / side for side in sides}
        for side, checkout in sides.items():
            cmd = [str(checkout / "scripts" / "run_all_experiments.py"), "--output-dir",
                   str(outs[side])]
            if not run_side(checkout, cmd, label=f"{side} (experiments)", ok=(0, 4)):
                return 2
        reports = sorted({p.name for out in outs.values() for p in out.glob("report_*.csv")})
        if not compare("experiments", outs, EXPERIMENT_FILES + tuple(reports)):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
