#!/usr/bin/env python3
"""Check that two checkouts write byte-identical run outputs.

For each run config (``--config``, repeatable; by default
``configs/oscillating.cfg``, then ``configs/fast_flow.cfg``, the one
checked-in config whose steps fall back to the factored transport pair, and
``configs/from_rest.cfg``, the one whose first step advects with u = 0), a
fresh interpreter in each checkout, with that checkout's ``src/`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``, runs

    mhd2d run --config <config> --output-dir <temporary>

(the config path is taken inside each checkout), and the two runs'
``ledger.csv`` and ``final.mhdckpt`` are compared byte for byte.  Then each
side restarts from its own ``final.mhdckpt`` (the same config with
``[initial] checkpoint`` set and ``T`` 0.25 later), and the restarted
runs' ``ledger.csv`` and ``final.mhdckpt`` are compared the same way.
Last, once for all configs, each checkout runs
``scripts/run_all_experiments.py`` (calibration and the nine experiments at
their defaults, about a minute), and its ``calibration.txt``,
``summary.csv`` and every ``report_*.csv`` are compared byte for byte;
``timings.json`` holds wall times and is skipped.

    python scripts/compare_outputs.py --parent ../parent --change .
    python scripts/compare_outputs.py --parent ../parent --change . --config configs/decay.cfg

Every file of every leg is compared, also after a mismatch.  For a file
that differs, the offset of its first differing byte is printed; for a
differing CSV with the same header and row count, also the largest absolute
and relative difference (|change - parent| / |parent|) of each numeric
column, and the number of differing rows of each other column.  A differing
``final.mhdckpt`` or ``calibration.txt`` is decoded on each side by that
checkout's own reader (``read_checkpoint``, ``CalibrationStore.read``), and
the largest absolute difference of each stored array (u, b, p and the
restart fields) or of each calibrated constant is printed, with its ratio
to the parent array's largest magnitude (for a constant, its relative
difference; entry by entry, near-zero values would swamp the ratio).

Exit status: 0 when every file matches, 1 on any mismatch (or a file one
side lacks), 2 when a run fails (the last lines of its stderr are printed).
A failed experiment assertion (exit 4 of ``run_all_experiments.py``) still
writes its reports, so they are compared.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import STDERR_TAIL

# with no --config
CONFIGS = ("configs/oscillating.cfg", "configs/fast_flow.cfg", "configs/from_rest.cfg")
FILES = ("ledger.csv", "final.mhdckpt")
EXPERIMENT_FILES = ("calibration.txt", "summary.csv")  # and every report_*.csv
RESTART_EXTRA_T = 0.25  # how much further the restarted run goes

# Run in a checkout's interpreter: ``DECODE kind path out.npz`` writes the
# named arrays of a checkpoint or the constants of a calibration store.
DECODE = """
import sys
import numpy as np
kind, path, out = sys.argv[1:]
if kind == "checkpoint":
    from mhd2d.dynamics import read_checkpoint
    ck = read_checkpoint(path)
    fields = {"u": ck["state"].u, "b": ck["state"].b, **ck["restart"]._asdict()}
    arrays = {f"{name}.{c}": getattr(f, c) for name, f in fields.items() for c in "xy"}
    arrays["p"] = ck["state"].p.values
else:
    from mhd2d.estimates import CalibrationStore
    arrays = {name: v for name, (v, _) in CalibrationStore.read(path).values.items()}
np.savez(out, **arrays)
"""
DECODED = {"final.mhdckpt": "checkpoint", "calibration.txt": "calibration"}


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


def _numbers(values):
    """The values as floats, or None if any of them is not a number."""
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def csv_differences(parent: str, change: str) -> list:
    """One line per column of two CSV texts: the largest absolute and relative
    difference of a numeric column, the differing rows of another; a single
    line when the headers or row counts differ."""
    p_table, c_table = (list(csv.reader(t.splitlines())) for t in (parent, change))
    if not p_table or not c_table:
        return ["empty on one side"]
    (p_head, *p_rows), (c_head, *c_rows) = p_table, c_table
    if p_head != c_head:
        return [f"headers differ: {p_head} in the parent, {c_head} in the change"]
    if len(p_rows) != len(c_rows):
        return [f"{len(p_rows)} rows in the parent, {len(c_rows)} in the change"]
    lines = []
    for k, name in enumerate(p_head):
        p_col, c_col = [r[k] for r in p_rows], [r[k] for r in c_rows]
        p_num, c_num = _numbers(p_col), _numbers(c_col)
        if p_num is None or c_num is None:
            rows = sum(a != b for a, b in zip(p_col, c_col))
            lines.append(f"{name}: {rows} differing rows (not numeric)")
            continue
        abs_max = rel_max = 0.0
        abs_row = 0
        for row, (a, b) in enumerate(zip(p_num, c_num)):
            diff = abs(b - a)
            if diff > abs_max or math.isnan(diff):
                abs_max, abs_row = diff, row
            rel = diff / abs(a) if a else (math.inf if diff else 0.0)
            if rel > rel_max or math.isnan(rel):
                rel_max = rel
        lines.append(f"{name}: max abs diff {abs_max:.3g} (data row {abs_row + 1}), "
                     f"max rel diff {rel_max:.3g}")
    return lines


def array_differences(parent: dict, change: dict) -> list:
    """One line per named array of two decoded files: the largest absolute
    difference and its ratio to the parent array's largest magnitude (for a
    scalar, the relative difference), or why the two cannot be compared."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            lines.append(f"{name}: only in the {'parent' if name in parent else 'change'}")
            continue
        a, b = np.asarray(parent[name], float), np.asarray(change[name], float)
        if a.shape != b.shape:
            lines.append(f"{name}: shape {a.shape} in the parent, {b.shape} in the change")
            continue
        diff = np.abs(b - a).max(initial=0.0)
        scale = np.abs(a).max(initial=0.0)
        rel = diff / scale if scale else (math.inf if diff else 0.0)
        lines.append(f"{name}: max abs diff {diff:.3g}, rel to max |parent| {rel:.3g}")
    return lines


def decoded_differences(sides: dict, paths: dict, kind: str, tmp: Path) -> list:
    """``array_differences`` of one file decoded by each side's own reader;
    a single line when a side cannot decode it."""
    decoded = {}
    for side, checkout in sides.items():
        out = tmp / f"decoded_{side}.npz"
        if not run_side(checkout, ["-c", DECODE, kind, str(paths[side]), str(out)],
                        label=f"{side} (decoding {paths[side].name})"):
            return [f"the {side} side cannot decode it"]
        with np.load(out) as npz:
            decoded[side] = dict(npz)
    return array_differences(decoded["parent"], decoded["change"])


def compare(leg: str, outs: dict, names, sides: dict) -> bool:
    """Print whether each named file is byte-identical on both sides, and how
    a differing CSV, checkpoint or calibration store differs; False if any
    is not."""
    same = True
    for name in names:
        paths = {side: out / name for side, out in outs.items()}
        lacking = [side for side, path in paths.items() if not path.exists()]
        if lacking:
            print(f"{leg} {name}: missing on the {' and '.join(lacking)} side")
            same = False
            continue
        data = {side: path.read_bytes() for side, path in paths.items()}
        at = first_difference(data["parent"], data["change"])
        if at is None:
            print(f"{leg} {name}: identical ({len(data['parent'])} bytes)")
            continue
        same = False
        print(f"{leg} {name} differs: first differing byte at offset {at} "
              f"({len(data['parent'])} bytes in the parent, "
              f"{len(data['change'])} in the change)")
        if name.endswith(".csv"):
            texts = [data[side].decode("utf-8") for side in ("parent", "change")]
            lines = csv_differences(*texts)
        elif name in DECODED:
            lines = decoded_differences(sides, paths, DECODED[name], paths["parent"].parent.parent)
        else:
            lines = []
        for line in lines:
            print(f"    {line}")
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--config", action="append",
                    help="run config, relative to each checkout; repeatable "
                         f"(default: {', '.join(CONFIGS)})")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    same = True
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        for i, run_config in enumerate(args.config or CONFIGS):
            base = tmp / f"config{i}"
            for leg in ("direct", "restart"):
                outs = {side: base / leg / side for side in sides}
                for side, checkout in sides.items():
                    config = run_config
                    if leg == "restart":
                        config = base / f"{side}_restart.cfg"
                        write_restart_config(checkout / run_config,
                                             base / "direct" / side / "final.mhdckpt", config)
                    cmd = ["-m", "mhd2d.cli", "run", "--config", str(checkout / config),
                           "--output-dir", str(outs[side])]
                    if not run_side(checkout, cmd, label=f"{side} ({run_config} {leg})"):
                        return 2
                same &= compare(f"{run_config} {leg}", outs, FILES, sides)
        outs = {side: tmp / "experiments" / side for side in sides}
        for side, checkout in sides.items():
            cmd = [str(checkout / "scripts" / "run_all_experiments.py"), "--output-dir",
                   str(outs[side])]
            if not run_side(checkout, cmd, label=f"{side} (experiments)", ok=(0, 4)):
                return 2
        reports = sorted({p.name for out in outs.values() for p in out.glob("report_*.csv")})
        same &= compare("experiments", outs, EXPERIMENT_FILES + tuple(reports), sides)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
