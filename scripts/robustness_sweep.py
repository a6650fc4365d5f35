#!/usr/bin/env python3
"""Where the magnetic step converges, falls back or fails: exact counts over
a fixed table of cells.

Runs coupled steps of ``make_scenario(sid, nx, dt, t_final=steps * dt, rm=Rm,
re=Re)`` with the scenario's u0 scaled by s, on the package in the ``src/``
of the checkout this script sits in.  The 36 cells:

- calib-osc and picard-ref, Rm in {1, 100, 1000}, Re in {1, 100}, dt in
  {2e-3, 8e-3}, s = 1;
- calib-osc at Re = 1, s in {2, 4, 16}, Rm in {100, 1000}, dt in {2e-3, 8e-3}.

For each cell it records the outer and Picard iterations (in all and per
step), the largest contraction ratio, the transport-pair builds (one in each
step whose heat chord stalls and falls back), the largest divergence
of b before cleaning and the cleaned steps, the lag number L = (max|u0|/h) /
(1/dt + 4/(Rm h^2)) and the cell Courant number max|u0| dt/h of the scaled u0,
and the message and time of a ``StepFailure``, if one ends the cell.  No time
is measured: the counts are exact, so a ``diff`` of the JSON files of two
checkouts is the regression signal.  Floats are kept to 6 significant digits,
so that a round-off move of a ratio does not show there.

    OPENBLAS_NUM_THREADS=1 python scripts/robustness_sweep.py --out sweep.json

The table is printed to stdout; the JSON holds the same cells.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from mhd2d import dynamics  # noqa: E402
from mhd2d.dynamics import SimState, Stepper  # noqa: E402
from mhd2d.errors import StepFailure  # noqa: E402
from mhd2d.geometry import ScalarField  # noqa: E402
from mhd2d.scenarios import make_scenario  # noqa: E402

NX = 32


def cells():
    """(scenario, Rm, Re, dt, s) of every cell, in table order."""
    out = [(sid, rm, re, dt, 1) for sid, rm, re, dt in itertools.product(
        ("calib-osc", "picard-ref"), (1.0, 100.0, 1000.0), (1.0, 100.0), (2e-3, 8e-3))]
    out += [("calib-osc", rm, 1.0, dt, s) for s, rm, dt in itertools.product(
        (2, 4, 16), (100.0, 1000.0), (2e-3, 8e-3))]
    return out


def _sig(x):
    return float(f"{x:.6g}")


def run_cell(sid, rm, re, dt, scale, steps):
    """The counts of one cell (see the module docstring)."""
    scen = make_scenario(sid, nx=NX, dt=dt, t_final=steps * dt, rm=rm, re=re)
    u0 = scale * scen.u0
    h = 1.0 / NX
    umax = max(np.abs(u0.x).max(), np.abs(u0.y).max())
    builds = []
    pair = dynamics.TransportPair

    def counting_pair(*args, **kwargs):
        builds.append(args)
        return pair(*args, **kwargs)

    reports, failure = [], None
    stepper = Stepper(scen.cfg, scen.trace)
    state = SimState(0.0, u0, scen.b0, ScalarField.zeros(scen.cfg.grid()))
    dynamics.TransportPair = counting_pair
    try:
        for _ in range(steps):
            state, rep = stepper.coupled_step(state)
            reports.append(rep)
    except StepFailure as err:
        failure = {"message": str(err), "t": _sig(err.t)}
    finally:
        dynamics.TransportPair = pair
    n = len(reports)
    outer = sum(r.outer_iterations for r in reports)
    picard = sum(r.picard_iterations for r in reports)
    return {
        "scenario": sid, "rm": rm, "re": re, "dt": dt, "scale": scale,
        "lag_number": _sig((umax / h) / (1.0 / dt + 4.0 / (rm * h * h))),
        "courant": _sig(umax * dt / h),
        "steps": n,
        "outer_iterations": outer,
        "picard_iterations": picard,
        "outer_per_step": _sig(outer / n) if n else None,
        "picard_per_step": _sig(picard / n) if n else None,
        "max_contraction_ratio": _sig(max((r.contraction_ratio for r in reports), default=0.0)),
        "pair_builds": len(builds),
        "max_div_b_before_clean": _sig(max((r.div_b_before_clean for r in reports), default=0.0)),
        "cleaned_steps": sum(r.cleaned for r in reports),
        "failure": failure,
    }


COLUMNS = ("scenario", "rm", "re", "dt", "scale", "lag_number", "courant", "steps",
           "outer_per_step", "picard_per_step", "max_contraction_ratio", "pair_builds",
           "max_div_b_before_clean", "cleaned_steps", "failure")


def table(results):
    """A markdown table of the cells."""
    def cell(row, key):
        v = row[key]
        if key == "failure":
            return "" if v is None else f"{v['message']}"
        return f"{v:.4g}" if isinstance(v, float) else str(v)

    lines = ["| " + " | ".join(COLUMNS) + " |", "|" + " --- |" * len(COLUMNS)]
    lines += ["| " + " | ".join(cell(r, k) for k in COLUMNS) + " |" for r in results]
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--steps", type=int, default=40, help="coupled steps per cell")
    ap.add_argument("--out", type=Path, default=Path("robustness_sweep.json"))
    args = ap.parse_args(argv)
    results = []
    for sid, rm, re, dt, scale in cells():
        results.append(run_cell(sid, rm, re, dt, scale, args.steps))
        print(f"{sid} Rm={rm:g} Re={re:g} dt={dt:g} s={scale}: done", file=sys.stderr, flush=True)
    report = {"nx": NX, "steps": args.steps, "cells": results}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
