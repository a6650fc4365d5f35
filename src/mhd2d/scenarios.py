"""Named, fully deterministic run scenarios shared by experiments and tests.

Each scenario pins its grid, stepping, boundary modes and initial data.
Initial velocity fields are discrete stream-function curls (exactly
divergence-free, zero trace); magnetic data combines zero-trace stream
fields with the interior fields matched to the boundary modes, so
compatibility holds to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import SolverConfig
from .errors import ConfigError
from .geometry import Grid, VectorField
from .lifting import BoundaryTrace, TraceMode, matched_field, synthesize_trace

__all__ = ["Scenario", "make_scenario", "stream_bump", "trace_times"]


@dataclass
class Scenario:
    cfg: SolverConfig
    u0: VectorField
    b0: VectorField
    trace: BoundaryTrace
    boundary_modes: list = field(default_factory=list)


def stream_bump(grid: Grid, amp: float, kx: int = 1, ky: int = 1) -> VectorField:
    """curl of amp*sin^2(kx pi x)*sin^2(ky pi y): zero full trace, div-free."""
    xf, yf = grid.xf(), grid.yf()
    psi = amp * np.sin(kx * np.pi * xf)[:, None] ** 2 * np.sin(ky * np.pi * yf)[None, :] ** 2
    return VectorField.from_stream(grid, psi)


def trace_times(cfg: SolverConfig):
    n = int(round(cfg.t_final / cfg.dt))
    return np.arange(n + 1) * cfg.dt


_BOUNDARY_SETS = {
    "osc": [TraceMode("stream", amplitude=0.15, kx=1, ky=1, envelope="cos", envelope_param=2.0)],
    "ramp": [TraceMode("stream", amplitude=0.2, kx=1, ky=2, envelope="ramp", envelope_param=5.0)],
    "two-mode": [
        TraceMode("stream", amplitude=0.12, kx=1, ky=1, envelope="cos", envelope_param=1.0),
        TraceMode("stream", amplitude=0.08, kx=2, ky=1, envelope="sin", envelope_param=3.0),
    ],
    "steady-h": [TraceMode("stream", amplitude=0.15, kx=1, ky=1)],
    "pulse": [TraceMode("stream", amplitude=0.18, kx=1, ky=1, envelope="sin", envelope_param=1.0)],
    "none": [],
}


def make_scenario(sid: str, nx=32, dt=2e-3, t_final=1.0, **cfg_over) -> Scenario:
    """Instantiate a named scenario; cfg_over tweaks SolverConfig fields."""
    base = dict(nx=nx, ny=nx, dt=dt, t_final=t_final)
    base.update(cfg_over)
    cfg = SolverConfig(**base)
    grid = cfg.grid()
    tt = trace_times(cfg)

    if sid == "decay":
        modes = _BOUNDARY_SETS["none"]
        u0 = stream_bump(grid, 0.5)
        b0 = stream_bump(grid, 0.3, 1, 2)
    elif sid == "calib-osc":
        modes = _BOUNDARY_SETS["osc"]
        u0 = stream_bump(grid, 0.5)
        b0 = matched_field(grid, modes) + stream_bump(grid, 0.25, 1, 2)
    elif sid == "ramp":
        modes = _BOUNDARY_SETS["ramp"]
        u0 = stream_bump(grid, 0.4)
        b0 = stream_bump(grid, 0.2, 2, 1)
    elif sid == "two-mode":
        modes = _BOUNDARY_SETS["two-mode"]
        u0 = stream_bump(grid, 0.35, 1, 1)
        cos_modes = [m for m in modes if m.envelope == "cos"]
        b0 = matched_field(grid, cos_modes) + stream_bump(grid, 0.2, 1, 2)
    elif sid == "steady-h":
        modes = _BOUNDARY_SETS["steady-h"]
        u0 = stream_bump(grid, 0.3)
        b0 = matched_field(grid, modes) + stream_bump(grid, 0.15, 1, 2)
    elif sid == "pulse":
        modes = _BOUNDARY_SETS["pulse"]
        u0 = stream_bump(grid, 0.45)
        b0 = stream_bump(grid, 0.25, 1, 2)
    elif sid == "cd-base":
        modes = _BOUNDARY_SETS["osc"]
        u0 = stream_bump(grid, 0.4)
        b0 = matched_field(grid, modes) + stream_bump(grid, 0.2, 1, 2)
    elif sid == "picard-ref":
        modes = _BOUNDARY_SETS["none"]
        u0 = stream_bump(grid, 1.0)
        b0 = stream_bump(grid, 0.8, 1, 2)
    elif sid == "zero":
        modes = _BOUNDARY_SETS["none"]
        u0 = VectorField.zeros(grid)
        b0 = VectorField.zeros(grid)
    else:
        raise ConfigError([f"unknown scenario id {sid!r}"])

    trace = synthesize_trace(grid, tt, modes)
    return Scenario(cfg, u0, b0, trace, boundary_modes=list(modes))

