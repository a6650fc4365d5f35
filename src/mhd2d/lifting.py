"""Boundary traces, fractional trace norms and the two lifting problems.

A trace is a 2-component function on the square's boundary, sampled at
the 2(nx+ny) wall-face midpoints in arc length (counterclockwise from
the bottom-left corner, perimeter 4).  Fractional Sobolev norms are
Fourier multipliers in arc length; the harmonic lift solves Laplace's
equation componentwise, the parabolic lift runs the implicit heat flow
with the same boundary data.  Both lifts solve in closed form
(``operators.dirichlet_heat``); no sparse factorization runs here.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import CompatibilityError, ConfigError
from .geometry import (
    Grid,
    VectorBC,
    VectorField,
    grad_norm_sq,
    l2_norm_sq,
)
from .operators import apply_lap_mirror, dirichlet_heat

__all__ = [
    "BoundaryTrace",
    "FractionalNormSpec",
    "TraceMode",
    "synthesize_trace",
    "read_trace_csv",
    "hs_norm",
    "harmonic_extend",
    "lifting_estimate_check",
    "parabolic_lift",
    "parabolic_estimate_check",
    "boundary_l2_norm",
    "normal_trace",
    "heat_step",
    "cumtrapz",
    "parabolic_integrals",
]

SUPPORTED_EXPONENTS = (-0.5, 0.0, 0.5, 1.5)


@dataclass(frozen=True)
class FractionalNormSpec:
    """Exponent and Fourier truncation for a trace-space norm."""

    s: float
    truncation: int | None = None

    def __post_init__(self):
        if self.s not in SUPPORTED_EXPONENTS:
            raise ValueError(f"unsupported exponent s={self.s}; supported: {SUPPORTED_EXPONENTS}")


class BoundaryTrace:
    """Time-sampled boundary data at uniform arc-length nodes.

    samples has shape (nt, N, 2) with N = 2(nx+ny); node k sits at
    arc length (k+1/2)*h.  Requires a square-cell grid so the nodes are
    uniform along the whole boundary.  ``times`` and ``samples`` are
    read-only views of the arrays passed in, so the norm series memoized
    on the trace cannot go stale through them.
    """

    def __init__(self, grid: Grid, times, samples):
        if grid.nx != grid.ny:
            raise ValueError("boundary traces need nx == ny (uniform arc-length nodes)")
        times = np.asarray(times, dtype=np.float64)
        samples = np.asarray(samples, dtype=np.float64)
        n = 2 * (grid.nx + grid.ny)
        if samples.shape != (len(times), n, 2):
            raise ValueError(f"trace samples shape {samples.shape} != {(len(times), n, 2)}")
        if len(times) > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("trace instants must be strictly increasing")
        if not np.all(np.isfinite(samples)):
            raise ValueError("trace samples contain non-finite values")
        times, samples = times.view(), samples.view()
        times.flags.writeable = samples.flags.writeable = False
        self.grid = grid
        self.times = times
        self.samples = samples
        self.n_nodes = n
        self._h = grid.dx
        self._bc_stencil = None
        self._norm_sq = {}  # (spec, dt) -> series, see norm_sq_series

    def index_of(self, t):
        """Index of the sampled instant nearest t (the earlier one on a tie)."""
        tt = self.times
        i = int(np.searchsorted(tt, t))
        if i > 0 and (i == len(tt) or t - tt[i - 1] <= tt[i] - t):
            i -= 1
        if i == len(tt) or not abs(tt[i] - t) <= 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a sampled trace instant")
        return i

    def values(self, t):
        return self.samples[self.index_of(t)]

    def digest(self, t) -> bytes:
        """SHA-256 of the instants up to t and their samples (little-endian f8).

        Traces that agree up to t have equal digests whatever their horizon.
        """
        i = self.index_of(t) + 1
        h = hashlib.sha256(self.times[:i].astype("<f8").tobytes())
        h.update(self.samples[:i].astype("<f8").tobytes())
        return h.digest()

    def norm_sq_series(self, spec: FractionalNormSpec, dt: bool = False) -> np.ndarray:
        """Squared ``spec`` norm at every instant, of h or (``dt``) of its time derivative.

        The derivative is ``_time_difference`` of the samples (zero for a
        one-instant trace).  The series is computed on first use, in blocks
        of ``_SERIES_BLOCK`` instants so that no transient grows with the
        horizon, and memoized read-only on the trace.
        """
        series = self._norm_sq.get((spec, dt))
        if series is None:
            nt = len(self.times)
            series = np.empty(nt)
            for a in range(0, nt, _SERIES_BLOCK):
                i = np.arange(a, min(a + _SERIES_BLOCK, nt))
                if not dt:
                    vals = self.samples[i]
                elif nt == 1:
                    vals = np.zeros_like(self.samples)
                else:
                    vals = _time_difference(self.samples, self.times, i)
                series[i] = _hs_norm_sq_samples(vals, spec.s, spec.truncation)
            series.flags.writeable = False
            self._norm_sq[(spec, dt)] = series
        return series

    # node arc-length positions
    def nodes(self):
        return (np.arange(self.n_nodes) + 0.5) * self._h

    def _bc_weights(self):
        """Gather stencil of the eight VectorBC arrays, computed on first use.

        (i0, i1, w0, w1, fields): with v an instant's samples raveled
        (entry 2k + c is component c at node k), every VectorBC entry is
        w0 * v[i0] + w1 * v[i1], and ``fields`` slices that array into the
        eight fields in order.  This periodic linear interpolation of node
        values is exact for traces that are linear in arc length along each
        wall, second-order for smooth traces; corner values average the two
        adjacent walls.
        """
        if self._bc_stencil is None:
            g = self.grid
            xf, yf, xc, yc = g.xf(), g.yf(), g.xc(), g.yc()
            arcs = (
                (0, xf),  # x_bottom; the (0,0) corner has s=0
                (0, 2.0 + (1.0 - xf)),  # x_top
                (0, 3.0 + (1.0 - yc)),  # x_left
                (0, 1.0 + yc),  # x_right
                (1, xc),  # y_bottom
                (1, 2.0 + (1.0 - xc)),  # y_top
                (1, 3.0 + (1.0 - yf)),  # y_left
                (1, 1.0 + yf),  # y_right
            )
            i0, i1, w1 = [], [], []
            for comp, s in arcs:
                pos = np.mod(s, 4.0) / self._h - 0.5
                k0 = np.floor(pos).astype(int)
                w1.append(pos - k0)
                k0 = np.mod(k0, self.n_nodes)
                i0.append(2 * k0 + comp)
                i1.append(2 * np.mod(k0 + 1, self.n_nodes) + comp)
            bounds = np.cumsum([0] + [len(k) for k in i0])
            w1 = np.concatenate(w1)
            fields = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
            self._bc_stencil = (np.concatenate(i0), np.concatenate(i1), 1.0 - w1, w1, fields)
        return self._bc_stencil

    def vector_bc(self, t) -> VectorBC:
        """Boundary closure arrays for a MAC vector field carrying this trace."""
        i0, i1, w0, w1, fields = self._bc_weights()
        v = self.values(t).ravel()
        flat = w0 * v[i0] + w1 * v[i1]
        return VectorBC(*[flat[f] for f in fields])

    def normal_values(self, t):
        """Normal component at every node (one per wall face)."""
        g = self.grid
        vals = self.values(t)
        nx, ny = g.nx, g.ny
        out = np.empty(self.n_nodes)
        out[:nx] = -vals[:nx, 1]  # bottom, outward normal (0,-1)
        out[nx : nx + ny] = vals[nx : nx + ny, 0]  # right
        out[nx + ny : 2 * nx + ny] = vals[nx + ny : 2 * nx + ny, 1]  # top
        out[2 * nx + ny :] = -vals[2 * nx + ny :, 0]  # left
        return out

    def net_flux(self, t):
        return float(np.sum(self.normal_values(t)) * self._h)


def boundary_l2_norm(values, h):
    """L2(boundary) norm of per-node values with uniform node weight h."""
    return float(np.sqrt(h * np.sum(np.asarray(values) ** 2)))


def normal_trace(v: VectorField):
    """Outward normal component of v on every wall face, in trace node order."""
    # counterclockwise node order: top and left walls run backwards
    return np.concatenate([-v.y[:, 0], v.x[-1, :], v.y[::-1, -1], -v.x[0, ::-1]])


def _time_difference(values, times, i):
    """Derivative of a sampled sequence at instant i: central inside, one-sided at the ends.

    ``values`` may hold arrays or ``VectorField``s; the latter have no division,
    so the difference is multiplied by the reciprocal step.  For an array of
    values, ``i`` may be an index array; each difference then takes its own
    step along the leading axis.
    """
    lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, len(times) - 1)
    step = 1.0 / (times[hi] - times[lo])
    if np.ndim(step):
        step = step.reshape(step.shape + (1,) * (np.ndim(values) - 1))
    return (values[hi] - values[lo]) * step


def cumtrapz(y, t):
    """Cumulative trapezoid integral of y over t, zero at t[0]."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


# --- fractional norms ------------------------------------------------------

# instants per block of a norm series: bounds its rfft transients
_SERIES_BLOCK = 256


def _hs_norm_sq_samples(samples, s, truncation=None):
    """Squared H^s norm of trace values (..., N, 2), one per leading index.

    A batch gives the same bits as one instant at a time: numpy sums a
    contiguous row pairwise, a strided one in sequence.
    """
    n = samples.shape[-2]
    if truncation is None:
        truncation = n // 2
    if truncation > n // 2:
        raise ValueError(f"truncation {truncation} exceeds Nyquist {n // 2}")
    kk = np.arange(truncation + 1)
    kappa = 2.0 * np.pi * kk / 4.0
    mult = (1.0 + kappa**2) ** s
    weights = np.full(truncation + 1, 2.0)
    weights[0] = 1.0
    if 2 * truncation == n:
        weights[-1] = 1.0
    # components first, so that each rfft and each sum runs over a contiguous row
    rows = np.ascontiguousarray(np.swapaxes(samples, -1, -2))
    c = np.fft.rfft(rows, axis=-1)[..., : truncation + 1] / n
    per_comp = np.sum(weights * mult * np.abs(c) ** 2, axis=-1)
    return 4.0 * per_comp[..., 0] + 4.0 * per_comp[..., 1]


def hs_norm(trace: BoundaryTrace, t, spec: FractionalNormSpec) -> float:
    """Fractional Sobolev norm of the trace at a sampled instant."""
    i = trace.index_of(t)
    return float(trace.norm_sq_series(spec)[i]) ** 0.5


def hs_norm_dt(trace: BoundaryTrace, t, spec: FractionalNormSpec) -> float:
    """The same norm of the trace's time derivative at a sampled instant."""
    i = trace.index_of(t)
    return float(trace.norm_sq_series(spec, dt=True)[i]) ** 0.5


# --- synthesis and ingestion ------------------------------------------------

@dataclass(frozen=True)
class TraceMode:
    """One synthesized boundary mode.

    kind "fourier": amplitude * cos(2*pi*wavenumber*s/4 + phase) on one
    component.  kind "stream": trace of curl(amp*cos(kx*pi*x)*cos(ky*pi*y)),
    with the normal component taken from the same corner differences a MAC
    stream field uses, so matched initial data is exactly compatible.
    kind "constant": uniform vector (amp on the given component).
    Envelopes: constant | sin f | cos f | ramp r  (ramp = 1 - exp(-r t)).
    """

    kind: str
    amplitude: float = 1.0
    component: int = 1
    wavenumber: int = 1
    kx: int = 1
    ky: int = 1
    envelope: str = "constant"
    envelope_param: float = 1.0

    def envelope_at(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.envelope == "constant":
            return np.ones_like(t)
        if self.envelope == "sin":
            return np.sin(2.0 * np.pi * self.envelope_param * t)
        if self.envelope == "cos":
            return np.cos(2.0 * np.pi * self.envelope_param * t)
        if self.envelope == "ramp":
            return 1.0 - np.exp(-self.envelope_param * t)
        raise ValueError(f"unknown envelope {self.envelope!r}")


def _boundary_xy(grid):
    """Node coordinates (x, y) along the boundary, counterclockwise."""
    nx, ny = grid.nx, grid.ny
    xc, yc = grid.xc(), grid.yc()
    x = np.concatenate([xc, np.ones(ny), xc[::-1], np.zeros(ny)])
    y = np.concatenate([np.zeros(nx), yc, np.ones(nx), yc[::-1]])
    return x, y


def _stream_profile(grid, mode: TraceMode):
    """Spatial profile (N, 2) of a stream mode with discrete normal components."""
    a, kx, ky = mode.amplitude, mode.kx, mode.ky
    phi = lambda x, y: a * np.cos(kx * np.pi * x) * np.cos(ky * np.pi * y)
    phix = lambda x, y: -a * kx * np.pi * np.sin(kx * np.pi * x) * np.cos(ky * np.pi * y)
    phiy = lambda x, y: -a * ky * np.pi * np.cos(kx * np.pi * x) * np.sin(ky * np.pi * y)
    nx, ny = grid.nx, grid.ny
    h = grid.dx
    bx, by = _boundary_xy(grid)
    prof = np.empty((2 * (nx + ny), 2))
    prof[:, 0] = phiy(bx, by)  # h1 = d(phi)/dy
    prof[:, 1] = -phix(bx, by)  # h2 = -d(phi)/dx
    # overwrite normal components with the corner differences of phi
    xc, yc, xf, yf = grid.xc(), grid.yc(), grid.xf(), grid.yf()
    prof[:nx, 1] = -(phi(xf[1:], 0.0) - phi(xf[:-1], 0.0)) / h
    s = slice(nx, nx + ny)
    prof[s, 0] = (phi(1.0, yf[1:]) - phi(1.0, yf[:-1])) / h
    s = slice(nx + ny, 2 * nx + ny)
    prof[s, 1] = -(phi(xf[1:], 1.0) - phi(xf[:-1], 1.0))[::-1] / h
    s = slice(2 * nx + ny, None)
    prof[s, 0] = ((phi(0.0, yf[1:]) - phi(0.0, yf[:-1])) / h)[::-1]
    return prof


def _mode_profile(grid, mode: TraceMode):
    n = 2 * (grid.nx + grid.ny)
    if mode.kind == "stream":
        return _stream_profile(grid, mode)
    prof = np.zeros((n, 2))
    if mode.kind == "constant":
        prof[:, mode.component - 1] = mode.amplitude
        return prof
    if mode.kind == "fourier":
        s = (np.arange(n) + 0.5) * grid.dx
        prof[:, mode.component - 1] = mode.amplitude * np.cos(
            2.0 * np.pi * mode.wavenumber * s / 4.0
        )
        return prof
    raise ValueError(f"unknown trace mode kind {mode.kind!r}")


def synthesize_trace(grid: Grid, times, modes) -> BoundaryTrace:
    times = np.asarray(times, dtype=np.float64)
    n = 2 * (grid.nx + grid.ny)
    samples = np.zeros((len(times), n, 2))
    for mode in modes:
        prof = _mode_profile(grid, mode)
        env = mode.envelope_at(times)
        samples += env[:, None, None] * prof[None, :, :]
    return BoundaryTrace(grid, times, samples)


def stream_mode_field(grid: Grid, mode: TraceMode, t=0.0) -> VectorField:
    """The interior MAC field whose trace a stream mode describes."""
    if mode.kind == "constant":
        f = VectorField.zeros(grid)
        comp = f.x if mode.component == 1 else f.y
        comp += mode.amplitude * float(mode.envelope_at(t))
        return f
    if mode.kind != "stream":
        raise ValueError("only stream/constant modes correspond to interior fields")
    a = mode.amplitude * float(mode.envelope_at(t))
    xf, yf = grid.xf(), grid.yf()
    psi = a * np.cos(mode.kx * np.pi * xf)[:, None] * np.cos(mode.ky * np.pi * yf)[None, :]
    return VectorField.from_stream(grid, psi)


def _csv_rows(fh, path):
    """The rows of a CSV file; undecodable text or an oversized field is a ConfigError."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: unreadable ({exc})") from None


def read_trace_csv(grid: Grid, path) -> BoundaryTrace:
    """Ingest (time, arclength, h1, h2) rows, strictly sorted.

    Every malformed row raises ConfigError naming its line.
    """
    n = 2 * (grid.nx + grid.ny)
    h = grid.dx
    times = []
    blocks = []
    current_t = None
    block = []

    def close_block(last_ln):
        if len(block) != n:
            raise ConfigError(
                f"{path}: row {last_ln}: instant {current_t!r} has {len(block)} nodes, expected {n}"
            )
        blocks.append(block)

    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
    with fh:
        reader = _csv_rows(fh, path)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:4]] != ["time", "arclength", "h1", "h2"]:
            raise ConfigError(f"{path}: expected header time,arclength,h1,h2")
        for ln, row in enumerate(reader, start=2):
            if len(row) < 4:
                raise ConfigError(f"{path}: row {ln}: expected 4 columns, got {len(row)}")
            try:
                t, s, h1, h2 = vals = [float(v) for v in row[:4]]
            except ValueError:
                raise ConfigError(f"{path}: row {ln}: non-numeric cell in {row[:4]}") from None
            if not all(map(math.isfinite, vals)):
                raise ConfigError(f"{path}: row {ln}: non-finite value in {row[:4]}")
            if current_t is None or t != current_t:
                if current_t is not None and t <= current_t:
                    raise ConfigError(f"{path}: row {ln}: times not strictly increasing")
                if block:
                    close_block(ln - 1)
                block = []
                current_t = t
                times.append(t)
            k = len(block)
            expect = (k + 0.5) * h
            if abs(s - expect) > 1e-9:
                raise ConfigError(
                    f"{path}: row {ln}: arclength {s} (expected node {expect:.12g})"
                )
            block.append((h1, h2))
        if block:
            close_block(ln)
    if not blocks:
        raise ConfigError(f"{path}: no trace rows after the header")
    return BoundaryTrace(grid, np.array(times), np.array(blocks))


# --- harmonic lift -----------------------------------------------------------

def harmonic_extend(trace: BoundaryTrace, t) -> VectorField:
    """Componentwise discrete harmonic extension of the trace at time t."""
    return harmonic_extend_bc(trace.grid, trace.vector_bc(t))


def harmonic_extend_bc(grid: Grid, bc: VectorBC) -> VectorField:
    zero = VectorField.zeros(grid)
    return dirichlet_heat(grid, 0.0, 1.0).solve(zero.x, zero.y, bc)


@dataclass
class LiftingReport:
    """Measured constants of the elliptic lifting estimates."""

    c_h1: float
    c_dt: float
    h1_numerator: float
    h1_denominator: float
    dt_numerator: float
    dt_denominator: float


def _ratio(num, den):
    if den == 0.0:
        if num > 1e-14:
            raise ValueError("inconsistent ratio: zero denominator, nonzero numerator")
        return 0.0
    return num / den


def lifting_estimate_check(trace: BoundaryTrace, t_end=None) -> LiftingReport:
    """Quadrature ratios for the harmonic-lift regularity estimates (k=0)."""
    times = trace.times if t_end is None else trace.times[trace.times <= t_end + 1e-12]
    if len(times) < 1:
        raise ValueError("no sampled instants in the requested horizon")
    nt = len(times)  # the first nt instants
    bcs = [trace.vector_bc(t) for t in times]
    lifts = [harmonic_extend_bc(trace.grid, bc) for bc in bcs]
    h1 = np.array([l2_norm_sq(he) + grad_norm_sq(he, bc) for he, bc in zip(lifts, bcs)])
    hh = trace.norm_sq_series(FractionalNormSpec(0.5))[:nt]
    if nt == 1:
        return LiftingReport(_ratio(h1[0], hh[0]), 0.0, h1[0], hh[0], 0.0, 0.0)
    num_h1 = float(np.trapezoid(h1, times))
    den_h1 = float(np.trapezoid(hh, times))
    dt_he = [l2_norm_sq(_time_difference(lifts, times, i)) for i in range(nt)]
    num_dt = float(np.trapezoid(np.array(dt_he), times))
    dth = trace.norm_sq_series(FractionalNormSpec(-0.5), dt=True)[:nt]
    den_dt = float(np.trapezoid(dth, times))
    return LiftingReport(
        _ratio(num_h1, den_h1), _ratio(num_dt, den_dt), num_h1, den_h1, num_dt, den_dt
    )


# --- parabolic lift ----------------------------------------------------------

@dataclass
class ParabolicRun:
    """States and norms of a completed parabolic lift."""

    times: np.ndarray
    fields: list
    l2_sq: np.ndarray
    grad_sq: np.ndarray
    h1_sq: np.ndarray
    lap_sq: np.ndarray
    h_h12_sq: np.ndarray
    h_h32_sq: np.ndarray
    dth_hm12_sq: np.ndarray
    b0_l2_sq: float
    b0_h1_sq: float


def check_compatibility_trace(b0: VectorField, trace: BoundaryTrace, tol_factor=1e-8):
    """Compatibility of initial data with the trace at t=0 (normal components)."""
    g = b0.grid
    want = trace.normal_values(trace.times[0])
    res = boundary_l2_norm(normal_trace(b0) - want, g.dx)
    scale = boundary_l2_norm(want, g.dx)
    return res, res <= tol_factor * (1.0 + scale)


def heat_step(b: VectorField, dt: float, bc: VectorBC, kappa: float) -> VectorField:
    """One implicit-Euler step of the vector heat flow with Dirichlet data bc."""
    return dirichlet_heat(b.grid, 1.0 / dt, kappa).solve(b.x / dt, b.y / dt, bc)


def parabolic_lift(
    b0: VectorField,
    trace: BoundaryTrace,
    dt: float,
    horizon: float,
    kappa: float = 1.0,
) -> ParabolicRun:
    """Implicit-Euler heat flow with the trace as Dirichlet data; initial
    data whose normal trace does not match the trace at t=0 raise
    CompatibilityError."""
    res, ok = check_compatibility_trace(b0, trace)
    if not ok:
        raise CompatibilityError(f"initial data does not match trace at t=0 (residual {res:.3e})")
    # the trace-norm series before the states: their transients come first
    h12 = trace.norm_sq_series(FractionalNormSpec(0.5))
    h32 = trace.norm_sq_series(FractionalNormSpec(1.5))
    dthm12 = trace.norm_sq_series(FractionalNormSpec(-0.5), dt=True)
    t0 = trace.times[0]
    times = [t0] + [t0 + (k + 1) * dt for k in range(int(round(horizon / dt)))]
    bc = trace.vector_bc(t0)
    cur = b0.copy()
    fields, l2s, grads, laps = [], [], [], []
    for k, t in enumerate(times):
        if k:
            bc = trace.vector_bc(t)
            cur = heat_step(cur, dt, bc, kappa)  # a new field
        fields.append(cur)
        l2s.append(l2_norm_sq(cur))
        grads.append(grad_norm_sq(cur, bc))
        laps.append(l2_norm_sq(apply_lap_mirror(cur, bc)))
    l2s, grads = np.array(l2s), np.array(grads)
    idx = [trace.index_of(t) for t in times]
    return ParabolicRun(
        np.array(times),
        fields,
        l2s,
        grads,
        l2s + grads,
        np.array(laps),
        h12[idx],
        h32[idx],
        dthm12[idx],
        float(l2s[0]),
        float(l2s[0] + grads[0]),
    )


@dataclass
class ParabolicReport:
    weak_margin: float  # max over t of LHS - RHS for the L2 estimate
    strong_margin: float  # same for the H1/H2 estimate
    c_weak: float
    c_strong: float


def parabolic_integrals(run: ParabolicRun):
    """Left-hand sides and source integrals of the two parabolic estimates.

    Returns (weak_lhs, weak_src, strong_lhs, strong_src) over run.times:
    ||h_p||^2 + int ||grad h_p||^2 against int ||h||^2_{H1/2}, and
    ||h_p||^2_{H1} + int ||Lap h_p||^2 against
    int (||dt h||^2_{H-1/2} + ||h||^2_{H3/2}).  Each estimate reads
    lhs - ||h_p(0)||^2 <= c * src.
    """
    t = run.times
    return (
        run.l2_sq + cumtrapz(run.grad_sq, t),
        cumtrapz(run.h_h12_sq, t),
        run.h1_sq + cumtrapz(run.lap_sq, t),
        cumtrapz(run.dth_hm12_sq + run.h_h32_sq, t),
    )


def parabolic_estimate_check(run: ParabolicRun, c_weak: float, c_strong: float) -> ParabolicReport:
    """Margins of the two parabolic lifting estimates with calibrated constants."""
    weak_lhs, weak_src, strong_lhs, strong_src = parabolic_integrals(run)
    weak = np.max(weak_lhs - (run.b0_l2_sq + c_weak * weak_src))
    strong = np.max(strong_lhs - (run.b0_h1_sq + c_strong * strong_src))
    return ParabolicReport(float(weak), float(strong), c_weak, c_strong)
