"""Energy ledger, Gronwall functionals, absorbing radii and inequality margins.

Unspecified constants in the estimates (c, c~, c0, c1, c_Omega, ...) are
measured once on a designated reference scenario, persisted in a small
text store, and then frozen for assertion runs.  Every checker works on
the recorded ledger only; nothing here re-runs the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (
    ScalarField,
    VectorBC,
    VectorField,
    divergence,
    grad_norm_sq,
    l2_norm_sq,
    pointwise_norms,
)
from .ioutil import atomic_write_text
from .lifting import BoundaryTrace, FractionalNormSpec, _time_difference, cumtrapz, hs_norm, hs_norm_dt
from .operators import NeumannPoisson, apply_lap_mirror, apply_lap_mirror_scalar, dirichlet_heat, stokes_apply

__all__ = [
    "LEDGER_COLUMNS",
    "EnergyLedger",
    "record",
    "GronwallBound",
    "calibrate_weak_energy",
    "sharp_constant",
    "weak_energy_residual",
    "gronwall_weak",
    "strong_energy",
    "AbsorbingRadii",
    "absorbing_radii",
    "normality_eta",
    "window_sup",
    "smallness_gate",
    "brezis_gallouet_ratio",
    "stokes_regularity_ratio",
    "CalibrationStore",
    "EXPONENTS",
]

# fixed 2D exponents of the estimates
EXPONENTS = {"theta": 0.5, "q": 2.0, "q_n": 4.0}

# homogeneity degree of each checker term under (u, b, h) -> (a*u, a*b, a*h),
# so scale-coherence violations are test-detectable
TERM_HOMOGENEITY = {
    "weak": {
        "energy_rate": 2,
        "dissipation": 2,
        "h4_energy": 6,
        "source_h2": 2,
        "source_dth2": 2,
        "source_h4": 4,
    },
    "strong": {
        "h1_rate": 2,
        "h2_dissipation": 2,
        "k_energy": 6,
        "source_low_h4": 6,
        "source_h32": 2,
    },
}

LEDGER_COLUMNS = [
    "t",
    "u_L2_sq",
    "grad_u_L2_sq",
    "Su_L2_sq",
    "b_L2_sq",
    "b_H1_sq",
    "btilde_L2_sq",
    "grad_btilde_L2_sq",
    "bhat_H1_sq",
    "lap_bhat_L2_sq",
    "u_L4",
    "b_L4",
    "u_Linf",
    "b_Linf",
    "h_H12_Gamma",
    "h_H32_Gamma",
    "dth_Hm12_Gamma",
    "div_u_Linf",
    "div_b_Linf",
]


class EnergyLedger:
    """Per-instant record of every norm the inequality checkers consume."""

    def __init__(self, strong: bool = False):
        self.strong = strong
        self._rows = {c: [] for c in LEDGER_COLUMNS}

    def add_row(self, **kw):
        t = kw["t"]
        if self._rows["t"] and t <= self._rows["t"][-1]:
            raise ValueError("ledger instants must be strictly increasing")
        for c in LEDGER_COLUMNS:
            v = float(kw.get(c, 0.0))
            if not math.isfinite(v):
                raise ValueError(f"ledger entry {c} at t={t} is not finite")
            if c.endswith("_sq") and v < 0.0:
                raise ValueError(f"squared ledger entry {c} at t={t} is negative")
            self._rows[c].append(v)

    def __len__(self):
        return len(self._rows["t"])

    def col(self, name):
        return np.asarray(self._rows[name])

    @property
    def times(self):
        return self.col("t")

    def to_csv_text(self):
        lines = [",".join(LEDGER_COLUMNS)]
        for i in range(len(self)):
            lines.append(",".join(repr(self._rows[c][i]) for c in LEDGER_COLUMNS))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        atomic_write_text(path, self.to_csv_text())


_SPEC12 = FractionalNormSpec(0.5)
_SPEC32 = FractionalNormSpec(1.5)
_SPECM12 = FractionalNormSpec(-0.5)


def record(
    ledger: EnergyLedger,
    t: float,
    u: VectorField,
    b: VectorField,
    trace: BoundaryTrace,
    h_p: VectorField | None = None,
    poisson: NeumannPoisson | None = None,
    *,
    bc: VectorBC,
):
    """Compute one ledger row from the instantaneous state, the parabolic
    lift h_p (strong rows) and ``bc``, the boundary data at t.

    The lifted field btilde = b - h_e, with h_e the harmonic extension of
    ``bc``, enters only through its two norms, which the harmonic
    operator gives in closed form (``DirichletHeat.lift_energies``)
    without forming h_e.
    """
    btilde_sq, grad_btilde_sq = dirichlet_heat(b.grid, 0.0, 1.0).lift_energies(b, bc)
    b_sq = l2_norm_sq(b)
    u_l4, u_linf = pointwise_norms(u)
    b_l4, b_linf = pointwise_norms(b)
    row = dict(
        t=t,
        u_L2_sq=l2_norm_sq(u),
        grad_u_L2_sq=grad_norm_sq(u),
        b_L2_sq=b_sq,
        b_H1_sq=b_sq + grad_norm_sq(b, bc),
        btilde_L2_sq=btilde_sq,
        grad_btilde_L2_sq=grad_btilde_sq,
        u_L4=u_l4,
        b_L4=b_l4,
        u_Linf=u_linf,
        b_Linf=b_linf,
        h_H12_Gamma=hs_norm(trace, t, _SPEC12),
        h_H32_Gamma=hs_norm(trace, t, _SPEC32),
        dth_Hm12_Gamma=hs_norm_dt(trace, t, _SPECM12),
        div_u_Linf=float(np.max(np.abs(divergence(u).values))),
        div_b_Linf=float(np.max(np.abs(divergence(b).values))),
    )
    if ledger.strong:
        if h_p is None or poisson is None:
            raise ValueError("strong ledger rows need the parabolic lift and a Poisson solver")
        su, _ = stokes_apply(u, poisson)
        bhat = b - h_p
        row["Su_L2_sq"] = l2_norm_sq(su)
        row["bhat_H1_sq"] = l2_norm_sq(bhat) + grad_norm_sq(bhat)
        row["lap_bhat_L2_sq"] = l2_norm_sq(apply_lap_mirror(bhat))
    ledger.add_row(**row)
    return row


# --- Gronwall machinery ------------------------------------------------------

@dataclass
class GronwallBound:
    """Evaluated ingredients of the a-priori bounds."""

    times: np.ndarray
    psi: np.ndarray | None = None
    phi: np.ndarray | None = None
    bound: np.ndarray | None = None
    trajectory: np.ndarray | None = None
    k_series: np.ndarray | None = None


def _weak_parts(ledger: EnergyLedger):
    t = ledger.times
    e = ledger.col("u_L2_sq") + ledger.col("btilde_L2_sq")
    diss = ledger.col("grad_u_L2_sq") + ledger.col("grad_btilde_L2_sq")
    h2 = ledger.col("h_H12_Gamma") ** 2
    h4 = h2**2
    dth2 = ledger.col("dth_Hm12_Gamma") ** 2
    return t, e, diss, h2, h4, dth2


def weak_energy_terms(ledger: EnergyLedger):
    """The named terms of the weak inequality (see TERM_HOMOGENEITY)."""
    t, e, diss, h2, h4, dth2 = _weak_parts(ledger)
    return {
        "energy_rate": _time_difference(e, t, np.arange(len(t))),
        "dissipation": diss,
        "h4_energy": h4 * e,
        "source_h2": h2,
        "source_dth2": dth2,
        "source_h4": h4,
    }


def weak_energy_residual(ledger: EnergyLedger, c: float):
    """Per-instant margins of the differential energy inequality.

    margin(t) = d/dt(||u||^2 + ||btilde||^2) + dissipation
                - c*||h||^4*(energy) - c*(||h||^2 + ||dth||^2 + ||h||^4).
    """
    terms = weak_energy_terms(ledger)
    return (
        terms["energy_rate"]
        + terms["dissipation"]
        - c * terms["h4_energy"]
        - c * (terms["source_h2"] + terms["source_dth2"] + terms["source_h4"])
    )


def calibrate_weak_energy(ledger: EnergyLedger):
    """Smallest constant making the differential inequality hold on this run.

    The first two instants are excluded: one-sided time derivatives and the
    initial layer of the implicit scheme would otherwise dominate.
    """
    t, e, diss, h2, h4, dth2 = _weak_parts(ledger)
    num = (_time_difference(e, t, np.arange(len(t))) + diss)[2:]
    den = (h4 * e + h2 + dth2 + h4)[2:]
    return sharp_constant(num, den, 1e-14 * (1.0 + np.max(e)))


def sharp_constant(num, den, floor):
    """Largest num/den over the instants with den > floor, floored at 0."""
    mask = den > floor
    if not np.any(mask):
        return 0.0
    return float(max(0.0, np.max(num[mask] / den[mask])))


def gronwall_weak(ledger: EnergyLedger, c: float) -> GronwallBound:
    """Integrated a-priori bound: energy + dissipation <= (e^phi * phi + 1) * psi."""
    t, e, diss, h2, h4, dth2 = _weak_parts(ledger)
    psi = e[0] + c * cumtrapz(h2 + dth2 + h4, t)
    phi = c * cumtrapz(h4, t)
    bound = (np.exp(phi) * phi + 1.0) * psi
    trajectory = e + cumtrapz(diss, t)
    return GronwallBound(times=t, psi=psi, phi=phi, bound=bound, trajectory=trajectory)


def _strong_parts(ledger: EnergyLedger):
    t = ledger.times
    # stored bhat_H1_sq = L2^2 + grad^2 of bhat; the strong inequality wants
    # the seminorm, but bhat(0)=0 makes the two interchangeable up to the L2
    # part, which is dominated; use the full H1 square for a safe margin.
    e1 = ledger.col("grad_u_L2_sq") + ledger.col("bhat_H1_sq")
    d2 = ledger.col("Su_L2_sq") + ledger.col("lap_bhat_L2_sq")
    low = ledger.col("u_L2_sq") + ledger.col("b_L2_sq")
    h4 = ledger.col("h_H12_Gamma") ** 4
    h32 = ledger.col("h_H32_Gamma") ** 2
    return t, e1, d2, low, h4, h32


def strong_energy(ledger: EnergyLedger, c: float) -> tuple[np.ndarray, GronwallBound]:
    """Margins and Gronwall bound for the strong (H1/H2) inequality."""
    if not ledger.strong:
        raise ValueError("strong energy checks need a strong-mode ledger")
    t, e1, d2, low, h4, h32 = _strong_parts(ledger)
    k = c * low * e1
    margins = _time_difference(e1, t, np.arange(len(t))) + d2 - k * e1 - c * low * h4 - c * h32
    omega = e1[0] + c * cumtrapz(low * h4 + h32, t)
    phi = cumtrapz(k, t)
    # the measured constant can make the exponent astronomically large; the
    # bound is then effectively infinite, so saturate instead of overflowing
    with np.errstate(over="ignore"):
        bound = np.minimum(phi * np.exp(np.minimum(phi, 700.0)) + 1.0, 1e300) * omega
    trajectory = e1 + cumtrapz(d2, t)
    return margins, GronwallBound(times=t, bound=bound, trajectory=trajectory, k_series=k)


def calibrate_strong_energy(ledger: EnergyLedger):
    """The strong inequality's counterpart of ``calibrate_weak_energy``, without
    the first three instants."""
    t, e1, d2, low, h4, h32 = _strong_parts(ledger)
    num = (_time_difference(e1, t, np.arange(len(t))) + d2)[3:]
    den = (low * e1 * e1 + low * h4 + h32)[3:]
    return sharp_constant(num, den, 1e-14 * (1.0 + np.max(e1)))


# --- absorbing sets -----------------------------------------------------------

@dataclass
class AbsorbingRadii:
    rho0: float
    rho1: float
    t0: float
    t2: float


def window_sup(times, series, width=1.0):
    """sup over t of the trapezoid integral of `series` on [t, t+width]."""
    t = np.asarray(times)
    y = np.asarray(series)
    if t[-1] - t[0] <= width:
        return float(np.trapezoid(y, t))
    cum = cumtrapz(y, t)
    best = 0.0
    j = 0
    for i in range(len(t)):
        t_end = t[i] + width
        if t_end > t[-1] + 1e-12:
            break
        while t[j] < t_end - 1e-12:
            j += 1
        best = max(best, cum[j] - cum[i])
    return float(best)


def absorbing_radii(
    times,
    h12_sq,
    dth_sq,
    he_l2_sq,
    diam_b: float,
    c_p: float,
    c_tilde: float,
    c0: float,
    c_omega: float,
) -> AbsorbingRadii:
    """Radii and absorption times of the weak uniform absorbing ball.

    ``he_l2_sq`` is the squared L2(domain) norm of the harmonic lift over
    time, whose sup realizes the L-infinity translation term of the radius.
    """
    h_inf = float(np.max(he_l2_sq)) if len(np.atleast_1d(he_l2_sq)) else 0.0
    w2 = window_sup(times, h12_sq)
    wd = window_sup(times, dth_sq)
    w4 = window_sup(times, np.asarray(h12_sq) ** 2)
    geom = math.exp(c_p) * c0 / (math.exp(c_p) - 1.0)
    rho0 = 2.0 * c_tilde * h_inf + geom * (w2 + wd + w4)
    rho1 = (c_p + 1.0 + c_omega) * rho0
    if h_inf <= 0.0:
        t0 = math.inf
    else:
        t0 = math.log(max(diam_b, 1e-300) / (c_tilde * h_inf)) / c_p
        t0 = max(t0, 0.0)
    return AbsorbingRadii(rho0, rho1, t0, t0 + 1.0)


def normality_eta(times, norm_series, eps):
    """Largest dyadic window width with sup_t int_t^{t+eta} ||g||^2 <= eps."""
    t = np.asarray(times)
    y = np.asarray(norm_series) ** 2.0
    w = t[-1] - t[0]
    while w > (t[1] - t[0]) if len(t) > 1 else 0:
        if window_sup(t, y, w) <= eps:
            return float(w)
        w /= 2.0
    return 0.0


def smallness_gate(c1: float, sup_h12: float, c_p: float):
    """(A-type) gate: c1 * sup_t ||h||^4 <= c_p."""
    val = c1 * sup_h12**4
    return val <= c_p, val


# --- pointwise functional ratios ---------------------------------------------

def brezis_gallouet_ratio(f) -> float:
    """sup-norm over H1 * sqrt(1 + log(H2^2/H1^2)), for zero-trace fields."""
    if isinstance(f, ScalarField):
        lap = l2_norm_sq(apply_lap_mirror_scalar(f))
        sup = float(np.max(np.abs(f.values)))
    else:
        lap = l2_norm_sq(apply_lap_mirror(f))
        sup = pointwise_norms(f)[1]
    h1_sq = l2_norm_sq(f) + grad_norm_sq(f)
    if h1_sq <= 0.0:
        raise ValueError("undefined ratio for the zero field")
    h2_sq = h1_sq + lap
    return sup / math.sqrt(h1_sq * (1.0 + math.log(h2_sq / h1_sq)))


def stokes_regularity_ratio(u: VectorField, poisson: NeumannPoisson) -> float:
    """(||u||_{H2} + ||grad P||) / ||S u|| on the div-free zero-trace subspace."""
    su, gp = stokes_apply(u, poisson)
    s_norm = math.sqrt(l2_norm_sq(su))
    if s_norm <= 0.0:
        raise ValueError("undefined ratio: S u = 0")
    lap = apply_lap_mirror(u)
    h2 = math.sqrt(l2_norm_sq(u) + grad_norm_sq(u) + l2_norm_sq(lap))
    return (h2 + math.sqrt(l2_norm_sq(gp))) / s_norm


# --- calibration store ---------------------------------------------------------

CALIB_MAGIC = "MHDCALIB1"


class CalibrationStore:
    """Versioned text store: checker name -> (constant, calibration scenario id)."""

    def __init__(self, values=None):
        self.values = dict(values or {})

    def get(self, name):
        if name not in self.values:
            raise KeyError(f"calibration constant {name!r} missing; run calibrate first")
        return self.values[name][0]

    def set(self, name, value, scenario_id):
        self.values[name] = (float(value), str(scenario_id))

    def to_text(self):
        lines = [CALIB_MAGIC]
        for name in sorted(self.values):
            v, sid = self.values[name]
            lines.append(f"{name} {v!r} {sid}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        atomic_write_text(path, self.to_text())

    @classmethod
    def read(cls, path):
        """Read a store; a file that cannot be read, a bad magic line and each
        malformed or non-finite entry raise one ConfigError naming the path."""
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigError([f"calibration store {path}: cannot read ({exc.strerror}); "
                               "run the calibrate command first"]) from None
        if not lines or lines[0] != CALIB_MAGIC:
            raise ConfigError([f"calibration store {path}: line 1: expected {CALIB_MAGIC}"])
        values, errors = {}, []
        for n, ln in enumerate(lines[1:], start=2):
            if not ln.strip():
                continue
            try:
                name, v, sid = ln.split()
                value = float(v)
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                values[name] = (value, sid)
            else:
                errors.append(f"calibration store {path}: line {n}: {ln!r} is not "
                              "'name value scenario' with a finite value")
        if errors:
            raise ConfigError(errors)
        return cls(values)
