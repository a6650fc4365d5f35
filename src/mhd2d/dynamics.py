"""Coupled time stepper: Picard-iterated magnetic step, implicit Stokes
velocity step, damped outer fixed point, and the driving `run` loop.

One step advances (u, b, p) by dt with implicit Euler diffusion.  The
magnetic solve treats transport by the frozen velocity implicitly and
lags the stretching term through a Picard iteration whose contraction
ratio is measured and reported.  The transport operator is factored at a
reference velocity u_ref and kept across steps while the step's start
velocity u^n stays within ``TRANSPORT_REUSE_THETA`` of it (relative L2
distance); otherwise it is refactored at u^n.  Every outer iterate ubar
reuses the live factorization and lags the difference (ubar - u_ref)·grad b
in the same Picard loop, so the fixed point is the implicit-transport
solution at ubar whatever u_ref is (and when u_ref = ubar the first Picard
iterate is exactly the implicit solve).  A zero velocity is factored like
any other, which gives the heat operator.  The first outer iterate starts
its Picard loop from 2 b^n_hat - b^(n-1)_hat, extrapolated from the magnetic
iterates the last two steps accepted before divergence cleaning (the
Stepper carries them; a run starts from (b0, b0), i.e. from b0 exactly), and
outer iterate k >= 2 from iterate k-1's b (a warm start).  The stop test and
the fixed point do not depend on the start, so it moves results only
within the Picard tolerance.
The velocity solve is an implicit Stokes step on the stream-function
parameterization of the divergence-free subspace (or a Galerkin
coefficient update when a velocity eigenbasis truncation is configured);
its nonlinear terms are lagged.  The outer loop alternates the two solves
until successive velocity iterates agree.
``Stepper.coupled_step`` is the one caller of the two sub-steps and owns
what they share: it looks up the boundary data and the body forces at the
new time once per step (the ledger row after the step reuses that boundary
data), keeps or refactors the transport pair, and recovers the pressure
once, from the accepted iterate.  What a step holds fixed is prepared once:
the transport pair's Dirichlet right-hand sides and the fixed fields'
halves of the convection terms (``geometry.advecting_half`` and
``transported_half``) once per magnetic step, u^n's half of the velocity
transport once per coupled step.
Fields inside a step are built without a finiteness scan
(``geometry.VectorField._unchecked``).  The accepted (u, b, p) is scanned
once, and a Picard or outer residual that is NaN or infinite ends the step
at once; either raises ``StepFailure``.  The Picard and outer loops run
with numpy's overflow and invalid-value warnings off, since every such
value ends in one of these two checks.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CompatibilityError, ConfigError, StepFailure
from .estimates import EnergyLedger, record
from .geometry import (
    Grid,
    ScalarField,
    TransportedHalf,
    VectorBC,
    VectorField,
    advecting_half,
    all_finite,
    convect,
    convect_halves,
    divergence,
    l2_norm_sq,
    transported_half,
)
from .lifting import (
    BoundaryTrace,
    boundary_l2_norm,
    harmonic_extend_bc,
    heat_step,
    normal_trace,
)
from .operators import (
    NeumannPoisson,
    StokesSaddle,
    TransportOperator,
    project_divfree,
)
from .spectral import SpectralBasis, project

__all__ = [
    "SolverConfig",
    "SimState",
    "StepReport",
    "TransportPair",
    "Restart",
    "Forcing",
    "CompatReport",
    "compatibility_check",
    "Stepper",
    "Trajectory",
    "run",
    "write_checkpoint",
    "read_checkpoint",
    "check_restart_header",
    "CKPT_MAGIC",
    "TRANSPORT_REUSE_THETA",
]

CKPT_MAGIC = b"MHDCKPT3"
_CKPT_V2_MAGIC = b"MHDCKPT2"
_CKPT_V1_MAGIC = b"MHDCKPT1"

# The factored transport pair is kept while ||u^n - u_ref|| <= theta ||u^n||
# (L2 norms).  With warm-started outer iterates, 0.5 factors 62 pairs in the
# 375 steps of calib-osc at 32^2 (220 at 0.1) for +0.2% Picard iterations per
# magnetic step; 1.0 saves 33 more pairs for +0.6%.  Outer iteration counts
# do not move, and tail compactness at 64^2 keeps one pair at every value.
TRANSPORT_REUSE_THETA = 0.5

# iteration caps of the magnetic Picard loop and of the outer fixed point
PICARD_MAX_ITER = 25
OUTER_MAX_ITER = 12


@dataclass
class SolverConfig:
    """Grid, stepping, physics and tolerance settings for one run."""

    nx: int = 32
    ny: int = 32
    dt: float = 1e-3
    t_final: float = 1.0
    re: float = 1.0
    rm: float = 1.0
    s: float = 1.0
    n_modes: int | None = None  # None = full velocity space
    m_diag: int = 0
    picard_tol: float = 1e-10
    outer_mode: str = "fixed_point"  # or "single_pass"
    outer_tol: float = 1e-9
    compat_tol_factor: float = 1e-8
    div_clean_threshold: float = 1e-10
    strong_mode: bool = False
    keep_states: bool = False
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None

    def validate(self):
        bad = []
        if self.nx < 4 or self.ny < 4:
            bad.append("grid.nx/grid.ny must be >= 4")
        if self.nx != self.ny:
            bad.append("grid.nx must equal grid.ny (boundary traces use uniform arc-length nodes)")
        full = (self.nx - 1) * (self.ny - 1)  # dimension of the discrete solenoidal space
        if self.n_modes is not None and not 1 <= self.n_modes <= full:
            bad.append(f"galerkin.n must be 'full' or in 1..{full} on this grid")
        faces = (self.nx - 1) * self.ny + self.nx * (self.ny - 1)  # interior face dofs
        if not 0 <= self.m_diag <= faces:
            bad.append(f"galerkin.m must be in 0..{faces} on this grid")
        if not self.dt > 0:
            bad.append("time.dt must be positive")
        if self.t_final < self.dt:
            bad.append("time.T must be >= dt")
        for name in ("picard_tol", "outer_tol", "compat_tol_factor"):
            if not getattr(self, name) > 0:
                bad.append(f"tolerances.{name} must be positive")
        if self.outer_mode not in ("fixed_point", "single_pass"):
            bad.append("outer mode must be fixed_point or single_pass")
        if self.checkpoint_every < 0:
            bad.append("outputs.checkpoint_every must be >= 0 (0 writes no checkpoints)")
        if bad:
            raise ConfigError(bad)
        return self

    def grid(self):
        return Grid(self.nx, self.ny)


@dataclass
class SimState:
    t: float
    u: VectorField
    b: VectorField
    p: ScalarField

    def validate(self, trace: BoundaryTrace | None = None, div_tol=1e-9, trace_tol=1e-7):
        if np.max(np.abs(divergence(self.u).values)) >= div_tol:
            raise ValueError("velocity is not discretely divergence-free")
        if abs(float(self.p.values.mean())) >= 1e-12:
            raise ValueError("pressure is not mean-zero")
        if trace is not None:
            got = normal_trace(self.b)
            want = trace.normal_values(self.t)
            if boundary_l2_norm(got - want, self.u.grid.dx) >= trace_tol:
                raise ValueError("magnetic trace does not match the boundary data")
        return self


@dataclass
class StepReport:
    """Solver health of one magnetic or coupled step.  A magnetic step fills
    the Picard fields only.  A coupled step sums the Picard iterations and
    takes the largest contraction ratio over its outer iterates; the Picard
    residual is the last iterate's."""

    dt: float
    picard_iterations: int = 0
    picard_residual: float = 0.0
    contraction_ratio: float = 0.0
    outer_iterations: int = 0
    outer_residual: float = 0.0
    div_b_before_clean: float = 0.0
    cleaned: bool = False
    transport_refactored: bool = False


class TransportPair(NamedTuple):
    """x/y magnetic transport operators factored at the advecting velocity u_ref."""

    u_ref: VectorField
    x: TransportOperator
    y: TransportOperator


class Restart(NamedTuple):
    """What a run needs beyond its SimState to continue bit for bit: the
    velocity u_ref the live transport pair is factored at, and the magnetic
    iterates the last two steps accepted before cleaning, b^(n-1)_hat and
    b^n_hat, which start the next step's Picard loop."""

    u_ref: VectorField
    b_prev: VectorField
    b_last: VectorField


@dataclass
class Forcing:
    """Optional body forces; callables t -> VectorField."""

    u: object | None = None
    b: object | None = None

    def u_at(self, t):
        return self.u(t) if self.u is not None else None

    def b_at(self, t):
        return self.b(t) if self.b is not None else None


@dataclass
class CompatReport:
    div_u: float
    div_b: float
    u_trace: float
    b_trace: float
    net_flux: float
    passed: bool


def compatibility_check(
    u0: VectorField, b0: VectorField, trace: BoundaryTrace, tol_factor=1e-8, t=None
) -> CompatReport:
    """Initial/boundary compatibility: solenoidal data, matching traces."""
    g = u0.grid
    t = trace.times[0] if t is None else t
    div_u = float(np.max(np.abs(divergence(u0).values)))
    div_b = float(np.max(np.abs(divergence(b0).values)))
    u_trace = boundary_l2_norm(normal_trace(u0), g.dx)
    want = trace.normal_values(t)
    b_trace = boundary_l2_norm(normal_trace(b0) - want, g.dx)
    scale = boundary_l2_norm(want, g.dx)
    flux = trace.net_flux(t)
    ok = bool(
        div_u < 1e-9 * (1.0 + np.max(np.abs(u0.x)) + np.max(np.abs(u0.y)))
        and div_b < 1e-9 * (1.0 + np.max(np.abs(b0.x)) + np.max(np.abs(b0.y)))
        and u_trace < tol_factor * (1.0 + scale)
        and b_trace < tol_factor * (1.0 + scale)
        and abs(flux) < 1e-9 * (1.0 + scale)
    )
    return CompatReport(div_u, div_b, u_trace, b_trace, flux, ok)


class Stepper:
    """Operator-caching session for repeated coupled steps on one grid."""

    def __init__(
        self,
        cfg: SolverConfig,
        trace: BoundaryTrace,
        basis: SpectralBasis | None = None,
        forcing: Forcing | None = None,
    ):
        cfg.validate()
        self.cfg = cfg
        self.grid = cfg.grid()
        self.trace = trace
        self.forcing = forcing or Forcing()
        self.poisson = NeumannPoisson(self.grid)
        self.basis = basis
        if cfg.n_modes is not None:
            if basis is None or basis.kind != "stokes" or basis.count < cfg.n_modes:
                raise ConfigError(
                    ["galerkin truncation requires a stokes basis with >= n modes"]
                )
            self.saddle = None
        else:
            self.saddle = StokesSaddle(self.grid, 1.0 / cfg.dt, 1.0 / cfg.re, self.poisson)
        self._bc = None  # (t, boundary data at t) of the latest lookup
        self.transport: TransportPair | None = None  # the live pair, kept across steps
        # (t, b^(n-1)_hat, b^n_hat): the last two accepted magnetic iterates
        # before cleaning, the second one taken at t
        self.b_iterates: tuple | None = None

    def vector_bc(self, t) -> VectorBC:
        """Boundary data at t.  The latest instant is kept, so a coupled step
        and the ledger row recorded after it share one lookup."""
        if self._bc is None or self._bc[0] != t:
            self._bc = (t, self.trace.vector_bc(t))
        return self._bc[1]

    def iterates(self, state: SimState):
        """The carried (b^(n-1)_hat, b^n_hat) when taken at state.t, else
        (b^n, b^n), whose extrapolation is b^n exactly (2x - x == x)."""
        if self.b_iterates is None or self.b_iterates[0] != state.t:
            return state.b, state.b
        return self.b_iterates[1:]

    def restart(self, state: SimState) -> Restart:
        """What a run resumed at ``state`` needs to continue as this one would."""
        u_ref = state.u if self.transport is None else self.transport.u_ref
        return Restart(u_ref, *self.iterates(state))

    # -- magnetic sub-step ---------------------------------------------------

    def transport_operators(self, u_ref: VectorField) -> TransportPair:
        """The x/y magnetic transport pair factored at the advecting velocity u_ref."""
        inv_dt, kappa = 1.0 / self.cfg.dt, 1.0 / self.cfg.rm
        return TransportPair(
            u_ref,
            TransportOperator(self.grid, "x", u_ref, inv_dt, kappa),
            TransportOperator(self.grid, "y", u_ref, inv_dt, kappa),
        )

    def keep_or_refactor(self, u: VectorField) -> bool:
        """Keep the live pair while ||u - u_ref|| <= theta ||u||, else factor
        a new one at u.  Returns whether it refactored."""
        if self.transport is not None and l2_norm_sq(u - self.transport.u_ref) <= (
            TRANSPORT_REUSE_THETA**2 * l2_norm_sq(u)
        ):
            return False
        self.transport = None  # drop the old pair first: at most one is ever live
        self.transport = self.transport_operators(u)
        return True

    def b_step(
        self,
        u_frozen: VectorField,
        b_prev: VectorField,
        t_prev: float,
        *,
        bc: VectorBC,
        transport: TransportPair,
        fb: VectorField | None,
        b_start: VectorField,
    ):
        """One implicit magnetic step from t_prev; transport implicit,
        stretching lagged.  Returns (b_new, StepReport).

        ``transport`` is a pair factored at a velocity u_ref; the transport
        by u_frozen - u_ref is lagged next to the stretching term, which
        leaves the Picard fixed point unchanged.  ``bc`` is the boundary data
        and ``fb`` the magnetic body force at the new time (None: no force).
        ``b_start`` is the first Picard iterate; the stop test and the fixed
        point do not depend on it.
        """
        cfg = self.cfg
        dt = cfg.dt
        t_next = t_prev + dt
        opx, opy = transport.x, transport.y
        shift = None  # u_frozen - u_ref, None when exactly zero
        if not (
            np.array_equal(u_frozen.x, transport.u_ref.x)
            and np.array_equal(u_frozen.y, transport.u_ref.y)
        ):
            shift = u_frozen - transport.u_ref
        pure_heat = l2_norm_sq(u_frozen) == 0.0
        exact = pure_heat and shift is None  # nothing lagged: one solve is exact
        rhs_x = b_prev.x / dt
        rhs_y = b_prev.y / dt
        if fb is not None:
            rhs_x = rhs_x + fb.x
            rhs_y = rhs_y + fb.y

        # fixed for the whole Picard loop: the Dirichlet right-hand sides,
        # u_frozen's half of the stretching term and shift's half of the
        # lagged transport; each iteration adds only the iterate's halves
        bnd_x, bnd_y = opx.boundary(bc), opy.boundary(bc)
        stretch = None if pure_heat else transported_half(u_frozen)
        lagged = None if shift is None else advecting_half(shift)

        cur = b_start
        residuals = []
        res = 0.0
        iters = 0
        cur_norm = 0.0  # ||cur||, kept from the last iterate for the tests below
        # a blown-up iterate warns nowhere: its residual raises StepFailure
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(PICARD_MAX_ITER):
                iters = j + 1
                if pure_heat:
                    lag_x = 0.0
                    lag_y = 0.0
                else:  # the stretching term at the lagged iterate
                    lag = convect_halves(advecting_half(cur), stretch)
                    lag_x, lag_y = lag.x, lag.y
                if shift is not None:
                    lag = convect_halves(lagged, transported_half(cur, bc))  # transport left out
                    lag_x, lag_y = lag_x - lag.x, lag_y - lag.y
                nxt = VectorField._unchecked(
                    self.grid, opx.solve(rhs_x + lag_x, bnd_x), opy.solve(rhs_y + lag_y, bnd_y)
                )
                res = np.sqrt(l2_norm_sq(nxt - cur))
                if not math.isfinite(res):  # a NaN or infinity in the iterate
                    raise StepFailure(
                        "magnetic Picard residual is non-finite",
                        t=t_next,
                        detail={"residuals": residuals + [res]},
                    )
                residuals.append(res)
                cur = nxt
                cur_norm = np.sqrt(l2_norm_sq(cur))
                if exact or res <= cfg.picard_tol * (1.0 + cur_norm):
                    break
        # contraction measured away from the round-off floor
        floor = max(1e-3 * cfg.picard_tol, 1e-13) * (1.0 + cur_norm)
        ratios = [
            b / a for a, b in zip(residuals, residuals[1:]) if a > floor and b > floor
        ]
        ratio = max(ratios) if ratios else 0.0
        if iters == PICARD_MAX_ITER and res > cfg.picard_tol * (1.0 + cur_norm):
            if ratio >= 1.0:
                raise StepFailure(
                    f"magnetic Picard iteration is not contracting (ratio {ratio:.3f}); "
                    "reduce dt",
                    t=t_next,
                    detail={"residuals": residuals, "ratio": ratio},
                )
        report = StepReport(
            dt=dt, picard_iterations=iters, picard_residual=float(res), contraction_ratio=float(ratio)
        )
        return cur, report

    # -- velocity sub-step -----------------------------------------------------

    def u_step(
        self,
        b_frozen: VectorField,
        u_prev: VectorField,
        *,
        u_advect: VectorField,
        bc: VectorBC,
        fu: VectorField | None,
        u_prev_half: TransportedHalf,
    ):
        """Implicit Stokes (or Galerkin coefficient) velocity update with the
        transport by ``u_advect`` and the Lorentz force of ``b_frozen`` lagged.

        Returns (u_new, f), where f is the step's right-hand side;
        ``self.pressure(f, u_new)`` recovers p from it.  ``bc`` is the
        magnetic boundary data and ``fu`` the velocity body force at the new
        time (None: no force).  ``u_prev_half`` is
        ``transported_half(u_prev)``, which the outer iterates of one coupled
        step share.
        """
        cfg = self.cfg
        dt = cfg.dt
        adv = convect_halves(advecting_half(u_advect), u_prev_half)
        lor = convect(b_frozen, b_frozen, bc)
        fx = u_prev.x / dt - adv.x + cfg.s * lor.x
        fy = u_prev.y / dt - adv.y + cfg.s * lor.y
        if fu is not None:
            fx = fx + fu.x
            fy = fy + fu.y
        force = VectorField._unchecked(self.grid, fx, fy)
        if cfg.n_modes is None:
            u_new = self.saddle.solve(fx, fy)
        else:
            n = cfg.n_modes
            coeffs, _ = project(self.basis, force, n)
            lam = self.basis.eigenvalues[:n]
            g_new = dt * coeffs / (1.0 + dt * lam / cfg.re)
            ux = np.tensordot(g_new, self.basis.modes_x[:n], axes=(0, 0))
            uy = np.tensordot(g_new, self.basis.modes_y[:n], axes=(0, 0))
            u_new = VectorField._unchecked(self.grid, ux, uy)
        return u_new, force

    def pressure(self, force: VectorField, u_new: VectorField) -> ScalarField:
        """The mean-zero pressure of a velocity step with right-hand side
        ``force`` and solution ``u_new`` (zero under a Galerkin truncation)."""
        if self.saddle is None:
            return ScalarField.zeros(self.grid)
        return self.saddle.pressure(force.x, force.y, u_new)

    # -- coupled step ------------------------------------------------------------

    def coupled_step(self, state: SimState):
        cfg = self.cfg
        ubar = state.u
        history = []
        b_older, b_last = self.iterates(state)
        b_new = 2.0 * b_last - b_older  # the first Picard loop's start
        u_new = state.u
        t_next = state.t + cfg.dt
        bc = self.vector_bc(t_next)
        fb, fu = self.forcing.b_at(t_next), self.forcing.u_at(t_next)
        u_half = transported_half(state.u)  # u^n's half of every outer iterate's transport
        # every outer iterate reuses the live pair, kept from earlier steps
        # while u^n stays close to its u_ref
        refactored = self.keep_or_refactor(state.u)

        b_reports = []  # one per outer iterate

        def magnetic(ub, b_start):
            b, rep = self.b_step(
                ub, state.b, state.t, bc=bc, transport=self.transport, fb=fb, b_start=b_start
            )
            b_reports.append(rep)
            return b

        def velocity(bn, ub):
            return self.u_step(bn, state.u, u_advect=ub, bc=bc, fu=fu, u_prev_half=u_half)

        # a blown-up iterate warns nowhere: a non-finite residual raises
        # StepFailure, and the accepted state is scanned below
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.outer_mode == "single_pass":
                b_new = magnetic(ubar, b_new)
                u_new, force = velocity(b_new, ubar)
                outer_iters, outer_res = 1, 0.0
            else:
                res_prev = np.inf
                outer_res = np.inf
                outer_iters = 0
                for k in range(OUTER_MAX_ITER):
                    outer_iters = k + 1
                    # warm start: Picard starts from the previous iterate's b
                    # (the extrapolation for the first), the fixed point at a
                    # nearby ubar
                    b_new = magnetic(ubar, b_new)
                    u_new, force = velocity(b_new, ubar)
                    outer_res = np.sqrt(l2_norm_sq(u_new - ubar))
                    history.append(float(outer_res))
                    if not math.isfinite(outer_res):
                        raise StepFailure(
                            "outer coupling residual is non-finite",
                            t=t_next,
                            detail={"residual_history": history},
                        )
                    if outer_res <= cfg.outer_tol * (1.0 + np.sqrt(l2_norm_sq(u_new))):
                        break
                    if outer_res > res_prev:
                        ubar = 0.5 * (ubar + u_new)  # damping on a non-monotone residual
                    else:
                        ubar = u_new
                    res_prev = outer_res
                else:
                    raise StepFailure(
                        "outer coupling loop did not converge",
                        t=t_next,
                        detail={"residual_history": history},
                    )
        p_new = self.pressure(force, u_new)  # of the accepted iterate only

        b_hat = b_new  # carried uncleaned
        div_before = float(np.max(np.abs(divergence(b_new).values)))
        cleaned = False
        if div_before > cfg.div_clean_threshold:
            b_new, _ = project_divfree(b_new, self.poisson)
            cleaned = True
        # the step's one finiteness scan: internal fields are built unchecked
        if not all_finite(u_new, b_new, p_new):
            raise StepFailure("the accepted step holds non-finite values", t=t_next)
        self.b_iterates = (t_next, b_last, b_hat)
        report = StepReport(
            dt=cfg.dt,
            # over all outer iterates: a warm-started last one alone often
            # takes one or two iterations at ratio 0
            picard_iterations=sum(r.picard_iterations for r in b_reports),
            picard_residual=b_reports[-1].picard_residual,
            contraction_ratio=max(r.contraction_ratio for r in b_reports),
            outer_iterations=outer_iters,
            outer_residual=float(outer_res),
            div_b_before_clean=div_before,
            cleaned=cleaned,
            transport_refactored=refactored,
        )
        return SimState(t_next, u_new, b_new, p_new), report


# --- trajectories and the run loop --------------------------------------------

@dataclass
class Trajectory:
    times: list
    final_state: SimState
    reports: list
    states: list | None = None
    restart: Restart | None = None  # what continuing from final_state needs


def run(
    cfg: SolverConfig,
    u0: VectorField,
    b0: VectorField,
    trace: BoundaryTrace,
    forcing: Forcing | None = None,
    basis: SpectralBasis | None = None,
    t0: float = 0.0,
    p0: ScalarField | None = None,
    restart: Restart | None = None,
):
    """March from t0 to t_final, recording the full energy ledger.

    In strong mode the parabolic lift is advanced alongside the state,
    re-initialized from b(t0) (each continuation window carries its own
    lift).  ``restart`` seeds the transport pair and the carried magnetic
    iterates (a restart passes the ones its checkpoint recorded, so it
    continues bit for bit).  Returns (Trajectory, EnergyLedger).
    """
    cfg.validate()
    grid = cfg.grid()
    stepper = Stepper(cfg, trace, basis=basis, forcing=forcing)
    if restart is not None:
        stepper.transport = stepper.transport_operators(restart.u_ref)
        stepper.b_iterates = (t0, restart.b_prev, restart.b_last)
    compat = compatibility_check(u0, b0, trace, cfg.compat_tol_factor, t=t0)
    if not compat.passed:
        raise CompatibilityError(f"initial data incompatible with the boundary data: {compat}")

    state = SimState(t0, u0.copy(), b0.copy(), p0.copy() if p0 else ScalarField.zeros(grid))
    ledger = EnergyLedger(strong=cfg.strong_mode)
    h_p = b0.copy() if cfg.strong_mode else None

    def _record(st, bc):
        h_e = harmonic_extend_bc(grid, bc)
        record(ledger, st.t, st.u, st.b, trace, h_e, h_p, stepper.poisson, bc=bc)

    _record(state, stepper.vector_bc(state.t))
    times = [t0]
    reports = []
    states = [SimState(state.t, state.u.copy(), state.b.copy(), state.p.copy())] if cfg.keep_states else None
    nsteps = int(round((cfg.t_final - t0) / cfg.dt))
    for k in range(nsteps):
        state, rep = stepper.coupled_step(state)
        bc = stepper.vector_bc(state.t)  # the step's own lookup
        if cfg.strong_mode:
            h_p = heat_step(h_p, cfg.dt, bc, 1.0 / cfg.rm)
        _record(state, bc)
        times.append(state.t)
        reports.append(rep)
        if states is not None:
            states.append(SimState(state.t, state.u.copy(), state.b.copy(), state.p.copy()))
        if cfg.checkpoint_every and (k + 1) % cfg.checkpoint_every == 0 and cfg.checkpoint_dir:
            import os

            path = os.path.join(cfg.checkpoint_dir, f"ckpt_{k + 1:06d}.mhdckpt")
            write_checkpoint(path, state, cfg, trace, stepper.restart(state))
    return Trajectory(times, state, reports, states, stepper.restart(state)), ledger


# --- checkpoints ----------------------------------------------------------------
#
# v3: MAGIC | header | crc32 | payload.  The header holds nx, ny, t, dt, the
# truncation (-1 = full), Re, Rm, S, the digest of the boundary data up to t
# (``BoundaryTrace.digest``) and the payload's byte count; the crc32 covers
# magic, header and payload.  The payload holds u, b, p and the `Restart`
# fields (u_ref, b^(n-1)_hat, b^n_hat) as little-endian f8.  v2 (magic
# MHDCKPT2, the same header, no carried iterates) reads with the iterates
# (b, b); v1 (magic MHDCKPT1, the first five header fields, no crc, no u_ref)
# with u_ref = u and (b, b).

_CKPT_HEADER = struct.Struct("<qqddqddd32sQ")
_CKPT_CRC = struct.Struct("<I")
_CKPT_V1_HEADER = struct.Struct("<qqddq")


def write_checkpoint(
    path, state: SimState, cfg: SolverConfig, trace: BoundaryTrace, restart: Restart | None = None
):
    """Write a v3 checkpoint; ``restart`` defaults to (state.u, state.b, state.b)."""
    from .ioutil import atomic_write_bytes

    g = state.u.grid
    if restart is None:
        restart = Restart(state.u, state.b, state.b)
    n_trunc = -1 if cfg.n_modes is None else cfg.n_modes
    arrays = [state.u.x, state.u.y, state.b.x, state.b.y, state.p.values]
    arrays += [a for f in restart for a in (f.x, f.y)]
    payload = b"".join(a.astype("<f8").tobytes() for a in arrays)
    head = CKPT_MAGIC + _CKPT_HEADER.pack(
        g.nx, g.ny, state.t, cfg.dt, n_trunc, cfg.re, cfg.rm, cfg.s,
        trace.digest(state.t), len(payload),
    )
    crc = _CKPT_CRC.pack(zlib.crc32(payload, zlib.crc32(head)))
    atomic_write_bytes(path, head + crc + payload)


def read_checkpoint(path):
    """Read a v3, v2 or v1 checkpoint; a malformed file raises ConfigError naming it."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError([f"checkpoint {path}: cannot read ({exc.strerror})"])
    bad = lambda why: ConfigError([f"checkpoint {path}: {why}"])
    magic = raw[: len(CKPT_MAGIC)]
    # vector fields stored after u, b, p: u_ref in v2, u_ref and the iterates in v3
    extra = {CKPT_MAGIC: 3, _CKPT_V2_MAGIC: 1, _CKPT_V1_MAGIC: 0}.get(magic)
    if extra is None:
        raise bad("not a checkpoint file (bad magic number)")
    v1 = magic == _CKPT_V1_MAGIC
    head = _CKPT_V1_HEADER if v1 else _CKPT_HEADER
    off = len(magic) + head.size + (0 if v1 else _CKPT_CRC.size)
    if len(raw) < off:
        raise bad(f"header truncated ({len(raw)} bytes)")
    fields = head.unpack_from(raw, len(magic))
    nx, ny, t, dt, n_trunc = fields[:5]
    physics, digest, nbytes = (None, None, None) if v1 else (fields[5:8], fields[8], fields[9])
    if nx < 4 or ny < 4:
        raise bad(f"header grid {nx}x{ny} is too coarse")
    if not all(map(math.isfinite, (t, dt) + (physics or ()))):
        raise bad(f"non-finite header value (t={t!r}, dt={dt!r}, Re, Rm, S={physics!r})")
    grid = Grid(nx, ny)
    vec = [grid.shape_xface(), grid.shape_yface()]
    shapes = vec * 2 + [grid.shape_center()] + vec * extra
    sizes = [a * b for a, b in shapes]
    if len(raw) - off != 8 * sum(sizes) or (not v1 and nbytes != 8 * sum(sizes)):
        raise bad(
            f"payload has {len(raw) - off} bytes (header: {nbytes}), "
            f"a {nx}x{ny} grid needs {8 * sum(sizes)}"
        )
    payload = np.frombuffer(raw, dtype="<f8", offset=off).astype(np.float64)
    if not np.all(np.isfinite(payload)):
        raise bad("non-finite field values")
    if not v1:
        crc_at = off - _CKPT_CRC.size
        if zlib.crc32(raw[off:], zlib.crc32(raw[:crc_at])) != _CKPT_CRC.unpack_from(raw, crc_at)[0]:
            raise bad("checksum mismatch (damaged file)")
    arrays = [a.reshape(s) for a, s in zip(np.split(payload, np.cumsum(sizes)[:-1]), shapes)]
    u = VectorField(grid, arrays[0], arrays[1])
    b = VectorField(grid, arrays[2], arrays[3])
    p = ScalarField(grid, arrays[4])
    carried = [VectorField(grid, *arrays[k : k + 2]) for k in range(5, len(arrays), 2)]
    if extra == 3:
        restart = Restart(*carried)
    else:  # v2 carries u_ref alone, v1 nothing
        restart = Restart(carried[0] if carried else u, b, b)
    return {
        "grid": grid,
        "t": t,
        "dt": dt,
        "n_modes": None if n_trunc < 0 else n_trunc,
        "physics": physics,  # (Re, Rm, S); None for v1
        "trace_digest": digest,  # None for v1
        "state": SimState(t, u, b, p),
        "restart": restart,
    }


def check_restart_header(ck, cfg: SolverConfig, trace: BoundaryTrace | None = None):
    """Restart refuses a mismatched discretization, physics or boundary trace.

    With ``trace``, the trace must sample the checkpoint time and (for v2)
    agree with the recorded boundary data up to it.
    """
    bad = []
    want = (cfg.nx, cfg.ny, cfg.dt, cfg.n_modes)
    got = (ck["grid"].nx, ck["grid"].ny, ck["dt"], ck["n_modes"])
    if want != got:
        bad.append(f"checkpoint header {got} does not match configuration {want}")
    if ck["physics"] is not None and ck["physics"] != (cfg.re, cfg.rm, cfg.s):
        bad.append(
            f"checkpoint physics (Re, Rm, S) = {ck['physics']} do not match "
            f"configuration {(cfg.re, cfg.rm, cfg.s)}"
        )
    if trace is not None:
        try:
            digest = trace.digest(ck["t"])
        except ValueError:
            bad.append(f"boundary trace has no instant at the checkpoint time t={ck['t']!r}")
        else:
            if ck["trace_digest"] is not None and digest != ck["trace_digest"]:
                bad.append(
                    f"boundary trace up to t={ck['t']!r} differs from the one "
                    "the checkpoint was written with"
                )
    if bad:
        raise ConfigError(bad)
