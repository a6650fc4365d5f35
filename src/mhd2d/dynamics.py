"""Coupled time stepper: Picard-iterated magnetic step, implicit Stokes
velocity step, outer fixed point, and the driving `run` loop.

One step advances (u, b, p) by dt with implicit Euler diffusion.  The
magnetic step is a chord iteration (Kelley, Iterative Methods for Linear and
Nonlinear Equations, SIAM 1995, sec. 5.4) on the closed-form heat operator
of its diffusion, ``operators.dirichlet_heat(grid, 1/dt, 1/Rm)``, memoized
per key: the transport by the frozen velocity ubar is lagged next to the
stretching term, so the fixed point is the implicit-transport solution at
ubar, and the contraction ratio of the Picard loop is measured and
reported.  The chord converges while the lag, max|u|/h against the heat
operator's diagonal 1/dt + 4/(Rm h^2), stays below about 1 (near the cell
Courant number at Rm >= 100).  The chord stops at its first residual that
is no smaller than the one before (both above the round-off floor of the
contraction ratio), or at the cap; an outer iterate whose full Picard loop
ends unconverged either way is redone on ``operators.TransportPair``
factored at u^n, and the rest of its step solves on that pair, which keeps
its cap.  A step whose chord converges factors no sparse matrix.
``b_step`` solves on the operator it is handed: one factored at a velocity
u_ref lags only (ubar - u_ref)·grad b, none when ubar is u_ref itself
(criterion 07's Picard map, and a fallback pair's first iterate).  The
first outer iterate starts its Picard loop from 2 b^n_hat - b^(n-1)_hat,
extrapolated from the magnetic iterates the last two steps accepted before
divergence cleaning (the Stepper carries them; a run starts from (b0, b0),
i.e. from b0 exactly), and outer iterate k >= 2 from iterate k-1's b (a warm
start).  The stop test and the fixed point do not depend on the start, so
it moves results only within the Picard tolerance.  The first outer iterate
runs one Picard iteration only: its ubar = u^n is rarely accepted, so a b
converged there is thrown away one iterate later.  Every later iterate runs
the full Picard loop, and the outer loop stops only at an iterate whose
outer residual and Picard test are both met, so the fixed point does not
change.
The velocity solve is an implicit Stokes step on the stream-function
parameterization of the divergence-free subspace (or a Galerkin
coefficient update when a velocity eigenbasis truncation is configured);
its nonlinear terms are lagged.  The outer loop alternates the two solves
until successive velocity iterates agree.
``Stepper.coupled_step`` is the one caller of the two sub-steps and owns
what they share: it looks up the boundary data and the body forces at the
new time once per step (the ledger row after the step reuses that boundary
data), and keeps the accepted iterate's velocity force.  The next step
does not read the pressure, so a step leaves p unset: ``Stepper.pressure``
recovers it from that force, and ``run`` calls it only for the states it
outputs (checkpoints and the final state; other kept states carry p None).
A run whose caller reads no energy ledger (``run(..., ledger=False)``)
records no row and advances no parabolic lift.  What a step holds fixed
is prepared once: once per coupled step, u^n's two halves in one pass
(``geometry.face_halves``), which are the first outer iterate's ubar
halves (ubar is u^n there) and whose transported half enters every
iterate's velocity transport, the magnetic operator's Dirichlet data
(``DirichletHeat.boundary``: kappa*Lap of the wall data, whose Laplacian
the ledger row at the same instant reuses), the right-hand sides b^n/dt
(+ f_b) and u^n/dt on the interior faces, one pair of wall rows under the
boundary data (``geometry.wall_rows``) that every magnetic iterate of the
step is built into in turn; and each later outer iterate's two halves of
ubar in one pass, which the velocity step's transport and the magnetic lag
share.  One Picard loop serves every ubar: at ubar = 0 the
chord's lag is exactly zero, so its first iteration is the one heat
solve.  Every advecting velocity is a Stokes output or an average of two,
divergence-free by construction, so its halves carry no divergence terms,
and neither the velocity transport nor the magnetic lag forms a
-f·(div ubar) product, which would be round-off.  An initial u0 is divergence-free only to within
the compatibility tolerance, so its first step leaves out a term of at
most that size.  b keeps its divergence terms (the Lorentz term, and the
chord's -ubar·(div b)), since b before cleaning carries an O(1) divergence.
A magnetic iterate moves through a step only as its halves, built once
(``geometry.magnetic_halves``: its two halves with the divergence terms,
and its cell divergence): ``coupled_step`` builds the first Picard loop's
start, and ``b_step`` takes its start's halves, builds each new iterate's
right after that iterate's solve and returns the last one's.  The Picard
iteration forms its lag from them, the velocity step the Lorentz term b·∇b
(``convect_interior``, equal to ``convect(b, b, bc)`` bit for bit), the
next outer iterate starts from them, and for the last iterate the
pre-cleaning scan takes its divergence from them, which the projection
then solves with (``project_divfree``'s ``div``).  A stalled chord has
overwritten the wall rows of its start, so its fallback pair starts from
that iterate's halves built anew.
A chord iteration forms its lag, stretching minus transport, as one
induction term on the interior faces (``geometry.induction_halves``): the
curl of the corner EMF E = ubar1 b2 - ubar2 b1 less ubar times b's
interpolated divergence, without the normal-flux products that cancel
between the two terms.  An iteration on a pair forms its lag terms with
``geometry.convect_interior``.  Either makes the two separable solves and
measures its residual and norm on the component arrays
(``geometry.norm_sq``).  The pair's loop and the norms repeat the
whole-field formulas operation for operation, bit for bit; the induction
term leaves out the cancelling products and so moves results by round-off.
The velocity step forms its force on the interior faces only, which is
all ``StokesSaddle.solve`` reads; its walls stay zero, and the pressure
recovery zeroes them whatever they hold.  Norms, maxima and square roots
call ndarray methods, ufunc reductions and ``math.sqrt``, which give the
bits of numpy's module-level functions without their Python-level dispatch.
Fields inside a step are built without a finiteness scan
(``geometry.VectorField._unchecked``).  The accepted (u, b) is scanned
once, a recovered p once, and a Picard or outer residual that is NaN or
infinite ends the step at once; each raises ``StepFailure``, which ``run``
extends with the 1-based index of the step.  The Picard and outer loops and
the pressure recovery run with numpy's overflow and invalid-value warnings
off, since every such value ends in one of these checks.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CompatibilityError, ConfigError, StepFailure
from .estimates import EnergyLedger, record
from .geometry import (
    AdvectingHalf,
    Grid,
    MagneticHalves,
    ScalarField,
    TransportedHalf,
    VectorBC,
    VectorField,
    _max,
    advecting_half,
    all_finite,
    convect_interior,
    divergence,
    face_halves,
    induction_halves,
    l2_norm_sq,
    magnetic_halves,
    norm_sq,
    wall_rows,
)
from .ioutil import atomic_write_bytes
from .lifting import (
    BoundaryTrace,
    boundary_l2_norm,
    check_compatibility_trace,
    heat_step,
    normal_trace,
)
from .operators import StokesSaddle, TransportPair, dirichlet_heat, project_divfree
from .spectral import SpectralBasis, project

__all__ = [
    "SolverConfig",
    "SimState",
    "StepReport",
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
    "DIV_CLEAN_THRESHOLD",
]

CKPT_MAGIC = b"MHDCKPT4"

# b is projected onto div-free fields when max |div b| exceeds this after a
# step; the pre-cleaning divergence is O(1), so every step is cleaned
DIV_CLEAN_THRESHOLD = 1e-10

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
    picard_tol: float = 1e-10
    outer_mode: str = "fixed_point"  # or "single_pass"
    outer_tol: float = 1e-9
    compat_tol_factor: float = 1e-8
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
        if not self.dt > 0:
            bad.append("time.dt must be positive")
        elif not math.isfinite(self.dt):
            bad.append("time.dt must be finite")
        if not math.isfinite(self.t_final):
            bad.append("time.T must be finite")
        elif math.isfinite(self.dt) and self.t_final < self.dt:
            bad.append("time.T must be >= dt")
        # what the config file refuses, under its keys: Rm = 0 divides by zero
        for name, key in (
            ("re", "physics.Re"),
            ("rm", "physics.Rm"),
            ("s", "physics.S"),
            ("picard_tol", "tolerances.picard"),
            ("outer_tol", "tolerances.outer"),
            ("compat_tol_factor", "tolerances.compatibility"),
        ):
            if not 0 < getattr(self, name) < math.inf:
                bad.append(f"{key} must be positive and finite")
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
    """The state at t.  A coupled step leaves p None; ``Stepper.pressure``
    recovers it, and each checkpoint and final state of ``run`` carries it."""

    t: float
    u: VectorField
    b: VectorField
    p: ScalarField | None


@dataclass
class StepReport:
    """Solver health of one magnetic or coupled step.  A magnetic step fills
    the Picard fields only.  A coupled step sums the Picard iterations of
    every magnetic step it made (an iterate redone on the transport pair
    counts the stalled chord's too, up to the iteration at which its
    residual stopped falling or the cap; the pair's own report counts only
    the pair's) and takes the largest contraction ratio over its outer
    iterates, of the pair's loop where it fell back; the Picard residual and
    ``picard_converged`` are the last iterate's."""

    dt: float
    picard_iterations: int = 0
    picard_residual: float = 0.0
    contraction_ratio: float = 0.0
    picard_converged: bool = True  # the last Picard increment met picard_tol
    outer_iterations: int = 0
    outer_residual: float = 0.0
    div_b_before_clean: float = 0.0
    cleaned: bool = False


class Restart(NamedTuple):
    """What a run needs beyond its SimState to continue bit for bit: the
    magnetic iterates the last two steps accepted before cleaning,
    b^(n-1)_hat and b^n_hat, which start the next step's Picard loop."""

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
    """Initial/boundary compatibility: solenoidal data, matching traces.

    The magnetic normal-trace residual is ``lifting.check_compatibility_trace``.
    """
    g = u0.grid
    t = trace.times[0] if t is None else t
    div_u = float(np.max(np.abs(divergence(u0).values)))
    div_b = float(np.max(np.abs(divergence(b0).values)))
    u_trace = boundary_l2_norm(normal_trace(u0), g.dx)
    b_trace, scale, b_ok = check_compatibility_trace(b0, trace, tol_factor, t)
    flux = trace.net_flux(t)
    ok = bool(
        div_u < 1e-9 * (1.0 + np.max(np.abs(u0.x)) + np.max(np.abs(u0.y)))
        and div_b < 1e-9 * (1.0 + np.max(np.abs(b0.x)) + np.max(np.abs(b0.y)))
        and u_trace < tol_factor * (1.0 + scale)
        and b_ok
        and abs(flux) < 1e-9 * (1.0 + scale)
    )
    return CompatReport(div_u, div_b, u_trace, b_trace, flux, ok)


def _interior_rhs(f: VectorField, dt: float, force: VectorField | None = None):
    """f/dt (+ force) on the interior faces, where the implicit solves read
    an implicit-Euler right-hand side: the x array (nx-1, ny) and the y
    array (nx, ny-1)."""
    rx, ry = f.x[1:-1, :] / dt, f.y[:, 1:-1] / dt
    if force is not None:
        rx, ry = rx + force.x[1:-1, :], ry + force.y[:, 1:-1]
    return rx, ry


class Stepper:
    """Repeated coupled steps on one grid.  It holds the velocity step's
    ``StokesSaddle`` (none under a Galerkin truncation), the latest boundary
    lookup and what one step hands the next: the last two magnetic iterates
    and the accepted velocity force.  The heat and Poisson solvers are
    memoized per key in ``operators`` and looked up where a step needs them."""

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
        self.basis = basis
        if cfg.n_modes is not None:
            if basis is None or basis.kind != "stokes" or basis.count < cfg.n_modes:
                raise ConfigError(
                    ["galerkin truncation requires a stokes basis with >= n modes"]
                )
            self.saddle = None
        else:
            self.saddle = StokesSaddle(self.grid, 1.0 / cfg.dt, 1.0 / cfg.re)
        self._bc = None  # (t, boundary data at t) of the latest lookup
        # (t, b^(n-1)_hat, b^n_hat): the last two accepted magnetic iterates
        # before cleaning, the second one taken at t
        self.b_iterates: tuple | None = None
        # (t, the velocity force of the iterate the step to t accepted)
        self.force: tuple | None = None

    def vector_bc(self, t) -> VectorBC:
        """Boundary data at t.  The latest instant is kept, so a coupled step
        and the ledger row recorded after it share one lookup."""
        if self._bc is None or self._bc[0] != t:
            self._bc = (t, self.trace.vector_bc(t))
        return self._bc[1]

    def carried_iterates(self, state: SimState):
        """The carried (b^(n-1)_hat, b^n_hat) when taken at state.t, else
        (b^n, b^n), whose extrapolation is b^n exactly (2x - x == x)."""
        if self.b_iterates is None or self.b_iterates[0] != state.t:
            return state.b, state.b
        return self.b_iterates[1:]

    def restart(self, state: SimState) -> Restart:
        """What a run resumed at ``state`` needs to continue as this one would."""
        return Restart(*self.carried_iterates(state))

    # -- magnetic sub-step ---------------------------------------------------

    def magnetic_operator(self, u_n: VectorField):
        """The operator the magnetic steps from u^n start on: the memoized
        closed-form heat operator, whatever u^n is."""
        return dirichlet_heat(self.grid, 1.0 / self.cfg.dt, 1.0 / self.cfg.rm)

    def b_step(
        self,
        u_frozen: VectorField,
        t_prev: float,
        *,
        rhs: tuple[np.ndarray, np.ndarray],
        operator,
        boundary: tuple,
        start: MagneticHalves,
        u_frozen_halves: tuple[AdvectingHalf, TransportedHalf],
        max_iter: int = PICARD_MAX_ITER,
    ):
        """One implicit magnetic step from t_prev: the implicit-transport
        solution at u_frozen, reached by a Picard loop on ``operator`` that
        lags the stretching term.  Returns (halves, StepReport), where
        ``halves.t.f`` is the new b and ``halves`` its ``magnetic_halves``
        under the boundary data at the new time.

        ``rhs`` is b_prev/dt (+ f_b, the magnetic body force at the new
        time) on the interior faces (``_interior_rhs``).  ``operator`` is the
        implicit-Euler diffusion operator with the transport by its velocity
        ``u_ref`` (None: zero), such as ``self.magnetic_operator(u^n)``, and
        ``boundary`` its Dirichlet data ``operator.boundary(bc)`` under the
        boundary data bc at the new time.  ``start`` is the first Picard
        iterate's ``magnetic_halves`` under bc; the stop test and the fixed
        point do not depend on it.  Each iteration builds its iterate's
        halves once, into ``start``'s wall rows, which it overwrites.
        ``u_frozen_halves`` is ``face_halves(u_frozen)``, without divergence
        terms, which the outer iterate shares with its velocity step.
        ``coupled_step`` prepares rhs and boundary once per step.  On the
        heat chord (u_ref None) each iteration lags the whole induction term
        ``induction_halves``, exactly zero at u_frozen = 0, where a second
        iteration confirms the first with residual 0; on a pair it lags the
        stretching term (the iterate's half with its divergence terms) less
        the transport by u_frozen - u_ref (a velocity's half), none when
        u_frozen is u_ref itself; the lag leaves the fixed point unchanged.
        ``max_iter`` caps the Picard iterations; the heat chord also stops
        at its first residual that is no smaller than the one before, both
        above the round-off floor of the contraction ratio.  A loop that
        stops unconverged reports ``picard_converged`` False and its ratio,
        on which ``coupled_step`` falls back to the transport pair or raises
        ``StepFailure``.
        """
        cfg = self.cfg
        g = self.grid
        dt = cfg.dt
        t_next = t_prev + dt
        u_ref = operator.u_ref
        # the heat chord lags the whole induction term, and stops once it stalls
        chord = u_ref is None
        # on a pair, the transport by u_frozen - u_ref, unless u_frozen is u_ref
        lagged = None if chord or u_frozen is u_ref else advecting_half(u_frozen - u_ref)
        rhs_x, rhs_y = rhs
        walls = start.t.f1y, start.t.f2x

        halves = start
        residuals = []
        res = 0.0
        iters = 0
        cur_norm = 0.0  # ||cur||, kept from the last iterate for the tests below
        # contraction is measured away from the round-off floor round_off * (1 + ||cur||)
        round_off = max(1e-3 * cfg.picard_tol, 1e-13)
        converged = False
        # a blown-up iterate warns nowhere: its residual raises StepFailure
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(max_iter):
                iters = j + 1
                if chord:
                    lag_x, lag_y = induction_halves(halves.a, halves.t, *u_frozen_halves)
                else:
                    lag_x, lag_y = convect_interior(halves.a, u_frozen_halves[1])  # the stretching term
                    if lagged is not None:  # transport left out of the operator
                        tx, ty = convect_interior(lagged, halves.t)
                        lag_x, lag_y = lag_x - tx, lag_y - ty
                cur = halves.t.f
                nxt_x, nxt_y = operator.solve_interior(rhs_x + lag_x, rhs_y + lag_y, boundary)
                res = math.sqrt(norm_sq(g, nxt_x - cur.x, nxt_y - cur.y))
                if not math.isfinite(res):  # a NaN or infinity in the iterate
                    raise StepFailure(
                        "magnetic Picard residual is non-finite",
                        t=t_next,
                        detail={"residuals": residuals + [res]},
                    )
                residuals.append(res)
                halves = magnetic_halves(VectorField._unchecked(g, nxt_x, nxt_y), walls)
                cur_norm = math.sqrt(norm_sq(g, nxt_x, nxt_y))
                converged = res <= cfg.picard_tol * (1.0 + cur_norm)
                if converged:
                    break
                if chord and j > 0 and res >= residuals[-2] > round_off * (1.0 + cur_norm):
                    break  # the chord has stalled: coupled_step falls back to the pair
        floor = round_off * (1.0 + cur_norm)
        ratios = [
            b / a for a, b in zip(residuals, residuals[1:]) if a > floor and b > floor
        ]
        ratio = max(ratios) if ratios else 0.0
        report = StepReport(
            dt=dt, picard_iterations=iters, picard_residual=float(res),
            contraction_ratio=float(ratio), picard_converged=converged,
        )
        return halves, report

    # -- velocity sub-step -----------------------------------------------------

    def u_step(
        self,
        b_halves: MagneticHalves,
        rhs: tuple[np.ndarray, np.ndarray],
        *,
        u_advect_half: AdvectingHalf,
        u_prev_half: TransportedHalf,
        fu: VectorField | None,
    ):
        """Implicit Stokes (or Galerkin coefficient) velocity update with the
        transport by the advecting velocity and the Lorentz force of the
        frozen magnetic field b lagged.

        Returns (u_new, f), where f is the step's right-hand side on the
        interior faces, zero on the walls, from which
        ``self.saddle.pressure(f.x, f.y, u_new)`` recovers p.  ``b_halves``
        are b's ``magnetic_halves`` under the boundary data at the new time,
        from which the Lorentz term b·∇b is formed, equal bit for bit to
        ``convect(b, b, bc)`` with b's divergence terms; ``coupled_step``
        builds them once per magnetic iterate for this term, the next Picard
        loop's start and the pre-cleaning scan.  ``rhs`` is u_prev/dt on
        the interior faces (``_interior_rhs``) and ``u_prev_half``
        u_prev's transported half with zero walls, which the outer iterates
        of one coupled step share (``coupled_step`` takes both of u^n's
        halves from one ``face_halves``).  ``u_advect_half`` is the advecting velocity's
        ``advecting_half``, without divergence terms, which the outer iterate
        shares with its magnetic step.  ``fu`` is the velocity body force at
        the new time (None: no force).
        """
        cfg = self.cfg
        g = self.grid
        adv_x, adv_y = convect_interior(u_advect_half, u_prev_half)
        lor_x, lor_y = convect_interior(b_halves.a, b_halves.t)
        # only the interior faces: the saddle's solve reads no wall face, and
        # its pressure recovery zeroes them
        fx, fy = np.zeros(g.shape_xface()), np.zeros(g.shape_yface())
        fx[1:-1, :] = rhs[0] - adv_x + cfg.s * lor_x
        fy[:, 1:-1] = rhs[1] - adv_y + cfg.s * lor_y
        if fu is not None:
            fx[1:-1, :] += fu.x[1:-1, :]
            fy[:, 1:-1] += fu.y[:, 1:-1]
        force = VectorField._unchecked(g, fx, fy)
        if cfg.n_modes is None:
            u_new = self.saddle.solve(fx, fy)
        else:
            n = cfg.n_modes
            coeffs, _ = project(self.basis, force, n)
            lam = self.basis.eigenvalues[:n]
            dt = cfg.dt
            g_new = dt * coeffs / (1.0 + dt * lam / cfg.re)
            ux = np.tensordot(g_new, self.basis.modes_x[:n], axes=(0, 0))
            uy = np.tensordot(g_new, self.basis.modes_y[:n], axes=(0, 0))
            u_new = VectorField._unchecked(g, ux, uy)
        return u_new, force

    def pressure(self, state: SimState) -> ScalarField:
        """The mean-zero pressure of ``state``, the latest state a coupled step
        accepted (zero under a Galerkin truncation), from the velocity force
        that step kept and ``state.u``.  This is its finiteness scan: a
        non-finite p raises ``StepFailure`` at state.t."""
        if self.force is None or self.force[0] != state.t:
            raise ValueError(f"no accepted step at t={state.t!r} to recover the pressure of")
        if self.saddle is None:
            p = ScalarField.zeros(self.grid)
        else:
            force = self.force[1]
            with np.errstate(over="ignore", invalid="ignore"):  # the scan below reports it
                p = self.saddle.pressure(force.x, force.y, state.u)
        if not all_finite(p):
            raise StepFailure("the recovered pressure holds non-finite values", t=state.t)
        return p

    # -- coupled step ------------------------------------------------------------

    def coupled_step(self, state: SimState):
        """Advance ``state`` by dt: (the new state, its StepReport).  The new
        state's p is None; the step keeps its accepted iterate's velocity
        force, from which ``self.pressure`` recovers p."""
        cfg = self.cfg
        g = self.grid
        ubar = state.u
        history = []
        b_older, b_last = self.carried_iterates(state)
        t_next = state.t + cfg.dt
        bc = self.vector_bc(t_next)
        fb, fu = self.forcing.b_at(t_next), self.forcing.u_at(t_next)
        # u^n's two halves: the first outer iterate's ubar halves (ubar is u^n
        # there), and the transported one every iterate's velocity transport
        u_n_halves = face_halves(state.u, wall_rows(g))
        # ubar's two halves, rewritten by each later outer iterate: both feed
        # the magnetic lag, and the advecting one also the velocity step
        ubar_walls = wall_rows(g)
        # one operator and its Dirichlet data for every outer iterate, until a
        # stalled chord hands the rest of the step to the factored pair
        operator = self.magnetic_operator(state.u)
        boundary = operator.boundary(bc)
        # b^n/dt + f_b and u^n/dt on the interior faces, which every outer
        # iterate shares
        b_rhs, u_rhs = _interior_rhs(state.b, cfg.dt, fb), _interior_rhs(state.u, cfg.dt)
        # the first Picard loop's start, extrapolated from the carried
        # iterates, built into the one pair of wall rows under bc that every
        # Picard iterate of the step is built into in turn
        b_halves = magnetic_halves(2.0 * b_last - b_older, wall_rows(g, bc))

        b_reports = []  # one per outer iterate
        stalled_iterations = 0  # Picard iterations of the chords that stalled
        single_pass = cfg.outer_mode == "single_pass"
        outer_res = 0.0
        # a blown-up iterate warns nowhere: a non-finite residual raises
        # StepFailure, and the accepted state is scanned below
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1 if single_pass else OUTER_MAX_ITER):
                # warm start: Picard starts from the previous iterate's b (the
                # extrapolation for the first), the fixed point at a nearby
                # ubar.  The first iterate's ubar = u^n is accepted only if its
                # b is converged, which is rare, so it runs one Picard
                # iteration (single_pass its full loop); the stop test below
                # requires a converged b, so the accepted iterate always has one.
                max_iter = 1 if k == 0 and not single_pass else PICARD_MAX_ITER
                halves = u_n_halves if k == 0 else face_halves(ubar, ubar_walls)
                kw = dict(rhs=b_rhs, u_frozen_halves=halves, max_iter=max_iter)
                step, start = (ubar, state.t), b_halves
                b_halves, rep = self.b_step(*step, operator=operator, boundary=boundary, start=start, **kw)
                stalled = max_iter == PICARD_MAX_ITER and not rep.picard_converged
                if stalled and operator.u_ref is None:
                    # the lagged transport is too large for the heat chord (it
                    # stalled, or contracted too slowly for the cap): the rest
                    # of the step solves on the pair at u^n, lagging (ubar - u^n)·grad b,
                    # from the start rebuilt into the wall rows the chord overwrote
                    operator = TransportPair(g, state.u, 1.0 / cfg.dt, 1.0 / cfg.rm)
                    boundary = operator.boundary(bc)
                    stalled_iterations += rep.picard_iterations
                    start = magnetic_halves(start.t.f, (start.t.f1y, start.t.f2x))
                    b_halves, rep = self.b_step(*step, operator=operator, boundary=boundary, start=start, **kw)
                    stalled = not rep.picard_converged
                if stalled and rep.contraction_ratio >= 1.0:
                    ratio = rep.contraction_ratio
                    raise StepFailure(f"magnetic Picard iteration is not contracting (ratio {ratio:.3f}); "
                                      "reduce dt", t=t_next, detail={"ratio": ratio})
                b_reports.append(rep)
                u_new, force = self.u_step(
                    b_halves, u_rhs, u_advect_half=halves[0], u_prev_half=u_n_halves[1], fu=fu
                )
                if single_pass:
                    break
                outer_res = math.sqrt(norm_sq(g, u_new.x - ubar.x, u_new.y - ubar.y))
                history.append(float(outer_res))
                if not math.isfinite(outer_res):
                    raise StepFailure(
                        "outer coupling residual is non-finite",
                        t=t_next,
                        detail={"residual_history": history},
                    )
                u_norm_sq = l2_norm_sq(u_new)
                if rep.picard_converged and outer_res <= cfg.outer_tol * (1.0 + math.sqrt(u_norm_sq)):
                    break
                ubar = u_new
            else:
                raise StepFailure(
                    "outer coupling loop did not converge",
                    t=t_next,
                    detail={"residual_history": history},
                )

        b_hat = b_new = b_halves.t.f  # b_hat is carried uncleaned
        div = b_halves.div  # the scan's, which the projection reuses
        div_before = float(_max(np.abs(div)))
        cleaned = False
        if div_before > DIV_CLEAN_THRESHOLD:
            b_new, _ = project_divfree(b_new, div)
            cleaned = True
        # the step's one finiteness scan: internal fields are built unchecked
        if not all_finite(u_new, b_new):
            raise StepFailure("the accepted step holds non-finite values", t=t_next)
        self.b_iterates = (t_next, b_last, b_hat)
        self.force = (t_next, force)
        report = StepReport(
            dt=cfg.dt,
            # over all outer iterates and stalled chords: a warm-started
            # last iterate alone often takes one or two iterations at ratio 0
            picard_iterations=stalled_iterations + sum(r.picard_iterations for r in b_reports),
            picard_residual=b_reports[-1].picard_residual,
            contraction_ratio=max(r.contraction_ratio for r in b_reports),
            picard_converged=b_reports[-1].picard_converged,
            outer_iterations=len(b_reports),
            outer_residual=float(outer_res),
            div_b_before_clean=div_before,
            cleaned=cleaned,
        )
        return SimState(t_next, u_new, b_new, None), report


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
    ledger: bool = True,
):
    """March from t0 to t_final, recording the full energy ledger.

    In strong mode the parabolic lift is advanced alongside the state,
    re-initialized from b(t0) (each continuation window carries its own
    lift).  ``restart`` seeds the carried magnetic iterates (a restart
    passes the ones its checkpoint recorded, so it continues bit for bit).
    With ``ledger=False`` the run records no row (not even the one at t0),
    advances no parabolic lift and makes no boundary lookup for a row; what
    it returns is otherwise the same bit for bit.  The pressure is
    recovered once for each checkpoint and for the final state, the
    states the run outputs; the other kept states carry u and b, and p
    None.  A ``StepFailure`` in a step, in a pressure recovery or in a ledger
    row (a non-finite entry, ``EnergyLedger.add_row``) names the step: its
    message starts with the 1-based step index, which ``detail["step"]``
    holds; a non-finite row at t0 names only t0.  Returns (Trajectory, EnergyLedger), or
    (Trajectory, None) without a ledger.
    """
    stepper = Stepper(cfg, trace, basis=basis, forcing=forcing)  # validates cfg
    grid = stepper.grid
    if restart is not None:
        stepper.b_iterates = (t0, restart.b_prev, restart.b_last)
    compat = compatibility_check(u0, b0, trace, cfg.compat_tol_factor, t=t0)
    if not compat.passed:
        raise CompatibilityError(f"initial data incompatible with the boundary data: {compat}")

    state = SimState(t0, u0.copy(), b0.copy(), p0.copy() if p0 else ScalarField.zeros(grid))
    rows = h_p = None
    if ledger:
        rows = EnergyLedger(strong=cfg.strong_mode)
        h_p = b0.copy() if cfg.strong_mode else None
        record(rows, t0, state.u, state.b, trace, h_p, bc=stepper.vector_bc(t0))
    times = [t0]
    reports = []
    states = [SimState(state.t, state.u.copy(), state.b.copy(), None)] if cfg.keep_states else None
    nsteps = int(round((cfg.t_final - t0) / cfg.dt))
    for k in range(nsteps):
        checkpoint = cfg.checkpoint_every and (k + 1) % cfg.checkpoint_every == 0 and cfg.checkpoint_dir
        try:
            state, rep = stepper.coupled_step(state)
            if checkpoint or k == nsteps - 1:
                state.p = stepper.pressure(state)
            if ledger:
                bc = stepper.vector_bc(state.t)  # the step's own lookup
                if h_p is not None:
                    h_p = heat_step(h_p, cfg.dt, bc, 1.0 / cfg.rm)
                record(rows, state.t, state.u, state.b, trace, h_p, bc=bc)
        except StepFailure as err:
            err.detail = {**(err.detail or {}), "step": k + 1}
            err.args = (f"step {k + 1}: {err}",)
            raise
        times.append(state.t)
        reports.append(rep)
        if states is not None:
            p = None if state.p is None else state.p.copy()
            states.append(SimState(state.t, state.u.copy(), state.b.copy(), p))
        if checkpoint:
            path = os.path.join(cfg.checkpoint_dir, f"ckpt_{k + 1:06d}.mhdckpt")
            write_checkpoint(path, state, cfg, trace, stepper.restart(state))
    return Trajectory(times, state, reports, states, stepper.restart(state)), rows


# --- checkpoints ----------------------------------------------------------------
#
# MAGIC | header | crc32 | payload.  The header holds nx, ny, t, dt, the
# truncation (-1 = full), Re, Rm, S, the digest of the boundary data up to t
# (``BoundaryTrace.digest``) and the payload's byte count; the crc32 covers
# magic, header and payload.  The payload holds u, b, p and the `Restart`
# fields (b^(n-1)_hat, b^n_hat) as little-endian f8.  No other layout
# is read, so every restart checks its physics and boundary data.

_CKPT_HEADER = struct.Struct("<qqddqddd32sQ")
_CKPT_CRC = struct.Struct("<I")


def write_checkpoint(
    path, state: SimState, cfg: SolverConfig, trace: BoundaryTrace, restart: Restart
):
    """Write a checkpoint of ``state`` and the ``restart`` it continues from."""
    g = state.u.grid
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
    """Read a checkpoint; a malformed file raises ConfigError naming it."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError([f"checkpoint {path}: cannot read ({exc.strerror})"])
    bad = lambda why: ConfigError([f"checkpoint {path}: {why}"])
    magic = raw[: len(CKPT_MAGIC)]
    if magic != CKPT_MAGIC:
        raise bad(f"not a checkpoint file (bad magic number {magic!r}, expected {CKPT_MAGIC!r})")
    off = len(magic) + _CKPT_HEADER.size + _CKPT_CRC.size
    if len(raw) < off:
        raise bad(f"header truncated ({len(raw)} bytes)")
    nx, ny, t, dt, n_trunc, *physics, digest, nbytes = _CKPT_HEADER.unpack_from(raw, len(magic))
    physics = tuple(physics)
    if nx < 4 or ny < 4:
        raise bad(f"header grid {nx}x{ny} is too coarse")
    if not all(map(math.isfinite, (t, dt) + physics)):
        raise bad(f"non-finite header value (t={t!r}, dt={dt!r}, Re, Rm, S={physics!r})")
    grid = Grid(nx, ny)
    vec = [grid.shape_xface(), grid.shape_yface()]
    shapes = vec * 2 + [grid.shape_center()] + vec * 2
    sizes = [a * b for a, b in shapes]
    if len(raw) - off != 8 * sum(sizes) or nbytes != 8 * sum(sizes):
        raise bad(
            f"payload has {len(raw) - off} bytes (header: {nbytes}), "
            f"a {nx}x{ny} grid needs {8 * sum(sizes)}"
        )
    payload = np.frombuffer(raw, dtype="<f8", offset=off).astype(np.float64)
    if not np.all(np.isfinite(payload)):
        raise bad("non-finite field values")
    crc_at = off - _CKPT_CRC.size
    if zlib.crc32(raw[off:], zlib.crc32(raw[:crc_at])) != _CKPT_CRC.unpack_from(raw, crc_at)[0]:
        raise bad("checksum mismatch (damaged file)")
    arrays = [a.reshape(s) for a, s in zip(np.split(payload, np.cumsum(sizes)[:-1]), shapes)]
    u = VectorField(grid, arrays[0], arrays[1])
    b = VectorField(grid, arrays[2], arrays[3])
    p = ScalarField(grid, arrays[4])
    restart = Restart(*(VectorField(grid, *arrays[k : k + 2]) for k in range(5, len(arrays), 2)))
    return {
        "grid": grid,
        "t": t,
        "dt": dt,
        "n_modes": None if n_trunc < 0 else n_trunc,
        "physics": physics,  # (Re, Rm, S)
        "trace_digest": digest,
        "state": SimState(t, u, b, p),
        "restart": restart,
    }


def check_restart_header(ck, cfg: SolverConfig, trace: BoundaryTrace | None = None):
    """Restart refuses a mismatched discretization, physics or boundary trace.

    With ``trace``, the trace must sample the checkpoint time and agree
    with the recorded boundary data up to it.
    """
    bad = []
    want = (cfg.nx, cfg.ny, cfg.dt, cfg.n_modes)
    got = (ck["grid"].nx, ck["grid"].ny, ck["dt"], ck["n_modes"])
    if want != got:
        bad.append(f"checkpoint header {got} does not match configuration {want}")
    if ck["physics"] != (cfg.re, cfg.rm, cfg.s):
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
            if digest != ck["trace_digest"]:
                bad.append(
                    f"boundary trace up to t={ck['t']!r} differs from the one "
                    "the checkpoint was written with"
                )
    if bad:
        raise ConfigError(bad)
