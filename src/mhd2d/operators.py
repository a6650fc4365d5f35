"""Solver-side operators on the MAC grid.

Only the implicit transport operator is assembled as a sparse matrix, and
each build factors it with one direct SuperLU call per component: for
criterion 07 (``verify``), and for a coupled step whose heat chord stalls
(``dynamics``).  The vector heat operator the magnetic step otherwise
solves with, the Neumann Poisson solve and the Stokes step are separable or
nearly so and are solved in the sine and cosine eigenbases of the 1D second
differences.  The heat and Poisson solvers are memoized per key
(``dirichlet_heat``, ``neumann_poisson``), so no caller builds or carries one.

Everything here uses the *mirror* (linear) ghost closure, which makes the
component Laplacians symmetric negative-definite on zero-trace fields and
pairs them exactly with the discrete Dirichlet energy in
``geometry.grad_norm_sq``.  The 5-point stencil itself lives in
``geometry``, shared with the diagnostic ``geometry.laplacian``, whose cubic
closure deliberately differs; only the closure is chosen here.

Index conventions: all 2D arrays are raveled in C order (x-index major).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SolverFailure
from .geometry import (
    Grid,
    ScalarField,
    VectorBC,
    VectorField,
    _face_laplacian,
    _five_point,
    _mirror_ghost,
    _sum,
    divergence,
    gradient,
    magnetic_halves,
    wall_rows,
)

__all__ = [
    "dirichlet_modes",
    "apply_lap_mirror",
    "apply_lap_mirror_scalar",
    "TransportOperator",
    "TransportPair",
    "DirichletHeat",
    "dirichlet_heat",
    "NeumannPoisson",
    "neumann_poisson",
    "StokesSaddle",
    "stokes_apply",
]


# --- mirror-closure stencil applications ----------------------------------

def apply_lap_mirror(v: VectorField, bc: VectorBC | None = None) -> VectorField:
    """Solver Laplacian of a vector field, interior faces (walls zero)."""
    return _face_laplacian(v, VectorBC.zero(v.grid) if bc is None else bc, _mirror_ghost)


def apply_lap_mirror_scalar(s: ScalarField) -> ScalarField:
    """Solver Laplacian of a cell-centered scalar with zero wall values."""
    g = s.grid
    v = s.values
    p = np.empty((g.nx + 2, g.ny + 2))
    p[1:-1, 1:-1] = v
    p[0, 1:-1] = -v[0, :]
    p[-1, 1:-1] = -v[-1, :]
    p[1:-1, 0] = -v[:, 0]
    p[1:-1, -1] = -v[:, -1]
    return ScalarField._unchecked(g, _five_point(p, g))


# --- implicit transport ----------------------------------------------------

# SuperLU pivots on the diagonal unless it is below this fraction of its
# column's largest entry.  The symmetric order assumes diagonal pivots;
# partial pivoting (threshold 1) leaves the diagonal wherever an advection
# coefficient outweighs it, and the factor then fills far beyond the order
# (16x at 32^2 with cell Peclet numbers in the thousands).  Past this
# threshold (64^2 at such Peclet numbers) a pivot still leaves the diagonal,
# and the build falls back to a default ``splu``.
_DIAG_PIVOT_THRESH = 0.01


class TransportOperator:
    """Implicit operator  inv_dt*I - kappa*Lap + a·grad  on one component grid.

    Assembled on the interior faces only (A_II, stored as the canonical CSC
    ``matrix``); the couplings to the wall faces, which carry the normal
    Dirichlet data, go to the right-hand side (``boundary``).  A zero
    ``a`` gives the heat operator that ``DirichletHeat`` solves in closed
    form.  A build factors A_II with SuperLU in the symmetric minimum-degree
    order of A + A^T, pivoting on the diagonal unless it falls below
    ``_DIAG_PIVOT_THRESH`` of its column.  If any pivot leaves the diagonal
    (the row permutation differs from the column one), the build refactors
    the same matrix with ``splu``'s default COLAMD order and partial
    pivoting, whose fill does not depend on the diagonal.
    """

    def __init__(self, grid: Grid, comp: str, a: VectorField, inv_dt: float, kappa: float):
        if comp not in ("x", "y"):
            raise ValueError("comp must be 'x' or 'y'")
        self.grid = grid
        self.comp = comp
        self.inv_dt = inv_dt
        self.kappa = kappa
        if comp == "x":
            self.shape = grid.shape_xface()
            self._interior = (slice(1, -1), slice(None))
        else:
            self.shape = grid.shape_yface()
            self._interior = (slice(None), slice(1, -1))
        self._assemble(a)

    def _assemble(self, a):
        g = self.grid
        k = self.kappa
        # the interior unknowns, raveled in C order: the normal neighbours of
        # unknown u are u -/+ sn, the tangential ones u -/+ st
        if self.comp == "x":
            hn, ht = g.dx, g.dy
            u = np.arange((g.nx - 1) * g.ny).reshape(g.nx - 1, g.ny)
            nrm, tan = np.indices(u.shape)
            sn, st = u.shape[1], 1
        else:
            hn, ht = g.dy, g.dx
            u = np.arange(g.nx * (g.ny - 1)).reshape(g.nx, g.ny - 1)
            tan, nrm = np.indices(u.shape)
            sn, st = 1, u.shape[1]
        lo, hi = tan >= 1, tan <= tan.max() - 1

        # time term and diffusion (nodal Dirichlet in the normal direction;
        # mirror ghosts in the tangential direction)
        diag = np.full(u.shape, self.inv_dt)
        diag = diag + 2.0 * k / hn**2
        diag = diag + np.where(lo & hi, 2.0 * k / ht**2, 3.0 * k / ht**2)
        n_lo = n_hi = -k / hn**2
        t_lo = t_hi = -k / ht**2

        # advection (divergence form minus interpolated-divergence correction)
        ah = magnetic_halves(a, wall_rows(g)).a
        if self.comp == "x":
            cp = ah.a1c[1:, :] / (2 * g.dx)  # flux through right cell center
            cm = ah.a1c[:-1, :] / (2 * g.dx)
            # corner fluxes: interior corner lines only; wall lines go to rhs
            tp = ah.a2x[:, 1:] / (2 * g.dy)
            tm = ah.a2x[:, :-1] / (2 * g.dy)
            sd = ah.sx
            self._adv_corner = ah.a2x
        else:
            cp = ah.a2c[:, 1:] / (2 * g.dy)
            cm = ah.a2c[:, :-1] / (2 * g.dy)
            tp = ah.a1y[1:, :] / (2 * g.dx)
            tm = ah.a1y[:-1, :] / (2 * g.dx)
            sd = ah.sy
            self._adv_corner = ah.a1y
        diag = diag + cp - cm
        diag = diag + np.where(hi, tp, 0.0)
        diag = diag - np.where(lo, tm, 0.0)
        diag = diag - sd
        # one diffusion plus one advection entry per neighbour: a single
        # addition, so the sum does not depend on the order of the two
        n_lo, n_hi, t_lo, t_hi = n_lo - cm, n_hi + cp, t_lo - tm, t_hi + tp
        # the normal neighbours of the first and last interior lines are
        # wall faces: their couplings multiply the data in self.boundary
        if self.comp == "x":
            self._wall_lo, self._wall_hi = n_lo[0, :], n_hi[-1, :]
        else:
            self._wall_lo, self._wall_hi = n_lo[:, 0], n_hi[:, -1]

        # (coefficient, offset of its neighbour, the neighbour is an unknown)
        stencil = (
            (diag, 0, np.ones_like(lo)),
            (n_lo, -sn, nrm >= 1),
            (n_hi, sn, nrm <= nrm.max() - 1),
            (t_lo, -st, lo),
            (t_hi, st, hi),
        )
        rows = np.concatenate([u[keep] for _, _, keep in stencil])
        cols = np.concatenate([u[keep] + off for _, off, keep in stencil])
        data = np.concatenate([v[keep] for v, _, keep in stencil])
        # canonical CSC (rows ascending in each column); zero coefficients
        # stay stored, so the structure and hence the order do not depend on a
        m = self.matrix = sp.csc_matrix((data, (rows, cols)), shape=(u.size,) * 2)
        try:
            lu = splu(
                m,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                options=dict(SymmetricMode=True),
            )
            if not np.array_equal(lu.perm_r, lu.perm_c):
                # a pivot left the diagonal, and the symmetric order no longer
                # bounds the fill: refactor with COLAMD and partial pivoting
                lu = splu(m)
        except RuntimeError as exc:  # pragma: no cover
            raise SolverFailure(f"transport operator factorization failed: {exc}")
        self._lu = lu

    def boundary(self, bc: VectorBC):
        """The Dirichlet data of ``bc`` on the full face array.

        The wall faces hold the normal data; each interior face holds what
        its couplings to the data (wall faces and mirror ghosts) contribute
        to its right-hand side, so  A_II u_I = f_I + boundary(bc)_I.
        Prepare it once per boundary instant and pass it to every ``solve``
        with that data, as with ``DirichletHeat.boundary``.
        """
        g = self.grid
        dx, dy = g.dx, g.dy
        k = self.kappa
        r = np.zeros(self.shape)
        if self.comp == "x":
            r[0, :] = bc.x_left
            r[-1, :] = bc.x_right
            # mirror-ghost diffusion terms
            r[1:-1, 0] += 2.0 * k * bc.x_bottom[1:-1] / dy**2
            r[1:-1, -1] += 2.0 * k * bc.x_top[1:-1] / dy**2
            a2x = self._adv_corner
            r[1:-1, 0] += a2x[:, 0] * bc.x_bottom[1:-1] / dy
            r[1:-1, -1] -= a2x[:, -1] * bc.x_top[1:-1] / dy
            # couplings to the wall faces
            r[1, :] -= self._wall_lo * bc.x_left
            r[-2, :] -= self._wall_hi * bc.x_right
        else:
            r[:, 0] = bc.y_bottom
            r[:, -1] = bc.y_top
            r[0, 1:-1] += 2.0 * k * bc.y_left[1:-1] / dx**2
            r[-1, 1:-1] += 2.0 * k * bc.y_right[1:-1] / dx**2
            a1y = self._adv_corner
            r[0, 1:-1] += a1y[0, :] * bc.y_left[1:-1] / dx
            r[-1, 1:-1] -= a1y[-1, :] * bc.y_right[1:-1] / dx
            r[:, 1] -= self._wall_lo * bc.y_bottom
            r[:, -2] -= self._wall_hi * bc.y_top
        return r

    def solve(self, rhs: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Solve for the full component array.

        ``rhs`` is the right-hand side on the interior faces only, shape
        (nx-1, ny) for x and (nx, ny-1) for y; ``boundary`` comes from
        ``self.boundary(bc)`` and supplies the wall faces of the result.
        """
        out = boundary.copy()
        inner = out[self._interior]
        if rhs.shape != inner.shape:
            raise ValueError(f"interior right-hand side shape {rhs.shape} != {inner.shape}")
        inner[...] = self._lu.solve((rhs + inner).ravel()).reshape(rhs.shape)
        return out


class TransportPair:
    """The x and y ``TransportOperator`` factored at the advecting velocity
    u_ref, behind ``DirichletHeat``'s magnetic-step interface (``u_ref``,
    ``boundary``, ``solve_interior``): criterion 07's operator, and the
    stepper's where the heat chord stalls."""

    def __init__(self, grid: Grid, u_ref: VectorField, inv_dt: float, kappa: float):
        self.u_ref = u_ref
        self.x = TransportOperator(grid, "x", u_ref, inv_dt, kappa)
        self.y = TransportOperator(grid, "y", u_ref, inv_dt, kappa)

    def boundary(self, bc: VectorBC):
        return self.x.boundary(bc), self.y.boundary(bc)

    def solve_interior(self, rx: np.ndarray, ry: np.ndarray, boundary):
        return self.x.solve(rx, boundary[0]), self.y.solve(ry, boundary[1])


# --- closed-form Dirichlet heat and harmonic solves -------------------------

def _vdot(a, b):
    """np.vdot of two real arrays: ndarray.dot of both flattened in C order,
    the same BLAS dot product without np.vdot's Python-level wrapper."""
    return a.ravel().dot(b.ravel())


def _separable_solve(qa, qb, inv_lam, r):
    """qa (inv_lam * (qa^T r qb)) qb^T: a solve in the orthonormal eigenbases qa and qb."""
    return qa @ ((qa.T @ r @ qb) * inv_lam) @ qb.T


def _wall_laplacian(g: Grid, bc: VectorBC):
    """Lap of the Dirichlet data ``bc`` on the x and y interior faces: the
    Laplacian of the field that holds bc on the walls and is zero inside,
    which is nonzero only next to the walls."""
    # the data term of the normal direction, then the mirror term of the
    # tangential one, each added to zero, so every entry has
    # apply_lap_mirror's bits
    dx2, dy2 = g.dx**2, g.dy**2
    lx = np.zeros((g.nx - 1, g.ny))
    lx[0, :] += bc.x_left / dx2
    lx[-1, :] += bc.x_right / dx2
    lx[:, 0] += 2.0 * bc.x_bottom[1:-1] / dy2
    lx[:, -1] += 2.0 * bc.x_top[1:-1] / dy2
    ly = np.zeros((g.nx, g.ny - 1))
    ly[:, 0] += bc.y_bottom / dy2
    ly[:, -1] += bc.y_top / dy2
    ly[0, :] += 2.0 * bc.y_left[1:-1] / dx2
    ly[-1, :] += 2.0 * bc.y_right[1:-1] / dx2
    return lx, ly


class DirichletHeat:
    """inv_dt*I - kappa*Lap on both face components with Dirichlet data, in closed form.

    Each component's operator is separable in the sines of ``dirichlet_modes``,
    so a solve is fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6,
    1964).  The data enters as kappa*Lap of the field that holds it on the
    walls and is zero inside: kappa*g/h**2 in the first and last interior rows
    and the mirror terms 2*kappa*g/h**2 in the wall-adjacent columns, the
    interior of a zero-velocity ``TransportOperator.boundary``.  It
    agrees with that operator's solve to round-off.  ``boundary`` prepares
    that term once per boundary instant, from a Laplacian of the data that
    every key at that instant shares, and ``solve_interior`` makes the two
    separable solves and writes the data into the wall faces; ``solve`` is
    the two together.  ``lift_energies`` gives the two norms of b less the
    solution for zero right-hand side, in the same sines, without forming
    that solution.  As the magnetic step's operator it advects nothing (``u_ref``
    None), so ``dynamics.Stepper.b_step`` lags all the transport.
    """

    u_ref = None
    # [bc, _wall_laplacian(grid, bc)] of the latest boundary instant, one for
    # every key: the magnetic step's data term and the ledger row's after it
    # share one build, and the next instant replaces it.  The list is changed
    # in place: rebinding a class attribute voids the interpreter's attribute
    # caches for the class, which cost about 1 us per harmonic lift at 32^2
    _wall_lap = [None, None]

    def __init__(self, grid: Grid, inv_dt: float, kappa: float):
        self.grid = grid
        self.kappa = kappa
        qxn, lxn = dirichlet_modes(grid.nx, grid.dx, nodal=True)
        qxm, lxm = dirichlet_modes(grid.nx, grid.dx, nodal=False)
        qyn, lyn = dirichlet_modes(grid.ny, grid.dy, nodal=True)
        qym, lym = dirichlet_modes(grid.ny, grid.dy, nodal=False)
        # the eigenvalue sums of minus the Laplacian, kept for ``lift_energies``
        self._lam = (np.add.outer(lxn, lym), np.add.outer(lxm, lyn))
        self._x = (qxn, qym, 1.0 / (inv_dt + kappa * self._lam[0]))
        self._y = (qxm, qyn, 1.0 / (inv_dt + kappa * self._lam[1]))

    def boundary(self, bc: VectorBC):
        """kappa*Lap of the Dirichlet data ``bc`` on the x and y interior
        faces, and ``bc`` itself.  Prepare it once per boundary instant and
        pass it to every ``solve_interior`` with that data.

        The Laplacian of the data is built once per boundary instant, the
        ``VectorBC`` object ``bc`` (whose arrays are not changed in place),
        and shared by every key: the magnetic step (kappa = 1/Rm) and the
        ledger row's ``lift_energies`` (kappa = 1) at one instant scale one
        build.  Only the latest instant's is held."""
        memo = DirichletHeat._wall_lap
        if memo[0] is not bc:
            memo[:] = bc, _wall_laplacian(self.grid, bc)
        lx, ly = memo[1]
        return self.kappa * lx, self.kappa * ly, bc

    def solve_interior(self, rx: np.ndarray, ry: np.ndarray, boundary):
        """The x and y face arrays that solve for the right-hand side (rx, ry)
        on the interior faces, shapes (nx-1, ny) and (nx, ny-1), with the
        data of ``boundary``."""
        lx, ly, bc = boundary
        out_x, out_y = np.empty(self.grid.shape_xface()), np.empty(self.grid.shape_yface())
        out_x[0, :], out_x[-1, :] = bc.x_left, bc.x_right
        out_y[:, 0], out_y[:, -1] = bc.y_bottom, bc.y_top
        out_x[1:-1, :] = _separable_solve(*self._x, rx + lx)
        out_y[:, 1:-1] = _separable_solve(*self._y, ry + ly)
        return out_x, out_y

    def solve(self, fx: np.ndarray, fy: np.ndarray, bc: VectorBC) -> VectorField:
        """The solution for the right-hand side (fx, fy) on the full face arrays
        (interior entries used) and the Dirichlet data bc."""
        out = self.solve_interior(fx[1:-1, :], fy[:, 1:-1], self.boundary(bc))
        return VectorField._unchecked(self.grid, *out)

    def lift_energies(self, b: VectorField, bc: VectorBC):
        """(||b - h||^2, ||grad(b - h)||^2), the ``l2_norm_sq`` and the
        ``grad_norm_sq`` with zero wall values of b - h, where h is the
        solution for zero right-hand side and the data ``bc``; h is not formed.

        In each component's sines the interior of b - h has the coefficients
        of b's interior faces less h's, the data term inv_lam * Q^T
        boundary(bc) Q.  The norm sums their squares, and the Dirichlet
        energy (on zero-trace fields <-Lap f, f>) their squares weighted by
        the eigenvalue sums.  Where b's normal wall faces differ from bc by
        e (initial data compatible only to within tolerance), the wall faces
        add e^2/2 to the norm and (e^2 - 2 e d)/h^2 to the energy, d being
        b - h on the interior face next to the wall.
        """
        g = self.grid
        lx, ly, _ = self.boundary(bc)
        (qxa, qxb, inv_x), (qya, qyb, inv_y) = self._x, self._y
        cx = qxa.T @ b.x[1:-1, :] @ qxb - inv_x * (qxa.T @ lx @ qxb)
        cy = qya.T @ b.y[:, 1:-1] @ qyb - inv_y * (qya.T @ ly @ qyb)
        l2 = _vdot(cx, cx) + _vdot(cy, cy)
        grad = _vdot(self._lam[0], cx * cx) + _vdot(self._lam[1], cy * cy)
        # b's normal wall faces less the data, left and right, then bottom and top
        ex = b.x[[0, -1]] - (bc.x_left, bc.x_right)
        ey = b.y[:, [0, -1]].T - (bc.y_bottom, bc.y_top)
        if ex.any() or ey.any():
            dx_walls = qxa[[0, -1]] @ cx @ qxb.T  # b - h on the interior faces next to them
            dy_walls = qyb[[0, -1]] @ cy.T @ qya.T
            l2 += 0.5 * (_vdot(ex, ex) + _vdot(ey, ey))
            grad += _vdot(ex, ex - 2.0 * dx_walls) / g.dx**2
            grad += _vdot(ey, ey - 2.0 * dy_walls) / g.dy**2
        w = g.dx * g.dy
        return float(w * l2), float(w * grad)


# The memoized ``DirichletHeat``.  A run uses at most three keys: the harmonic
# one (0, 1), whose ``lift_energies`` each ledger row reads, the magnetic step
# (1/dt, 1/Rm) and the parabolic lift, whose key equals the magnetic step's
# when kappa = 1/Rm.  So the bound of 8 never evicts.
dirichlet_heat = lru_cache(maxsize=8)(DirichletHeat)


# --- pressure & projection -------------------------------------------------

def _neumann_modes(n, h):
    """Orthonormal eigenvectors (columns) and eigenvalues of the 1D second difference
    over h**2 on n cells with homogeneous Neumann walls (diagonal -1 in the wall cells).

    Column k samples cos(pi k (j + 1/2) / n) at the cells j; its eigenvalue
    is (2 cos(pi k / n) - 2) / h**2, zero for the constant k = 0.
    """
    k = np.arange(n)
    q = np.cos(np.pi * np.outer(np.arange(n) + 0.5, k) / n) * np.sqrt(2.0 / n)
    q[:, 0] = np.sqrt(1.0 / n)
    return q, (2.0 * np.cos(np.pi * k / n) - 2.0) / h**2


def dirichlet_modes(n, h, nodal):
    """Orthonormal eigenvectors (columns) and eigenvalues of minus the 1D second
    difference over h**2 with zero Dirichlet data: on the n - 1 nodes with the
    data one node outside (``nodal``), or on n cells with the wall at half
    spacing and the mirror ghost closure (diagonal -3 in the wall cells).

    Column k - 1 samples sin(pi k x / n) at the nodes x = 1 .. n - 1 or at the
    cells x = j + 1/2; its eigenvalue 4 sin(pi k / 2n)**2 / h**2 increases in k.
    A face component's Laplacian is diagonal in nodal sines along its axis
    times mirrored sines along the other.
    """
    x = np.arange(1, n) if nodal else np.arange(n) + 0.5
    k = np.arange(1, len(x) + 1)
    q = np.sin(np.pi * np.outer(x, k) / n)
    return q / np.linalg.norm(q, axis=0), 4.0 * np.sin(0.5 * np.pi * k / n) ** 2 / h**2


class NeumannPoisson:
    """Cell-centered Poisson solve with homogeneous Neumann walls, mean-zero gauge.

    The Neumann Laplacian is separable with cosine eigenvectors along each
    axis, so a solve is two matmuls into the eigenbasis, a division by the
    eigenvalue sums with the constant mode zeroed, and two matmuls back.
    The right-hand side's mean (the constant mode) is dropped.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._qx, lx = _neumann_modes(grid.nx, grid.dx)
        self._qy, ly = _neumann_modes(grid.ny, grid.dy)
        lam = lx[:, None] + ly[None, :]
        lam[0, 0] = np.inf  # zeroes the constant mode
        self._inv_lam = 1.0 / lam

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        r = rhs.reshape(self.grid.shape_center())
        q = _separable_solve(self._qx, self._qy, self._inv_lam, r)
        return q - _sum(q) / q.size  # q.mean(), without its wrapper


# The memoized ``NeumannPoisson``: the grid is its only key, so the cleaning
# projection, the strong ledger's Stokes operator and the pressure recovery
# of every run on one grid share one solver.
neumann_poisson = lru_cache(maxsize=8)(NeumannPoisson)


def project_divfree(v: VectorField, div: np.ndarray):
    """Remove the discrete gradient part; wall-normal faces are untouched.

    ``div`` is ``divergence(v).values``, which every caller has already
    taken (a scan before cleaning, or the Stokes operator's own), so the
    projection does not take it again.  Returns (the projected field, q)."""
    q = ScalarField._unchecked(v.grid, neumann_poisson(v.grid).solve(div))
    gq = gradient(q)
    out = v.copy()
    out.x[1:-1, :] -= gq.x[1:-1, :]
    out.y[:, 1:-1] -= gq.y[:, 1:-1]
    return out, q


def stokes_apply(u: VectorField):
    """Stokes operator S u = -Lap u + grad P on the div-free subspace.

    Returns (Su, gradP) as fields; u must have zero trace.
    """
    w = apply_lap_mirror(u)
    w = VectorField._unchecked(u.grid, -w.x, -w.y)
    su, q = project_divfree(w, divergence(w).values)
    gp = w - su
    return su, gp


class StokesSaddle:
    """Implicit Stokes step (inv_dt - nu*Lap) u + grad p = f, div u = 0, on interior faces.

    u = C psi with C the stream curl, whose range is exactly the discretely
    divergence-free zero-trace subspace.  C^T grad p = 0 there, so psi
    solves the symmetric positive definite K psi = C^T f with
    K = C^T (inv_dt - nu*Lap) C = S + nu E^T D E.  Here S = inv_dt L + nu L^2
    with L = C^T C, the Dirichlet Laplacian of the interior corners, is
    diagonal in the nodal sines of ``dirichlet_modes`` along both axes; E
    holds the rows of C on the wall-adjacent tangential faces (one nonzero
    each: the corner value next to the wall over the spacing); D is the
    no-slip mirror term, 2/dy**2 on x-faces and 2/dx**2 on y-faces.  A solve
    is fast diagonalization of S plus a capacitance correction on that frame
    of corners (Bjørstad, SIAM J. Numer. Anal. 20, 1983):
    K^{-1} = S^{-1} - S^{-1} F^T M^{-1} F S^{-1} with F = (nu D)^{1/2} E and
    the capacitance matrix M = I + F S^{-1} F^T, which is D^{-1}/nu + E S^{-1} E^T
    scaled to a unit shift, finite for every nu > 0 and inv_dt >= 0.  At
    inv_dt = 0, K = nu C^T (-Lap) C is the stationary Stokes operator, whose
    inverse the Stokes eigenbasis applies.  M is written in the
    sines along each side of the frame, where its diagonal blocks are
    diagonal and its off-diagonal blocks are S^{-1} scaled by the sines' end
    values; its eigenvalues are at least 1, and its inverse is formed once
    from its Cholesky factor.  A solve costs four matmuls of the corner array
    plus frame-sized products.  ``lam`` holds the eigenvalue sums of L.
    ``pressure`` recovers the mean-zero p from grad p = f - (inv_dt - nu*Lap) u
    with one solve of the grid's ``neumann_poisson`` on its divergence.
    """

    def __init__(self, grid: Grid, inv_dt: float, nu: float):
        self.grid = grid
        self.inv_dt = inv_dt
        self.nu = nu
        qx, lx = dirichlet_modes(grid.nx, grid.dx, nodal=True)
        qy, ly = dirichlet_modes(grid.ny, grid.dy, nodal=True)
        self.lam = lam = np.add.outer(lx, ly)
        inv_s = 1.0 / (inv_dt * lam + nu * lam**2)
        # F = (nu D)^(1/2) E in the sine basis: the first and last corner row of
        # each table, scaled; the frame is ordered bottom, top (x-faces), left, right
        ax = qx[[0, -1]] * (np.sqrt(2.0 * nu) / grid.dx**2)
        ay = qy[[0, -1]] * (np.sqrt(2.0 * nu) / grid.dy**2)
        mx, my = grid.nx - 1, grid.ny - 1
        wx = np.einsum("kl,sl,tl->skt", inv_s, ay, ay)
        wy = np.einsum("kl,sk,tk->slt", inv_s, ax, ax)
        mxx = (wx[..., None] * np.identity(mx)[:, None, :]).reshape(2 * mx, 2 * mx)
        myy = (wy[..., None] * np.identity(my)[:, None, :]).reshape(2 * my, 2 * my)
        mxy = np.einsum("kl,sl,tk->sktl", inv_s, ay, ax).reshape(2 * mx, 2 * my)
        m = np.block([[mxx, mxy], [mxy.T, myy]])
        m[np.diag_indices_from(m)] += 1.0
        try:
            self._inv_m = scipy.linalg.cho_solve(scipy.linalg.cho_factor(m), np.identity(len(m)))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SolverFailure(f"implicit Stokes capacitance factorization failed: {exc}")
        self._tables = (qx, qy, inv_s, ax, ay)

    def solve_corners(self, rhs: np.ndarray) -> np.ndarray:
        """K^{-1} rhs on the interior corners; rhs (such as C^T f) has shape (nx - 1, ny - 1)."""
        qx, qy, inv_s, ax, ay = self._tables
        y = (qx.T @ rhs @ qy) * inv_s  # S^{-1} rhs in the sine basis
        k = 2 * len(qx)
        f = np.empty(len(self._inv_m))  # F S^{-1} rhs, the frame's two sides in turn
        f[:k].reshape(2, -1)[...] = (y @ ay.T).T
        f[k:].reshape(2, -1)[...] = ax @ y
        z = self._inv_m @ f
        zx, zy = z[:k].reshape(2, -1), z[k:].reshape(2, -1)
        y -= inv_s * (zx.T @ ay + ax.T @ zy)
        return qx @ y @ qy.T

    def frame_sines(self) -> np.ndarray:
        """F = (nu D)^{1/2} E, dense, in the corner sines: one row per frame
        corner in the sines along its side (bottom, top, left, right), one
        column per raveled sine pair (k, l).  In these sines
        K = diag(inv_dt lam + nu lam**2) + F^T F, with lam the eigenvalues of L."""
        qx, qy, _, ax, ay = self._tables
        mx, my = len(qx), len(qy)
        fx = np.einsum("sl,tk->stkl", ay, np.identity(mx)).reshape(2 * mx, mx * my)
        fy = np.einsum("sk,tl->stkl", ax, np.identity(my)).reshape(2 * my, mx * my)
        return np.vstack([fx, fy])

    def solve(self, fx: np.ndarray, fy: np.ndarray) -> VectorField:
        """Divergence-free u; fx, fy: forcing on the full face arrays, of
        which only the interior entries are read, so the wall faces may hold
        zeros (the velocity step's do; ``pressure`` zeroes them too)."""
        g = self.grid
        fxi, fyi = fx[1:-1, :], fy[:, 1:-1]
        rhs = (fxi[:, :-1] - fxi[:, 1:]) / g.dy + (fyi[1:, :] - fyi[:-1, :]) / g.dx  # C^T f
        psi = np.zeros((g.nx + 1, g.ny + 1))
        psi[1:-1, 1:-1] = self.solve_corners(rhs)
        return VectorField.from_stream(g, psi)

    def pressure(self, fx: np.ndarray, fy: np.ndarray, u: VectorField) -> ScalarField:
        """The mean-zero pressure of the step whose forcing is (fx, fy) and solution u."""
        g = self.grid
        lap = apply_lap_mirror(u)
        rx = fx - self.inv_dt * u.x + self.nu * lap.x
        ry = fy - self.inv_dt * u.y + self.nu * lap.y
        rx[0, :] = rx[-1, :] = 0.0
        ry[:, 0] = ry[:, -1] = 0.0
        div = (rx[1:, :] - rx[:-1, :]) / g.dx + (ry[:, 1:] - ry[:, :-1]) / g.dy
        return ScalarField._unchecked(g, neumann_poisson(g).solve(div))
