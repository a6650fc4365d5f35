"""Sparse solver-side operators on the MAC grid.

Everything here uses the *mirror* (linear) ghost closure, which makes the
component Laplacians symmetric negative-definite on zero-trace fields and
pairs them exactly with the discrete Dirichlet energy in
``geometry.grad_norm_sq``.  The diagnostic stencils in ``geometry`` use a
higher-order closure instead; the two deliberately differ.

Index conventions: all 2D arrays are raveled in C order (x-index major).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SolverFailure
from .geometry import Grid, ScalarField, VectorBC, VectorField, advecting_half, divergence, gradient

__all__ = [
    "tridiag_nodal",
    "tridiag_mirror",
    "tridiag_neumann",
    "dirichlet_modes",
    "lap_xcomp_interior",
    "lap_ycomp_interior",
    "stream_curl_matrix",
    "StreamForms",
    "stream_forms",
    "apply_lap_mirror",
    "apply_lap_mirror_scalar",
    "TransportOperator",
    "DirichletHeat",
    "dirichlet_heat",
    "NeumannPoisson",
    "StokesSaddle",
    "stokes_apply",
]


def tridiag_nodal(n):
    """1D second difference for nodes with Dirichlet data one node outside."""
    return sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr")


def tridiag_mirror(n):
    """1D second difference for cells with a Dirichlet wall at half spacing."""
    d = -2.0 * np.ones(n)
    d[0] = d[-1] = -3.0
    return sp.diags([np.ones(n - 1), d, np.ones(n - 1)], [-1, 0, 1], format="csr")


def tridiag_neumann(n):
    d = -2.0 * np.ones(n)
    d[0] = d[-1] = -1.0
    return sp.diags([np.ones(n - 1), d, np.ones(n - 1)], [-1, 0, 1], format="csr")


def lap_xcomp_interior(grid: Grid):
    """Laplacian on interior x-faces (zero-trace closure), shape ((nx-1)ny,)^2."""
    tx = tridiag_nodal(grid.nx - 1) / grid.dx**2
    ty = tridiag_mirror(grid.ny) / grid.dy**2
    return sp.kron(tx, sp.identity(grid.ny)) + sp.kron(sp.identity(grid.nx - 1), ty)


def lap_ycomp_interior(grid: Grid):
    tx = tridiag_mirror(grid.nx) / grid.dx**2
    ty = tridiag_nodal(grid.ny - 1) / grid.dy**2
    return sp.kron(tx, sp.identity(grid.ny - 1)) + sp.kron(sp.identity(grid.nx), ty)


def stream_curl_matrix(grid: Grid):
    """Curl taking interior-corner stream values to interior faces.

    The range is exactly the discretely divergence-free, zero-normal-trace
    subspace; the map is injective, so it parameterizes that subspace.
    """
    nx, ny = grid.nx, grid.ny
    by = sp.diags([np.ones(ny - 1), -np.ones(ny - 1)], [0, -1], shape=(ny, ny - 1)) / grid.dy
    c1 = sp.kron(sp.identity(nx - 1), by)
    bx = sp.diags([np.ones(nx - 1), -np.ones(nx - 1)], [0, -1], shape=(nx, nx - 1)) / grid.dx
    c2 = -sp.kron(bx, sp.identity(ny - 1))
    return sp.vstack([c1, c2]).tocsr()


# --- mirror-closure stencil applications ----------------------------------

def _mirror_pad_x(f, bc: VectorBC):
    p = np.empty((f.shape[0], f.shape[1] + 2))
    p[:, 1:-1] = f
    p[:, 0] = 2.0 * bc.x_bottom - f[:, 0]
    p[:, -1] = 2.0 * bc.x_top - f[:, -1]
    return p


def _mirror_pad_y(f, bc: VectorBC):
    p = np.empty((f.shape[0] + 2, f.shape[1]))
    p[1:-1, :] = f
    p[0, :] = 2.0 * bc.y_left - f[0, :]
    p[-1, :] = 2.0 * bc.y_right - f[-1, :]
    return p


def apply_lap_mirror(v: VectorField, bc: VectorBC | None = None) -> VectorField:
    """Solver Laplacian of a vector field, interior faces (walls zero)."""
    g = v.grid
    if bc is None:
        bc = VectorBC.zero(g)
    out = VectorField.zeros(g)
    px = _mirror_pad_x(v.x, bc)
    out.x[1:-1, :] = (v.x[2:, :] - 2 * v.x[1:-1, :] + v.x[:-2, :]) / g.dx**2 + (
        px[1:-1, 2:] - 2 * px[1:-1, 1:-1] + px[1:-1, :-2]
    ) / g.dy**2
    py = _mirror_pad_y(v.y, bc)
    out.y[:, 1:-1] = (py[2:, 1:-1] - 2 * py[1:-1, 1:-1] + py[:-2, 1:-1]) / g.dx**2 + (
        v.y[:, 2:] - 2 * v.y[:, 1:-1] + v.y[:, :-2]
    ) / g.dy**2
    return out


def apply_lap_mirror_scalar(s: ScalarField, bc=None) -> ScalarField:
    g = s.grid
    v = s.values
    if bc is None:
        bottom = top = np.zeros(g.nx)
        left = right = np.zeros(g.ny)
    else:
        bottom, top, left, right = bc.bottom, bc.top, bc.left, bc.right
    p = np.empty((g.nx + 2, g.ny + 2))
    p[1:-1, 1:-1] = v
    p[0, 1:-1] = 2.0 * left - v[0, :]
    p[-1, 1:-1] = 2.0 * right - v[-1, :]
    p[1:-1, 0] = 2.0 * bottom - v[:, 0]
    p[1:-1, -1] = 2.0 * top - v[:, -1]
    lap = (p[2:, 1:-1] - 2 * v + p[:-2, 1:-1]) / g.dx**2 + (
        p[1:-1, 2:] - 2 * v + p[1:-1, :-2]
    ) / g.dy**2
    return ScalarField(g, lap)


# --- implicit transport ----------------------------------------------------

# SuperLU pivots on the diagonal unless it is below this fraction of its
# column's largest entry.  The symmetric order assumes diagonal pivots;
# partial pivoting (threshold 1) leaves the diagonal wherever an advection
# coefficient outweighs it, and the factor then fills far beyond the order
# (16x at 32^2 with cell Peclet numbers in the thousands).  Past this
# threshold (64^2 at such Peclet numbers) a pivot still leaves the diagonal,
# and the build falls back to a default ``splu``.
_DIAG_PIVOT_THRESH = 0.01


def _splu_symmetric(m, permc_spec):
    """SuperLU with a diagonal pivot preference (``SymmetricMode``)."""
    return splu(
        m,
        permc_spec=permc_spec,
        diag_pivot_thresh=_DIAG_PIVOT_THRESH,
        options=dict(SymmetricMode=True),
    )


class _Pattern(NamedTuple):
    """Sparsity structure and order of one component's interior operator A_II.

    The unknowns are the interior faces; the wall faces carry Dirichlet data.
    A_II is factored as B = A_II[p][:, p] in the natural order, where p
    (``perm``'s inverse) is the symmetric minimum-degree order of A_II.
    ``slots[g]`` maps each interior unknown to the CSC data position of its
    stencil entry of group g (diagonal, normal -/+ neighbour, tangential -/+
    neighbour); a neighbour that is a wall face or missing points one past
    the end.  ``q[k]`` is the position of B's unknown k in the raveled full
    face array.
    """

    slots: np.ndarray
    lo: np.ndarray  # the tangential - neighbour exists
    hi: np.ndarray  # the tangential + neighbour exists
    indices: np.ndarray
    indptr: np.ndarray
    q: np.ndarray
    perm: np.ndarray  # interior unknown -> its position in B


@lru_cache(maxsize=8)
def _transport_pattern(grid: Grid, comp: str) -> _Pattern:
    """Structure and order shared by every TransportOperator on (grid, comp).

    Advection couples the same neighbours as diffusion, so the pattern does
    not depend on the velocity.  The order is the one ``splu`` picks with
    ``MMD_AT_PLUS_A`` and ``SymmetricMode`` for this pattern (minimum degree
    on A + A^T, then the elimination tree postorder), which depends on the
    structure only.

    Row r of A_II becomes row perm[r] of B, so SuperLU's preference for the
    diagonal pivot still names A_II's diagonal.  Within each column the rows
    keep A_II's ascending order, which fixes the order of SuperLU's
    depth-first searches and hence of its arithmetic.  Both make the numeric
    factorization of B repeat that of A_II operation for operation.  A run
    uses two keys per grid, so the bound of 8 never evicts within a run.
    """
    nx, ny = grid.nx, grid.ny
    if comp == "x":
        m1, m2 = nx - 1, ny
        i, j = np.meshgrid(np.arange(m1), np.arange(m2), indexing="ij")
        nrm, n_nrm, tan, n_tan = i, m1, j, m2
        nbrs = ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
        full = (i + 1) * ny + j
    else:
        m1, m2 = nx, ny - 1
        i, j = np.meshgrid(np.arange(m1), np.arange(m2), indexing="ij")
        nrm, n_nrm, tan, n_tan = j, m2, i, m1
        nbrs = ((i, j - 1), (i, j + 1), (i - 1, j), (i + 1, j))
        full = i * (ny + 1) + j + 1
    lo, hi = tan >= 1, tan <= n_tan - 2
    cols = np.stack([i * m2 + j] + [a * m2 + b for a, b in nbrs])
    cols[1][nrm == 0] = -1
    cols[2][nrm == n_nrm - 1] = -1
    cols[3][~lo] = -1
    cols[4][~hi] = -1
    keep = cols >= 0
    r = np.broadcast_to(cols[0], cols.shape)[keep]
    c = cols[keep]
    n, nnz = m1 * m2, len(r)

    # any nonsingular matrix with this pattern: strictly diagonally dominant
    a0 = sp.csc_matrix((np.where(r == c, 5.0, -1.0), (r, c)), shape=(n, n))
    # a copy: a view of perm_c would keep the whole factorization alive
    perm = _splu_symmetric(a0, "MMD_AT_PLUS_A").perm_c.astype(np.intp)
    order = np.lexsort((r, perm[c]))
    slots = np.full(cols.shape, nnz, dtype=np.intp)
    slots[keep] = np.argsort(order)
    return _Pattern(
        slots=slots,
        lo=lo,
        hi=hi,
        indices=perm[r[order]].astype(np.intc),
        indptr=np.concatenate([[0], np.cumsum(np.bincount(perm[c], minlength=n))]).astype(np.intc),
        q=full.ravel()[np.argsort(perm)],
        perm=perm,
    )


class TransportOperator:
    """Implicit operator  inv_dt*I - kappa*Lap + a·grad  on one component grid.

    Assembled on the interior faces only (A_II); the couplings to the wall
    faces, which carry the normal Dirichlet data, go to the right-hand side
    (``rhs_boundary``).  A zero ``a`` gives the heat operator that
    ``DirichletHeat`` solves in closed form.  The structure and the symmetric
    minimum-degree order come from ``_transport_pattern``; a build fills in
    the values and runs SuperLU's numeric factorization only, pivoting on the
    diagonal unless it falls below ``_DIAG_PIVOT_THRESH`` of its column.  If
    any pivot leaves the diagonal, the build refactors the same matrix with
    ``splu``'s default COLAMD order and partial pivoting, whose fill does not
    depend on the diagonal.
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
        else:
            self.shape = grid.shape_yface()
        self._assemble(a)

    def _assemble(self, a):
        g = self.grid
        k = self.kappa
        pat = self._pattern = _transport_pattern(g, self.comp)
        # normal and tangential spacing of this component
        hn, ht = (g.dx, g.dy) if self.comp == "x" else (g.dy, g.dx)

        # time term and diffusion (nodal Dirichlet in the normal direction;
        # mirror ghosts in the tangential direction)
        diag = np.full(pat.lo.shape, self.inv_dt)
        diag = diag + 2.0 * k / hn**2
        diag = diag + np.where(pat.lo & pat.hi, 2.0 * k / ht**2, 3.0 * k / ht**2)
        n_lo = n_hi = -k / hn**2
        t_lo = t_hi = -k / ht**2

        # advection (divergence form minus interpolated-divergence correction)
        ah = advecting_half(a)
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
        diag = diag + np.where(pat.hi, tp, 0.0)
        diag = diag - np.where(pat.lo, tm, 0.0)
        diag = diag - sd
        # one diffusion plus one advection entry per neighbour: a single
        # addition, so the sum does not depend on the order of the two
        n_lo, n_hi, t_lo, t_hi = n_lo - cm, n_hi + cp, t_lo - tm, t_hi + tp
        # the normal neighbours of the first and last interior lines are
        # wall faces: their couplings multiply the data in rhs_boundary
        if self.comp == "x":
            self._wall_lo, self._wall_hi = n_lo[0, :], n_hi[-1, :]
        else:
            self._wall_lo, self._wall_hi = n_lo[:, 0], n_hi[:, -1]

        data = np.empty(len(pat.indices) + 1)  # the extra entry absorbs missing neighbours
        for slot, v in zip(pat.slots, (diag, n_lo, n_hi, t_lo, t_hi)):
            data[slot] = v
        self._data = data[:-1]
        m = sp.csc_matrix((self._data, pat.indices, pat.indptr), shape=(len(pat.q),) * 2)
        m.has_canonical_format = True  # keep the row order (see _transport_pattern)
        try:
            lu = _splu_symmetric(m, "NATURAL")
            if not np.array_equal(lu.perm_r, np.arange(m.shape[0])):
                # a pivot left the diagonal, and the symmetric order no longer
                # bounds the fill: refactor with COLAMD and partial pivoting
                lu = splu(m)
        except RuntimeError as exc:  # pragma: no cover
            raise SolverFailure(f"transport operator factorization failed: {exc}")
        self._lu = lu

    @property
    def matrix(self):
        """A_II on the raveled interior face array (built on demand)."""
        pat = self._pattern
        m = sp.csc_matrix((self._data, pat.indices, pat.indptr), shape=(len(pat.q),) * 2)
        return m[pat.perm][:, pat.perm].tocsc()

    def rhs_boundary(self, bc: VectorBC):
        """The Dirichlet data of ``bc`` on the full face array.

        The wall faces hold the normal data; each interior face holds what
        its couplings to the data (wall faces and mirror ghosts) contribute
        to its right-hand side, so  A_II u_I = f_I + rhs_boundary(bc)_I.
        ``boundary`` hands these to ``solve``.
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

    def boundary(self, bc: VectorBC):
        """``rhs_boundary(bc)`` with its interior entries in the factor's order.

        Prepare it once per boundary instant and pass it to every ``solve``
        with that data.
        """
        r = self.rhs_boundary(bc)
        return r.ravel()[self._pattern.q], r

    def solve(self, rhs_core: np.ndarray, boundary) -> np.ndarray:
        """Solve for the full component array.

        ``rhs_core`` holds the interior right-hand side (wall-face entries
        are ignored); ``boundary`` comes from ``self.boundary(bc)`` and
        supplies the wall faces of the result.
        """
        q = self._pattern.q
        rhs, full = boundary
        out = full.copy()
        out.ravel()[q] = self._lu.solve(rhs_core.ravel()[q] + rhs)
        return out


# --- closed-form Dirichlet heat and harmonic solves -------------------------

def _separable_solve(qa, qb, inv_lam, r):
    """qa (inv_lam * (qa^T r qb)) qb^T: a solve in the orthonormal eigenbases qa and qb."""
    return qa @ ((qa.T @ r @ qb) * inv_lam) @ qb.T


class DirichletHeat:
    """inv_dt*I - kappa*Lap on both face components with Dirichlet data, in closed form.

    Each component's operator is separable in the sines of ``dirichlet_modes``,
    so a solve is fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6,
    1964).  The data enters as kappa*Lap of the field that holds it on the
    walls and is zero inside: kappa*g/h**2 in the first and last interior rows
    and the mirror terms 2*kappa*g/h**2 in the wall-adjacent columns, the
    interior of a zero-velocity ``TransportOperator.rhs_boundary``.  It
    agrees with that operator's solve to round-off.
    """

    def __init__(self, grid: Grid, inv_dt: float, kappa: float):
        self.grid = grid
        self.kappa = kappa
        qxn, lxn = dirichlet_modes(grid.nx, grid.dx, nodal=True)
        qxm, lxm = dirichlet_modes(grid.nx, grid.dx, nodal=False)
        qyn, lyn = dirichlet_modes(grid.ny, grid.dy, nodal=True)
        qym, lym = dirichlet_modes(grid.ny, grid.dy, nodal=False)
        self._x = (qxn, qym, 1.0 / (inv_dt + kappa * np.add.outer(lxn, lym)))
        self._y = (qxm, qyn, 1.0 / (inv_dt + kappa * np.add.outer(lxm, lyn)))

    def solve(self, fx: np.ndarray, fy: np.ndarray, bc: VectorBC) -> VectorField:
        """The solution for the right-hand side (fx, fy) on the full face arrays
        (interior entries used) and the Dirichlet data bc."""
        g = self.grid
        out = VectorField.zeros(g)
        out.x[0, :], out.x[-1, :] = bc.x_left, bc.x_right
        out.y[:, 0], out.y[:, -1] = bc.y_bottom, bc.y_top
        # Lap of the wall data, written next to the walls only: the data term
        # of the normal direction, then the mirror term of the tangential one,
        # each added to zero, so every entry has apply_lap_mirror's bits
        lx = np.zeros((g.nx - 1, g.ny))
        lx[0, :] += bc.x_left / g.dx**2
        lx[-1, :] += bc.x_right / g.dx**2
        lx[:, 0] += 2.0 * bc.x_bottom[1:-1] / g.dy**2
        lx[:, -1] += 2.0 * bc.x_top[1:-1] / g.dy**2
        ly = np.zeros((g.nx, g.ny - 1))
        ly[:, 0] += bc.y_bottom / g.dy**2
        ly[:, -1] += bc.y_top / g.dy**2
        ly[0, :] += 2.0 * bc.y_left[1:-1] / g.dx**2
        ly[-1, :] += 2.0 * bc.y_right[1:-1] / g.dx**2
        out.x[1:-1, :] = _separable_solve(*self._x, fx[1:-1, :] + self.kappa * lx)
        out.y[:, 1:-1] = _separable_solve(*self._y, fy[:, 1:-1] + self.kappa * ly)
        return out


@lru_cache(maxsize=8)
def dirichlet_heat(grid: Grid, inv_dt: float, kappa: float) -> DirichletHeat:
    """The memoized ``DirichletHeat``.  A run uses at most two keys (the
    harmonic and the parabolic lift), so the bound of 8 never evicts."""
    return DirichletHeat(grid, inv_dt, kappa)


# --- pressure & projection -------------------------------------------------

def _neumann_modes(n, h):
    """Orthonormal eigenvectors (columns) and eigenvalues of ``tridiag_neumann(n) / h**2``.

    Column k samples cos(pi k (j + 1/2) / n) at the cells j; its eigenvalue
    is (2 cos(pi k / n) - 2) / h**2, zero for the constant k = 0.
    """
    k = np.arange(n)
    q = np.cos(np.pi * np.outer(np.arange(n) + 0.5, k) / n) * np.sqrt(2.0 / n)
    q[:, 0] = np.sqrt(1.0 / n)
    return q, (2.0 * np.cos(np.pi * k / n) - 2.0) / h**2


def dirichlet_modes(n, h, nodal):
    """Orthonormal eigenvectors (columns) and eigenvalues of ``-tridiag_nodal(n - 1) / h**2``
    (``nodal``) or of ``-tridiag_mirror(n) / h**2``.

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
        r = np.reshape(rhs, self.grid.shape_center())
        q = _separable_solve(self._qx, self._qy, self._inv_lam, r)
        return q - q.mean()


def project_divfree(v: VectorField, poisson: NeumannPoisson):
    """Remove the discrete gradient part; wall-normal faces are untouched."""
    q = poisson.solve(divergence(v).values)
    gq = gradient(ScalarField(v.grid, q))
    out = v.copy()
    out.x[1:-1, :] -= gq.x[1:-1, :]
    out.y[:, 1:-1] -= gq.y[:, 1:-1]
    return out, ScalarField(v.grid, q)


def stokes_apply(u: VectorField, poisson: NeumannPoisson):
    """Stokes operator S u = -Lap u + grad P on the div-free subspace.

    Returns (Su, gradP) as fields; u must have zero trace.
    """
    w = apply_lap_mirror(u)
    w = VectorField(u.grid, -w.x, -w.y)
    su, q = project_divfree(w, poisson)
    gp = w - su
    return su, gp


class StreamForms(NamedTuple):
    """The stream-function parameterization of the div-free zero-trace faces."""

    curl: sp.csr_matrix  # C = stream_curl_matrix(grid)
    stiffness: sp.csc_matrix  # C^T (-Lap) C, symmetrized
    mass: sp.csc_matrix  # C^T C, symmetrized


@lru_cache(maxsize=4)
def stream_forms(grid: Grid) -> StreamForms:
    """C, C^T (-Lap) C and C^T C of one grid, for the Stokes eigenbasis.  Lap
    is the interior-face mirror Laplacian; both forms are symmetric positive
    definite.  ``StokesSaddle`` solves with inv_dt times the second plus nu
    times the first without forming them."""
    c = stream_curl_matrix(grid)
    lap = sp.block_diag((lap_xcomp_interior(grid), lap_ycomp_interior(grid)))
    a = (c.T @ (-lap) @ c).tocsc()
    mass = (c.T @ c).tocsc()
    return StreamForms(c, 0.5 * (a + a.T), 0.5 * (mass + mass.T))


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
    scaled to a unit shift, finite for every nu > 0.  M is written in the
    sines along each side of the frame, where its diagonal blocks are
    diagonal and its off-diagonal blocks are S^{-1} scaled by the sines' end
    values; its eigenvalues are at least 1, and its inverse is formed once
    from its Cholesky factor.  A solve costs four matmuls of the corner array
    plus frame-sized products.  ``pressure`` recovers the mean-zero p from
    grad p = f - (inv_dt - nu*Lap) u with one Neumann Poisson solve of its
    divergence.
    """

    def __init__(self, grid: Grid, inv_dt: float, nu: float, poisson: NeumannPoisson | None = None):
        self.grid = grid
        self.inv_dt = inv_dt
        self.nu = nu
        self.poisson = NeumannPoisson(grid) if poisson is None else poisson
        qx, lx = dirichlet_modes(grid.nx, grid.dx, nodal=True)
        qy, ly = dirichlet_modes(grid.ny, grid.dy, nodal=True)
        lam = np.add.outer(lx, ly)
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

    def solve(self, fx: np.ndarray, fy: np.ndarray) -> VectorField:
        """Divergence-free u; fx, fy: forcing on the full face arrays (interior entries used)."""
        g = self.grid
        qx, qy, inv_s, ax, ay = self._tables
        fxi, fyi = fx[1:-1, :], fy[:, 1:-1]
        rhs = (fxi[:, :-1] - fxi[:, 1:]) / g.dy + (fyi[1:, :] - fyi[:-1, :]) / g.dx  # C^T f
        y = (qx.T @ rhs @ qy) * inv_s  # S^{-1} C^T f in the sine basis
        z = self._inv_m @ np.concatenate([(y @ ay.T).T.ravel(), (ax @ y).ravel()])
        zx, zy = z[: 2 * (g.nx - 1)].reshape(2, -1), z[2 * (g.nx - 1) :].reshape(2, -1)
        y -= inv_s * (zx.T @ ay + ax.T @ zy)
        psi = np.zeros((g.nx + 1, g.ny + 1))
        psi[1:-1, 1:-1] = qx @ y @ qy.T
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
        return ScalarField(g, self.poisson.solve(div))
