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
from .geometry import Grid, ScalarField, VectorBC, VectorField, divergence, gradient

__all__ = [
    "tridiag_nodal",
    "tridiag_mirror",
    "tridiag_neumann",
    "lap_xcomp_interior",
    "lap_ycomp_interior",
    "stream_curl_matrix",
    "StreamForms",
    "stream_forms",
    "apply_lap_mirror",
    "apply_lap_mirror_scalar",
    "TransportOperator",
    "heat_pair",
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

class _Pattern(NamedTuple):
    """Sparsity structure and column order of one component's transport operator.

    The operator A is factored as B = A[q][:, q] with the natural order, so
    SuperLU skips COLAMD.  ``slots[g]`` maps each interior unknown to the CSC
    data position of its stencil entry of group g (diagonal, normal -/+
    neighbour, tangential -/+ neighbour); a missing tangential neighbour
    points one past the end.  ``wall`` holds the wall-face diagonals and
    ``wall_rows`` the wall faces' positions in B's order.
    """

    slots: np.ndarray
    wall: np.ndarray
    wall_rows: np.ndarray
    lo: np.ndarray  # the tangential - neighbour exists
    hi: np.ndarray  # the tangential + neighbour exists
    indices: np.ndarray
    indptr: np.ndarray
    q: np.ndarray
    perm: np.ndarray  # inverse of q


@lru_cache(maxsize=8)
def _transport_pattern(grid: Grid, comp: str) -> _Pattern:
    """Structure and column order shared by every TransportOperator on (grid, comp).

    Advection couples the same neighbours as diffusion, so heat, harmonic
    and transport operators share one pattern.  The column order is the one
    a default ``splu`` picks for this pattern (COLAMD, then the elimination
    tree postorder), which depends on the structure only.

    Row r of A becomes row perm[r] of B, so SuperLU's preference for the
    diagonal pivot in a tie still names A's diagonal.  Within each column
    the rows keep A's ascending order, which fixes the order of SuperLU's
    depth-first searches and hence of its arithmetic.  Both make the
    numeric factorization of B repeat that of A operation for operation.
    A run uses two keys per grid, so the bound of 8 never evicts within a run.
    """
    nx, ny = grid.nx, grid.ny
    if comp == "x":
        n1, n2 = grid.shape_xface()
        ii, jj = np.meshgrid(np.arange(1, nx), np.arange(ny), indexing="ij")
        tan, n_tan = jj, ny
        nbrs = ((ii - 1, jj), (ii + 1, jj), (ii, jj - 1), (ii, jj + 1))
        wi, wj = np.meshgrid(np.array([0, nx]), np.arange(ny), indexing="ij")
    else:
        n1, n2 = grid.shape_yface()
        ii, jj = np.meshgrid(np.arange(nx), np.arange(1, ny), indexing="ij")
        tan, n_tan = ii, nx
        nbrs = ((ii, jj - 1), (ii, jj + 1), (ii - 1, jj), (ii + 1, jj))
        wi, wj = np.meshgrid(np.arange(nx), np.array([0, ny]), indexing="ij")
    lo, hi = tan >= 1, tan <= n_tan - 2
    rid = ii * n2 + jj
    cols = np.stack([rid] + [i * n2 + j for i, j in nbrs])
    cols[3][~lo] = -1
    cols[4][~hi] = -1
    keep = cols >= 0
    wid = (wi * n2 + wj).ravel()
    r = np.concatenate([np.broadcast_to(rid, cols.shape)[keep], wid])
    c = np.concatenate([cols[keep], wid])
    n, nnz = n1 * n2, len(r)

    # any nonsingular matrix with this pattern: strictly diagonally dominant
    a0 = sp.csc_matrix((np.where(r == c, 5.0, -1.0), (r, c)), shape=(n, n))
    # a copy: a view of perm_c would keep the whole factorization alive
    perm = splu(a0).perm_c.astype(np.intp)
    order = np.lexsort((r, perm[c]))
    pos = np.empty(nnz, dtype=np.intp)
    pos[order] = np.arange(nnz)
    n_int = int(keep.sum())  # entries of the interior rows; the wall rows follow
    slots = np.full(cols.shape, nnz, dtype=np.intp)
    slots[keep] = pos[:n_int]
    return _Pattern(
        slots=slots,
        wall=pos[n_int:],
        wall_rows=perm[wid],
        lo=lo,
        hi=hi,
        indices=perm[r[order]].astype(np.intc),
        indptr=np.concatenate([[0], np.cumsum(np.bincount(perm[c], minlength=n))]).astype(np.intc),
        q=np.argsort(perm),
        perm=perm,
    )


class TransportOperator:
    """Implicit operator  inv_dt*I - kappa*Lap + a·grad  on one component grid.

    Assembled over the *full* face array of the component; wall faces get
    identity rows so normal Dirichlet data can be imposed directly.  With
    ``a=None`` the advection part is dropped, with ``inv_dt=0`` this is a
    plain Dirichlet-Laplace solve (used for harmonic extension).  The
    structure and column order come from ``_transport_pattern``; a build
    fills in the values and runs SuperLU's numeric factorization only.
    """

    def __init__(self, grid: Grid, comp: str, a: VectorField | None, inv_dt: float, kappa: float):
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

        # time term and diffusion (nodal Dirichlet in the normal direction:
        # wall faces are unknowns with identity rows, so the couplings stay
        # in the matrix; mirror ghosts in the tangential direction)
        diag = np.full(pat.lo.shape, self.inv_dt)
        diag = diag + 2.0 * k / hn**2
        diag = diag + np.where(pat.lo & pat.hi, 2.0 * k / ht**2, 3.0 * k / ht**2)
        n_lo = n_hi = -k / hn**2
        t_lo = t_hi = -k / ht**2

        # advection (divergence form minus interpolated-divergence correction)
        self._adv_corner = None
        if a is not None:
            dc = divergence(a).values
            if self.comp == "x":
                a1c = 0.5 * (a.x[:-1, :] + a.x[1:, :])  # (nx, ny)
                a2x = 0.5 * (a.y[:-1, :] + a.y[1:, :])  # (nx-1, ny+1)
                cp = a1c[1:, :] / (2 * g.dx)  # flux through right cell center
                cm = a1c[:-1, :] / (2 * g.dx)
                # corner fluxes: interior corner lines only; wall lines go to rhs
                tp = a2x[:, 1:] / (2 * g.dy)
                tm = a2x[:, :-1] / (2 * g.dy)
                sd = 0.5 * (dc[:-1, :] + dc[1:, :])
                self._adv_corner = a2x
            else:
                a2c = 0.5 * (a.y[:, :-1] + a.y[:, 1:])  # (nx, ny)
                a1y = 0.5 * (a.x[:, :-1] + a.x[:, 1:])  # (nx+1, ny-1)
                cp = a2c[:, 1:] / (2 * g.dy)
                cm = a2c[:, :-1] / (2 * g.dy)
                tp = a1y[1:, :] / (2 * g.dx)
                tm = a1y[:-1, :] / (2 * g.dx)
                sd = 0.5 * (dc[:, :-1] + dc[:, 1:])
                self._adv_corner = a1y
            diag = diag + cp - cm
            diag = diag + np.where(pat.hi, tp, 0.0)
            diag = diag - np.where(pat.lo, tm, 0.0)
            diag = diag - sd
            # one diffusion plus one advection entry per neighbour: a single
            # addition, so the sum does not depend on the order of the two
            n_lo, n_hi, t_lo, t_hi = n_lo - cm, n_hi + cp, t_lo - tm, t_hi + tp

        data = np.empty(len(pat.indices) + 1)  # the extra entry absorbs missing neighbours
        for slot, v in zip(pat.slots, (diag, n_lo, n_hi, t_lo, t_hi)):
            data[slot] = v
        data[pat.wall] = 1.0
        self._data = data[:-1]
        m = sp.csc_matrix((self._data, pat.indices, pat.indptr), shape=(len(pat.q),) * 2)
        m.has_canonical_format = True  # keep the row order (see _transport_pattern)
        try:
            self._lu = splu(m, permc_spec="NATURAL")
        except RuntimeError as exc:  # pragma: no cover
            raise SolverFailure(f"transport operator factorization failed: {exc}")

    @property
    def matrix(self):
        """The assembled operator on the raveled full face array (built on demand)."""
        pat = self._pattern
        m = sp.csc_matrix((self._data, pat.indices, pat.indptr), shape=(len(pat.q),) * 2)
        return m[pat.perm][:, pat.perm].tocsc()

    def rhs_boundary(self, bc: VectorBC):
        """Boundary contributions to the right-hand side on the full array.

        ``boundary`` hands these to ``solve``.
        """
        g = self.grid
        dx, dy = g.dx, g.dy
        k = self.kappa
        r = np.zeros(self.shape)
        if self.comp == "x":
            # Dirichlet rows at the wall faces
            r[0, :] = bc.x_left
            r[-1, :] = bc.x_right
            # mirror-ghost diffusion terms
            r[1:-1, 0] += 2.0 * k * bc.x_bottom[1:-1] / dy**2
            r[1:-1, -1] += 2.0 * k * bc.x_top[1:-1] / dy**2
            if self._adv_corner is not None:
                a2x = self._adv_corner
                r[1:-1, 0] += a2x[:, 0] * bc.x_bottom[1:-1] / dy
                r[1:-1, -1] -= a2x[:, -1] * bc.x_top[1:-1] / dy
        else:
            r[:, 0] = bc.y_bottom
            r[:, -1] = bc.y_top
            r[0, 1:-1] += 2.0 * k * bc.y_left[1:-1] / dx**2
            r[-1, 1:-1] += 2.0 * k * bc.y_right[1:-1] / dx**2
            if self._adv_corner is not None:
                a1y = self._adv_corner
                r[0, 1:-1] += a1y[0, :] * bc.y_left[1:-1] / dx
                r[-1, 1:-1] -= a1y[-1, :] * bc.y_right[1:-1] / dx
        return r

    def boundary(self, bc: VectorBC) -> np.ndarray:
        """The Dirichlet right-hand side of ``bc``, in the factor's order.

        Prepare it once per boundary instant and pass it to every ``solve``
        with that data.
        """
        return self.rhs_boundary(bc).ravel()[self._pattern.q]

    def solve(self, rhs_core: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Solve for the full component array.

        ``rhs_core`` holds the interior right-hand side (wall-face entries
        are ignored and replaced by the Dirichlet data); ``boundary`` comes
        from ``self.boundary(bc)``.
        """
        pat = self._pattern
        rhs = rhs_core.ravel()[pat.q]
        rhs[pat.wall_rows] = 0.0
        rhs += boundary
        return self._lu.solve(rhs)[pat.perm].reshape(self.shape)


@lru_cache(maxsize=8)
def heat_pair(grid: Grid, inv_dt: float, kappa: float):
    """The factored x/y pair  inv_dt*I - kappa*Lap  (no advection), memoized.

    ``inv_dt = 0`` gives the harmonic-lift pair, ``inv_dt = 1/dt`` the
    implicit-Euler heat step of the parabolic lift and of a magnetic step at
    zero velocity.  A run uses at most two keys (the harmonic pair and one
    heat pair), so the bound of 8 never evicts within a run.
    """
    return (
        TransportOperator(grid, "x", None, inv_dt, kappa),
        TransportOperator(grid, "y", None, inv_dt, kappa),
    )


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
        q = self._qx @ ((self._qx.T @ r @ self._qy) * self._inv_lam) @ self._qy.T
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
    """C, C^T (-Lap) C and C^T C of one grid, shared by the implicit Stokes
    step and the Stokes eigenbasis.  Lap is the interior-face mirror
    Laplacian; both forms are symmetric positive definite."""
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
    K = C^T (inv_dt - nu*Lap) C = inv_dt C^T C + nu C^T (-Lap) C, whose
    half-bandwidth is 2(ny-1) in the C-order corner numbering.  K is
    Cholesky-factored once in banded form; a solve is one banded
    back-substitution.  ``pressure`` recovers the mean-zero p from
    grad p = f - (inv_dt - nu*Lap) u with one Neumann Poisson solve of its
    divergence.
    """

    def __init__(self, grid: Grid, inv_dt: float, nu: float, poisson: NeumannPoisson | None = None):
        self.grid = grid
        self.inv_dt = inv_dt
        self.nu = nu
        self.poisson = NeumannPoisson(grid) if poisson is None else poisson
        forms = stream_forms(grid)
        nux = (grid.nx - 1) * grid.ny
        self._cx, self._cy = forms.curl[:nux], forms.curl[nux:]
        self._cxt, self._cyt = self._cx.T.tocsr(), self._cy.T.tocsr()
        k = (inv_dt * forms.mass + nu * forms.stiffness).tocoo()
        k.sum_duplicates()
        band = 2 * (grid.ny - 1)
        upper = k.row <= k.col
        ab = np.zeros((band + 1, k.shape[0]))
        ab[band + k.row[upper] - k.col[upper], k.col[upper]] = k.data[upper]
        try:
            self._chol = scipy.linalg.cholesky_banded(ab)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SolverFailure(f"implicit Stokes factorization failed: {exc}")

    def solve(self, fx: np.ndarray, fy: np.ndarray) -> VectorField:
        """Divergence-free u; fx, fy: forcing on the full face arrays (interior entries used)."""
        g = self.grid
        rhs = self._cxt @ fx[1:-1, :].ravel() + self._cyt @ fy[:, 1:-1].ravel()
        psi = scipy.linalg.cho_solve_banded((self._chol, False), rhs, check_finite=False)
        u = VectorField.zeros(g)
        u.x[1:-1, :] = (self._cx @ psi).reshape(g.nx - 1, g.ny)
        u.y[:, 1:-1] = (self._cy @ psi).reshape(g.nx, g.ny - 1)
        return u

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
