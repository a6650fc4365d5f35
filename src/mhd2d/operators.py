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

import numpy as np
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
    "lap_center_dirichlet",
    "stream_curl_matrix",
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


def lap_center_dirichlet(grid: Grid):
    tx = tridiag_mirror(grid.nx) / grid.dx**2
    ty = tridiag_mirror(grid.ny) / grid.dy**2
    return sp.kron(tx, sp.identity(grid.ny)) + sp.kron(sp.identity(grid.nx), ty)


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

class TransportOperator:
    """Implicit operator  inv_dt*I - kappa*Lap + a·grad  on one component grid.

    Assembled over the *full* face array of the component; wall faces get
    identity rows so normal Dirichlet data can be imposed directly.  With
    ``a=None`` the advection part is dropped, with ``inv_dt=0`` this is a
    plain Dirichlet-Laplace solve (used for harmonic extension).
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

    # flattened index of entry (i, j) on the component grid
    def _idx(self, i, j):
        return i * self.shape[1] + j

    def _assemble(self, a):
        g = self.grid
        nx, ny = g.nx, g.ny
        dx, dy = g.dx, g.dy
        n1, n2 = self.shape
        rows, cols, vals = [], [], []

        def add(r, c, v):
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(np.broadcast_to(v, r.shape).ravel())

        if self.comp == "x":
            ii, jj = np.meshgrid(np.arange(1, nx), np.arange(ny), indexing="ij")
        else:
            ii, jj = np.meshgrid(np.arange(nx), np.arange(1, ny), indexing="ij")
        rid = self._idx(ii, jj)

        # time term
        diag = np.full(ii.shape, self.inv_dt)

        # diffusion, normal direction (nodal Dirichlet: wall faces are unknowns
        # with identity rows, so the couplings stay in the matrix)
        k = self.kappa
        if self.comp == "x":
            add(rid, self._idx(ii - 1, jj), -k / dx**2)
            add(rid, self._idx(ii + 1, jj), -k / dx**2)
            diag = diag + 2.0 * k / dx**2
            # tangential direction: mirror ghosts at j=0, ny-1
            interior_j = (jj >= 1) & (jj <= ny - 2)
            add(rid[interior_j], self._idx(ii, jj - 1)[interior_j], -k / dy**2)
            add(rid[interior_j], self._idx(ii, jj + 1)[interior_j], -k / dy**2)
            diag = diag + np.where(interior_j, 2.0 * k / dy**2, 3.0 * k / dy**2)
            low = jj == 0
            add(rid[low], self._idx(ii, jj + 1)[low], -k / dy**2)
            high = jj == ny - 1
            add(rid[high], self._idx(ii, jj - 1)[high], -k / dy**2)
        else:
            add(rid, self._idx(ii, jj - 1), -k / dy**2)
            add(rid, self._idx(ii, jj + 1), -k / dy**2)
            diag = diag + 2.0 * k / dy**2
            interior_i = (ii >= 1) & (ii <= nx - 2)
            add(rid[interior_i], self._idx(ii - 1, jj)[interior_i], -k / dx**2)
            add(rid[interior_i], self._idx(ii + 1, jj)[interior_i], -k / dx**2)
            diag = diag + np.where(interior_i, 2.0 * k / dx**2, 3.0 * k / dx**2)
            low = ii == 0
            add(rid[low], self._idx(ii + 1, jj)[low], -k / dx**2)
            high = ii == nx - 1
            add(rid[high], self._idx(ii - 1, jj)[high], -k / dx**2)

        # advection (divergence form minus interpolated-divergence correction)
        self._adv_corner = None
        if a is not None:
            dc = divergence(a).values
            if self.comp == "x":
                a1c = 0.5 * (a.x[:-1, :] + a.x[1:, :])  # (nx, ny)
                a2x = 0.5 * (a.y[:-1, :] + a.y[1:, :])  # (nx-1, ny+1)
                cr = a1c[ii, jj] / (2 * dx)  # flux through right cell center
                cl = a1c[ii - 1, jj] / (2 * dx)
                add(rid, self._idx(ii + 1, jj), cr)
                add(rid, self._idx(ii - 1, jj), -cl)
                diag = diag + cr - cl
                # corner fluxes: interior corner lines only; wall lines go to rhs
                aup = a2x[ii - 1, jj + 1] / (2 * dy)
                adn = a2x[ii - 1, jj] / (2 * dy)
                up_ok = jj + 1 <= ny - 1
                dn_ok = jj >= 1
                add(rid[up_ok], self._idx(ii, jj + 1)[up_ok], aup[up_ok])
                diag = diag + np.where(up_ok, aup, 0.0)
                add(rid[dn_ok], self._idx(ii, jj - 1)[dn_ok], -adn[dn_ok])
                diag = diag - np.where(dn_ok, adn, 0.0)
                sd = 0.5 * (dc[ii - 1, jj] + dc[ii, jj])
                diag = diag - sd
                self._adv_corner = ("x", a2x)
            else:
                a2c = 0.5 * (a.y[:, :-1] + a.y[:, 1:])  # (nx, ny)
                a1y = 0.5 * (a.x[:, :-1] + a.x[:, 1:])  # (nx+1, ny-1)
                cu = a2c[ii, jj] / (2 * dy)
                cd = a2c[ii, jj - 1] / (2 * dy)
                add(rid, self._idx(ii, jj + 1), cu)
                add(rid, self._idx(ii, jj - 1), -cd)
                diag = diag + cu - cd
                arr = a1y[ii + 1, jj - 1] / (2 * dx)
                alf = a1y[ii, jj - 1] / (2 * dx)
                r_ok = ii + 1 <= nx - 1
                l_ok = ii >= 1
                add(rid[r_ok], self._idx(ii + 1, jj)[r_ok], arr[r_ok])
                diag = diag + np.where(r_ok, arr, 0.0)
                add(rid[l_ok], self._idx(ii - 1, jj)[l_ok], -alf[l_ok])
                diag = diag - np.where(l_ok, alf, 0.0)
                sd = 0.5 * (dc[ii, jj - 1] + dc[ii, jj])
                diag = diag - sd
                self._adv_corner = ("y", a1y)

        add(rid, rid, diag)

        # identity rows on wall faces (normal Dirichlet)
        if self.comp == "x":
            wi, wj = np.meshgrid(np.array([0, nx]), np.arange(ny), indexing="ij")
        else:
            wi, wj = np.meshgrid(np.arange(nx), np.array([0, ny]), indexing="ij")
        wid = self._idx(wi, wj)
        add(wid, wid, np.ones(wid.shape))

        n = n1 * n2
        m = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        ).tocsc()
        try:
            self._lu = splu(m)
        except RuntimeError as exc:  # pragma: no cover
            raise SolverFailure(f"transport operator factorization failed: {exc}")
        self.matrix = m

    def rhs_boundary(self, bc: VectorBC):
        """Boundary contributions to the right-hand side on the full array."""
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
                _, a2x = self._adv_corner
                r[1:-1, 0] += a2x[:, 0] * bc.x_bottom[1:-1] / dy
                r[1:-1, -1] -= a2x[:, -1] * bc.x_top[1:-1] / dy
        else:
            r[:, 0] = bc.y_bottom
            r[:, -1] = bc.y_top
            r[0, 1:-1] += 2.0 * k * bc.y_left[1:-1] / dx**2
            r[-1, 1:-1] += 2.0 * k * bc.y_right[1:-1] / dx**2
            if self._adv_corner is not None:
                _, a1y = self._adv_corner
                r[0, 1:-1] += a1y[0, :] * bc.y_left[1:-1] / dx
                r[-1, 1:-1] -= a1y[-1, :] * bc.y_right[1:-1] / dx
        return r

    def solve(self, rhs_core: np.ndarray, bc: VectorBC) -> np.ndarray:
        """Solve for the full component array.

        ``rhs_core`` holds the interior right-hand side (wall-face entries
        are ignored and replaced by the Dirichlet data from ``bc``).
        """
        rhs = rhs_core.copy()
        if self.comp == "x":
            rhs[0, :] = 0.0
            rhs[-1, :] = 0.0
        else:
            rhs[:, 0] = 0.0
            rhs[:, -1] = 0.0
        rhs += self.rhs_boundary(bc)
        sol = self._lu.solve(rhs.ravel())
        return sol.reshape(self.shape)


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

class NeumannPoisson:
    """Cell-centered Poisson solve with homogeneous Neumann walls, gauge-pinned."""

    def __init__(self, grid: Grid):
        self.grid = grid
        tx = tridiag_neumann(grid.nx) / grid.dx**2
        ty = tridiag_neumann(grid.ny) / grid.dy**2
        m = (sp.kron(tx, sp.identity(grid.ny)) + sp.kron(sp.identity(grid.nx), ty)).tolil()
        m[0, :] = 0.0
        m[0, 0] = 1.0
        self._lu = splu(m.tocsc())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        r = rhs - rhs.mean()
        r = r.ravel().copy()
        r[0] = 0.0
        q = self._lu.solve(r)
        return (q - q.mean()).reshape(self.grid.shape_center())


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


class StokesSaddle:
    """Monolithic implicit Stokes step: (inv_dt - nu*Lap) u + grad p = f, div u = 0.

    One continuity row is traded for a pressure gauge; the dropped row is
    implied by the others because the total flux of a zero-trace field
    vanishes identically.
    """

    def __init__(self, grid: Grid, inv_dt: float, nu: float):
        self.grid = grid
        self.inv_dt = inv_dt
        self.nu = nu
        nx, ny = grid.nx, grid.ny
        self.nux = (nx - 1) * ny
        self.nuy = nx * (ny - 1)
        npp = nx * ny
        ax = sp.identity(self.nux) * inv_dt - nu * lap_xcomp_interior(grid)
        ay = sp.identity(self.nuy) * inv_dt - nu * lap_ycomp_interior(grid)
        a = sp.block_diag((ax, ay))
        dxm = sp.diags([-np.ones(nx - 1), np.ones(nx - 1)], [0, 1], shape=(nx - 1, nx)) / grid.dx
        dym = sp.diags([-np.ones(ny - 1), np.ones(ny - 1)], [0, 1], shape=(ny - 1, ny)) / grid.dy
        gx = sp.kron(dxm, sp.identity(ny))
        gy = sp.kron(sp.identity(nx), dym)
        grad_m = sp.vstack([gx, gy])
        div_m = (-grad_m.T).tolil()
        bottom = sp.hstack([div_m, sp.lil_matrix((npp, npp))]).tolil()
        bottom[0, :] = 0.0
        bottom[0, self.nux + self.nuy] = 1.0  # pin p at the first cell
        system = sp.vstack([sp.hstack([a, grad_m]), bottom]).tocsc()
        try:
            self._lu = splu(system)
        except RuntimeError as exc:  # pragma: no cover
            raise SolverFailure(f"implicit Stokes factorization failed: {exc}")

    def solve(self, fx: np.ndarray, fy: np.ndarray):
        """fx, fy: forcing on the full face arrays (interior entries used)."""
        g = self.grid
        rhs = np.concatenate(
            [fx[1:-1, :].ravel(), fy[:, 1:-1].ravel(), np.zeros(g.nx * g.ny)]
        )
        sol = self._lu.solve(rhs)
        u = VectorField.zeros(g)
        u.x[1:-1, :] = sol[: self.nux].reshape(g.nx - 1, g.ny)
        u.y[:, 1:-1] = sol[self.nux : self.nux + self.nuy].reshape(g.nx, g.ny - 1)
        p = sol[self.nux + self.nuy :].reshape(g.shape_center())
        p = p - p.mean()
        return u, ScalarField(g, p)
