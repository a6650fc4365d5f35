"""Discrete Stokes and Dirichlet-Laplacian eigenbases with projections.

The Stokes problem is solved on the stream-function parameterization of
the discretely divergence-free zero-trace subspace, which keeps the
operator symmetric and makes every mode divergence-free to machine
precision.  The Laplacian basis is vector-valued with one nonzero
component per mode (the scalar blocks are independent), ordered by
eigenvalue across both blocks.

Grids up to 48 cells per side use a dense symmetric solve; larger grids
use shift-invert Lanczos with a deterministic start vector.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import SolverFailure
from .geometry import Grid, VectorField, grad_norm_sq, l2_norm_sq
from .operators import (
    NeumannPoisson,
    apply_lap_mirror,
    lap_xcomp_interior,
    lap_ycomp_interior,
    stream_forms,
)

__all__ = [
    "SpectralBasis",
    "build_laplacian_basis",
    "build_stokes_basis",
    "project",
    "poincare_constants",
    "basis_inequality_check",
    "save_basis",
    "load_basis",
    "cached_basis",
]

DENSE_LIMIT = 48
MAGIC = b"MHDBASIS1"
KINDS = ("stokes", "dirichlet_laplacian")


@dataclass
class SpectralBasis:
    """Ordered discrete eigenpairs; modes are stored stacked for fast projection."""

    kind: str
    grid: Grid
    eigenvalues: np.ndarray
    modes_x: np.ndarray  # (count, nx+1, ny)
    modes_y: np.ndarray  # (count, nx, ny+1)
    pressures: np.ndarray | None = None  # (count, nx, ny) for the stokes kind

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if ev.size and (np.any(ev <= 0) or np.any(np.diff(ev) < -1e-9 * max(1.0, ev[-1]))):
            raise ValueError("eigenvalues must be positive and non-decreasing")
        self.eigenvalues = ev

    @property
    def count(self):
        return len(self.eigenvalues)

    def mode(self, i) -> VectorField:
        return VectorField(self.grid, self.modes_x[i].copy(), self.modes_y[i].copy())

    def gram(self):
        g = self.grid
        w = g.dx * g.dy
        mx = self.modes_x.reshape(self.count, -1)
        my = self.modes_y.reshape(self.count, -1)
        return w * (mx @ mx.T + my @ my.T)


def _fix_signs(vectors, tol=1e-8):
    """First significant entry of each column made positive (reproducibility)."""
    v = vectors
    scale = np.max(np.abs(v), axis=0)
    scale[scale == 0] = 1.0
    for k in range(v.shape[1]):
        nz = np.nonzero(np.abs(v[:, k]) > tol * scale[k])[0]
        if nz.size and v[nz[0], k] < 0:
            v[:, k] = -v[:, k]
    return v


def _symmetric_eigs(a, m, k, dense):
    """Lowest k eigenpairs of a (optionally generalized with mass m)."""
    n = a.shape[0]
    if k > n:
        raise ValueError(f"capacity error: requested {k} modes, operator has {n} dofs")
    if dense or k >= n - 1:
        ad = a.toarray()
        md = m.toarray() if m is not None else None
        w, v = scipy.linalg.eigh(ad, md, subset_by_index=[0, k - 1])
        return w, v
    v0 = np.ones(n) / np.sqrt(n)
    try:
        if m is not None:
            w, v = eigsh(a, k=k, M=m.tocsc(), sigma=0.0, which="LM", v0=v0)
        else:
            w, v = eigsh(a, k=k, sigma=0.0, which="LM", v0=v0)
    except ArpackNoConvergence as exc:
        raise SolverFailure(f"eigensolver did not converge: {exc}")
    order = np.argsort(w)
    return w[order], v[:, order]


def build_laplacian_basis(grid: Grid, m: int) -> SpectralBasis:
    """First m eigenpairs of the componentwise Dirichlet Laplacian."""
    nxf = (grid.nx - 1) * grid.ny
    nyf = grid.nx * (grid.ny - 1)
    if m > nxf + nyf:
        raise ValueError(f"capacity error: m={m} exceeds {nxf + nyf} interior dofs")
    if m == 0:
        return SpectralBasis(
            "dirichlet_laplacian",
            grid,
            np.zeros(0),
            np.zeros((0,) + grid.shape_xface()),
            np.zeros((0,) + grid.shape_yface()),
        )
    dense = grid.nx <= DENSE_LIMIT and grid.ny <= DENSE_LIMIT
    kx = min(m, nxf)
    ky = min(m, nyf)
    wx, vx = _symmetric_eigs(-lap_xcomp_interior(grid).tocsc(), None, kx, dense)
    wy, vy = _symmetric_eigs(-lap_ycomp_interior(grid).tocsc(), None, ky, dense)
    # merge the two blocks by eigenvalue; ties resolved x-block first
    tagged = [(wx[i], 0, i) for i in range(kx)] + [(wy[i], 1, i) for i in range(ky)]
    tagged.sort(key=lambda t: (t[0], t[1], t[2]))
    tagged = tagged[:m]
    w = grid.dx * grid.dy
    evs = np.array([t[0] for t in tagged])
    mx = np.zeros((m,) + grid.shape_xface())
    my = np.zeros((m,) + grid.shape_yface())
    vx = _fix_signs(vx)
    vy = _fix_signs(vy)
    for k, (ev, block, i) in enumerate(tagged):
        if block == 0:
            col = vx[:, i] / np.sqrt(w * np.dot(vx[:, i], vx[:, i]))
            mx[k, 1:-1, :] = col.reshape(grid.nx - 1, grid.ny)
        else:
            col = vy[:, i] / np.sqrt(w * np.dot(vy[:, i], vy[:, i]))
            my[k, :, 1:-1] = col.reshape(grid.nx, grid.ny - 1)
    return SpectralBasis("dirichlet_laplacian", grid, evs, mx, my)


def build_stokes_basis(grid: Grid, n: int, with_pressure: bool = True) -> SpectralBasis:
    """First n eigenpairs of the discrete Stokes operator."""
    nz = (grid.nx - 1) * (grid.ny - 1)
    if n > nz:
        raise ValueError(f"capacity error: n={n} exceeds div-free dimension {nz}")
    if n == 0:
        return SpectralBasis(
            "stokes",
            grid,
            np.zeros(0),
            np.zeros((0,) + grid.shape_xface()),
            np.zeros((0,) + grid.shape_yface()),
        )
    c, a, mass = stream_forms(grid)
    dense = grid.nx <= DENSE_LIMIT and grid.ny <= DENSE_LIMIT
    w, v = _symmetric_eigs(a, mass, n, dense)
    weight = grid.dx * grid.dy
    nux = (grid.nx - 1) * grid.ny
    mx = np.zeros((n,) + grid.shape_xface())
    my = np.zeros((n,) + grid.shape_yface())
    fields = c @ v  # columns are face fields
    fields = _fix_signs(fields)
    norms = np.sqrt(weight * np.sum(fields**2, axis=0))
    fields /= norms
    for k in range(n):
        mx[k, 1:-1, :] = fields[:nux, k].reshape(grid.nx - 1, grid.ny)
        my[k, :, 1:-1] = fields[nux:, k].reshape(grid.nx, grid.ny - 1)
    basis = SpectralBasis("stokes", grid, np.array(w), mx, my)
    if with_pressure:
        poisson = NeumannPoisson(grid)
        press = np.zeros((n,) + grid.shape_center())
        for k in range(n):
            # -Lap xi = lambda xi + grad p  =>  p from the projection residual
            res = apply_lap_mirror(basis.mode(k))
            rx = -res.x - w[k] * mx[k]
            ry = -res.y - w[k] * my[k]
            div = (rx[1:, :] - rx[:-1, :]) / grid.dx + (ry[:, 1:] - ry[:, :-1]) / grid.dy
            press[k] = poisson.solve(div)
        basis.pressures = press
    return basis


def project(basis: SpectralBasis, f: VectorField, k: int | None = None):
    """Coefficients on the first k modes and the reconstructed field."""
    if k is None:
        k = basis.count
    if k > basis.count:
        raise ValueError(f"projection onto {k} modes, basis holds {basis.count}")
    g = basis.grid
    w = g.dx * g.dy
    mx = basis.modes_x[:k].reshape(k, -1)
    my = basis.modes_y[:k].reshape(k, -1)
    coeffs = w * (mx @ f.x.ravel() + my @ f.y.ravel())
    rx = np.tensordot(coeffs, basis.modes_x[:k], axes=(0, 0))
    ry = np.tensordot(coeffs, basis.modes_y[:k], axes=(0, 0))
    return coeffs, VectorField(g, rx, ry)


def poincare_constants(stokes: SpectralBasis, lap: SpectralBasis):
    """(c_u, c_b, c_p): sharp discrete Poincare constants and their gate value."""
    if stokes.count == 0 or lap.count == 0:
        raise ValueError("poincare constants need non-empty bases")
    c_u = float(stokes.eigenvalues[0])
    c_b = float(lap.eigenvalues[0])
    return c_u, c_b, 0.5 * min(c_u, c_b)


@dataclass
class BasisInequalityReport:
    c0: float
    per_sample: np.ndarray
    gradient_identity_rel_err: float


def basis_inequality_check(stokes: SpectralBasis, n: int, samples: int = 20, seed: int = 0):
    """Measured constant in ||Lap u1||^2 <= (c0+1) lambda_{n+1} ||grad u1||^2.

    u1 ranges over random combinations of the first n modes; also verifies
    the exact spectral identity ||grad u1||^2 = sum g_i^2 lambda_i.
    """
    if n >= stokes.count:
        raise ValueError("need n < basis.count to reference lambda_{n+1}")
    rng = np.random.default_rng(seed)
    lam_next = stokes.eigenvalues[n]
    ratios = np.empty(samples)
    id_err = 0.0
    for s in range(samples):
        gvec = rng.standard_normal(n)
        ux = np.tensordot(gvec, stokes.modes_x[:n], axes=(0, 0))
        uy = np.tensordot(gvec, stokes.modes_y[:n], axes=(0, 0))
        u1 = VectorField(stokes.grid, ux, uy)
        lap_sq = l2_norm_sq(apply_lap_mirror(u1))
        grad_sq = grad_norm_sq(u1)
        spectral = float(np.sum(gvec**2 * stokes.eigenvalues[:n]))
        id_err = max(id_err, abs(grad_sq - spectral) / spectral)
        ratios[s] = lap_sq / (lam_next * grad_sq)
    return BasisInequalityReport(float(np.max(ratios) - 1.0), ratios, id_err)


# --- cache -----------------------------------------------------------------

def save_basis(basis: SpectralBasis, path):
    kind_b = basis.kind.encode("ascii").ljust(24, b"\0")
    header = MAGIC + kind_b + struct.pack("<qqq", basis.grid.nx, basis.grid.ny, basis.count)
    payload = [header, basis.eigenvalues.astype("<f8").tobytes()]
    for k in range(basis.count):
        payload.append(basis.modes_x[k].astype("<f8").tobytes())
        payload.append(basis.modes_y[k].astype("<f8").tobytes())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(payload))
    os.replace(tmp, path)


def load_basis(path) -> SpectralBasis:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a basis cache file")
    off = len(MAGIC)
    kind = raw[off : off + 24].rstrip(b"\0").decode("ascii")
    off += 24
    nx, ny, count = struct.unpack_from("<qqq", raw, off)
    off += 24
    grid = Grid(nx, ny)
    evs = np.frombuffer(raw, dtype="<f8", count=count, offset=off).copy()
    off += 8 * count
    sx = (nx + 1) * ny
    sy = nx * (ny + 1)
    mx = np.empty((count, nx + 1, ny))
    my = np.empty((count, nx, ny + 1))
    for k in range(count):
        mx[k] = np.frombuffer(raw, dtype="<f8", count=sx, offset=off).reshape(nx + 1, ny)
        off += 8 * sx
        my[k] = np.frombuffer(raw, dtype="<f8", count=sy, offset=off).reshape(nx, ny + 1)
        off += 8 * sy
    return SpectralBasis(kind, grid, evs, mx, my)


def cache_key(kind, grid, count):
    return f"basis_{kind}_{grid.nx}x{grid.ny}_{count}.mhdbasis"


def cached_basis(kind: str, grid: Grid, count: int, cache_dir=None) -> SpectralBasis:
    """Build (or load a bit-identical cached copy of) an eigenbasis."""
    builder = build_stokes_basis if kind == "stokes" else build_laplacian_basis
    if cache_dir is None:
        return builder(grid, count)
    path = os.path.join(cache_dir, cache_key(kind, grid, count))
    if os.path.exists(path):
        basis = load_basis(path)
        if basis.kind == kind and basis.count == count and basis.grid == grid:
            return basis
    basis = builder(grid, count)
    os.makedirs(cache_dir, exist_ok=True)
    save_basis(basis, path)
    return basis
