"""Discrete Stokes and Dirichlet-Laplacian eigenbases with projections.

The Stokes problem is solved on the stream-function parameterization of
the discretely divergence-free zero-trace subspace, which keeps the
operator symmetric and makes every mode divergence-free to machine
precision: K psi = w L psi on the interior corners, with K = C^T (-Lap) C
and L = C^T C for the stream curl C.  Its eigenpairs come from shift-invert
Lanczos about zero with a deterministic start vector, where K^{-1} is the
solve of the Stokes step's ``StokesSaddle`` at inv_dt = 0 and nu = 1; no
sparse matrix is factored.  Only the full basis (or all but one mode),
where ARPACK cannot run, takes a dense symmetric solve, in the corner sines
where L is diagonal.  Modes inside a degenerate eigenspace are one
orthonormal basis of it, not a canonical one.

The Laplacian basis is vector-valued with one nonzero component per mode
(the scalar blocks are independent), ordered by eigenvalue across both
blocks.  Each block is separable, so its eigenpairs are products of the
closed-form sines of ``operators.dirichlet_modes``; no eigensolver runs.
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import SolverFailure
from .geometry import Grid, VectorField, grad_norm_sq, l2_norm_sq
from .ioutil import atomic_write_bytes
from .operators import StokesSaddle, _separable_solve, apply_lap_mirror, dirichlet_heat

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

KINDS = ("stokes", "dirichlet_laplacian")

# MAGIC | kind, nx, ny, count | crc32 | payload.  The crc32 covers magic, header
# and payload; the payload holds the eigenvalues, then modes_x, then modes_y,
# as little-endian f8.
MAGIC = b"MHDBASIS4"
_BASIS_HEADER = struct.Struct("<24sqqq")
_BASIS_CRC = struct.Struct("<I")

log = logging.getLogger(__name__)


@dataclass
class SpectralBasis:
    """Ordered discrete eigenpairs; modes are stored stacked for fast projection."""

    kind: str
    grid: Grid
    eigenvalues: np.ndarray
    modes_x: np.ndarray  # (count, nx+1, ny)
    modes_y: np.ndarray  # (count, nx, ny+1)

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
        return VectorField._unchecked(self.grid, self.modes_x[i].copy(), self.modes_y[i].copy())


def _fix_signs(vectors):
    """First significant entry of each column (above 1e-8 of its largest)
    made positive (reproducibility)."""
    v = vectors
    scale = np.max(np.abs(v), axis=0)
    scale[scale == 0] = 1.0
    for k in range(v.shape[1]):
        nz = np.nonzero(np.abs(v[:, k]) > 1e-8 * scale[k])[0]
        if nz.size and v[nz[0], k] < 0:
            v[:, k] = -v[:, k]
    return v


def _stokes_eigs(grid: Grid, k: int):
    """Lowest k eigenpairs of K psi = w L psi, psi on the raveled interior corners.

    L = C^T C is diag(lam) in the corner sines of ``dirichlet_modes``; the
    saddle holds both.  ARPACK's shift-invert mode about zero applies only
    K^{-1}, the corner solve of a ``StokesSaddle`` at inv_dt = 0 and nu = 1,
    and L; its first operator only supplies the shape, so L is passed there
    too.  ARPACK needs k < N - 1; the full basis takes a dense solve in the
    corner sines, where K = diag(lam**2) + F^T F with F the saddle's
    ``frame_sines``.
    """
    saddle = StokesSaddle(grid, 0.0, 1.0)
    qx, qy = saddle._tables[:2]
    lam = saddle.lam
    n = lam.size
    if k >= n - 1:
        f = saddle.frame_sines()
        w, v = scipy.linalg.eigh(np.diag(lam.ravel() ** 2) + f.T @ f, np.diag(lam.ravel()),
                                 subset_by_index=[0, k - 1])
        return w, np.kron(qx, qy) @ v

    def op(matvec):
        return LinearOperator((n, n), matvec=matvec, dtype=np.float64)

    # L itself: the separable form of a solve, with lam in place of 1/lam
    mass = op(lambda x: _separable_solve(qx, qy, lam, x.reshape(lam.shape)).ravel())
    k_inv = op(lambda x: saddle.solve_corners(x.reshape(lam.shape)).ravel())
    try:
        w, v = eigsh(mass, k=k, M=mass, sigma=0.0, which="LM",
                     v0=np.ones(n) / np.sqrt(n), OPinv=k_inv)
    except ArpackNoConvergence as exc:
        raise SolverFailure(f"eigensolver did not converge: {exc}")
    order = np.argsort(w)
    return w[order], v[:, order]


def build_laplacian_basis(grid: Grid, m: int) -> SpectralBasis:
    """First m eigenpairs of the componentwise Dirichlet Laplacian, in closed form.

    Each block is separable: x-faces pair nodal x with mirrored y sines,
    y-faces the reverse, the tables and eigenvalue sums of the harmonic
    ``dirichlet_heat``.  A stable sort puts the x-block first on a tie.
    """
    nxf = (grid.nx - 1) * grid.ny
    nyf = grid.nx * (grid.ny - 1)
    if m > nxf + nyf:
        raise ValueError(f"capacity error: m={m} exceeds {nxf + nyf} interior dofs")
    heat = dirichlet_heat(grid, 0.0, 1.0)
    (qxn, qym, _), (qxm, qyn, _) = heat._x, heat._y
    evs = np.concatenate([heat._lam[0].ravel(), heat._lam[1].ravel()])
    order = np.argsort(evs, kind="stable")[:m]
    scale = 1.0 / np.sqrt(grid.dx * grid.dy)
    mx = np.zeros((m,) + grid.shape_xface())
    my = np.zeros((m,) + grid.shape_yface())
    for r, idx in enumerate(order):
        if idx < nxf:
            i, j = divmod(idx, grid.ny)
            mx[r, 1:-1, :] = scale * np.outer(qxn[:, i], qym[:, j])
        else:
            i, j = divmod(idx - nxf, grid.ny - 1)
            my[r, :, 1:-1] = scale * np.outer(qxm[:, i], qyn[:, j])
    return SpectralBasis("dirichlet_laplacian", grid, evs[order], mx, my)


def build_stokes_basis(grid: Grid, n: int, with_pressure: bool = False) -> SpectralBasis:
    """First n eigenpairs of the discrete Stokes operator.

    ``with_pressure`` is accepted only as False (existing callers pass it).
    """
    if with_pressure:
        raise ValueError("Stokes eigenpressures are not computed")
    nz = (grid.nx - 1) * (grid.ny - 1)
    if n > nz:
        raise ValueError(f"capacity error: n={n} exceeds div-free dimension {nz}")
    mx = np.zeros((n,) + grid.shape_xface())
    my = np.zeros((n,) + grid.shape_yface())
    if n == 0:
        return SpectralBasis("stokes", grid, np.zeros(0), mx, my)
    w, v = _stokes_eigs(grid, n)
    # psi to interior faces as ``VectorField.from_stream`` differences it,
    # the mode index last: columns are face fields, x-faces first
    psi = np.zeros((grid.nx + 1, grid.ny + 1, n))
    psi[1:-1, 1:-1] = v.reshape(grid.nx - 1, grid.ny - 1, n)
    ux = (psi[1:-1, 1:] - psi[1:-1, :-1]) / grid.dy
    uy = -(psi[1:, 1:-1] - psi[:-1, 1:-1]) / grid.dx
    fields = _fix_signs(np.concatenate([ux.reshape(-1, n), uy.reshape(-1, n)]))
    fields /= np.sqrt(grid.dx * grid.dy * np.sum(fields**2, axis=0))
    nux = (grid.nx - 1) * grid.ny
    mx[:, 1:-1, :] = fields[:nux].T.reshape(n, grid.nx - 1, grid.ny)
    my[:, :, 1:-1] = fields[nux:].T.reshape(n, grid.nx, grid.ny - 1)
    return SpectralBasis("stokes", grid, np.array(w), mx, my)


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
    return coeffs, VectorField._unchecked(g, rx, ry)


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
    gradient_identity_rel_err: float


def basis_inequality_check(stokes: SpectralBasis, n: int, seed: int = 0):
    """Measured constant in ||Lap u1||^2 <= (c0+1) lambda_{n+1} ||grad u1||^2.

    u1 ranges over projections of 20 seeded random face fields onto the span
    of the first n modes: its coefficients are iid standard normal, and u1
    does not depend on which orthonormal basis of a degenerate eigenspace
    the eigensolver returned.  Also verifies the exact spectral identity
    ||grad u1||^2 = sum g_i^2 lambda_i.
    """
    if n >= stokes.count:
        raise ValueError("need n < basis.count to reference lambda_{n+1}")
    rng = np.random.default_rng(seed)
    g = stokes.grid
    scale = 1.0 / np.sqrt(g.dx * g.dy)  # unit-variance coefficients
    lam_next = stokes.eigenvalues[n]
    ratios = np.empty(20)
    id_err = 0.0
    for s in range(ratios.size):
        r = VectorField._unchecked(g, scale * rng.standard_normal(g.shape_xface()),
                                   scale * rng.standard_normal(g.shape_yface()))
        gvec, u1 = project(stokes, r, n)
        lap_sq = l2_norm_sq(apply_lap_mirror(u1))
        grad_sq = grad_norm_sq(u1)
        spectral = float(np.sum(gvec**2 * stokes.eigenvalues[:n]))
        id_err = max(id_err, abs(grad_sq - spectral) / spectral)
        ratios[s] = lap_sq / (lam_next * grad_sq)
    return BasisInequalityReport(float(np.max(ratios) - 1.0), id_err)


# --- cache -----------------------------------------------------------------

def save_basis(basis: SpectralBasis, path):
    kind_b = basis.kind.encode("ascii")
    head = MAGIC + _BASIS_HEADER.pack(kind_b, basis.grid.nx, basis.grid.ny, basis.count)
    payload = b"".join(
        a.astype("<f8").tobytes() for a in (basis.eigenvalues, basis.modes_x, basis.modes_y)
    )
    crc = _BASIS_CRC.pack(zlib.crc32(payload, zlib.crc32(head)))
    atomic_write_bytes(path, head + crc + payload)


def load_basis(path) -> SpectralBasis:
    """Read a basis cache file; a foreign, truncated or damaged file raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    off = len(MAGIC) + _BASIS_HEADER.size + _BASIS_CRC.size
    if len(raw) < off or raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a {MAGIC.decode()} basis cache file")
    kind_b, nx, ny, count = _BASIS_HEADER.unpack_from(raw, len(MAGIC))
    kind = kind_b.rstrip(b"\0").decode("ascii", "replace")
    if kind not in KINDS or min(nx, ny, count) <= 0:
        raise ValueError(f"{path}: bad header (kind {kind!r}, grid {nx}x{ny}, {count} modes)")
    sx, sy = (nx + 1) * ny, nx * (ny + 1)
    if len(raw) - off != 8 * count * (1 + sx + sy):
        raise ValueError(f"{path}: payload has {len(raw) - off} bytes, the header needs "
                         f"{8 * count * (1 + sx + sy)}")
    crc_at = off - _BASIS_CRC.size
    if zlib.crc32(raw[off:], zlib.crc32(raw[:crc_at])) != _BASIS_CRC.unpack_from(raw, crc_at)[0]:
        raise ValueError(f"{path}: checksum mismatch (damaged file)")
    data = np.frombuffer(raw, dtype="<f8", offset=off).astype(np.float64)
    evs, mx, my = np.split(data, [count, count * (1 + sx)])
    return SpectralBasis(kind, Grid(nx, ny), evs, mx.reshape(count, nx + 1, ny),
                         my.reshape(count, nx, ny + 1))


def cached_basis(grid: Grid, count: int, cache_dir: str) -> SpectralBasis:
    """Load a bit-identical copy of the Stokes eigenbasis from ``cache_dir``,
    or build it and store it there.

    A cache file that is damaged or holds another basis is rebuilt and rewritten.
    """
    path = os.path.join(cache_dir, f"basis_stokes_{grid.nx}x{grid.ny}_{count}.mhdbasis")
    if os.path.exists(path):
        try:
            basis = load_basis(path)
        except ValueError as exc:
            log.warning("rebuilding basis cache: %s", exc)
        else:
            if basis.kind == "stokes" and basis.count == count and basis.grid == grid:
                return basis
            log.warning("rebuilding basis cache: %s holds another basis", path)
    basis = build_stokes_basis(grid, count)
    save_basis(basis, path)
    return basis
