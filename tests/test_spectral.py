import os
import struct
import zlib

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lap_xcomp_interior, lap_ycomp_interior, random_zero_trace, stream_forms
from mhd2d.geometry import (
    Grid,
    ScalarField,
    VectorField,
    divergence,
    grad_norm_sq,
    gradient,
    l2_norm_sq,
)
from mhd2d.operators import NeumannPoisson, apply_lap_mirror
from mhd2d.spectral import (
    MAGIC,
    SpectralBasis,
    basis_inequality_check,
    build_laplacian_basis,
    build_stokes_basis,
    cached_basis,
    load_basis,
    poincare_constants,
    project,
    save_basis,
)


def discrete_mu(grid, k, l):
    h = grid.dx
    return 4.0 / h**2 * (np.sin(k * np.pi * h / 2) ** 2 + np.sin(l * np.pi * h / 2) ** 2)


def test_laplacian_eigenvalues_match_separable_formula():
    g = Grid(16, 16)
    basis = build_laplacian_basis(g, 10)
    exact = sorted(
        discrete_mu(g, k, l) for k in range(1, 8) for l in range(1, 8)
    )
    # every scalar eigenvalue appears once per component block
    expect = sorted(np.repeat(exact, 2))[:10]
    assert np.allclose(basis.eigenvalues, expect, rtol=1e-10)


def test_laplacian_mu1_near_continuum():
    g = Grid(32, 32)
    basis = build_laplacian_basis(g, 1)
    assert abs(basis.eigenvalues[0] - 2 * np.pi**2) < 0.05  # O(dx^2)


def test_empty_basis():
    g = Grid(8, 8)
    basis = build_laplacian_basis(g, 0)
    assert basis.count == 0


def test_capacity_errors():
    g = Grid(8, 8)
    with pytest.raises(ValueError, match="capacity"):
        build_laplacian_basis(g, 10_000)
    with pytest.raises(ValueError, match="capacity"):
        build_stokes_basis(g, 10_000)


def _complete_clusters(w, count):
    """(lo, hi) of each eigenvalue cluster lying wholly within the first count."""
    edges = [0] + [int(e) for e in np.flatnonzero(np.diff(w) > 1e-9 * w[1:]) + 1] + [len(w)]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi <= count]


@pytest.mark.parametrize("nx,ny", [(4, 4), (6, 6), (9, 7)])
def test_stokes_basis_matches_dense_oracle_for_every_count(nx, ny):
    # the oracle: a dense generalized eigh of the shared stream-function forms
    g = Grid(nx, ny)
    c, a, mass = stream_forms(g)
    w, v = scipy.linalg.eigh(a.toarray(), mass.toarray())
    oracle = c @ v  # unit 2-norm face columns, since mass = C^T C
    full = (nx - 1) * (ny - 1)
    for k in range(1, full + 1):
        basis = build_stokes_basis(g, k)
        assert np.max(np.abs(basis.eigenvalues - w[:k]) / w[:k]) <= 1e-12
        q = _interior_columns(basis)
        for lo, hi in _complete_clusters(w, k):
            p_oracle = oracle[:, lo:hi] @ oracle[:, lo:hi].T
            p_basis = q[:, lo:hi] @ q[:, lo:hi].T
            assert np.max(np.abs(p_basis - p_oracle)) <= 1e-10


@pytest.mark.parametrize("nx,n,expect", [(32, 1, ["eigsh"]), (8, 2, ["eigsh"]), (4, 9, ["eigh"])])
def test_stokes_basis_takes_lanczos_unless_the_basis_is_full(monkeypatch, nx, n, expect):
    calls = _count_eigensolvers(monkeypatch)
    build_stokes_basis(Grid(nx, nx), n)
    assert calls == expect


def test_eigen_residuals():
    for g, count in ((Grid(16, 16), 6), (Grid(9, 7), 20), (Grid(64, 64), 160)):
        basis = build_laplacian_basis(g, count)
        for i in range(basis.count):
            m = basis.mode(i)
            r = apply_lap_mirror(m)
            res = np.sqrt(l2_norm_sq(VectorField(g, -r.x - basis.eigenvalues[i] * m.x,
                                                 -r.y - basis.eigenvalues[i] * m.y)))
            assert res < 1e-8


def _interior_columns(basis):
    """Modes as unit 2-norm columns over the interior x-faces, then y-faces."""
    g = basis.grid
    cols = np.hstack([basis.modes_x[:, 1:-1, :].reshape(basis.count, -1),
                      basis.modes_y[:, :, 1:-1].reshape(basis.count, -1)])
    return cols.T * np.sqrt(g.dx * g.dy)


@pytest.mark.parametrize("nx,ny,m", [(9, 7, 30), (12, 12, 41), (16, 16, 61)])
def test_laplacian_basis_matches_dense_oracle(nx, ny, m):
    # the oracle: a dense eigh of the assembled component Laplacians
    g = Grid(nx, ny)
    lap = sp.block_diag((-lap_xcomp_interior(g), -lap_ycomp_interior(g))).toarray()
    w, v = scipy.linalg.eigh(lap)
    basis = build_laplacian_basis(g, m)
    assert np.max(np.abs(basis.eigenvalues - w[:m]) / w[:m]) <= 1e-12
    # compare orthogonal projectors on each eigenvalue cluster complete within m
    q = _interior_columns(basis)
    starts = np.flatnonzero(np.diff(w) > 1e-9 * w[1:]) + 1
    edges = [0] + [int(e) for e in starts if e <= m]
    for lo, hi in zip(edges, edges[1:]):
        p_oracle = v[:, lo:hi] @ v[:, lo:hi].T
        p_basis = q[:, lo:hi] @ q[:, lo:hi].T
        assert np.max(np.abs(p_basis - p_oracle)) <= 1e-10
    assert len(edges) > 5


def test_laplacian_tie_puts_the_x_block_first():
    basis = build_laplacian_basis(Grid(16, 16), 2)
    assert basis.eigenvalues[0] == basis.eigenvalues[1]
    assert np.any(basis.modes_x[0]) and not np.any(basis.modes_y[0])
    assert np.any(basis.modes_y[1]) and not np.any(basis.modes_x[1])


def _count_eigensolvers(monkeypatch):
    """Record the name of each eigensolver the spectral module calls."""
    from mhd2d import spectral

    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spectral, "eigsh", counting(spectral.eigsh))
    monkeypatch.setattr(scipy.linalg, "eigh", counting(scipy.linalg.eigh))
    return calls


def test_laplacian_basis_runs_no_eigensolver(monkeypatch):
    calls = _count_eigensolvers(monkeypatch)
    build_laplacian_basis(Grid(16, 16), 40)
    build_laplacian_basis(Grid(64, 64), 160)
    assert calls == []
    build_stokes_basis(Grid(8, 8), 2)  # the counter does see the Stokes solve
    assert calls == ["eigsh"]


def _gram(basis):
    """The L2 Gram matrix of the basis modes."""
    g = basis.grid
    mx = basis.modes_x.reshape(basis.count, -1)
    my = basis.modes_y.reshape(basis.count, -1)
    return g.dx * g.dy * (mx @ mx.T + my @ my.T)


def test_orthonormality():
    g = Grid(16, 16)
    for basis in (build_laplacian_basis(g, 8), build_stokes_basis(g, 8)):
        gram = _gram(basis)
        assert np.max(np.abs(gram - np.eye(basis.count))) < 1e-10


def test_stokes_modes_divergence_free():
    g = Grid(16, 16)
    basis = build_stokes_basis(g, 6)
    for i in range(6):
        assert np.max(np.abs(divergence(basis.mode(i)).values)) < 1e-10


def test_stokes_lambda1_richardson_consistency():
    vals = {}
    for nx in (16, 32, 64):
        vals[nx] = build_stokes_basis(Grid(nx, nx), 1).eigenvalues[0]
    rich_a = vals[32] + (vals[32] - vals[16]) / 3.0
    rich_b = vals[64] + (vals[64] - vals[32]) / 3.0
    assert abs(rich_a - rich_b) / rich_b < 0.01


def test_eigenvalue_stability_under_larger_count():
    g = Grid(12, 12)
    small = build_stokes_basis(g, 4)
    large = build_stokes_basis(g, 9)
    assert np.allclose(small.eigenvalues, large.eigenvalues[:4], atol=1e-8)


def test_project_single_mode_and_completeness(rng):
    g = Grid(10, 10)
    basis = build_stokes_basis(g, 6)
    coeffs, _ = project(basis, basis.mode(0), 6)
    assert abs(coeffs[0] - 1.0) < 1e-10
    assert np.max(np.abs(coeffs[1:])) < 1e-10
    # full-rank projection reconstructs any div-free zero-trace field
    full = (g.nx - 1) * (g.ny - 1)
    basis_full = build_stokes_basis(g, full)
    from conftest import random_divfree

    f = random_divfree(g, rng)
    _, rec = project(basis_full, f, full)
    assert np.sqrt(l2_norm_sq(rec - f)) < 1e-9 * max(1.0, np.sqrt(l2_norm_sq(f)))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000), k=st.integers(1, 8))
def test_projection_idempotent_and_contractive(seed, k):
    rng = np.random.default_rng(seed)
    g = Grid(10, 10)
    basis = build_laplacian_basis(g, 8)
    f = random_zero_trace(g, rng)
    coeffs, rec = project(basis, f, k)
    coeffs2, rec2 = project(basis, rec, k)
    assert np.allclose(coeffs, coeffs2, atol=1e-12)
    assert l2_norm_sq(rec) <= l2_norm_sq(f) * (1 + 1e-12)


def test_tail_energy_monotone_in_k():
    g = Grid(12, 12)
    basis = build_laplacian_basis(g, 12)
    f = VectorField.from_functions(
        g,
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) + 0.3 * np.sin(2 * np.pi * x) * np.sin(np.pi * y),
        lambda x, y: 0.5 * np.sin(np.pi * x) * np.sin(2 * np.pi * y),
    )
    tails = []
    for k in range(1, 13):
        _, rec = project(basis, f, k)
        tails.append(l2_norm_sq(f - rec))
    assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))


def test_spectral_laplacian_norm_identity(rng):
    g = Grid(12, 12)
    basis = build_laplacian_basis(g, 10)
    coeffs = rng.standard_normal(10)
    fx = np.tensordot(coeffs, basis.modes_x, axes=(0, 0))
    fy = np.tensordot(coeffs, basis.modes_y, axes=(0, 0))
    f = VectorField(g, fx, fy)
    lap_sq = l2_norm_sq(apply_lap_mirror(f))
    spectral = float(np.sum((basis.eigenvalues * coeffs) ** 2))
    assert abs(lap_sq - spectral) < 1e-8 * spectral


def test_poincare_constants(rng):
    g = Grid(24, 24)
    stokes = build_stokes_basis(g, 2)
    lap = build_laplacian_basis(g, 2)
    c_u, c_b, c_p = poincare_constants(stokes, lap)
    assert abs(c_b - 2 * np.pi**2) < 0.1
    assert c_p == 0.5 * min(c_u, c_b)
    for _ in range(100):
        f = random_zero_trace(g, rng)
        assert grad_norm_sq(f) >= c_b * l2_norm_sq(f) * (1 - 1e-10)


def test_poincare_requires_modes():
    g = Grid(8, 8)
    empty = build_laplacian_basis(g, 0)
    full = build_stokes_basis(g, 1)
    with pytest.raises(ValueError):
        poincare_constants(full, empty)


def test_basis_inequality_check():
    g = Grid(16, 16)
    basis = build_stokes_basis(g, 5)
    rep = basis_inequality_check(basis, 1, seed=1)
    assert np.isfinite(rep.c0)
    assert rep.gradient_identity_rel_err < 1e-8
    with pytest.raises(ValueError):
        basis_inequality_check(basis, 5)


def test_basis_inequality_check_ignores_the_basis_of_a_degenerate_eigenspace():
    # at 32^2 modes 9 and 10 (1-based) share one eigenvalue: the eigensolver
    # returns one orthonormal basis of their plane, and a rotation is another
    basis = build_stokes_basis(Grid(32, 32), 11)
    ev = basis.eigenvalues
    assert ev[9] - ev[8] <= 1e-9 * ev[9]
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.eye(11)
    rot[8:10, 8:10] = [[c, -s], [s, c]]
    turned = SpectralBasis("stokes", basis.grid, ev, np.tensordot(rot, basis.modes_x, 1),
                           np.tensordot(rot, basis.modes_y, 1))
    want = basis_inequality_check(basis, 10, seed=0).c0
    got = basis_inequality_check(turned, 10, seed=0).c0
    assert abs(got - want) <= 1e-12 * abs(want)


def test_pressure_recovery_consistency():
    # -Lap(xi) - lambda*xi must be (numerically) a discrete gradient grad p,
    # with p the Neumann solve of the residual's divergence
    g = Grid(12, 12)
    basis = build_stokes_basis(g, 2)
    with pytest.raises(ValueError, match="eigenpressures"):
        build_stokes_basis(g, 2, with_pressure=True)
    i = 0
    xi = basis.mode(i)
    r = apply_lap_mirror(xi)
    resid = VectorField(g, -r.x - basis.eigenvalues[i] * xi.x, -r.y - basis.eigenvalues[i] * xi.y)
    p = NeumannPoisson(g).solve(divergence(resid).values)
    gp = gradient(ScalarField(g, p))
    assert np.sqrt(l2_norm_sq(resid - gp)) < 1e-7 * basis.eigenvalues[i]


def test_cache_round_trip(tmp_path):
    g = Grid(10, 10)
    basis = build_stokes_basis(g, 3)
    path = tmp_path / "b.mhdbasis"
    save_basis(basis, path)
    loaded = load_basis(path)
    assert loaded.kind == basis.kind
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.modes_x, basis.modes_x)
    assert np.array_equal(loaded.modes_y, basis.modes_y)


def test_cached_basis_hit_is_bit_identical(tmp_path):
    g = Grid(10, 10)
    first = cached_basis(g, 4, str(tmp_path))
    again = cached_basis(g, 4, str(tmp_path))
    rebuilt = build_stokes_basis(g, 4)
    assert np.array_equal(again.modes_x, rebuilt.modes_x)
    assert np.array_equal(again.modes_y, rebuilt.modes_y)
    assert np.array_equal(again.eigenvalues, first.eigenvalues)
    assert os.listdir(tmp_path) == ["basis_stokes_10x10_4.mhdbasis"]


def _v1_bytes(basis):
    """The MHDBASIS1 layout: no checksum, modes_x[k] and modes_y[k] interleaved."""
    head = b"MHDBASIS1" + basis.kind.encode().ljust(24, b"\0")
    parts = [head, struct.pack("<qqq", basis.grid.nx, basis.grid.ny, basis.count),
             basis.eigenvalues.tobytes()]
    for k in range(basis.count):
        parts += [basis.modes_x[k].tobytes(), basis.modes_y[k].tobytes()]
    return b"".join(parts)


def _old_magic_bytes(raw, magic):
    """A current cache file under an earlier magic of the same layout, its
    checksum recomputed: MHDBASIS2 caches hold Stokes bases from the
    assembled-forms route, MHDBASIS3 ones map psi to faces with the sparse
    stream curl, and both differ from today's at round-off."""
    assert raw.startswith(MAGIC) and len(magic) == len(MAGIC)
    off = len(MAGIC) + struct.calcsize("<24sqqq")
    head = magic + raw[len(MAGIC) : off]
    payload = raw[off + 4 :]
    return head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + payload


def test_damaged_or_v1_basis_cache_is_rebuilt(tmp_path, caplog):
    g = Grid(10, 10)
    path = tmp_path / "basis_stokes_10x10_4.mhdbasis"
    good = build_stokes_basis(g, 4)
    save_basis(good, path)
    raw = path.read_bytes()
    flipped = bytearray(raw)
    flipped[-104] ^= 0x01  # the lowest bit of one mode value
    damaged = [raw[:-8], b"NOTBASIS" + raw[8:], bytes(flipped), _v1_bytes(good),
               _old_magic_bytes(raw, b"MHDBASIS2"), _old_magic_bytes(raw, b"MHDBASIS3")]
    for data in damaged:
        path.write_bytes(data)
        with pytest.raises(ValueError):
            load_basis(path)
        caplog.clear()
        again = cached_basis(g, 4, str(tmp_path))
        assert "rebuilding basis cache" in caplog.text
        assert np.array_equal(again.modes_x, good.modes_x)
        assert path.read_bytes() == raw
