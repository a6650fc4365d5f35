import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_zero_trace
from mhd2d.geometry import Grid, VectorField, divergence, grad_norm_sq, l2_norm_sq
from mhd2d.operators import (
    apply_lap_mirror,
    lap_xcomp_interior,
    lap_ycomp_interior,
    stream_curl_matrix,
)
from mhd2d.spectral import (
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


def test_stokes_eigenvalues_bit_identical_to_direct_assembly():
    # the dense path at 8^2, on forms assembled here rather than shared
    g = Grid(8, 8)
    n = 10
    c = stream_curl_matrix(g)
    lap = sp.block_diag((lap_xcomp_interior(g), lap_ycomp_interior(g)))
    a = (c.T @ (-lap) @ c).tocsc()
    mass = (c.T @ c).tocsc()
    a = 0.5 * (a + a.T)
    mass = 0.5 * (mass + mass.T)
    w, _ = scipy.linalg.eigh(a.toarray(), mass.toarray(), subset_by_index=[0, n - 1])
    assert np.array_equal(build_stokes_basis(g, n, with_pressure=False).eigenvalues, w)


def test_eigen_residuals():
    g = Grid(16, 16)
    basis = build_laplacian_basis(g, 6)
    for i in range(basis.count):
        m = basis.mode(i)
        r = apply_lap_mirror(m)
        res = np.sqrt(l2_norm_sq(VectorField(g, -r.x - basis.eigenvalues[i] * m.x,
                                             -r.y - basis.eigenvalues[i] * m.y)))
        assert res < 1e-8


def test_orthonormality():
    g = Grid(16, 16)
    for basis in (build_laplacian_basis(g, 8), build_stokes_basis(g, 8, with_pressure=False)):
        gram = basis.gram()
        assert np.max(np.abs(gram - np.eye(basis.count))) < 1e-10


def test_stokes_modes_divergence_free():
    g = Grid(16, 16)
    basis = build_stokes_basis(g, 6, with_pressure=False)
    for i in range(6):
        assert np.max(np.abs(divergence(basis.mode(i)).values)) < 1e-10


def test_stokes_lambda1_richardson_consistency():
    vals = {}
    for nx in (16, 32, 64):
        vals[nx] = build_stokes_basis(Grid(nx, nx), 1, with_pressure=False).eigenvalues[0]
    rich_a = vals[32] + (vals[32] - vals[16]) / 3.0
    rich_b = vals[64] + (vals[64] - vals[32]) / 3.0
    assert abs(rich_a - rich_b) / rich_b < 0.01


def test_eigenvalue_stability_under_larger_count():
    g = Grid(12, 12)
    small = build_stokes_basis(g, 4, with_pressure=False)
    large = build_stokes_basis(g, 9, with_pressure=False)
    assert np.allclose(small.eigenvalues, large.eigenvalues[:4], atol=1e-8)


def test_project_single_mode_and_completeness(rng):
    g = Grid(10, 10)
    basis = build_stokes_basis(g, 6, with_pressure=False)
    coeffs, _ = project(basis, basis.mode(0), 6)
    assert abs(coeffs[0] - 1.0) < 1e-10
    assert np.max(np.abs(coeffs[1:])) < 1e-10
    # full-rank projection reconstructs any div-free zero-trace field
    full = (g.nx - 1) * (g.ny - 1)
    basis_full = build_stokes_basis(g, full, with_pressure=False)
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
    stokes = build_stokes_basis(g, 2, with_pressure=False)
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
    full = build_stokes_basis(g, 1, with_pressure=False)
    with pytest.raises(ValueError):
        poincare_constants(full, empty)


def test_basis_inequality_check():
    g = Grid(16, 16)
    basis = build_stokes_basis(g, 5, with_pressure=False)
    rep = basis_inequality_check(basis, 1, samples=5, seed=1)
    assert np.isfinite(rep.c0)
    assert rep.gradient_identity_rel_err < 1e-8
    with pytest.raises(ValueError):
        basis_inequality_check(basis, 5)


def test_pressure_recovery_consistency():
    # -Lap(xi) - lambda*xi must be (numerically) a discrete gradient
    g = Grid(12, 12)
    basis = build_stokes_basis(g, 2, with_pressure=True)
    assert basis.pressures is not None
    from mhd2d.geometry import ScalarField, gradient

    i = 0
    xi = basis.mode(i)
    r = apply_lap_mirror(xi)
    resid = VectorField(g, -r.x - basis.eigenvalues[i] * xi.x, -r.y - basis.eigenvalues[i] * xi.y)
    gp = gradient(ScalarField(g, basis.pressures[i]))
    assert np.sqrt(l2_norm_sq(resid - gp)) < 1e-7 * basis.eigenvalues[i]


def test_cache_round_trip(tmp_path):
    g = Grid(10, 10)
    basis = build_stokes_basis(g, 3, with_pressure=False)
    path = tmp_path / "b.mhdbasis"
    save_basis(basis, path)
    loaded = load_basis(path)
    assert loaded.kind == basis.kind
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.modes_x, basis.modes_x)
    assert np.array_equal(loaded.modes_y, basis.modes_y)


def test_cached_basis_hit_is_bit_identical(tmp_path):
    g = Grid(10, 10)
    first = cached_basis("dirichlet_laplacian", g, 4, str(tmp_path))
    again = cached_basis("dirichlet_laplacian", g, 4, str(tmp_path))
    rebuilt = build_laplacian_basis(g, 4)
    assert np.array_equal(again.modes_x, rebuilt.modes_x)
    assert np.array_equal(again.eigenvalues, first.eigenvalues)
    assert os.path.exists(tmp_path / "basis_dirichlet_laplacian_10x10_4.mhdbasis")
