import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

import mhd2d
from mhd2d import operators

from conftest import (
    lap_xcomp_interior,
    lap_ycomp_interior,
    random_divfree,
    random_zero_trace,
    stream_curl_matrix,
    stream_forms,
    tridiag_neumann,
)
from mhd2d.geometry import (
    Grid,
    VectorBC,
    VectorField,
    convect,
    divergence,
    grad_norm_sq,
    inner,
    l2_norm_sq,
)
from mhd2d.lifting import harmonic_extend_bc
from mhd2d.operators import (
    DirichletHeat,
    NeumannPoisson,
    StokesSaddle,
    TransportOperator,
    TransportPair,
    apply_lap_mirror,
    project_divfree,
    stokes_apply,
)


def test_interior_laplacian_symmetric_negative(rng):
    g = Grid(10, 10)
    for mat in (lap_xcomp_interior(g), lap_ycomp_interior(g)):
        dense = mat.toarray()
        assert np.max(np.abs(dense - dense.T)) == 0.0
        w = np.linalg.eigvalsh(dense)
        assert np.all(w < 0)


def test_mirror_laplacian_matches_energy_form(rng):
    g = Grid(12, 12)
    f = random_zero_trace(g, rng)
    lhs = -inner(apply_lap_mirror(f), f)
    rhs = grad_norm_sq(f)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_mirror_laplacian_symmetry(rng):
    g = Grid(10, 10)
    f = random_zero_trace(g, rng)
    h = random_zero_trace(g, rng)
    a = inner(apply_lap_mirror(f), h)
    b = inner(f, apply_lap_mirror(h))
    assert abs(a - b) <= 1e-11 * max(abs(a), 1.0)
    assert inner(apply_lap_mirror(f), f) <= 0.0


def _interior(comp):
    """The interior faces of a component's full face array."""
    return (slice(1, -1), slice(None)) if comp == "x" else (slice(None), slice(1, -1))


def test_transport_operator_matches_stencils(rng):
    g = Grid(12, 12)
    a = random_divfree(g, rng)
    f = VectorField(g, rng.standard_normal(g.shape_xface()), rng.standard_normal(g.shape_yface()))
    bc = VectorBC(
        rng.standard_normal(g.nx + 1),
        rng.standard_normal(g.nx + 1),
        f.x[0, :].copy(),
        f.x[-1, :].copy(),
        f.y[:, 0].copy(),
        f.y[:, -1].copy(),
        rng.standard_normal(g.ny + 1),
        rng.standard_normal(g.ny + 1),
    )
    dt, kappa = 5e-3, 0.8
    lap = apply_lap_mirror(f, bc)
    adv = convect(a, f, bc)
    for comp in ("x", "y"):
        op = TransportOperator(g, comp, a, 1.0 / dt, kappa)
        inner_faces = _interior(comp)
        arr = getattr(f, comp)
        # A_II u_I minus the couplings to the data
        action = op.matrix @ arr[inner_faces].ravel() - op.boundary(bc)[inner_faces].ravel()
        expect = (arr / dt - kappa * getattr(lap, comp) + getattr(adv, comp))[inner_faces]
        assert np.max(np.abs(action - expect.ravel())) < 1e-10 * (1.0 / dt)


def test_transport_solve_round_trip(rng):
    g = Grid(10, 10)
    a = random_divfree(g, rng)
    op = TransportOperator(g, "x", a, 100.0, 1.0)
    bc = VectorBC.zero(g)
    bc.x_left = rng.standard_normal(g.ny)
    rhs = rng.standard_normal(g.shape_xface())
    sol = op.solve(rhs[1:-1, :], op.boundary(bc))
    with pytest.raises(ValueError, match="interior right-hand side"):
        op.solve(rhs, op.boundary(bc))  # the full face array is refused
    # the wall faces carry the Dirichlet data exactly
    assert np.array_equal(sol[0, :], bc.x_left)
    assert np.array_equal(sol[-1, :], np.zeros(g.ny))
    # and the interior solves A_II u_I = f_I + boundary(bc)_I
    expect = (rhs + op.boundary(bc))[1:-1, :].ravel()
    assert np.max(np.abs(op.matrix @ sol[1:-1, :].ravel() - expect)) <= 1e-12 * np.max(np.abs(expect))


def _random_bc(g, rng):
    return VectorBC(*(rng.standard_normal(len(v)) for v in vars(VectorBC.zero(g)).values()))


def _splu_symmetric(m):
    """A direct ``splu`` with the transport factorization's options and its own order."""
    return splu(m, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01, options=dict(SymmetricMode=True))


@pytest.mark.parametrize("comp", ["x", "y"])
@pytest.mark.parametrize(
    "advect, inv_dt, kappa",
    [(False, 0.0, 1.0), (False, 500.0, 1.0), (True, 500.0, 0.8)],
    ids=["harmonic", "heat", "transport"],
)
def test_transport_solve_equals_default_order_factorization(rng, comp, advect, inv_dt, kappa):
    # the operator's solve against a fresh splu of its stored A_II with the
    # build's options: the factor and the solve's arithmetic are that splu's
    # one prepared boundary serves several right-hand sides, as in a Picard loop
    g = Grid(16, 16)
    a = random_divfree(g, rng) if advect else VectorField.zeros(g)
    op = TransportOperator(g, comp, a, inv_dt, kappa)
    bc = _random_bc(g, rng)
    boundary = op.boundary(bc)
    kept = [b.copy() for b in boundary]
    inner_faces = _interior(comp)
    lu = _splu_symmetric(op.matrix)
    for _ in range(3):
        rhs = rng.standard_normal(op.shape)
        given = rhs.copy()
        ref = lu.solve((rhs + op.boundary(bc))[inner_faces].ravel())
        got = op.solve(rhs[inner_faces], boundary)
        assert np.array_equal(got[inner_faces].ravel(), ref)
        walls = np.ones(op.shape, dtype=bool)
        walls[inner_faces] = False
        assert np.array_equal(got[walls], op.boundary(bc)[walls])  # the data itself
        assert np.array_equal(rhs, given)  # the caller's right-hand side is not touched
    assert all(np.array_equal(b, k) for b, k in zip(boundary, kept))


def _count_splu(monkeypatch):
    """Record the ``permc_spec`` of every ``splu`` call the build makes."""
    specs = []
    real = operators.splu

    def counting(m, permc_spec=None, **kw):
        specs.append(permc_spec)
        return real(m, permc_spec=permc_spec, **kw)

    monkeypatch.setattr(operators, "splu", counting)
    return specs


def test_transport_build_factors_once_in_the_symmetric_order(rng, monkeypatch):
    specs = _count_splu(monkeypatch)
    g = Grid(16, 16)
    pair = TransportPair(g, random_divfree(g, rng), 1e3, 1.0)
    assert specs == ["MMD_AT_PLUS_A"] * 2  # x and y
    for op in (pair.x, pair.y):
        assert np.array_equal(op._lu.perm_r, op._lu.perm_c)  # diagonal pivots
        assert op.matrix.has_canonical_format


@pytest.mark.parametrize("nx", [32, 64])
@pytest.mark.parametrize("comp", ["x", "y"])
def test_transport_fill_is_below_the_default_order(rng, nx, comp):
    # the symmetric minimum-degree order of A_II against splu's default
    # (COLAMD on A^T A, partial pivoting) on the same matrix
    g = Grid(nx, nx)
    op = TransportOperator(g, comp, random_divfree(g, rng, scale=1.0 / nx), 1.0 / 2e-3, 0.5)
    default = splu(op.matrix)
    assert op._lu.L.nnz + op._lu.U.nnz <= 0.7 * (default.L.nnz + default.U.nnz)


@pytest.mark.parametrize("comp", ["x", "y"])
def test_advection_dominated_transport_pivots_on_the_diagonal(rng, comp):
    # cell Peclet numbers in the thousands: a partial-pivoting minimum-degree
    # factorization leaves the diagonal here and fills many times over
    g = Grid(32, 32)
    op = TransportOperator(g, comp, random_divfree(g, rng, scale=2.0), 50.0, 1e-3)
    m = op.matrix
    assert np.array_equal(op._lu.perm_r, op._lu.perm_c)
    inner_faces = _interior(comp)
    rhs = np.zeros(op.shape)
    rhs[inner_faces] = rng.standard_normal(rhs[inner_faces].shape)
    b = rhs[inner_faces].ravel()
    x = op.solve(rhs[inner_faces], op.boundary(VectorBC.zero(g)))[inner_faces].ravel()
    norm_m = np.max(np.abs(m).sum(axis=1))
    backward = np.max(np.abs(b - m @ x)) / (norm_m * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert backward <= 1e-14
    dense = np.linalg.solve(m.toarray(), b)
    assert np.max(np.abs(x - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("comp", ["x", "y"])
def test_transport_fill_bounded_when_pivots_leave_the_diagonal(rng, monkeypatch, comp):
    # at 64^2 the same cell Peclet numbers push pivots off the diagonal even
    # past the threshold; the build then refactors with splu's default order
    specs = _count_splu(monkeypatch)
    g = Grid(64, 64)
    op = TransportOperator(g, comp, random_divfree(g, rng, scale=2.0), 50.0, 1e-3)
    assert specs == ["MMD_AT_PLUS_A", None]
    m = op.matrix
    symmetric = _splu_symmetric(m)
    assert not np.array_equal(symmetric.perm_r, symmetric.perm_c)
    default = splu(m)
    assert op._lu.L.nnz + op._lu.U.nnz <= 1.1 * (default.L.nnz + default.U.nnz)
    inner_faces = _interior(comp)
    rhs = np.zeros(op.shape)
    rhs[inner_faces] = rng.standard_normal(rhs[inner_faces].shape)
    b = rhs[inner_faces].ravel()
    x = op.solve(rhs[inner_faces], op.boundary(VectorBC.zero(g)))[inner_faces].ravel()
    norm_m = np.max(np.abs(m).sum(axis=1))
    backward = np.max(np.abs(b - m @ x)) / (norm_m * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert backward <= 1e-14


def _dirichlet_heat_oracle(heat, fx, fy, bc):
    """The solve with its data terms taken from apply_lap_mirror of the wall data."""
    out = VectorField.zeros(heat.grid)
    out.x[0, :], out.x[-1, :] = bc.x_left, bc.x_right
    out.y[:, 0], out.y[:, -1] = bc.y_bottom, bc.y_top
    lap = apply_lap_mirror(out, bc)
    solve = operators._separable_solve
    out.x[1:-1, :] = solve(*heat._x, fx[1:-1, :] + heat.kappa * lap.x[1:-1, :])
    out.y[:, 1:-1] = solve(*heat._y, fy[:, 1:-1] + heat.kappa * lap.y[:, 1:-1])
    return out


@pytest.mark.parametrize("shape", [(8, 8), (9, 7), (64, 64)], ids=["8x8", "9x7", "64x64"])
@pytest.mark.parametrize("inv_dt, kappa", [(0.0, 1.0), (500.0, 0.3)], ids=["harmonic", "heat"])
def test_dirichlet_heat_data_terms_match_mirror_stencil(rng, shape, inv_dt, kappa):
    g = Grid(*shape)
    heat = DirichletHeat(g, inv_dt, kappa)
    bc = _random_bc(g, rng)
    fx, fy = rng.standard_normal(g.shape_xface()), rng.standard_normal(g.shape_yface())
    for f in ((fx, fy), (0.0 * fx, 0.0 * fy)):
        got, want = heat.solve(*f, bc), _dirichlet_heat_oracle(heat, *f, bc)
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)


@pytest.mark.parametrize("shape", [(16, 16), (9, 7), (64, 64)], ids=["16x16", "9x7", "64x64"])
@pytest.mark.parametrize("inv_dt, kappa", [(0.0, 1.0), (500.0, 0.3)], ids=["harmonic", "heat"])
def test_dirichlet_heat_matches_zero_velocity_transport(rng, shape, inv_dt, kappa):
    # the closed form against SuperLU on the same system; 9x7 catches swapped axes
    g = Grid(*shape)
    bc = _random_bc(g, rng)
    fx, fy = rng.standard_normal(g.shape_xface()), rng.standard_normal(g.shape_yface())
    got = DirichletHeat(g, inv_dt, kappa).solve(fx, fy, bc)
    for comp, f in (("x", fx), ("y", fy)):
        op = TransportOperator(g, comp, VectorField.zeros(g), inv_dt, kappa)
        ref = op.solve(f[_interior(comp)], op.boundary(bc))
        assert np.max(np.abs(getattr(got, comp) - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.array_equal(got.x[0, :], bc.x_left) and np.array_equal(got.x[-1, :], bc.x_right)
    assert np.array_equal(got.y[:, 0], bc.y_bottom) and np.array_equal(got.y[:, -1], bc.y_top)


@pytest.mark.parametrize("shape", [(12, 12), (16, 16), (9, 7)], ids=["12x12", "16x16", "9x7"])
@pytest.mark.parametrize("inv_dt, kappa", [(0.0, 1.0), (500.0, 0.3)], ids=["harmonic", "heat"])
@pytest.mark.parametrize("off", [0.0, 1e-8], ids=["walls-on-data", "walls-off-data"])
def test_lift_energies_match_the_whole_lifted_field(rng, shape, inv_dt, kappa, off):
    # the two norms of b - h, h the solution for zero right-hand side, without
    # h; b's normal wall faces hold the data or miss it by about off, as
    # initial data compatible only to within tolerance do
    g = Grid(*shape)
    heat = DirichletHeat(g, inv_dt, kappa)
    bc = _random_bc(g, rng)
    bx, by = rng.standard_normal(g.shape_xface()), rng.standard_normal(g.shape_yface())
    bx[0, :], bx[-1, :] = bc.x_left, bc.x_right
    by[:, 0], by[:, -1] = bc.y_bottom, bc.y_top
    bx[[0, -1]] += off * rng.standard_normal((2, g.ny))
    by[:, [0, -1]] += off * rng.standard_normal((g.nx, 2))
    b = VectorField(g, bx, by)
    lifted = b - heat.solve(np.zeros_like(bx), np.zeros_like(by), bc)
    got = heat.lift_energies(b, bc)
    want = (l2_norm_sq(lifted), grad_norm_sq(lifted))
    assert all(abs(x - w) <= 1e-13 * w for x, w in zip(got, want)), (got, want)


def _wall_laplacian_slices(g, bc):
    """The Laplacian of the wall data built slice by slice, one wall row at a
    time: each data term added to zero, then each mirror term."""
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


def _signed_zero_bc(g, rng):
    """Random wall data of which about a quarter is 0.0 and a quarter -0.0."""
    bc = _random_bc(g, rng)
    for v in vars(bc).values():
        v[rng.random(len(v)) < 0.25] = 0.0
        v[rng.random(len(v)) < 0.25] = -0.0
    assert any((np.signbit(v) & (v == 0.0)).any() for v in vars(bc).values())
    return bc


@pytest.mark.parametrize("shape", [(8, 8), (16, 12), (64, 64)], ids=["8x8", "16x12", "64x64"])
def test_wall_laplacian_is_the_slice_by_slice_build_byte_for_byte(rng, shape):
    # bytes, not np.array_equal, which takes -0.0 for 0.0: a build that
    # assigned the data terms instead of adding them to zero would keep the
    # data's -0.0 where 0.0 + (-0.0) is 0.0
    g = Grid(*shape)
    for _ in range(3):
        bc = _signed_zero_bc(g, rng)
        got, want = operators._wall_laplacian(g, bc), _wall_laplacian_slices(g, bc)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(8, 8), (16, 12), (64, 64)], ids=["8x8", "16x12", "64x64"])
def test_harmonic_lift_is_the_solve_with_zero_right_hand_side_byte_for_byte(rng, shape):
    # harmonic_extend_bc does not form its zero right-hand side; the data
    # term holds no -0.0, so 0.0 + it is itself
    g = Grid(*shape)
    zero = VectorField.zeros(g)
    for _ in range(3):
        bc = _signed_zero_bc(g, rng)
        got = harmonic_extend_bc(g, bc)
        want = operators.dirichlet_heat(g, 0.0, 1.0).solve(zero.x, zero.y, bc)
        assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()


def test_the_previous_wall_laplacian_is_released_before_the_next_build(rng, monkeypatch):
    # a build made while the previous instant's is still held leaves a hole
    # among the lifts a caller keeps (lifting_estimate_check keeps them all),
    # so no earlier build is alive when the next one starts
    g = Grid(16, 16)
    heat = operators.dirichlet_heat(g, 0.0, 1.0)
    build, held, alive = operators._wall_laplacian, [], []

    def tracked(*a):
        alive.append(sum(ref() is not None for ref in held))
        lap = build(*a)
        held.extend(weakref.ref(arr) for arr in lap)
        return lap

    monkeypatch.setattr(operators, "_wall_laplacian", tracked)
    for _ in range(3):
        heat.boundary(_random_bc(g, rng))
    assert alive == [0, 0, 0]


def test_neumann_projection_kills_divergence(rng):
    g = Grid(14, 14)
    v = random_zero_trace(g, rng)
    vp, q = project_divfree(v, divergence(v).values)
    assert np.max(np.abs(divergence(vp).values)) < 1e-11
    # idempotent
    vpp, _ = project_divfree(vp, divergence(vp).values)
    assert np.sqrt(l2_norm_sq(vpp - vp)) < 1e-11


def test_stokes_saddle_divfree_and_energy(rng):
    g = Grid(12, 12)
    dt = 2e-3
    saddle = StokesSaddle(g, 1.0 / dt, 1.0)
    f = random_zero_trace(g, rng)
    u = saddle.solve(f.x / dt, f.y / dt)
    p = saddle.pressure(f.x / dt, f.y / dt, u)
    assert np.max(np.abs(divergence(u).values)) < 1e-9
    assert abs(p.values.mean()) < 1e-12
    lhs = l2_norm_sq(u) / dt + grad_norm_sq(u)
    rhs = inner(VectorField(g, f.x / dt, f.y / dt), u)
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def _pinned_saddle(g, inv_dt, nu):
    """The monolithic (u, v, p) saddle with p pinned at the first cell, by sparse LU."""
    nx, ny = g.nx, g.ny
    nux, nuy, npp = (nx - 1) * ny, nx * (ny - 1), nx * ny
    a = sp.block_diag((
        sp.identity(nux) * inv_dt - nu * lap_xcomp_interior(g),
        sp.identity(nuy) * inv_dt - nu * lap_ycomp_interior(g),
    ))
    dxm = sp.diags([-np.ones(nx - 1), np.ones(nx - 1)], [0, 1], shape=(nx - 1, nx)) / g.dx
    dym = sp.diags([-np.ones(ny - 1), np.ones(ny - 1)], [0, 1], shape=(ny - 1, ny)) / g.dy
    grad_m = sp.vstack([sp.kron(dxm, sp.identity(ny)), sp.kron(sp.identity(nx), dym)])
    bottom = sp.hstack([-grad_m.T, sp.csr_matrix((npp, npp))]).tolil()
    bottom[0, :] = 0.0
    bottom[0, nux + nuy] = 1.0
    lu = splu(sp.vstack([sp.hstack([a, grad_m]), bottom]).tocsc())

    def solve(fx, fy):
        sol = lu.solve(np.concatenate([fx[1:-1, :].ravel(), fy[:, 1:-1].ravel(), np.zeros(npp)]))
        u = VectorField.zeros(g)
        u.x[1:-1, :] = sol[:nux].reshape(nx - 1, ny)
        u.y[:, 1:-1] = sol[nux : nux + nuy].reshape(nx, ny - 1)
        p = sol[nux + nuy :].reshape(g.shape_center())
        return u, p - p.mean()

    return solve


def _pinned_poisson(g):
    """The Neumann Poisson solve with q pinned at the first cell, by sparse LU."""
    tx = tridiag_neumann(g.nx) / g.dx**2
    ty = tridiag_neumann(g.ny) / g.dy**2
    m = (sp.kron(tx, sp.identity(g.ny)) + sp.kron(sp.identity(g.nx), ty)).tolil()
    m[0, :] = 0.0
    m[0, 0] = 1.0
    lu = splu(m.tocsc())

    def solve(rhs):
        r = (rhs - rhs.mean()).ravel()
        r[0] = 0.0
        q = lu.solve(r)
        return (q - q.mean()).reshape(g.shape_center())

    return solve


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("nx, ny", [(12, 12), (9, 7), (64, 64)])
@pytest.mark.parametrize("inv_dt, nu", [(500.0, 1.0), (1e-3, 1.0), (50.0, 0.02)])
def test_stokes_saddle_matches_pinned_monolithic_saddle(rng, nx, ny, inv_dt, nu):
    g = Grid(nx, ny)
    ref = _pinned_saddle(g, inv_dt, nu)
    saddle = StokesSaddle(g, inv_dt, nu)
    # a general forcing (gradient part included) and a nearly solenoidal one
    for f in (random_zero_trace(g, rng), random_divfree(g, rng)):
        u_ref, p_ref = ref(f.x, f.y)
        u = saddle.solve(f.x, f.y)
        p = saddle.pressure(f.x, f.y, u)
        scale = max(np.max(np.abs(u_ref.x)), np.max(np.abs(u_ref.y)))
        assert max(np.max(np.abs(u.x - u_ref.x)), np.max(np.abs(u.y - u_ref.y))) <= 1e-10 * scale
        assert _rel(p.values, p_ref) <= 1e-10
        assert np.max(np.abs(divergence(u).values)) <= 1e-12
        assert abs(p.values.mean()) <= 1e-14 * np.max(np.abs(p.values))


def _wall_rows(g):
    """The curl's rows on the wall-adjacent tangential faces and their mirror
    weights: x-faces next to the bottom and top walls (2/dy**2), then y-faces
    next to the left and right walls (2/dx**2)."""
    nx, ny = g.nx, g.ny
    i, j = np.arange(nx - 1), np.arange(ny - 1)
    rows_x = np.concatenate([i * ny, i * ny + ny - 1])
    rows_y = (nx - 1) * ny + np.concatenate([j, (nx - 1) * (ny - 1) + j])
    weights = np.repeat([2.0 / g.dy**2, 2.0 / g.dx**2], [len(rows_x), len(rows_y)])
    return np.concatenate([rows_x, rows_y]), weights


@pytest.mark.parametrize("nx, ny", [(4, 4), (12, 12), (9, 7), (64, 64)])
def test_stream_stiffness_is_mass_squared_plus_wall_term(nx, ny):
    """K = inv_dt L + nu L^2 + nu E^T D E, the split ``StokesSaddle`` solves by."""
    g = Grid(nx, ny)
    c, stiffness, mass = stream_forms(g)
    rows, weights = _wall_rows(g)
    e = c[rows].tocsr()
    e.eliminate_zeros()  # the curl stores explicit zeros on coarse grids
    assert np.array_equal(np.diff(e.indptr), np.ones(len(rows), dtype=int))
    defect = stiffness - mass @ mass - e.T @ sp.diags(weights) @ e
    assert abs(defect).max() <= 1e-12 * abs(stiffness).max()


@pytest.mark.parametrize("nx, ny", [(4, 4), (9, 7), (32, 32), (64, 64)])
@pytest.mark.parametrize("inv_dt, nu", [(500.0, 1.0), (1e-3, 1.0), (50.0, 0.02), (0.0, 1.0)])
def test_stokes_saddle_matches_sparse_stream_solve(rng, nx, ny, inv_dt, nu):
    g = Grid(nx, ny)
    c, stiffness, mass = stream_forms(g)
    k = (inv_dt * mass + nu * stiffness).tocsc()
    saddle = StokesSaddle(g, inv_dt, nu)
    for f in (random_zero_trace(g, rng), random_divfree(g, rng)):
        u_ref = c @ spsolve(k, c.T @ np.concatenate([f.x[1:-1, :].ravel(), f.y[:, 1:-1].ravel()]))
        u = saddle.solve(f.x, f.y)
        got = np.concatenate([u.x[1:-1, :].ravel(), u.y[:, 1:-1].ravel()])
        assert _rel(got, u_ref) <= 1e-10
        assert not np.any(u.x[[0, -1], :]) and not np.any(u.y[:, [0, -1]])


@pytest.mark.parametrize("nx, ny", [(8, 8), (9, 7), (64, 64)])
def test_neumann_poisson_matches_pinned_lu(rng, nx, ny):
    g = Grid(nx, ny)
    ref = _pinned_poisson(g)
    poisson = NeumannPoisson(g)
    for rhs in (rng.standard_normal(g.shape_center()), divergence(random_zero_trace(g, rng)).values):
        assert _rel(poisson.solve(rhs), ref(rhs)) <= 1e-12


def test_stream_curl_matrix_matches_field_construction(rng):
    g = Grid(9, 7)
    c = stream_curl_matrix(g)
    psi_int = rng.standard_normal((g.nx - 1, g.ny - 1))
    psi = np.zeros((g.nx + 1, g.ny + 1))
    psi[1:-1, 1:-1] = psi_int
    v = VectorField.from_stream(g, psi)
    flat = c @ psi_int.ravel()
    nux = (g.nx - 1) * g.ny
    assert np.allclose(flat[:nux], v.x[1:-1, :].ravel())
    assert np.allclose(flat[nux:], v.y[:, 1:-1].ravel())


def test_stokes_apply_reproduces_eigenpairs():
    from mhd2d.spectral import build_stokes_basis

    g = Grid(12, 12)
    basis = build_stokes_basis(g, 3)
    for i in range(3):
        xi = basis.mode(i)
        su, _ = stokes_apply(xi)
        res = np.sqrt(l2_norm_sq(su - basis.eigenvalues[i] * xi))
        assert res < 1e-8 * basis.eigenvalues[i]


_RELEASE_PROBE = """
import numpy as np
import mhd2d

def rss_mib():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmRSS")) / 1024

big = np.ones(2 << 20)  # 16 MiB
del big
blocks = [np.ones(1 << 18) for _ in range(8)]  # 8 x 2 MiB
held = rss_mib()
del blocks
print(held - rss_mib())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_freed_factor_sized_blocks_return_to_the_system():
    """A larger block freed first must not pull 2 MiB blocks into the heap."""
    src = str(Path(mhd2d.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _RELEASE_PROBE], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert float(out.stdout) > 12.0
