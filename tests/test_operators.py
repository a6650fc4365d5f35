import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import mhd2d
from mhd2d import operators

from conftest import random_divfree, random_zero_trace
from mhd2d.geometry import (
    Grid,
    ScalarField,
    VectorBC,
    VectorField,
    convect,
    divergence,
    grad_norm_sq,
    inner,
    l2_norm_sq,
)
from mhd2d.operators import (
    NeumannPoisson,
    StokesSaddle,
    TransportOperator,
    apply_lap_mirror,
    lap_xcomp_interior,
    lap_ycomp_interior,
    project_divfree,
    stokes_apply,
    stream_curl_matrix,
    tridiag_neumann,
)
from mhd2d.dynamics import run
from mhd2d.scenarios import make_scenario


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
    from mhd2d.geometry import laplacian  # noqa: F401  (diagnostic op, not used here)

    lap = apply_lap_mirror(f, bc)
    adv = convect(a, f, bc)
    for comp in ("x", "y"):
        op = TransportOperator(g, comp, a, 1.0 / dt, kappa)
        arr = getattr(f, comp)
        action = (op.matrix @ arr.ravel()).reshape(op.shape) - op.rhs_boundary(bc)
        expect = arr / dt - kappa * getattr(lap, comp) + getattr(adv, comp)
        if comp == "x":
            err = np.max(np.abs(action[1:-1, :] - expect[1:-1, :]))
        else:
            err = np.max(np.abs(action[:, 1:-1] - expect[:, 1:-1]))
        assert err < 1e-10 * (1.0 / dt)


def test_transport_solve_round_trip(rng):
    g = Grid(10, 10)
    a = random_divfree(g, rng)
    op = TransportOperator(g, "x", a, 100.0, 1.0)
    bc = VectorBC.zero(g)
    bc.x_left = rng.standard_normal(g.ny)
    rhs = rng.standard_normal(g.shape_xface())
    sol = op.solve(rhs, op.boundary(bc))
    # wall rows carry the Dirichlet data exactly
    assert np.allclose(sol[0, :], bc.x_left)
    assert np.allclose(sol[-1, :], 0.0)


def _random_bc(g, rng):
    return VectorBC(*(rng.standard_normal(len(v)) for v in vars(VectorBC.zero(g)).values()))


@pytest.mark.parametrize("comp", ["x", "y"])
@pytest.mark.parametrize(
    "advect, inv_dt, kappa",
    [(False, 0.0, 1.0), (False, 500.0, 1.0), (True, 500.0, 0.8)],
    ids=["harmonic", "heat", "transport"],
)
def test_transport_solve_equals_default_order_factorization(rng, comp, advect, inv_dt, kappa):
    # at 16^2 the harmonic x-operator meets pivot ties that a column
    # permutation alone would break differently from the default order
    # one prepared boundary serves several right-hand sides, as in a Picard loop
    g = Grid(16, 16)
    op = TransportOperator(g, comp, random_divfree(g, rng) if advect else None, inv_dt, kappa)
    bc = _random_bc(g, rng)
    boundary = op.boundary(bc)
    kept = boundary.copy()
    lu = splu(op.matrix.tocsc())
    for _ in range(3):
        rhs = rng.standard_normal(op.shape)
        given = rhs.copy()
        ref_rhs = rhs.copy()
        if comp == "x":
            ref_rhs[0, :] = ref_rhs[-1, :] = 0.0
        else:
            ref_rhs[:, 0] = ref_rhs[:, -1] = 0.0
        ref_rhs += op.rhs_boundary(bc)
        ref = lu.solve(ref_rhs.ravel()).reshape(op.shape)
        assert np.array_equal(op.solve(rhs, boundary), ref)
        assert np.array_equal(rhs, given)  # the caller's right-hand side is not touched
    assert np.array_equal(boundary, kept)


def test_column_order_computed_once_per_grid_and_component(monkeypatch):
    ordered, natural = [], []
    real = operators.splu

    def counting(m, permc_spec=None, **kw):
        (natural if permc_spec == "NATURAL" else ordered).append(m.shape[0])
        return real(m, permc_spec=permc_spec, **kw)

    monkeypatch.setattr(operators, "splu", counting)
    operators._transport_pattern.cache_clear()
    operators.heat_pair.cache_clear()
    dt, nsteps = 1e-3, 6
    scen = make_scenario("calib-osc", nx=16, dt=dt, t_final=nsteps * dt, strong_mode=True)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    n = 17 * 16  # unknowns of either component's full face array
    assert ordered.count(n) == 2  # x and y
    # harmonic pair, heat pair (strong-mode lift) and one pair per refactoring
    refactored = sum(r.transport_refactored for r in traj.reports)
    assert 1 <= refactored < nsteps
    assert natural == [n] * (2 + 2 + 2 * refactored)


def test_neumann_projection_kills_divergence(rng):
    g = Grid(14, 14)
    v = random_zero_trace(g, rng)
    vp, q = project_divfree(v, NeumannPoisson(g))
    assert np.max(np.abs(divergence(vp).values)) < 1e-11
    # idempotent
    vpp, _ = project_divfree(vp, NeumannPoisson(g))
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
    basis = build_stokes_basis(g, 3, with_pressure=False)
    poisson = NeumannPoisson(g)
    for i in range(3):
        xi = basis.mode(i)
        su, _ = stokes_apply(xi, poisson)
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
