import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import induction_oracle, random_divfree, random_zero_trace, scalar_from_function
from mhd2d.geometry import (
    Grid,
    ScalarField,
    VectorBC,
    VectorField,
    all_finite,
    convect,
    convect_interior,
    divergence,
    face_halves,
    gradient,
    identity_residuals,
    induction_halves,
    inner,
    l2_norm_sq,
    laplacian,
    magnetic_halves,
    norm_sq,
    wall_rows,
)


def test_grid_invariants():
    g = Grid(8, 16)
    assert g.dx * g.nx == 1.0
    assert g.dy * g.ny == 1.0
    with pytest.raises(ValueError):
        Grid(3, 8)


def test_field_shape_errors():
    g = Grid(8, 8)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((7, 8)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((8, 8)), np.zeros((8, 9)))
    with pytest.raises(ValueError):
        ScalarField(g, np.full((8, 8), np.nan))


def test_public_constructors_refuse_non_finite_values():
    g = Grid(8, 8)
    ones_x, ones_y = np.ones(g.shape_xface()), np.ones(g.shape_yface())
    bad_y = ones_y.copy()
    bad_y[3, 4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        VectorField(g, ones_x, bad_y)
    with pytest.raises(ValueError, match="non-finite"):
        VectorField.from_functions(g, lambda x, y: x, lambda x, y: np.full_like(y, np.nan))
    # computed fields are not scanned; all_finite finds what they hold
    computed = VectorField(g, ones_x, ones_y) * np.inf
    assert not all_finite(computed)
    with np.errstate(invalid="ignore"):  # inf - inf, on purpose
        div = divergence(computed)
    assert not all_finite(VectorField.zeros(g), div)
    assert all_finite(VectorField.zeros(g), ScalarField.zeros(g))


def test_divergence_constant_field():
    g = Grid(8, 8)
    v = VectorField(g, np.ones(g.shape_xface()), np.ones(g.shape_yface()))
    assert np.allclose(divergence(v).values, 0.0)


def test_divergence_linear_field_exact():
    g = Grid(12, 12)
    v = VectorField.from_functions(g, lambda x, y: x, lambda x, y: -y)
    assert np.max(np.abs(divergence(v).values)) < 1e-13


def test_divergence_refinement():
    errs = []
    for nx in (32, 64):
        g = Grid(nx, nx)
        v = VectorField.from_functions(g, lambda x, y: np.sin(np.pi * x), lambda x, y: 0 * x)
        d = divergence(v).values
        xc = g.xc()[:, None]
        exact = np.pi * np.cos(np.pi * xc) * np.ones((1, g.ny))
        errs.append(np.sqrt(g.dx * g.dy * np.sum((d - exact) ** 2)))
    assert errs[0] / errs[1] >= 3.5


def test_gradient_constant_and_linear():
    g = Grid(10, 10)
    s = ScalarField(g, np.full(g.shape_center(), 2.5))
    gv = gradient(s)
    assert np.allclose(gv.x, 0.0) and np.allclose(gv.y, 0.0)
    s = scalar_from_function(g, lambda x, y: x)
    gv = gradient(s)
    assert np.max(np.abs(gv.x[1:-1, :] - 1.0)) < 1e-13


def test_gradient_divergence_adjoint(rng):
    g = Grid(12, 12)
    s = ScalarField(g, rng.standard_normal(g.shape_center()))
    v = random_zero_trace(g, rng)
    lhs = inner(gradient(s), v)
    rhs = -g.dx * g.dy * float(np.sum(s.values * divergence(v).values))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _lap_interior(f, bc):
    """The cubic-ghost ``laplacian`` of f on the interior faces, both components."""
    lap = laplacian(f, bc)
    return lap.x[1:-1, :], lap.y[:, 1:-1]


def test_laplacian_linear_and_quadratic_exact():
    g = Grid(8, 8)
    lin_x, lin_y = (lambda x, y: 3 * x - 2 * y + 1), (lambda x, y: -x + 4 * y - 2)
    f = VectorField.from_functions(g, lin_x, lin_y)
    for part in _lap_interior(f, VectorBC.from_functions(g, lin_x, lin_y)):
        assert np.max(np.abs(part)) < 1e-11
    # x^2 in x on x-faces, y^2 in y on y-faces: exact along the face lines;
    # x^2 on y-faces and y^2 on x-faces: exact through the wall ghosts
    for fx, fy in ((lambda x, y: x**2, lambda x, y: y**2), (lambda x, y: y**2, lambda x, y: x**2)):
        f = VectorField.from_functions(g, fx, fy)
        for part in _lap_interior(f, VectorBC.from_functions(g, fx, fy)):
            assert np.max(np.abs(part - 2.0)) < 1e-10


def test_laplacian_refinement():
    errs = []
    for nx in (32, 64):
        g = Grid(nx, nx)
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        v = VectorField.from_functions(g, f, f)
        lx, ly = _lap_interior(v, VectorBC.zero(g))
        ex = lx + 2 * np.pi**2 * v.x[1:-1, :]
        ey = ly + 2 * np.pi**2 * v.y[:, 1:-1]
        errs.append(np.sqrt(g.dx * g.dy * (np.sum(ex**2) + np.sum(ey**2))))
    assert errs[0] / errs[1] >= 3.5


def test_convect_zero_advecting_field():
    g = Grid(8, 8)
    f = VectorField.from_functions(g, lambda x, y: x * y, lambda x, y: x + y)
    out = convect(VectorField.zeros(g), f, VectorBC.zero(g))
    assert np.allclose(out.x, 0.0) and np.allclose(out.y, 0.0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_convect_skew_symmetry(seed):
    rng = np.random.default_rng(seed)
    g = Grid(12, 12)
    a = random_divfree(g, rng)
    f = random_zero_trace(g, rng)
    val = inner(convect(a, f), f)
    scale = np.sqrt(l2_norm_sq(a)) * l2_norm_sq(f)
    assert abs(val) <= 1e-10 * max(1.0, scale)


def test_convect_analytic_derivative():
    errs = []
    for nx in (32, 64):
        g = Grid(nx, nx)
        a = VectorField(g, np.ones(g.shape_xface()), np.zeros(g.shape_yface()))
        fx = lambda x, y: np.sin(np.pi * x)
        f = VectorField.from_functions(g, fx, lambda x, y: 0 * x)
        fbc = VectorBC.from_functions(g, fx, lambda x, y: 0 * x)
        c = convect(a, f, fbc)
        exact = np.pi * np.cos(np.pi * g.xf())[1:-1][:, None]
        errs.append(np.max(np.abs(c.x[1:-1, :] - exact)))
    assert errs[0] / errs[1] >= 3.5


def _convect_flux_by_flux(a, f, fbc):
    """a·∇f written out flux by flux, in the order convect evaluates it."""
    g = a.grid
    out = VectorField.zeros(g)
    fx = 0.5 * (a.x[:-1, :] + a.x[1:, :]) * (0.5 * (f.x[:-1, :] + f.x[1:, :]))
    f1y = np.empty((g.nx - 1, g.ny + 1))
    f1y[:, 1:-1] = 0.5 * (f.x[1:-1, :-1] + f.x[1:-1, 1:])
    f1y[:, 0], f1y[:, -1] = fbc.x_bottom[1:-1], fbc.x_top[1:-1]
    fy = 0.5 * (a.y[:-1, :] + a.y[1:, :]) * f1y
    out.x[1:-1, :] = (fx[1:, :] - fx[:-1, :]) / g.dx + (fy[:, 1:] - fy[:, :-1]) / g.dy
    fy = 0.5 * (a.y[:, :-1] + a.y[:, 1:]) * (0.5 * (f.y[:, :-1] + f.y[:, 1:]))
    f2x = np.empty((g.nx + 1, g.ny - 1))
    f2x[1:-1, :] = 0.5 * (f.y[:-1, 1:-1] + f.y[1:, 1:-1])
    f2x[0, :], f2x[-1, :] = fbc.y_left[1:-1], fbc.y_right[1:-1]
    fx = 0.5 * (a.x[:, :-1] + a.x[:, 1:]) * f2x
    out.y[:, 1:-1] = (fx[1:, :] - fx[:-1, :]) / g.dx + (fy[:, 1:] - fy[:, :-1]) / g.dy
    dc = divergence(a).values
    out.x[1:-1, :] -= f.x[1:-1, :] * (0.5 * (dc[:-1, :] + dc[1:, :]))
    out.y[:, 1:-1] -= f.y[:, 1:-1] * (0.5 * (dc[:, :-1] + dc[:, 1:]))
    return out


def test_prepared_convect_halves_equal_convect_bit_for_bit(rng):
    # a magnetic step prepares one half once and pairs it with every Picard
    # iterate's other half; that must not move a single bit.  The fields are
    # random, not solenoidal, so the halves carry the divergence terms that
    # convect forms for any advecting field
    g = Grid(12, 10)
    rand = lambda: VectorField(g, rng.standard_normal(g.shape_xface()),
                               rng.standard_normal(g.shape_yface()))
    fbc = VectorBC(*(rng.standard_normal(len(v)) for v in vars(VectorBC.zero(g)).values()))
    fixed_a, fixed_f = rand(), rand()
    a_half, f_half = magnetic_halves(fixed_a, wall_rows(g)).a, face_halves(fixed_f, wall_rows(g, fbc))[1]
    kept = [arr.copy() for arr in a_half + f_half[1:]]
    for _ in range(3):
        a, f = rand(), rand()
        for got, want in (
            (convect_interior(a_half, face_halves(f, wall_rows(g, fbc))[1]), convect(fixed_a, f, fbc)),
            (convect_interior(magnetic_halves(a, wall_rows(g)).a, f_half), convect(a, fixed_f, fbc)),
        ):
            assert np.array_equal(got[0], want.x[1:-1, :]) and np.array_equal(got[1], want.y[:, 1:-1])
        got, want = convect(a, f, fbc), _convect_flux_by_flux(a, f, fbc)
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
    got, want = convect(fixed_a, fixed_f), _convect_flux_by_flux(fixed_a, fixed_f, VectorBC.zero(g))
    assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
    assert all(np.array_equal(x, y) for x, y in zip(a_half + f_half[1:], kept))


def test_induction_interior_equals_the_two_convect_difference(rng):
    # the induction term on the interior faces, in the corner-EMF form, drops
    # the normal-flux products, which cancel in the difference; b carries an
    # O(1) divergence, so its correction term counts (u's half, a
    # velocity's, carries none), and the walls carry nonzero boundary data
    g = Grid(12, 10)
    rand = lambda: VectorField(g, rng.standard_normal(g.shape_xface()),
                               rng.standard_normal(g.shape_yface()))
    fbc = VectorBC(*(rng.standard_normal(len(v)) for v in vars(VectorBC.zero(g)).values()))
    for _ in range(3):
        b, u = rand(), rand()
        assert np.abs(divergence(b).values).max() > 1.0 and np.abs(divergence(u).values).max() > 1.0
        a, t = face_halves(u, wall_rows(g))
        ab, tb, _ = magnetic_halves(b, wall_rows(g, fbc))
        (sx, sy), (tx, ty) = convect_interior(ab, t), convect_interior(a, tb)
        got_x, got_y = induction_halves(ab, tb, a, t)
        scale = np.sqrt(np.sum((sx - tx) ** 2) + np.sum((sy - ty) ** 2))
        err = np.sqrt(np.sum((got_x - (sx - tx)) ** 2) + np.sum((got_y - (sy - ty)) ** 2))
        assert err <= 1e-13 * scale


def test_magnetic_halves_give_the_lorentz_term_and_the_chord_lag_bit_for_bit(rng):
    # one build of a magnetic iterate's halves serves its Lorentz term b·∇b,
    # its Picard iteration's induction term and the pre-cleaning scan; each
    # must equal what its reference gives, and the build face_halves'
    # averages.  b is not solenoidal and the walls carry nonzero data, so the
    # divergence terms and wall rows count
    g = Grid(12, 10)
    rand = lambda: VectorField(g, rng.standard_normal(g.shape_xface()),
                               rng.standard_normal(g.shape_yface()))
    fbc = VectorBC(*(rng.standard_normal(len(v)) for v in vars(VectorBC.zero(g)).values()))
    for _ in range(3):
        b, u = rand(), rand()
        h = magnetic_halves(b, wall_rows(g, fbc))
        assert h.t.f is b and np.array_equal(h.div, divergence(b).values)
        fa, ft = face_halves(b, wall_rows(g, fbc))
        assert all(np.array_equal(x, y) for x, y in zip(h.a[:4] + h.t[1:], fa[:4] + ft[1:]))
        (lx, ly), want = convect_interior(h.a, h.t), convect(b, b, fbc)
        assert np.array_equal(lx, want.x[1:-1, :]) and np.array_equal(ly, want.y[:, 1:-1])
        a, t = face_halves(u, wall_rows(g))
        (ix, iy), want = induction_halves(h.a, h.t, a, t), induction_oracle(u, b, fbc)
        assert np.array_equal(ix, want.x[1:-1, :]) and np.array_equal(iy, want.y[:, 1:-1])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 33), seed=st.integers(0, 10_000), exponent=st.integers(-150, 150))
def test_norm_sq_equals_inner_bit_for_bit(n, seed, exponent):
    # norm_sq sums in inner's order with ndarray.dot; both must give the
    # bits of np.dot, the products through numpy's Python-level wrapper
    rng = np.random.default_rng(seed)
    g = Grid(n, n)
    scale = 10.0**exponent
    f = VectorField(g, scale * rng.standard_normal(g.shape_xface()),
                    scale * rng.standard_normal(g.shape_yface()))
    x, y = f.x, f.y
    sx = np.dot(x[1:-1, :].ravel(), x[1:-1, :].ravel()) + 0.5 * (
        np.dot(x[0, :], x[0, :]) + np.dot(x[-1, :], x[-1, :]))
    sy = np.dot(y[:, 1:-1].ravel(), y[:, 1:-1].ravel()) + 0.5 * (
        np.dot(y[:, 0], y[:, 0]) + np.dot(y[:, -1], y[:, -1]))
    want = g.dx * g.dy * (sx + sy)
    assert norm_sq(g, x, y) == inner(f, f) == want


def _smooth_pair(grid):
    bx = lambda x, y: np.sin(np.pi * y) + 0.3 * np.cos(np.pi * x) * np.sin(2 * np.pi * y)
    by = lambda x, y: np.sin(np.pi * x) + 0.2 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
    ux = lambda x, y: np.cos(np.pi * x) * np.sin(np.pi * y)
    uy = lambda x, y: -np.sin(np.pi * x) * np.cos(np.pi * y)
    return (
        VectorField.from_functions(grid, bx, by),
        VectorBC.from_functions(grid, bx, by),
        VectorField.from_functions(grid, ux, uy),
        VectorBC.from_functions(grid, ux, uy),
    )


def test_identity_residuals_zero_field():
    g = Grid(8, 8)
    res = identity_residuals(VectorField.zeros(g), VectorBC.zero(g), VectorField.zeros(g), VectorBC.zero(g))
    assert all(v == 0.0 for v in res.values())


def test_identity_residuals_constant_field():
    g = Grid(8, 8)
    c1, c2 = 1.3, -0.4
    b = VectorField(g, np.full(g.shape_xface(), c1), np.full(g.shape_yface(), c2))
    bc = VectorBC.from_functions(g, lambda x, y: c1 + 0 * x, lambda x, y: c2 + 0 * x)
    res = identity_residuals(b, bc, VectorField.zeros(g), VectorBC.zero(g))
    assert res["lorentz"] < 1e-12


def test_identity_residuals_second_order():
    r32 = identity_residuals(*_smooth_pair(Grid(32, 32)))
    r64 = identity_residuals(*_smooth_pair(Grid(64, 64)))
    for key in r32:
        assert r32[key] / r64[key] >= 3.5, key


def test_vector_bc_difference_is_field_wise_bit_for_bit(rng):
    g = Grid(8, 8)
    a = VectorBC.from_functions(g, lambda x, y: np.sin(3 * x + y), lambda x, y: x * y - 0.3)
    z = VectorBC.zero(g)
    b = VectorBC(*(rng.standard_normal(v.shape) for v in vars(z).values()))
    d = a - b
    spelled = VectorBC(
        a.x_bottom - b.x_bottom,
        a.x_top - b.x_top,
        a.x_left - b.x_left,
        a.x_right - b.x_right,
        a.y_bottom - b.y_bottom,
        a.y_top - b.y_top,
        a.y_left - b.y_left,
        a.y_right - b.y_right,
    )
    for name, want in vars(spelled).items():
        assert np.array_equal(getattr(d, name), want), name
    assert len(vars(d)) == 8
