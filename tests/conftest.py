import numpy as np
import pytest
import scipy.sparse as sp

from mhd2d.geometry import Grid, ScalarField, VectorField


@pytest.fixture(scope="session")
def calibration_store():
    """Measured inequality constants; built once for the whole session."""
    from mhd2d.verify import calibrate_constants

    return calibrate_constants()


@pytest.fixture
def grid16():
    return Grid(16, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_divfree(grid, rng, scale=1.0):
    psi = np.zeros((grid.nx + 1, grid.ny + 1))
    psi[1:-1, 1:-1] = scale * rng.standard_normal((grid.nx - 1, grid.ny - 1))
    return VectorField.from_stream(grid, psi)


def random_zero_trace(grid, rng, scale=1.0):
    f = VectorField.zeros(grid)
    f.x[1:-1, :] = scale * rng.standard_normal((grid.nx - 1, grid.ny))
    f.y[:, 1:-1] = scale * rng.standard_normal((grid.nx, grid.ny - 1))
    return f


def scalar_from_function(grid, f):
    """f sampled at the cell centres."""
    x, y = np.meshgrid(grid.xc(), grid.yc(), indexing="ij")
    return ScalarField(grid, f(x, y))


# --- assembled sparse oracles of the closed-form solvers -------------------

def stream_curl_matrix(grid):
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


def tridiag_nodal(n):
    """1D second difference for nodes with Dirichlet data one node outside."""
    return sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr")


def tridiag_mirror(n):
    """1D second difference for cells with a Dirichlet wall at half spacing."""
    d = -2.0 * np.ones(n)
    d[0] = d[-1] = -3.0
    return sp.diags([np.ones(n - 1), d, np.ones(n - 1)], [-1, 0, 1], format="csr")


def tridiag_neumann(n):
    """1D second difference for cells with homogeneous Neumann walls."""
    d = -2.0 * np.ones(n)
    d[0] = d[-1] = -1.0
    return sp.diags([np.ones(n - 1), d, np.ones(n - 1)], [-1, 0, 1], format="csr")


def lap_xcomp_interior(grid):
    """Mirror Laplacian on interior x-faces (zero-trace closure), shape ((nx-1)ny,)^2."""
    tx = tridiag_nodal(grid.nx - 1) / grid.dx**2
    ty = tridiag_mirror(grid.ny) / grid.dy**2
    return sp.kron(tx, sp.identity(grid.ny)) + sp.kron(sp.identity(grid.nx - 1), ty)


def lap_ycomp_interior(grid):
    """Mirror Laplacian on interior y-faces (zero-trace closure), shape (nx(ny-1),)^2."""
    tx = tridiag_mirror(grid.nx) / grid.dx**2
    ty = tridiag_nodal(grid.ny - 1) / grid.dy**2
    return sp.kron(tx, sp.identity(grid.ny - 1)) + sp.kron(sp.identity(grid.nx), ty)


def stream_forms(grid):
    """(C, C^T (-Lap) C, C^T C), the last two symmetrized: the stream curl and
    the Stokes stiffness and mass on the interior corners, assembled."""
    c = stream_curl_matrix(grid)
    lap = sp.block_diag((lap_xcomp_interior(grid), lap_ycomp_interior(grid)))
    a = (c.T @ (-lap) @ c).tocsc()
    mass = (c.T @ c).tocsc()
    return c, 0.5 * (a + a.T), 0.5 * (mass + mass.T)


# --- whole-field oracles of the stepper's raw-array loops --------------------

def induction_oracle(u, b, bc):
    """The induction term curl(u x b) - u div b on whole fields, for a
    velocity u, whose half carries no divergence terms: the stream curl
    (``VectorField.from_stream``) of the corner EMF E = u1 b2 - u2 b1, whose
    factors are the corner averages of u with zero walls and of b with the
    walls of ``bc``, minus u times b's interpolated divergence.  Only its
    interior faces are meaningful."""
    from mhd2d.geometry import magnetic_halves, wall_rows

    grid = u.grid
    corners = (grid.nx + 1, grid.ny + 1)
    u1, u2, b1, b2 = (np.zeros(corners) for _ in range(4))
    u1[:, 1:-1] = 0.5 * (u.x[:, :-1] + u.x[:, 1:])
    u2[1:-1, :] = 0.5 * (u.y[:-1, :] + u.y[1:, :])
    b1[:, 1:-1] = 0.5 * (b.x[:, :-1] + b.x[:, 1:])
    b1[:, 0], b1[:, -1] = bc.x_bottom, bc.x_top
    b2[1:-1, :] = 0.5 * (b.y[:-1, :] + b.y[1:, :])
    b2[0, :], b2[-1, :] = bc.y_left, bc.y_right
    out = VectorField.from_stream(grid, u1 * b2 - u2 * b1)
    sb = magnetic_halves(b, wall_rows(grid)).a
    out.x[1:-1, :] -= u.x[1:-1, :] * sb.sx
    out.y[:, 1:-1] -= u.y[:, 1:-1] * sb.sy
    return out


def b_step_oracle(stepper, u_frozen, b_prev, t_prev, *, bc, operator, fb, b_start):
    """``Stepper.b_step``'s Picard loop written on whole fields.  On the heat
    operator each iterate lags the whole induction term (``induction_oracle``);
    on a pair factored at u_ref it lags the stretching term
    ``convect(cur, u_frozen)`` (b's half keeps its divergence terms) less,
    unless u_frozen is u_ref itself, the transport
    ``convect_interior(advecting_half(u_frozen - u_ref), face_halves(cur,
    wall_rows(grid, bc))[1])``.  The lag is added to full right-hand side
    arrays, the solve reads their interior entries and the residual is
    measured with ``inner``.  Returns (b, residuals)."""
    from mhd2d.dynamics import PICARD_MAX_ITER
    from mhd2d.geometry import advecting_half, convect, convect_interior, face_halves, inner, wall_rows

    cfg, grid = stepper.cfg, stepper.grid
    u_ref = operator.u_ref
    shift = None if u_ref is None or u_frozen is u_ref else u_frozen - u_ref
    rhs_x, rhs_y = b_prev.x / cfg.dt, b_prev.y / cfg.dt
    if fb is not None:
        rhs_x, rhs_y = rhs_x + fb.x, rhs_y + fb.y
    boundary = operator.boundary(bc)
    lagged = None if shift is None else advecting_half(shift)
    cur, residuals = b_start, []
    for _ in range(PICARD_MAX_ITER):
        lag = induction_oracle(u_frozen, cur, bc) if u_ref is None else convect(cur, u_frozen)
        if shift is not None:
            tx, ty = convect_interior(lagged, face_halves(cur, wall_rows(grid, bc))[1])
            lag.x[1:-1, :] -= tx
            lag.y[:, 1:-1] -= ty
        nxt = VectorField(grid, *operator.solve_interior(
            (rhs_x + lag.x)[1:-1, :], (rhs_y + lag.y)[:, 1:-1], boundary))
        res = np.sqrt(inner(nxt - cur, nxt - cur))
        residuals.append(res)
        cur = nxt
        if res <= cfg.picard_tol * (1.0 + np.sqrt(inner(cur, cur))):
            break
    return cur, residuals


def grad_norm_sq_oracle(f, bc=None):
    """The vector Dirichlet energy with the zero boundary data built and
    subtracted, summed by ``np.sum``."""
    from mhd2d.geometry import VectorBC

    g = f.grid
    bc = VectorBC.zero(g) if bc is None else bc
    w = g.dx * g.dy
    s = np.sum(((f.x[1:, :] - f.x[:-1, :]) / g.dx) ** 2) * w
    s += np.sum(((f.x[1:-1, 1:] - f.x[1:-1, :-1]) / g.dy) ** 2) * w
    s += 2.0 * g.dx / g.dy * (np.sum((f.x[1:-1, 0] - bc.x_bottom[1:-1]) ** 2)
                              + np.sum((f.x[1:-1, -1] - bc.x_top[1:-1]) ** 2))
    s += np.sum(((f.y[:, 1:] - f.y[:, :-1]) / g.dy) ** 2) * w
    s += np.sum(((f.y[1:, 1:-1] - f.y[:-1, 1:-1]) / g.dx) ** 2) * w
    s += 2.0 * g.dy / g.dx * (np.sum((f.y[0, 1:-1] - bc.y_left[1:-1]) ** 2)
                              + np.sum((f.y[-1, 1:-1] - bc.y_right[1:-1]) ** 2))
    return float(s)


def ledger_row_oracle(t, u, b, trace, h_e, h_p, bc, strong):
    """One ledger row from whole fields: squared L2 norms by ``inner``,
    Dirichlet energies by ``grad_norm_sq_oracle``, collocated norms by
    ``np.sum`` and ``np.max``."""
    from mhd2d.estimates import _SPEC12, _SPEC32, _SPECM12
    from mhd2d.geometry import collocate, divergence, inner
    from mhd2d.lifting import hs_norm, hs_norm_dt
    from mhd2d.operators import apply_lap_mirror, stokes_apply

    def pointwise(v):
        cx, cy = collocate(v)
        m2 = cx**2 + cy**2
        return (float((v.grid.dx * v.grid.dy * np.sum(m2**2)) ** 0.25),
                float(np.sqrt(np.max(m2))))

    btilde = b - h_e
    (u_l4, u_linf), (b_l4, b_linf) = pointwise(u), pointwise(b)
    row = dict(
        t=t,
        u_L2_sq=inner(u, u),
        grad_u_L2_sq=grad_norm_sq_oracle(u),
        b_L2_sq=inner(b, b),
        b_H1_sq=inner(b, b) + grad_norm_sq_oracle(b, bc),
        btilde_L2_sq=inner(btilde, btilde),
        grad_btilde_L2_sq=grad_norm_sq_oracle(btilde),
        u_L4=u_l4,
        b_L4=b_l4,
        u_Linf=u_linf,
        b_Linf=b_linf,
        h_H12_Gamma=hs_norm(trace, t, _SPEC12),
        h_H32_Gamma=hs_norm(trace, t, _SPEC32),
        dth_Hm12_Gamma=hs_norm_dt(trace, t, _SPECM12),
        div_u_Linf=float(np.max(np.abs(divergence(u).values))),
        div_b_Linf=float(np.max(np.abs(divergence(b).values))),
    )
    if strong:
        su, _ = stokes_apply(u)
        bhat = b - h_p
        row["Su_L2_sq"] = inner(su, su)
        row["bhat_H1_sq"] = inner(bhat, bhat) + grad_norm_sq_oracle(bhat)
        lap = apply_lap_mirror(bhat)
        row["lap_bhat_L2_sq"] = inner(lap, lap)
    return row


def energy_budget_oracle(cfg, u_n, b_n, u1, b_hat, b1):
    """The energy budget of one coupled step under zero boundary data:
    (R(b_hat), R(b1), T, L, I).

    R(b) = ||u1||² + ||b||² - ||u_n||² - ||b_n||² + ||u1 - u_n||² + ||b - b_n||²
    + 2dt (||grad u1||²/Re + ||grad b||²/Rm), the energy change plus the
    numerical and physical dissipation; b_hat is the accepted magnetic
    iterate before cleaning and b1 the cleaned one.  The work terms are
    T = -2dt <u1·grad u_n, u1> (the lagged velocity transport),
    L = 2dt S <b_hat·grad b_hat, u1> (the Lorentz force) and I = 2dt <J, b_hat>,
    where J is the induction term ``induction_halves`` of b_hat's and u1's
    halves.  R(b_hat) = T + L + I holds to the Picard and outer tolerances;
    R(b1) - R(b_hat) is the work of the cleaning projection, and L + I the
    Lorentz-induction mismatch."""
    from mhd2d.geometry import (convect, face_halves, grad_norm_sq, induction_halves, inner,
                                magnetic_halves, wall_rows)

    g, dt = u_n.grid, cfg.dt

    def residual(b):
        du, db = u1 - u_n, b - b_n
        return (inner(u1, u1) + inner(b, b) - inner(u_n, u_n) - inner(b_n, b_n) + inner(du, du)
                + inner(db, db) + 2 * dt * (grad_norm_sq(u1) / cfg.re + grad_norm_sq(b) / cfg.rm))

    h = magnetic_halves(b_hat, wall_rows(g))
    j = VectorField.zeros(g)
    j.x[1:-1, :], j.y[:, 1:-1] = induction_halves(h.a, h.t, *face_halves(u1, wall_rows(g)))
    work_t = -2 * dt * inner(convect(u1, u_n), u1)
    work_l = 2 * dt * cfg.s * inner(convect(b_hat, b_hat), u1)
    return residual(b_hat), residual(b1), work_t, work_l, 2 * dt * inner(j, b_hat)
