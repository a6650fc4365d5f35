import numpy as np
import pytest
import scipy.sparse as sp

from mhd2d.geometry import Grid, ScalarBC, ScalarField, VectorField


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


def scalar_bc_from_function(grid, f):
    """f sampled at the wall midlines of the cells."""
    xc, yc = grid.xc(), grid.yc()
    return ScalarBC(
        f(xc, np.zeros_like(xc)),
        f(xc, np.ones_like(xc)),
        f(np.zeros_like(yc), yc),
        f(np.ones_like(yc), yc),
    )


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
