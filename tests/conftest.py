import numpy as np
import pytest

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
