"""Staggered-grid fields and discrete vector calculus on the unit square.

MAC layout: scalars live at cell centers, the x-component of a vector
field on vertical faces, the y-component on horizontal faces.  Normal
components at the walls are stored in the field arrays themselves;
tangential boundary values enter through ghost values extrapolated
through the wall (cubic extrapolation, so second-derivative stencils
stay second-order accurate up to the wall).

All operators here are pure stencil evaluations used for diagnostics and
residual checks.  The symmetric solver-side operators (used for implicit
solves, eigenproblems and energy identities) live in ``operators``.

Finiteness is checked where data enters, not on every field: the public
constructors ``ScalarField(grid, values)``, ``VectorField(grid, x, y)`` and
``VectorField.from_functions`` check shape and finiteness.  Fields the
package computes (``zeros``, ``copy``, arithmetic, ``from_stream``, the
stencils here and the solver outputs elsewhere) come from the private
``_unchecked`` constructors, which scan nothing; ``Stepper.coupled_step``
scans each accepted state once with ``all_finite``.

``convect(a, f)`` splits into the advecting field's half (its face averages
and interpolated divergence, ``advecting_half``) and the transported field's
half (its face averages with the boundary values on the wall rows,
``transported_half``), so a caller can prepare a fixed field's half once.
The two halves of one field share its averages: ``face_halves`` computes
both in one pass into wall rows prepared once per boundary instant
(``wall_rows``), and ``convect_interior`` returns only the interior faces,
which is all an implicit solve reads.  ``induction_interior`` is the
difference of two such convections, stretching less transport, as the curl
of a corner EMF.  ``norm_sq`` is ``l2_norm_sq`` on bare
component arrays, in ``inner``'s summation order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "VectorBC",
    "divergence",
    "gradient",
    "laplacian",
    "convect",
    "AdvectingHalf",
    "TransportedHalf",
    "advecting_half",
    "transported_half",
    "convect_halves",
    "convect_interior",
    "induction_interior",
    "wall_rows",
    "face_halves",
    "identity_residuals",
    "inner",
    "norm_sq",
    "l2_norm_sq",
    "grad_norm_sq",
    "collocate",
    "pointwise_norms",
    "all_finite",
]


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0,1]^2 into nx*ny cells."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid too coarse: nx={self.nx}, ny={self.ny} (need >= 4)")

    @property
    def dx(self):
        return 1.0 / self.nx

    @property
    def dy(self):
        return 1.0 / self.ny

    # coordinate lines
    def xc(self):
        return (np.arange(self.nx) + 0.5) * self.dx

    def yc(self):
        return (np.arange(self.ny) + 0.5) * self.dy

    def xf(self):
        return np.arange(self.nx + 1) * self.dx

    def yf(self):
        return np.arange(self.ny + 1) * self.dy

    def shape_center(self):
        return (self.nx, self.ny)

    def shape_xface(self):
        return (self.nx + 1, self.ny)

    def shape_yface(self):
        return (self.nx, self.ny + 1)


def _finite(arr) -> bool:
    """One full scan of an array for NaN and infinity: the entry checks of the
    public field constructors and ``all_finite`` both run it."""
    return bool(np.isfinite(arr).all())


@dataclass
class ScalarField:
    """Cell-centered scalar values, shape (nx, ny).

    ``ScalarField(grid, values)`` checks the shape and that every value is
    finite; ``_unchecked`` wraps an array the package computed without either.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape_center():
            raise ValueError(
                f"scalar field shape {self.values.shape} != {self.grid.shape_center()}"
            )
        if not _finite(self.values):
            raise ValueError("scalar field contains non-finite values")

    @classmethod
    def _unchecked(cls, grid, values):
        """A field of a C-contiguous float64 array of the right shape; no check runs."""
        f = object.__new__(cls)
        f.grid, f.values = grid, values
        return f

    @classmethod
    def zeros(cls, grid):
        return cls._unchecked(grid, np.zeros(grid.shape_center()))

    def copy(self):
        return ScalarField._unchecked(self.grid, self.values.copy())


@dataclass
class VectorField:
    """MAC vector field: x on vertical faces (nx+1, ny), y on horizontal faces (nx, ny+1).

    ``VectorField(grid, x, y)`` and ``from_functions`` take outside data and
    check the shapes and that every value is finite.  ``_unchecked`` wraps
    arrays the package computed without either; ``zeros``, ``copy``,
    ``from_stream`` and the arithmetic operators use it.
    """

    grid: Grid
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if self.x.shape != self.grid.shape_xface():
            raise ValueError(f"x-component shape {self.x.shape} != {self.grid.shape_xface()}")
        if self.y.shape != self.grid.shape_yface():
            raise ValueError(f"y-component shape {self.y.shape} != {self.grid.shape_yface()}")
        if not (_finite(self.x) and _finite(self.y)):
            raise ValueError("vector field contains non-finite values")

    @classmethod
    def _unchecked(cls, grid, x, y):
        """A field of C-contiguous float64 arrays of the face shapes; no check runs."""
        f = object.__new__(cls)
        f.grid, f.x, f.y = grid, x, y
        return f

    @classmethod
    def zeros(cls, grid):
        return cls._unchecked(grid, np.zeros(grid.shape_xface()), np.zeros(grid.shape_yface()))

    @classmethod
    def from_functions(cls, grid, fx, fy):
        """Sample (fx, fy) at the respective face positions."""
        xx, xy = np.meshgrid(grid.xf(), grid.yc(), indexing="ij")
        yx, yy = np.meshgrid(grid.xc(), grid.yf(), indexing="ij")
        return cls(grid, fx(xx, xy), fy(yx, yy))

    @classmethod
    def from_stream(cls, grid, psi_corner):
        """Exactly divergence-free field from corner stream values (nx+1, ny+1)."""
        psi = np.asarray(psi_corner, dtype=np.float64)
        if psi.shape != (grid.nx + 1, grid.ny + 1):
            raise ValueError("stream array must live on corners")
        ux = (psi[:, 1:] - psi[:, :-1]) / grid.dy
        uy = -(psi[1:, :] - psi[:-1, :]) / grid.dx
        return cls._unchecked(grid, ux, uy)

    def copy(self):
        return VectorField._unchecked(self.grid, self.x.copy(), self.y.copy())

    def __add__(self, other):
        return VectorField._unchecked(self.grid, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return VectorField._unchecked(self.grid, self.x - other.x, self.y - other.y)

    def __mul__(self, a):
        return VectorField._unchecked(self.grid, a * self.x, a * self.y)

    __rmul__ = __mul__


def all_finite(*fields) -> bool:
    """Whether every value of the given scalar and vector fields is finite:
    one scan per array."""
    for f in fields:
        arrays = (f.values,) if isinstance(f, ScalarField) else (f.x, f.y)
        if not all(_finite(a) for a in arrays):
            return False
    return True


@dataclass
class VectorBC:
    """Boundary values of both components along each wall.

    For the x-component the values are sampled at x-face abscissae
    (corners along bottom/top, the wall face line on left/right); the
    y-component mirrors this.  Only the positions a stencil can actually
    touch are stored.
    """

    x_bottom: np.ndarray  # (nx+1,) at (xf, 0)
    x_top: np.ndarray  # (nx+1,) at (xf, 1)
    x_left: np.ndarray  # (ny,)   at (0, yc)
    x_right: np.ndarray  # (ny,)   at (1, yc)
    y_bottom: np.ndarray  # (nx,)   at (xc, 0)
    y_top: np.ndarray  # (nx,)   at (xc, 1)
    y_left: np.ndarray  # (ny+1,) at (0, yf)
    y_right: np.ndarray  # (ny+1,) at (1, yf)

    @classmethod
    def zero(cls, grid):
        nx, ny = grid.nx, grid.ny
        return cls(
            np.zeros(nx + 1),
            np.zeros(nx + 1),
            np.zeros(ny),
            np.zeros(ny),
            np.zeros(nx),
            np.zeros(nx),
            np.zeros(ny + 1),
            np.zeros(ny + 1),
        )

    @classmethod
    def from_functions(cls, grid, fx, fy):
        xf, yf, xc, yc = grid.xf(), grid.yf(), grid.xc(), grid.yc()
        z = np.zeros_like
        o = np.ones_like
        return cls(
            fx(xf, z(xf)),
            fx(xf, o(xf)),
            fx(z(yc), yc),
            fx(o(yc), yc),
            fy(xc, z(xc)),
            fy(xc, o(xc)),
            fy(z(yf), yf),
            fy(o(yf), yf),
        )

    def __sub__(self, other: VectorBC) -> VectorBC:
        """Field-wise difference."""
        return VectorBC(*(getattr(self, f.name) - getattr(other, f.name) for f in fields(self)))


def _ghost(b, f0, f1, f2):
    # cubic extrapolation through the wall value b at distance h/2
    return 3.2 * b - 3.0 * f0 + f1 - 0.2 * f2


def divergence(v: VectorField) -> ScalarField:
    """Cell-centered divergence from face differences."""
    g = v.grid
    d = (v.x[1:, :] - v.x[:-1, :]) / g.dx + (v.y[:, 1:] - v.y[:, :-1]) / g.dy
    return ScalarField._unchecked(g, d)


def gradient(s: ScalarField) -> VectorField:
    """Face-centered gradient; wall faces are set to zero (interior operator)."""
    g = s.grid
    out = VectorField.zeros(g)
    out.x[1:-1, :] = (s.values[1:, :] - s.values[:-1, :]) / g.dx
    out.y[:, 1:-1] = (s.values[:, 1:] - s.values[:, :-1]) / g.dy
    return out


def _pad_xcomp(v: VectorField, bc: VectorBC):
    """x-component with ghost rows below/above the tangential walls."""
    f = v.x
    p = np.empty((f.shape[0], f.shape[1] + 2))
    p[:, 1:-1] = f
    p[:, 0] = _ghost(bc.x_bottom, f[:, 0], f[:, 1], f[:, 2])
    p[:, -1] = _ghost(bc.x_top, f[:, -1], f[:, -2], f[:, -3])
    return p


def _pad_ycomp(v: VectorField, bc: VectorBC):
    f = v.y
    p = np.empty((f.shape[0] + 2, f.shape[1]))
    p[1:-1, :] = f
    p[0, :] = _ghost(bc.y_left, f[0, :], f[1, :], f[2, :])
    p[-1, :] = _ghost(bc.y_right, f[-1, :], f[-2, :], f[-3, :])
    return p


def laplacian(f: VectorField, bc: VectorBC) -> VectorField:
    """Componentwise 5-point Laplacian with cubic ghost closure, on interior
    faces (wall faces zero)."""
    g = f.grid
    out = VectorField.zeros(g)
    px = _pad_xcomp(f, bc)
    out.x[1:-1, :] = (f.x[2:, :] - 2 * f.x[1:-1, :] + f.x[:-2, :]) / g.dx**2 + (
        px[1:-1, 2:] - 2 * px[1:-1, 1:-1] + px[1:-1, :-2]
    ) / g.dy**2
    py = _pad_ycomp(f, bc)
    out.y[:, 1:-1] = (py[2:, 1:-1] - 2 * py[1:-1, 1:-1] + py[:-2, 1:-1]) / g.dx**2 + (
        f.y[:, 2:] - 2 * f.y[:, 1:-1] + f.y[:, :-2]
    ) / g.dy**2
    return out


# --- advection -----------------------------------------------------------

class AdvectingHalf(NamedTuple):
    """The advecting field's half of ``convect``: its face averages and its
    cell divergence interpolated to the interior faces.

    ``a1c``/``a2x`` enter the x-component (normal average at cell centers,
    tangential average on interior corner lines), ``a2c``/``a1y`` the
    y-component; ``sx``/``sy`` multiply the transported field.
    """

    a1c: np.ndarray  # (nx, ny)
    a2x: np.ndarray  # (nx-1, ny+1)
    a2c: np.ndarray  # (nx, ny)
    a1y: np.ndarray  # (nx+1, ny-1)
    sx: np.ndarray  # (nx-1, ny)
    sy: np.ndarray  # (nx, ny-1)


class TransportedHalf(NamedTuple):
    """The transported field's half of ``convect``: its face averages, with
    the boundary values on the wall rows of the tangential averages."""

    f: VectorField
    f1c: np.ndarray  # (nx, ny)
    f1y: np.ndarray  # (nx-1, ny+1)
    f2c: np.ndarray  # (nx, ny)
    f2x: np.ndarray  # (nx+1, ny-1)


def advecting_half(a: VectorField) -> AdvectingHalf:
    """Everything ``convect`` needs of its advecting field."""
    dc = divergence(a).values
    return AdvectingHalf(
        a1c=0.5 * (a.x[:-1, :] + a.x[1:, :]),
        a2x=0.5 * (a.y[:-1, :] + a.y[1:, :]),
        a2c=0.5 * (a.y[:, :-1] + a.y[:, 1:]),
        a1y=0.5 * (a.x[:, :-1] + a.x[:, 1:]),
        sx=0.5 * (dc[:-1, :] + dc[1:, :]),
        sy=0.5 * (dc[:, :-1] + dc[:, 1:]),
    )


def wall_rows(grid: Grid, fbc: VectorBC | None = None):
    """The arrays a transported half keeps its tangential averages in: f1y
    (nx-1, ny+1) and f2x (nx+1, ny-1), with the tangential boundary values
    of ``fbc`` (zero by default) already on their wall rows.

    ``face_halves`` writes only their interior lines, so one pair serves
    every field transported under the same boundary data.
    """
    f1y = np.zeros((grid.nx - 1, grid.ny + 1))
    f2x = np.zeros((grid.nx + 1, grid.ny - 1))
    if fbc is not None:
        f1y[:, 0], f1y[:, -1] = fbc.x_bottom[1:-1], fbc.x_top[1:-1]
        f2x[0, :], f2x[-1, :] = fbc.y_left[1:-1], fbc.y_right[1:-1]
    return f1y, f2x


def transported_half(f: VectorField, fbc: VectorBC | None = None) -> TransportedHalf:
    """Everything ``convect`` needs of its transported field (zero walls by default)."""
    f1y, f2x = wall_rows(f.grid, fbc)
    f1y[:, 1:-1] = 0.5 * (f.x[1:-1, :-1] + f.x[1:-1, 1:])
    f2x[1:-1, :] = 0.5 * (f.y[:-1, 1:-1] + f.y[1:, 1:-1])
    return TransportedHalf(
        f=f,
        f1c=0.5 * (f.x[:-1, :] + f.x[1:, :]),
        f1y=f1y,
        f2c=0.5 * (f.y[:, :-1] + f.y[:, 1:]),
        f2x=f2x,
    )


def face_halves(f: VectorField, walls):
    """``(advecting_half(f), transported_half(f, fbc))`` in one pass, where
    ``walls = wall_rows(grid, fbc)``.

    The halves share f's averages: f1c is a1c, f2c is a2c, and the interior
    lines of f1y and f2x are copied from a1y and a2x into ``walls``.  The
    transported half stays valid until the next call on the same walls.
    """
    a = advecting_half(f)
    f1y, f2x = walls
    f1y[:, 1:-1] = a.a1y[1:-1, :]
    f2x[1:-1, :] = a.a2x[:, 1:-1]
    return a, TransportedHalf(f=f, f1c=a.a1c, f1y=f1y, f2c=a.a2c, f2x=f2x)


def _div_form(a: AdvectingHalf, f: TransportedHalf):
    """Divergence-form transport div(a ⊗ f) on the interior faces: the x
    array (nx-1, ny) and the y array (nx, ny-1)."""
    g = f.f.grid
    fx, fy = a.a1c * f.f1c, a.a2x * f.f1y
    out_x = (fx[1:, :] - fx[:-1, :]) / g.dx + (fy[:, 1:] - fy[:, :-1]) / g.dy
    fx, fy = a.a1y * f.f2x, a.a2c * f.f2c
    out_y = (fx[1:, :] - fx[:-1, :]) / g.dx + (fy[:, 1:] - fy[:, :-1]) / g.dy
    return out_x, out_y


def convect_interior(a: AdvectingHalf, f: TransportedHalf):
    """``convect`` from its two halves on the interior faces only: the x
    array (nx-1, ny) and the y array (nx, ny-1)."""
    out_x, out_y = _div_form(a, f)
    out_x -= f.f.x[1:-1, :] * a.sx
    out_y -= f.f.y[:, 1:-1] * a.sy
    return out_x, out_y


def induction_interior(f: VectorField, walls, a: AdvectingHalf, t: TransportedHalf):
    """The induction term ``convect_interior(advecting_half(f), t) -
    convect_interior(a, transported_half(f, fbc))`` on the interior faces,
    where ``walls = wall_rows(grid, fbc)`` and (a, t) are the two halves of
    one velocity with zero walls.

    Formed as the curl of the corner EMF E = u1 f2 - u2 f1 (the
    constrained-transport form of curl(u x f)), minus u times f's
    interpolated divergence plus f times u's: the normal-flux products
    a1c*f1c and a2c*f2c cancel in the difference and are never formed.
    f's two corner averages are written into ``walls`` as ``face_halves``
    writes them.  Equal to the difference up to round-off.
    """
    g = f.grid
    f1y, f2x = walls
    a1y = 0.5 * (f.x[:, :-1] + f.x[:, 1:])  # f1 on the interior corner rows
    a2x = 0.5 * (f.y[:-1, :] + f.y[1:, :])  # f2 on the interior corner columns
    f1y[:, 1:-1] = a1y[1:-1, :]
    f2x[1:-1, :] = a2x[:, 1:-1]
    dc = divergence(f).values
    ex = a2x * t.f1y - a.a2x * f1y  # E on the corners of the x-faces
    ey = a.a1y * f2x - a1y * t.f2x  # E on the corners of the y-faces
    out_x = (ex[:, 1:] - ex[:, :-1]) / g.dy
    out_x -= t.f.x[1:-1, :] * (0.5 * (dc[:-1, :] + dc[1:, :]))
    out_x += f.x[1:-1, :] * a.sx
    out_y = (ey[:-1, :] - ey[1:, :]) / g.dx
    out_y -= t.f.y[:, 1:-1] * (0.5 * (dc[:, :-1] + dc[:, 1:]))
    out_y += f.y[:, 1:-1] * a.sy
    return out_x, out_y


def convect_halves(a: AdvectingHalf, f: TransportedHalf) -> VectorField:
    """``convect`` from its two halves; either may be prepared once and reused."""
    out = VectorField.zeros(f.f.grid)
    out.x[1:-1, :], out.y[:, 1:-1] = convect_interior(a, f)
    return out


def convect(a: VectorField, f: VectorField, fbc: VectorBC | None = None) -> VectorField:
    """Componentwise transport a·∇f on interior faces.

    Realized as the divergence form minus f times the interpolated cell
    divergence of `a`; with a discretely divergence-free `a` and f
    vanishing on the walls this is exactly energy-neutral.  A field
    transporting itself (the Lorentz term b·∇b) computes its averages once.
    """
    if a is f:
        return convect_halves(*face_halves(f, wall_rows(f.grid, fbc)))
    return convect_halves(advecting_half(a), transported_half(f, fbc))


# --- inner products and norms -------------------------------------------

# np.sum without its wrapper: the same pairwise reduction over every axis
_sum = functools.partial(np.add.reduce, axis=None)


def inner(u: VectorField, v: VectorField) -> float:
    """Discrete L2 inner product; wall faces carry half cells."""
    g = u.grid
    w = g.dx * g.dy
    sx = np.dot(u.x[1:-1, :].ravel(), v.x[1:-1, :].ravel()) + 0.5 * (
        np.dot(u.x[0, :], v.x[0, :]) + np.dot(u.x[-1, :], v.x[-1, :])
    )
    sy = np.dot(u.y[:, 1:-1].ravel(), v.y[:, 1:-1].ravel()) + 0.5 * (
        np.dot(u.y[:, 0], v.y[:, 0]) + np.dot(u.y[:, -1], v.y[:, -1])
    )
    return w * (sx + sy)


def norm_sq(grid: Grid, x: np.ndarray, y: np.ndarray) -> float:
    """``inner(f, f)`` of the vector field f with the component arrays x, y,
    in the same order (interior faces, then the half-weighted walls) and so
    bit for bit, without building f."""
    yi = y[:, 1:-1].ravel()  # a copy: gathered once for both factors
    sx = np.dot(x[1:-1, :].ravel(), x[1:-1, :].ravel()) + 0.5 * (
        np.dot(x[0, :], x[0, :]) + np.dot(x[-1, :], x[-1, :])
    )
    sy = np.dot(yi, yi) + 0.5 * (np.dot(y[:, 0], y[:, 0]) + np.dot(y[:, -1], y[:, -1]))
    w = grid.dx * grid.dy
    return w * (sx + sy)


def l2_norm_sq(f) -> float:
    if isinstance(f, ScalarField):
        return float(f.grid.dx * f.grid.dy * _sum(f.values**2))
    return norm_sq(f.grid, f.x, f.y)


def grad_norm_sq(f, bc: VectorBC | None = None) -> float:
    """Discrete Dirichlet energy.

    Chosen so that for zero-trace fields it equals <-Lf, f> for the
    symmetric solver Laplacian exactly; wall terms use the half-cell
    distance h/2.  A vector field's wall values are ``bc`` (zero when
    omitted); a scalar field's are zero.
    """
    if isinstance(f, ScalarField):
        g = f.grid
        v = f.values
        w = g.dx * g.dy
        s = _sum(((v[1:, :] - v[:-1, :]) / g.dx) ** 2) * w
        s += _sum(((v[:, 1:] - v[:, :-1]) / g.dy) ** 2) * w
        s += 2.0 * g.dy / g.dx * (_sum(v[0, :] ** 2) + _sum(v[-1, :] ** 2))
        s += 2.0 * g.dx / g.dy * (_sum(v[:, 0] ** 2) + _sum(v[:, -1] ** 2))
        return float(s)
    g = f.grid
    fx, fy = f.x, f.y
    # the tangential wall rows, less their boundary values
    xb, xt, yl, yr = fx[1:-1, 0], fx[1:-1, -1], fy[0, 1:-1], fy[-1, 1:-1]
    if bc is not None:
        xb, xt = xb - bc.x_bottom[1:-1], xt - bc.x_top[1:-1]
        yl, yr = yl - bc.y_left[1:-1], yr - bc.y_right[1:-1]
    w = g.dx * g.dy
    # x-component: x-differences across every cell, y-differences at interior lines
    s = _sum(((fx[1:, :] - fx[:-1, :]) / g.dx) ** 2) * w
    s += _sum(((fx[1:-1, 1:] - fx[1:-1, :-1]) / g.dy) ** 2) * w
    s += 2.0 * g.dx / g.dy * (_sum(xb**2) + _sum(xt**2))
    # y-component
    s += _sum(((fy[:, 1:] - fy[:, :-1]) / g.dy) ** 2) * w
    s += _sum(((fy[1:, 1:-1] - fy[:-1, 1:-1]) / g.dx) ** 2) * w
    s += 2.0 * g.dy / g.dx * (_sum(yl**2) + _sum(yr**2))
    return float(s)


def collocate(v: VectorField):
    """Both components averaged to cell centers."""
    cx = 0.5 * (v.x[:-1, :] + v.x[1:, :])
    cy = 0.5 * (v.y[:, :-1] + v.y[:, 1:])
    return cx, cy


def pointwise_norms(v: VectorField):
    """(L4, Linf) norms of the field collocated to cell centers."""
    cx, cy = collocate(v)
    m2 = cx**2 + cy**2
    g = v.grid
    return float((g.dx * g.dy * _sum(m2**2)) ** 0.25), float(np.sqrt(np.max(m2)))


# --- identity suite ------------------------------------------------------

def _vorticity(b: VectorField, bc: VectorBC):
    """d1 b2 - d2 b1 at every corner, ghost closure at the walls."""
    g = b.grid
    w = np.empty((g.nx + 1, g.ny + 1))
    py = _pad_ycomp(b, bc)  # (nx+2, ny+1): b2 with x-ghost columns
    d1b2 = (py[1:, :] - py[:-1, :]) / g.dx
    px = _pad_xcomp(b, bc)  # (nx+1, ny+2): b1 with y-ghost rows
    d2b1 = (px[:, 1:] - px[:, :-1]) / g.dy
    w[:, :] = d1b2 - d2b1
    return w


def _corner_average_x(w):
    # corner array -> x-face positions (average the two corners of each face)
    return 0.5 * (w[:, :-1] + w[:, 1:])


def _corner_average_y(w):
    return 0.5 * (w[:-1, :] + w[1:, :])


def _interp4_xface(fy):
    """y-face component to x-face positions (4-point average), interior x-faces."""
    return 0.25 * (fy[:-1, :-1] + fy[1:, :-1] + fy[:-1, 1:] + fy[1:, 1:])


def _interp4_yface(fx):
    return 0.25 * (fx[:-1, :-1] + fx[:-1, 1:] + fx[1:, :-1] + fx[1:, 1:])


def _interior_norm(field_x, field_y, grid):
    w = grid.dx * grid.dy
    return float(np.sqrt(w * (np.sum(field_x**2) + np.sum(field_y**2))))


def identity_residuals(b: VectorField, bc: VectorBC, u: VectorField, ubc: VectorBC):
    """L2 residuals of the three planar vector identities.

    Returns a dict with keys ``lorentz`` ((curl b) x b vs b·∇b - ∇|b|²/2),
    ``curl_curl`` (curl curl b vs ∇ div b - Δb) and ``induction``
    (curl(u x b) vs its transport expansion).  Left and right sides are
    discretized along genuinely different stencil paths, so the residuals
    measure the second-order consistency of the operator suite.
    """
    g = b.grid
    dx, dy = g.dx, g.dy
    w = _vorticity(b, bc)

    # identity 1: (curl b) x b = b·∇b - grad(|b|^2)/2
    wx = _corner_average_x(w)[1:-1, :]  # interior x-faces
    wy = _corner_average_y(w)[:, 1:-1]
    b2_at_x = _interp4_xface(b.y)  # (nx-1, ny)
    b1_at_y = _interp4_yface(b.x)
    lhs1_x = -wx * b2_at_x
    lhs1_y = wy * b1_at_y
    cxc, cyc = collocate(b)
    half_sq = ScalarField._unchecked(g, 0.5 * (cxc**2 + cyc**2))
    gsq = gradient(half_sq)
    adv = convect(b, b, bc)
    r1x = lhs1_x - (adv.x[1:-1, :] - gsq.x[1:-1, :])
    r1y = lhs1_y - (adv.y[:, 1:-1] - gsq.y[:, 1:-1])
    r1 = _interior_norm(r1x, r1y, g)

    # identity 2: curl curl b = grad div b - lap b
    # wide fourth-order outer derivative in the interior, compact fallback
    # in the one-cell band next to the walls
    ccx = (w[1:-1, 1:] - w[1:-1, :-1]) / dy  # compact, interior x-faces
    jj = np.arange(g.ny)
    wide_j = (jj >= 1) & (jj <= g.ny - 2)
    ccx_wide = (27.0 * (w[1:-1, 2:-1] - w[1:-1, 1:-2]) - (w[1:-1, 3:] - w[1:-1, :-3])) / (24.0 * dy)
    ccx[:, wide_j] = ccx_wide
    ccy = -(w[1:, 1:-1] - w[:-1, 1:-1]) / dx
    ii = np.arange(g.nx)
    wide_i = (ii >= 1) & (ii <= g.nx - 2)
    ccy_wide = -(27.0 * (w[2:-1, 1:-1] - w[1:-2, 1:-1]) - (w[3:, 1:-1] - w[:-3, 1:-1])) / (24.0 * dx)
    ccy[wide_i, :] = ccy_wide
    dv = divergence(b)
    gd = gradient(dv)
    lap = laplacian(b, bc)
    r2x = ccx - (gd.x[1:-1, :] - lap.x[1:-1, :])
    r2y = ccy - (gd.y[:, 1:-1] - lap.y[:, 1:-1])
    r2 = _interior_norm(r2x, r2y, g)

    # identity 3: curl(u x b) = b·∇u - u·∇b + u div b - b div u.  The magnetic
    # chord's lag b·∇u - u·∇b (``induction_interior``) is formed by this
    # identity: the compact curl of the corner EMF s (zero walls for u), less
    # u div b, plus b div u
    s = np.empty((g.nx + 1, g.ny + 1))  # u x b (out of plane) at corners
    u1 = np.empty_like(s)
    u1[:, 1:-1] = 0.5 * (u.x[:, :-1] + u.x[:, 1:])
    u1[:, 0] = ubc.x_bottom
    u1[:, -1] = ubc.x_top
    b2 = np.empty_like(s)
    b2[1:-1, :] = 0.5 * (b.y[:-1, :] + b.y[1:, :])
    b2[0, :] = bc.y_left
    b2[-1, :] = bc.y_right
    u2 = np.empty_like(s)
    u2[1:-1, :] = 0.5 * (u.y[:-1, :] + u.y[1:, :])
    u2[0, :] = ubc.y_left
    u2[-1, :] = ubc.y_right
    b1 = np.empty_like(s)
    b1[:, 1:-1] = 0.5 * (b.x[:, :-1] + b.x[:, 1:])
    b1[:, 0] = bc.x_bottom
    b1[:, -1] = bc.x_top
    s[:, :] = u1 * b2 - u2 * b1
    lhs3_x = (s[1:-1, 1:] - s[1:-1, :-1]) / dy
    lhs3_x_wide = (27.0 * (s[1:-1, 2:-1] - s[1:-1, 1:-2]) - (s[1:-1, 3:] - s[1:-1, :-3])) / (24.0 * dy)
    lhs3_x[:, wide_j] = lhs3_x_wide
    lhs3_y = -(s[1:, 1:-1] - s[:-1, 1:-1]) / dx
    lhs3_y_wide = -(27.0 * (s[2:-1, 1:-1] - s[1:-2, 1:-1]) - (s[3:, 1:-1] - s[:-3, 1:-1])) / (24.0 * dx)
    lhs3_y[wide_i, :] = lhs3_y_wide
    t1x, t1y = _div_form(advecting_half(b), transported_half(u, ubc))  # b·∇u + u div b
    t2x, t2y = _div_form(advecting_half(u), transported_half(b, bc))  # u·∇b + b div u
    r3x = lhs3_x - (t1x - t2x)
    r3y = lhs3_y - (t1y - t2y)
    r3 = _interior_norm(r3x, r3y, g)

    return {"lorentz": r1, "curl_curl": r2, "induction": r3}
