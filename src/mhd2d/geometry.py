"""Staggered-grid fields and discrete vector calculus on the unit square.

MAC layout: scalars live at cell centers, the x-component of a vector
field on vertical faces, the y-component on horizontal faces.  Normal
components at the walls are stored in the field arrays themselves;
tangential boundary values enter through ghost values extrapolated
through the wall (``_padded``).  There is one 5-point face Laplacian
(``_face_laplacian``, over ``_five_point``) and two ghost closures for it:
the diagnostic ``laplacian`` extrapolates cubically (``_cubic_ghost``), so
second-derivative stencils stay second-order accurate up to the wall; the
solver's ``operators.apply_lap_mirror`` mirrors linearly
(``_mirror_ghost``), which keeps its Laplacian symmetric.  The closures
deliberately differ; the stencil is shared.

The operators here are pure stencil evaluations used for diagnostics and
residual checks.  The symmetric solver-side operators (used for implicit
solves, eigenproblems and energy identities) live in ``operators``.  The
identity suite takes every curl of a corner array (the vorticity's, the
EMF's) with one stencil, ``_corner_curl``.

Finiteness is checked where data enters, not on every field: the public
constructors ``ScalarField(grid, values)``, ``VectorField(grid, x, y)`` and
``VectorField.from_functions`` check shape and finiteness.  Fields the
package computes (``zeros``, ``copy``, arithmetic, ``from_stream``, the
stencils here and the solver outputs elsewhere) come from the private
``_unchecked`` constructors, which scan nothing; ``Stepper.coupled_step``
scans each accepted state once with ``all_finite``.

``convect(a, f)`` is the reference transport a·∇f on whole fields, against
which the stepper's prepared halves are tested.  It splits into the
advecting field's half (its face averages, ``advecting_half``) and the
transported field's half (its face averages with the boundary values on the
wall rows).  Which field advects decides whether the half carries a's
interpolated cell divergence, for the correction -f·(div a): a velocity, a
Stokes output and so divergence-free by construction, does not, since the
correction would be round-off; a magnetic field, whose iterates before
cleaning carry an O(1) divergence, does, and so does ``convect`` itself.
``face_halves`` computes a field's two halves in one pass into wall rows
prepared once per boundary instant (``wall_rows``); ``convect_interior``
returns only the interior faces, all that an implicit solve reads.
``magnetic_halves`` builds a magnetic field's two halves with its
divergence terms and keeps its cell divergence, so a caller that transports
it, advects with it and scans its divergence builds them once.
``induction_halves`` forms the difference of two such convections,
stretching less transport, from those halves and a velocity's, as the curl
of a corner EMF.  ``norm_sq`` is ``l2_norm_sq`` on bare component arrays,
in ``inner``'s summation order.
The reductions call ufunc reductions and ndarray methods directly, which
reach the same kernels as numpy's module-level wrappers without their
Python-level dispatch.
"""

from __future__ import annotations

import functools
import math
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
    "MagneticHalves",
    "magnetic_halves",
    "convect_interior",
    "induction_halves",
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


# np.sum, np.max and ndarray.all without their Python-level wrappers: the
# same ufunc reductions over every axis
_sum = functools.partial(np.add.reduce, axis=None)
_max = functools.partial(np.maximum.reduce, axis=None)
_all = functools.partial(np.logical_and.reduce, axis=None)


def _finite(arr) -> bool:
    """One full scan of an array for NaN and infinity: the entry checks of the
    public field constructors and ``all_finite`` both run it."""
    return bool(_all(np.isfinite(arr)))


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


def _cubic_ghost(b, f0, f1, f2):
    # cubic extrapolation through the wall value b at distance h/2
    return 3.2 * b - 3.0 * f0 + f1 - 0.2 * f2


def _mirror_ghost(b, f0, f1, f2):
    # linear extrapolation: the mirror image of f0 through the wall value b
    return 2.0 * b - f0


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


def _padded(v: VectorField, bc: VectorBC, ghost):
    """Both components with ghost rows through their tangential walls: x with
    a column below and above, (nx+1, ny+2); y with a row left and right,
    (nx+2, ny+1).  ``ghost`` is ``_cubic_ghost`` or ``_mirror_ghost``."""
    f = v.x
    px = np.empty((f.shape[0], f.shape[1] + 2))
    px[:, 1:-1] = f
    px[:, 0] = ghost(bc.x_bottom, f[:, 0], f[:, 1], f[:, 2])
    px[:, -1] = ghost(bc.x_top, f[:, -1], f[:, -2], f[:, -3])
    f = v.y
    py = np.empty((f.shape[0] + 2, f.shape[1]))
    py[1:-1, :] = f
    py[0, :] = ghost(bc.y_left, f[0, :], f[1, :], f[2, :])
    py[-1, :] = ghost(bc.y_right, f[-1, :], f[-2, :], f[-3, :])
    return px, py


def _five_point(p, g: Grid):
    """5-point Laplacian at the interior of the padded array ``p``."""
    c = 2 * p[1:-1, 1:-1]
    return (p[2:, 1:-1] - c + p[:-2, 1:-1]) / g.dx**2 + (p[1:-1, 2:] - c + p[1:-1, :-2]) / g.dy**2


def _face_laplacian(v: VectorField, bc: VectorBC, ghost) -> VectorField:
    """Componentwise 5-point Laplacian under the ghost closure ``ghost``, on
    interior faces (wall faces zero)."""
    out = VectorField.zeros(v.grid)
    px, py = _padded(v, bc, ghost)
    out.x[1:-1, :] = _five_point(px, v.grid)
    out.y[:, 1:-1] = _five_point(py, v.grid)
    return out


def laplacian(f: VectorField, bc: VectorBC) -> VectorField:
    """Componentwise 5-point Laplacian with cubic ghost closure, on interior
    faces (wall faces zero)."""
    return _face_laplacian(f, bc, _cubic_ghost)


# --- advection -----------------------------------------------------------

class AdvectingHalf(NamedTuple):
    """The advecting field's half of ``convect``: its face averages and, for
    a field that is not discretely divergence-free, its cell divergence
    interpolated to the interior faces.

    ``a1c``/``a2x`` enter the x-component (normal average at cell centers,
    tangential average on interior corner lines), ``a2c``/``a1y`` the
    y-component; ``sx``/``sy`` multiply the transported field.  A velocity's
    half (``advecting_half``) has ``sx = sy = None``, and ``convect_interior``
    then forms no f·(div a) product (nor does ``induction_halves``, which
    takes a velocity's halves as its second pair); a magnetic field's half
    (``magnetic_halves``) carries them.
    """

    a1c: np.ndarray  # (nx, ny)
    a2x: np.ndarray  # (nx-1, ny+1)
    a2c: np.ndarray  # (nx, ny)
    a1y: np.ndarray  # (nx+1, ny-1)
    sx: np.ndarray | None  # (nx-1, ny)
    sy: np.ndarray | None  # (nx, ny-1)


class TransportedHalf(NamedTuple):
    """The transported field's half of ``convect``: its face averages, with
    the boundary values on the wall rows of the tangential averages."""

    f: VectorField
    f1c: np.ndarray  # (nx, ny)
    f1y: np.ndarray  # (nx-1, ny+1)
    f2c: np.ndarray  # (nx, ny)
    f2x: np.ndarray  # (nx+1, ny-1)


def advecting_half(a: VectorField) -> AdvectingHalf:
    """A velocity's half of ``convect``: its face averages, and no divergence
    terms.  Every advecting velocity of the stepper is a Stokes output (or an
    average or difference of two), divergence-free by construction, where
    the divergence form alone is energy-neutral (Morinishi, Lund, Vasilyev &
    Moin, J. Comput. Phys. 143, 1998) and -f·(div a) is round-off."""
    return AdvectingHalf(
        a1c=0.5 * (a.x[:-1, :] + a.x[1:, :]),
        a2x=0.5 * (a.y[:-1, :] + a.y[1:, :]),
        a2c=0.5 * (a.y[:, :-1] + a.y[:, 1:]),
        a1y=0.5 * (a.x[:, :-1] + a.x[:, 1:]),
        sx=None,
        sy=None,
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


def face_halves(f: VectorField, walls):
    """f's advecting half and its transported half under fbc in one pass,
    where ``walls = wall_rows(grid, fbc)``: a velocity's two halves, with no
    divergence terms (``magnetic_halves`` adds them for a magnetic field).

    The halves share f's averages: f1c is a1c, f2c is a2c, and the interior
    lines of f1y and f2x are copied from a1y and a2x into ``walls``.  The
    transported half stays valid until the next call on the same walls.
    """
    a = advecting_half(f)
    f1y, f2x = walls
    f1y[:, 1:-1] = a.a1y[1:-1, :]
    f2x[1:-1, :] = a.a2x[:, 1:-1]
    return a, TransportedHalf(f=f, f1c=a.a1c, f1y=f1y, f2c=a.a2c, f2x=f2x)


class MagneticHalves(NamedTuple):
    """A magnetic field's two halves and its cell divergence (``magnetic_halves``)."""

    a: AdvectingHalf  # with the divergence terms
    t: TransportedHalf  # t.f is the field
    div: np.ndarray  # divergence(t.f).values, (nx, ny)


def magnetic_halves(b: VectorField, walls) -> MagneticHalves:
    """b's two halves under fbc, where ``walls = wall_rows(grid, fbc)``, with
    its interpolated cell divergence on the advecting half, and that
    divergence, in one pass: what the Lorentz term ``convect(b, b, fbc)``
    (``convect_interior(h.a, h.t)``), the heat chord's induction term
    (``induction_halves``), a transport operator and a pre-cleaning scan
    read of one magnetic iterate.  The averages are ``face_halves``'s, and
    as there the transported half stays valid until the next call on the
    same walls."""
    a1c, a2c = 0.5 * (b.x[:-1, :] + b.x[1:, :]), 0.5 * (b.y[:, :-1] + b.y[:, 1:])
    a2x, a1y = 0.5 * (b.y[:-1, :] + b.y[1:, :]), 0.5 * (b.x[:, :-1] + b.x[:, 1:])
    f1y, f2x = walls
    f1y[:, 1:-1] = a1y[1:-1, :]
    f2x[1:-1, :] = a2x[:, 1:-1]
    dc = divergence(b).values
    sx, sy = 0.5 * (dc[:-1, :] + dc[1:, :]), 0.5 * (dc[:, :-1] + dc[:, 1:])
    return MagneticHalves(AdvectingHalf(a1c, a2x, a2c, a1y, sx, sy),
                          TransportedHalf(b, a1c, f1y, a2c, f2x), dc)


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
    array (nx-1, ny) and the y array (nx, ny-1).  The divergence form, less
    f·(div a) where a's half carries the divergence terms."""
    out_x, out_y = _div_form(a, f)
    if a.sx is not None:
        out_x -= f.f.x[1:-1, :] * a.sx
        out_y -= f.f.y[:, 1:-1] * a.sy
    return out_x, out_y


def induction_halves(fa: AdvectingHalf, ft: TransportedHalf, a: AdvectingHalf, t: TransportedHalf):
    """The induction term ``convect_interior(fa, t) - convect_interior(a,
    ft)`` of the field f on the interior faces, from f's halves (fa with its
    divergence terms and ft under the boundary data: ``magnetic_halves``)
    and a velocity's two halves (a, t) with zero walls (``face_halves``),
    which carry no divergence terms.

    Formed as the curl of the corner EMF E = u1 f2 - u2 f1 (the
    constrained-transport form of curl(u x f)) minus u times f's
    interpolated divergence: the normal-flux products a1c*f1c and a2c*f2c
    cancel in the difference and are never formed, so it equals the
    difference up to round-off.  Of f's halves it reads the corner averages
    and the divergence terms only."""
    g = t.f.grid
    ex = fa.a2x * t.f1y - a.a2x * ft.f1y  # E on the corners of the x-faces
    ey = a.a1y * ft.f2x - fa.a1y * t.f2x  # E on the corners of the y-faces
    out_x = (ex[:, 1:] - ex[:, :-1]) / g.dy
    out_x -= t.f.x[1:-1, :] * fa.sx
    out_y = (ey[:-1, :] - ey[1:, :]) / g.dx
    out_y -= t.f.y[:, 1:-1] * fa.sy
    return out_x, out_y


def convect(a: VectorField, f: VectorField, fbc: VectorBC | None = None) -> VectorField:
    """Componentwise transport a·∇f on interior faces.

    Realized as the divergence form minus f times the interpolated cell
    divergence of `a` (``magnetic_halves``), whatever `a` is: the Lorentz
    term b·∇b advects with a magnetic field, whose divergence before
    cleaning is not small.  With a discretely divergence-free `a` and f
    vanishing on the walls this is exactly energy-neutral.  The reference
    that the stepper's prepared halves are tested against.
    """
    g = f.grid
    out = VectorField.zeros(g)
    a_half = magnetic_halves(a, wall_rows(g)).a
    out.x[1:-1, :], out.y[:, 1:-1] = convect_interior(a_half, face_halves(f, wall_rows(g, fbc))[1])
    return out


# --- inner products and norms -------------------------------------------


def inner(u: VectorField, v: VectorField) -> float:
    """Discrete L2 inner product; wall faces carry half cells."""
    g = u.grid
    w = g.dx * g.dy
    sx = u.x[1:-1, :].ravel().dot(v.x[1:-1, :].ravel()) + 0.5 * (
        u.x[0, :].dot(v.x[0, :]) + u.x[-1, :].dot(v.x[-1, :])
    )
    sy = u.y[:, 1:-1].ravel().dot(v.y[:, 1:-1].ravel()) + 0.5 * (
        u.y[:, 0].dot(v.y[:, 0]) + u.y[:, -1].dot(v.y[:, -1])
    )
    return w * (sx + sy)


def norm_sq(grid: Grid, x: np.ndarray, y: np.ndarray) -> float:
    """``inner(f, f)`` of the vector field f with the component arrays x, y,
    in the same order (interior faces, then the half-weighted walls) and so
    bit for bit, without building f.  The products are ndarray.dot, the
    BLAS dot product that np.dot reaches through its Python-level wrapper."""
    xi = x[1:-1, :].ravel()  # a view: whole rows
    yi = y[:, 1:-1].ravel()  # a copy: gathered once for both factors
    x0, x1, y0, y1 = x[0, :], x[-1, :], y[:, 0], y[:, -1]
    sx = xi.dot(xi) + 0.5 * (x0.dot(x0) + x1.dot(x1))
    sy = yi.dot(yi) + 0.5 * (y0.dot(y0) + y1.dot(y1))
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
    return float((g.dx * g.dy * _sum(m2**2)) ** 0.25), math.sqrt(_max(m2))


# --- identity suite ------------------------------------------------------

def _vorticity(b: VectorField, bc: VectorBC):
    """d1 b2 - d2 b1 at every corner, cubic ghost closure at the walls."""
    g = b.grid
    px, py = _padded(b, bc, _cubic_ghost)
    return (py[1:, :] - py[:-1, :]) / g.dx - (px[:, 1:] - px[:, :-1]) / g.dy


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


def _corner_curl(w, g: Grid):
    """curl of the out-of-plane corner array ``w`` on the interior faces:
    (d2 w, -d1 w), the wide fourth-order difference in the interior and the
    compact one in the one-cell band next to the walls."""
    cx = (w[1:-1, 1:] - w[1:-1, :-1]) / g.dy
    cx[:, 1:-1] = (27.0 * (w[1:-1, 2:-1] - w[1:-1, 1:-2]) - (w[1:-1, 3:] - w[1:-1, :-3])) / (24.0 * g.dy)
    cy = -(w[1:, 1:-1] - w[:-1, 1:-1]) / g.dx
    cy[1:-1, :] = -(27.0 * (w[2:-1, 1:-1] - w[1:-2, 1:-1]) - (w[3:, 1:-1] - w[:-3, 1:-1])) / (24.0 * g.dx)
    return cx, cy


def _at_corners(f: VectorField, fbc: VectorBC):
    """Both components at the corners: face averages inside, the tangential
    boundary values on the walls."""
    f1 = np.empty((f.grid.nx + 1, f.grid.ny + 1))
    f1[:, 1:-1] = 0.5 * (f.x[:, :-1] + f.x[:, 1:])
    f1[:, 0] = fbc.x_bottom
    f1[:, -1] = fbc.x_top
    f2 = np.empty_like(f1)
    f2[1:-1, :] = 0.5 * (f.y[:-1, :] + f.y[1:, :])
    f2[0, :] = fbc.y_left
    f2[-1, :] = fbc.y_right
    return f1, f2


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
    ccx, ccy = _corner_curl(w, g)
    dv = divergence(b)
    gd = gradient(dv)
    lap = laplacian(b, bc)
    r2x = ccx - (gd.x[1:-1, :] - lap.x[1:-1, :])
    r2y = ccy - (gd.y[:, 1:-1] - lap.y[:, 1:-1])
    r2 = _interior_norm(r2x, r2y, g)

    # identity 3: curl(u x b) = b·∇u - u·∇b + u div b - b div u.  The magnetic
    # chord's lag b·∇u - u·∇b (``induction_halves``) is formed by this
    # identity: the compact curl of the corner EMF s (zero walls for u), less
    # u div b.  It leaves out b div u, round-off for the chord's u, a Stokes
    # output; here both divergence terms stay, inside the two divergence
    # forms below, whatever u is
    u1, u2 = _at_corners(u, ubc)
    b1, b2 = _at_corners(b, bc)
    lhs3_x, lhs3_y = _corner_curl(u1 * b2 - u2 * b1, g)  # s = u x b (out of plane) at corners
    t1x, t1y = _div_form(advecting_half(b), face_halves(u, wall_rows(g, ubc))[1])  # b·∇u + u div b
    t2x, t2y = _div_form(advecting_half(u), face_halves(b, wall_rows(g, bc))[1])  # u·∇b + b div u
    r3x = lhs3_x - (t1x - t2x)
    r3y = lhs3_y - (t1y - t2y)
    r3 = _interior_norm(r3x, r3y, g)

    return {"lorentz": r1, "curl_curl": r2, "induction": r3}
