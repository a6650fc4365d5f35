"""Manufactured solutions and their body forces at Re = Rm = S = 1, as numpy forms.

Generated by ``scripts/gen_mms_forms.py``; do not edit.  After changing a
manufactured solution there, rewrite this module with

    python scripts/gen_mms_forms.py

Each body is the expression exactly as ``sympy.lambdify((x, y, t), e,
["numpy"])`` prints it, evaluated with numpy's ``cos``, ``pi`` and ``sin``
as lambdify's namespace evaluates it, so every form gives the bits of the
lambdified sympy derivation without importing sympy.  ``<kind>_<field>1``
and ``<kind>_<field>2`` are the x and y components of u, b and the body
forces fu (momentum) and fb (induction); a form whose expression another
already has is bound to that one.  ``TIME_FREE[kind][force]`` says whether
that body force is free of t.
"""

from numpy import cos, pi, sin


def steady_u1(x, y, t):
    return (4/5)*pi*sin(pi*x)**2*sin(pi*y)*cos(pi*y)


def steady_u2(x, y, t):
    return -4/5*pi*sin(pi*x)*sin(pi*y)**2*cos(pi*x)


def steady_b1(x, y, t):
    return pi*sin(pi*x)**2*sin(2*pi*y)*cos(2*pi*y) + 3/10


def steady_b2(x, y, t):
    return -1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(pi*x) + 1/5


def steady_fu1(x, y, t):
    return (
        -4/5*pi*(-4/5*pi**2*sin(pi*x)**2*sin(pi*y)**2 +
        (4/5)*pi**2*sin(pi*x)**2*cos(pi*y)**2)*sin(pi*x)*sin(pi*y)**2*cos(pi*x) -
        (-2*pi**2*sin(pi*x)**2*sin(2*pi*y)**2 +
        2*pi**2*sin(pi*x)**2*cos(2*pi*y)**2)*(-1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(pi*x) + 1/5) -
        2*pi**2*(pi*sin(pi*x)**2*sin(2*pi*y)*cos(2*pi*y) +
        3/10)*sin(pi*x)*sin(2*pi*y)*cos(pi*x)*cos(2*pi*y) + (8/5)*pi**3*(sin(pi*x)**2 -
        cos(pi*x)**2)*sin(pi*y)*cos(pi*y) +
        (32/25)*pi**3*sin(pi*x)**3*sin(pi*y)**2*cos(pi*x)*cos(pi*y)**2 +
        (16/5)*pi**3*sin(pi*x)**2*sin(pi*y)*cos(pi*y) - 3/10*pi*sin(pi*x)*cos(pi*y)
    )


def steady_fu2(x, y, t):
    return (
        (4/5)*pi*((4/5)*pi**2*sin(pi*x)**2*sin(pi*y)**2 -
        4/5*pi**2*sin(pi*y)**2*cos(pi*x)**2)*sin(pi*x)**2*sin(pi*y)*cos(pi*y) -
        ((1/2)*pi**2*sin(pi*x)**2*sin(2*pi*y)**2 -
        1/2*pi**2*sin(2*pi*y)**2*cos(pi*x)**2)*(pi*sin(pi*x)**2*sin(2*pi*y)*cos(2*pi*y) + 3/10) +
        2*pi**2*(-1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(pi*x) +
        1/5)*sin(pi*x)*sin(2*pi*y)*cos(pi*x)*cos(2*pi*y) - 8/5*pi**3*(sin(pi*y)**2 -
        cos(pi*y)**2)*sin(pi*x)*cos(pi*x) +
        (32/25)*pi**3*sin(pi*x)**2*sin(pi*y)**3*cos(pi*x)**2*cos(pi*y) -
        16/5*pi**3*sin(pi*x)*sin(pi*y)**2*cos(pi*x) - 3/10*pi*sin(pi*y)*cos(pi*x)
    )


def steady_fb1(x, y, t):
    return (
        -(-4/5*pi**2*sin(pi*x)**2*sin(pi*y)**2 +
        (4/5)*pi**2*sin(pi*x)**2*cos(pi*y)**2)*(-1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(pi*x) + 1/5) -
        4/5*pi*(-2*pi**2*sin(pi*x)**2*sin(2*pi*y)**2 +
        2*pi**2*sin(pi*x)**2*cos(2*pi*y)**2)*sin(pi*x)*sin(pi*y)**2*cos(pi*x) -
        8/5*pi**2*(pi*sin(pi*x)**2*sin(2*pi*y)*cos(2*pi*y) +
        3/10)*sin(pi*x)*sin(pi*y)*cos(pi*x)*cos(pi*y) - 2*pi**3*(-sin(pi*x)**2 +
        cos(pi*x)**2)*sin(2*pi*y)*cos(2*pi*y) +
        (8/5)*pi**3*sin(pi*x)**3*sin(pi*y)*sin(2*pi*y)*cos(pi*x)*cos(pi*y)*cos(2*pi*y) +
        16*pi**3*sin(pi*x)**2*sin(2*pi*y)*cos(2*pi*y)
    )


def steady_fb2(x, y, t):
    return (
        -((4/5)*pi**2*sin(pi*x)**2*sin(pi*y)**2 -
        4/5*pi**2*sin(pi*y)**2*cos(pi*x)**2)*(pi*sin(pi*x)**2*sin(2*pi*y)*cos(2*pi*y) + 3/10) +
        (4/5)*pi*((1/2)*pi**2*sin(pi*x)**2*sin(2*pi*y)**2 -
        1/2*pi**2*sin(2*pi*y)**2*cos(pi*x)**2)*sin(pi*x)**2*sin(pi*y)*cos(pi*y) +
        (8/5)*pi**2*(-1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(pi*x) +
        1/5)*sin(pi*x)*sin(pi*y)*cos(pi*x)*cos(pi*y) - 4*pi**3*(sin(2*pi*y)**2 -
        cos(2*pi*y)**2)*sin(pi*x)*cos(pi*x) +
        (8/5)*pi**3*sin(pi*x)**2*sin(pi*y)**2*sin(2*pi*y)*cos(pi*x)**2*cos(2*pi*y) -
        2*pi**3*sin(pi*x)*sin(2*pi*y)**2*cos(pi*x)
    )


def unsteady_u1(x, y, t):
    return (4/5)*pi*sin(pi*x)**2*sin(pi*y)*cos(4*pi*t)*cos(pi*y)


def unsteady_u2(x, y, t):
    return -4/5*pi*sin(pi*x)*sin(pi*y)**2*cos(4*pi*t)*cos(pi*x)


def unsteady_b1(x, y, t):
    return 0


unsteady_b2 = unsteady_b1


def unsteady_fu1(x, y, t):
    return (
        -4/5*pi*(-4/5*pi**2*sin(pi*x)**2*sin(pi*y)**2*cos(4*pi*t) +
        (4/5)*pi**2*sin(pi*x)**2*cos(4*pi*t)*cos(pi*y)**2)*sin(pi*x)*sin(pi*y)**2*cos(4*pi*t)*cos(pi*x)
        + (8/5)*pi**3*(sin(pi*x)**2 - cos(pi*x)**2)*sin(pi*y)*cos(4*pi*t)*cos(pi*y) -
        16/5*pi**2*sin(4*pi*t)*sin(pi*x)**2*sin(pi*y)*cos(pi*y) +
        (32/25)*pi**3*sin(pi*x)**3*sin(pi*y)**2*cos(4*pi*t)**2*cos(pi*x)*cos(pi*y)**2 +
        (16/5)*pi**3*sin(pi*x)**2*sin(pi*y)*cos(4*pi*t)*cos(pi*y) -
        3/10*pi*sin(pi*x)*cos(4*pi*t)*cos(pi*y)
    )


def unsteady_fu2(x, y, t):
    return (
        (4/5)*pi*((4/5)*pi**2*sin(pi*x)**2*sin(pi*y)**2*cos(4*pi*t) -
        4/5*pi**2*sin(pi*y)**2*cos(4*pi*t)*cos(pi*x)**2)*sin(pi*x)**2*sin(pi*y)*cos(4*pi*t)*cos(pi*y)
        - 8/5*pi**3*(sin(pi*y)**2 - cos(pi*y)**2)*sin(pi*x)*cos(4*pi*t)*cos(pi*x) +
        (16/5)*pi**2*sin(4*pi*t)*sin(pi*x)*sin(pi*y)**2*cos(pi*x) +
        (32/25)*pi**3*sin(pi*x)**2*sin(pi*y)**3*cos(4*pi*t)**2*cos(pi*x)**2*cos(pi*y) -
        16/5*pi**3*sin(pi*x)*sin(pi*y)**2*cos(4*pi*t)*cos(pi*x) -
        3/10*pi*sin(pi*y)*cos(4*pi*t)*cos(pi*x)
    )


unsteady_fb1 = unsteady_b1


unsteady_fb2 = unsteady_b1


magnetic_u1 = unsteady_u1


magnetic_u2 = unsteady_u2


def magnetic_b1(x, y, t):
    return pi*sin(pi*x)**2*sin(2*pi*y)*cos(4*pi*t)*cos(2*pi*y) + 3/10


def magnetic_b2(x, y, t):
    return -1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(4*pi*t)*cos(pi*x) + 1/5


def magnetic_fu1(x, y, t):
    return (
        -4/5*pi*(-4/5*pi**2*sin(pi*x)**2*sin(pi*y)**2*cos(4*pi*t) +
        (4/5)*pi**2*sin(pi*x)**2*cos(4*pi*t)*cos(pi*y)**2)*sin(pi*x)*sin(pi*y)**2*cos(4*pi*t)*cos(pi*x)
        - (-2*pi**2*sin(pi*x)**2*sin(2*pi*y)**2*cos(4*pi*t) +
        2*pi**2*sin(pi*x)**2*cos(4*pi*t)*cos(2*pi*y)**2)*(-1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(4*pi*t)*cos(pi*x)
        + 1/5) - 2*pi**2*(pi*sin(pi*x)**2*sin(2*pi*y)*cos(4*pi*t)*cos(2*pi*y) +
        3/10)*sin(pi*x)*sin(2*pi*y)*cos(4*pi*t)*cos(pi*x)*cos(2*pi*y) + (8/5)*pi**3*(sin(pi*x)**2 -
        cos(pi*x)**2)*sin(pi*y)*cos(4*pi*t)*cos(pi*y) -
        16/5*pi**2*sin(4*pi*t)*sin(pi*x)**2*sin(pi*y)*cos(pi*y) +
        (32/25)*pi**3*sin(pi*x)**3*sin(pi*y)**2*cos(4*pi*t)**2*cos(pi*x)*cos(pi*y)**2 +
        (16/5)*pi**3*sin(pi*x)**2*sin(pi*y)*cos(4*pi*t)*cos(pi*y) -
        3/10*pi*sin(pi*x)*cos(4*pi*t)*cos(pi*y)
    )


def magnetic_fu2(x, y, t):
    return (
        (4/5)*pi*((4/5)*pi**2*sin(pi*x)**2*sin(pi*y)**2*cos(4*pi*t) -
        4/5*pi**2*sin(pi*y)**2*cos(4*pi*t)*cos(pi*x)**2)*sin(pi*x)**2*sin(pi*y)*cos(4*pi*t)*cos(pi*y)
        - ((1/2)*pi**2*sin(pi*x)**2*sin(2*pi*y)**2*cos(4*pi*t) -
        1/2*pi**2*sin(2*pi*y)**2*cos(4*pi*t)*cos(pi*x)**2)*(pi*sin(pi*x)**2*sin(2*pi*y)*cos(4*pi*t)*cos(2*pi*y)
        + 3/10) + 2*pi**2*(-1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(4*pi*t)*cos(pi*x) +
        1/5)*sin(pi*x)*sin(2*pi*y)*cos(4*pi*t)*cos(pi*x)*cos(2*pi*y) - 8/5*pi**3*(sin(pi*y)**2 -
        cos(pi*y)**2)*sin(pi*x)*cos(4*pi*t)*cos(pi*x) +
        (16/5)*pi**2*sin(4*pi*t)*sin(pi*x)*sin(pi*y)**2*cos(pi*x) +
        (32/25)*pi**3*sin(pi*x)**2*sin(pi*y)**3*cos(4*pi*t)**2*cos(pi*x)**2*cos(pi*y) -
        16/5*pi**3*sin(pi*x)*sin(pi*y)**2*cos(4*pi*t)*cos(pi*x) -
        3/10*pi*sin(pi*y)*cos(4*pi*t)*cos(pi*x)
    )


def magnetic_fb1(x, y, t):
    return (
        -(-4/5*pi**2*sin(pi*x)**2*sin(pi*y)**2*cos(4*pi*t) +
        (4/5)*pi**2*sin(pi*x)**2*cos(4*pi*t)*cos(pi*y)**2)*(-1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(4*pi*t)*cos(pi*x)
        + 1/5) - 4/5*pi*(-2*pi**2*sin(pi*x)**2*sin(2*pi*y)**2*cos(4*pi*t) +
        2*pi**2*sin(pi*x)**2*cos(4*pi*t)*cos(2*pi*y)**2)*sin(pi*x)*sin(pi*y)**2*cos(4*pi*t)*cos(pi*x)
        - 8/5*pi**2*(pi*sin(pi*x)**2*sin(2*pi*y)*cos(4*pi*t)*cos(2*pi*y) +
        3/10)*sin(pi*x)*sin(pi*y)*cos(4*pi*t)*cos(pi*x)*cos(pi*y) - 2*pi**3*(-sin(pi*x)**2 +
        cos(pi*x)**2)*sin(2*pi*y)*cos(4*pi*t)*cos(2*pi*y) -
        4*pi**2*sin(4*pi*t)*sin(pi*x)**2*sin(2*pi*y)*cos(2*pi*y) +
        (8/5)*pi**3*sin(pi*x)**3*sin(pi*y)*sin(2*pi*y)*cos(4*pi*t)**2*cos(pi*x)*cos(pi*y)*cos(2*pi*y)
        + 16*pi**3*sin(pi*x)**2*sin(2*pi*y)*cos(4*pi*t)*cos(2*pi*y)
    )


def magnetic_fb2(x, y, t):
    return (
        -((4/5)*pi**2*sin(pi*x)**2*sin(pi*y)**2*cos(4*pi*t) -
        4/5*pi**2*sin(pi*y)**2*cos(4*pi*t)*cos(pi*x)**2)*(pi*sin(pi*x)**2*sin(2*pi*y)*cos(4*pi*t)*cos(2*pi*y)
        + 3/10) + (4/5)*pi*((1/2)*pi**2*sin(pi*x)**2*sin(2*pi*y)**2*cos(4*pi*t) -
        1/2*pi**2*sin(2*pi*y)**2*cos(4*pi*t)*cos(pi*x)**2)*sin(pi*x)**2*sin(pi*y)*cos(4*pi*t)*cos(pi*y)
        + (8/5)*pi**2*(-1/2*pi*sin(pi*x)*sin(2*pi*y)**2*cos(4*pi*t)*cos(pi*x) +
        1/5)*sin(pi*x)*sin(pi*y)*cos(4*pi*t)*cos(pi*x)*cos(pi*y) - 4*pi**3*(sin(2*pi*y)**2 -
        cos(2*pi*y)**2)*sin(pi*x)*cos(4*pi*t)*cos(pi*x) +
        2*pi**2*sin(4*pi*t)*sin(pi*x)*sin(2*pi*y)**2*cos(pi*x) +
        (8/5)*pi**3*sin(pi*x)**2*sin(pi*y)**2*sin(2*pi*y)*cos(4*pi*t)**2*cos(pi*x)**2*cos(2*pi*y) -
        2*pi**3*sin(pi*x)*sin(2*pi*y)**2*cos(4*pi*t)*cos(pi*x)
    )


TIME_FREE = {
    "steady": {"fu": True, "fb": True},
    "unsteady": {"fu": False, "fb": True},
    "magnetic": {"fu": False, "fb": False},
}
