#!/usr/bin/env python3
"""Write ``src/mhd2d/mms_forms.py``: the manufactured solutions' numpy forms.

``derive(kind)`` builds a manufactured state and its body forces with sympy
and lambdifies them; ``render()`` returns the text of the module, one
``def <kind>_<field>(x, y, t)`` per form whose body is the expression as
``sympy.lambdify((x, y, t), e, ["numpy"])`` prints it.  The package runs
that text with ``cos``, ``pi`` and ``sin`` taken from numpy, as lambdify's
own namespace does, so every form evaluates to the same bits as sympy's
lambdified function and the package needs no sympy at run time.

    python scripts/gen_mms_forms.py        # rewrite src/mhd2d/mms_forms.py

Run it after changing a manufactured solution here; the Tier-1 test
``test_mms_forms_are_the_generated_derivation`` fails while the module and
``render()`` differ.
"""

import inspect
import textwrap
from pathlib import Path

import sympy as sp

MODULE = Path(__file__).resolve().parent.parent / "src" / "mhd2d" / "mms_forms.py"
KINDS = ("steady", "unsteady", "magnetic")
FIELDS = ("u", "b", "fu", "fb")
WIDTH = 100  # the longest line written

HEADER = '''\
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
'''


def derive(kind: str):
    """Symbolic manufactured state and the matching body forces at Re = Rm = S = 1."""
    x, y, t = sp.symbols("x y t")
    if kind == "steady":
        psi_u = sp.Rational(2, 5) * sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
        u1 = sp.diff(psi_u, y)
        u2 = -sp.diff(psi_u, x)
        psi_b = sp.Rational(1, 4) * sp.sin(sp.pi * x) ** 2 * sp.sin(2 * sp.pi * y) ** 2
        b1 = sp.diff(psi_b, y) + sp.Rational(3, 10)
        b2 = -sp.diff(psi_b, x) + sp.Rational(1, 5)
        p = sp.Rational(3, 10) * sp.cos(sp.pi * x) * sp.cos(sp.pi * y)
    elif kind in ("unsteady", "magnetic"):
        env = sp.cos(4 * sp.pi * t)
        psi_u = sp.Rational(2, 5) * env * sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
        u1 = sp.diff(psi_u, y)
        u2 = -sp.diff(psi_u, x)
        b1 = sp.Integer(0)
        b2 = sp.Integer(0)
        if kind == "magnetic":  # the steady case's b, its zero-trace part scaled by env
            psi_b = sp.Rational(1, 4) * env * sp.sin(sp.pi * x) ** 2 * sp.sin(2 * sp.pi * y) ** 2
            b1 = sp.diff(psi_b, y) + sp.Rational(3, 10)
            b2 = -sp.diff(psi_b, x) + sp.Rational(1, 5)
        p = sp.Rational(3, 10) * env * sp.cos(sp.pi * x) * sp.cos(sp.pi * y)
    else:
        raise ValueError(f"unknown manufactured case {kind!r}")

    def material(a1, a2, f):
        return a1 * sp.diff(f, x) + a2 * sp.diff(f, y)

    lap = lambda f: sp.diff(f, x, 2) + sp.diff(f, y, 2)
    fu1 = sp.diff(u1, t) - lap(u1) + material(u1, u2, u1) - material(b1, b2, b1) + sp.diff(p, x)
    fu2 = sp.diff(u2, t) - lap(u2) + material(u1, u2, u2) - material(b1, b2, b2) + sp.diff(p, y)
    fb1 = sp.diff(b1, t) - lap(b1) + material(u1, u2, b1) - material(b1, b2, u1)
    fb2 = sp.diff(b2, t) - lap(b2) + material(u1, u2, b2) - material(b1, b2, u2)
    mods = ["numpy"]
    fn = lambda e: sp.lambdify((x, y, t), e, mods)
    time_free = lambda *es: t not in set().union(*(e.free_symbols for e in es))
    return {
        "u": (fn(u1), fn(u2)),
        "b": (fn(b1), fn(b2)),
        "fu": (fn(fu1), fn(fu2)),
        "fb": (fn(fb1), fn(fb2)),
        "time_free": {"fu": time_free(fu1, fu2), "fb": time_free(fb1, fb2)},
        "kind": kind,
    }


def _printed(f):
    """The expression a lambdified function of (x, y, t) returns, as lambdify printed it."""
    head, body = inspect.getsource(f).splitlines()
    assert head == "def _lambdifygenerated(x, y, t):" and body.startswith("    return "), (head, body)
    return body[len("    return "):]


def _form(name, expr):
    line = f"    return {expr}"
    if len(line) <= WIDTH:
        return f"def {name}(x, y, t):\n{line}\n"
    # the printed expression has spaces only between tokens, so it may break at any of them
    wrapped = textwrap.wrap(expr, WIDTH - 8, break_long_words=False, break_on_hyphens=False)
    body = "\n".join(f"        {part}" for part in wrapped)
    return f"def {name}(x, y, t):\n    return (\n{body}\n    )\n"


def render() -> str:
    """The text of ``src/mhd2d/mms_forms.py``."""
    blocks, first, time_free = [], {}, {}
    for kind in KINDS:
        case = derive(kind)
        time_free[kind] = case["time_free"]
        for field in FIELDS:
            for i, f in enumerate(case[field], start=1):
                name, expr = f"{kind}_{field}{i}", _printed(f)
                if expr in first:
                    blocks.append(f"{name} = {first[expr]}\n")
                else:
                    first[expr] = name
                    blocks.append(_form(name, expr))
    flags = "\n".join(f'    "{kind}": {{"fu": {tf["fu"]}, "fb": {tf["fb"]}}},' for kind, tf in time_free.items())
    blocks.append(f"TIME_FREE = {{\n{flags}\n}}\n")
    return HEADER + "".join(f"\n\n{block}" for block in blocks)


if __name__ == "__main__":
    MODULE.write_text(render())
    print(f"wrote {MODULE}")
