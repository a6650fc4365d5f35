#!/usr/bin/env python3
"""Print ``file:line qualname`` of each ``def`` in ``src/mhd2d`` that no entry point
calls, then ``file:line Class.field`` of each field that no code reads, then
``file:line qualname(parameter)`` of each default that no caller changes.

The entry points run at small grids, under ``sys.setprofile``: ``mhd2d run``
with checkpoints and a restart, a Galerkin run, ``mhd2d basis`` twice (the full
basis, then its cache), a CSV-trace run, a malformed config, ``calibrate`` and
``experiment``, every ``verify`` experiment and the absorbing-set trace calls.
What is left should be error paths and test oracles.

The field pass covers every dataclass and ``NamedTuple`` field in
``src/mhd2d`` and lists those that no ``.py`` file under ``src/``, ``tests/``,
``scripts/`` or ``perfbench/`` reads as ``.name``; a field read only by
unpacking, iteration or a dataclass ``repr`` is listed too.

The parameter pass lists each parameter with a default of a ``def``, or of a
dataclass or ``NamedTuple`` field, in ``src/mhd2d`` that every call under
``src/``, ``scripts/`` or ``perfbench/`` leaves at its default or sets to
that same literal: a settable value with one value in use.  Calls are
matched by name (``f(...)``, ``obj.f(...)``, a class by its name or by
``cls(...)``), so a name that several defs share counts every call of it
against each of them, and a call with ``*args`` or ``**kwargs`` sets every
parameter, except the experiment calls of ``verify.EXPERIMENTS``: their
``**kw`` is what ``cli._experiment_kwargs`` builds from a config, so such a
call sets only the keys that function can produce.  Fields that code assigns
as ``.name = ...`` or that default to a ``default_factory`` container hold
state, not settings, and are skipped.
Usage: ``PYTHONPATH=src python scripts/reach_audit.py``
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASE = "[grid]\nnx = 8\nny = 8\n[time]\ndt = 0.01\nT = {T}\n"
RUN = BASE.format(T=0.1) + "[boundary]\nmodes = stream amp=0.15 env=cos p=2.0\n"
INIT = "[initial]\nu = bump\nb = matched\n"
AUDITED = ("src", "scripts", "perfbench")  # the callers of the parameter pass: not tests/


def entry_points(d: Path):
    sys.path.insert(0, str(SRC))  # imported under the profile: decorators run at import
    from mhd2d import cli, estimates as est, lifting as lft, verify as ver
    from mhd2d.geometry import Grid, VectorField

    def mhd2d(command, text, name, want=0):
        (d / f"{name}.cfg").write_text(text)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            if cli.main([command, "--config", str(d / f"{name}.cfg"), "--output-dir", str(d / name)]) != want:
                sys.exit(f"{command} {name}: exit code is not {want}\n{err.getvalue()}")

    mhd2d("run", RUN + INIT + "[outputs]\ncheckpoint_every = 4\n", "run")
    mhd2d("run", RUN.replace("T = 0.1", "T = 0.2") + f"[initial]\ncheckpoint = {d}/run/final.mhdckpt\n", "re")
    mhd2d("run", RUN + INIT + "[galerkin]\nn = 4\n", "galerkin")
    for _ in range(2):
        mhd2d("basis", BASE.format(T=0.1) + "[galerkin]\nn = 49\n", "basis")
    tr = lft.synthesize_trace(Grid(8, 8), np.arange(11) * 0.01, [])
    rows = [(t, (k + 0.5) / 8, *h[k]) for t, h in zip(tr.times, tr.samples) for k in range(len(h))]
    np.savetxt(d / "trace.csv", rows, "%.17g", ",", header="time,arclength,h1,h2", comments="")
    mhd2d("run", BASE.format(T=0.1) + f"[boundary]\ncsv = {d}/trace.csv\n", "csv")
    mhd2d("run", BASE.format(T="one"), "bad", want=2)
    mhd2d("calibrate", BASE.format(T=0.2), "cal")
    mhd2d("experiment", BASE.format(T=0.2) + "[experiment]\nid = identities, picard\ndt_list = 4e-3\n", "exp")
    store = est.CalibrationStore.read(d / "cal" / "calibration.txt")
    ver.identity_suite(nx_pair=(8, 16))
    ver.mms_convergence((8, 16), (4e-3, 2e-3), t_spatial=0.02, t_temporal=0.02, dt_reference=1e-3)
    ver.continuous_dependence(nx=8, t_final=0.02)
    ver.picard_contraction_study(dt_list=(4e-3, 2e-3), nx=8, steps=2)
    ver.absorbing_experiment(store, nx=8, strong="check")
    ver.tail_compactness(n_list=(2, 4), nx=16, t_final=0.02)  # 160 Laplacian modes need 16^2
    ver.basis_stability(nx_pair=(8, 16), n=4)
    ver.brezis_gallouet_study(nx_pair=(8, 16), count=4)
    ver.gronwall_suite(store, nx=8, t_final=0.1)
    h12 = np.array([lft.hs_norm(tr, t, lft.FractionalNormSpec(0.5)) ** 2 for t in tr.times])
    lft.hs_norm_dt(tr, 0.05, lft.FractionalNormSpec(-0.5))
    lft.harmonic_extend(tr, 0.05)
    est.absorbing_radii(tr.times, h12, h12, h12, 1.0, 1.0, 1.0, 1.0, est.window_sup(tr.times, h12))
    lft.lifting_estimate_check(tr, 0.05)
    lft.parabolic_estimate_check(lft.parabolic_lift(VectorField.zeros(tr.grid), tr, 0.01, 0.05), 1.0, 1.0)


def defs(node, prefix=""):
    """(first line of the code object, qualified name) of every def under node."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from defs(child, prefix)
            continue
        if not isinstance(child, ast.ClassDef):
            yield min([child.lineno] + [x.lineno for x in child.decorator_list]), prefix + child.name
        yield from defs(child, prefix + child.name + ".")


def record_fields(tree):
    """(class, [annotated field statements]) of every dataclass or NamedTuple class."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        marks = [ast.unparse(d) for d in cls.decorator_list + cls.bases]
        if any(m.startswith("dataclass") or m.endswith("NamedTuple") for m in marks):
            yield cls, [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def fields(tree):
    """(line, Class.field) of every annotated field of a dataclass or NamedTuple class."""
    for cls, stmts in record_fields(tree):
        for stmt in stmts:
            yield stmt.lineno, f"{cls.name}.{stmt.target.id}"


def signatures(tree, stored):
    """(line, qualname, call name, parameters, defaults) of every def and every
    dataclass or NamedTuple class under tree.  ``parameters`` are the names a
    call can bind (not a method's self or cls) and ``defaults`` maps a name to
    its default's AST.  A class is called by its name: its ``__init__`` or its
    fields.  A field whose default is a ``default_factory`` container, or whose
    name is in ``stored`` (assigned as ``.name = ...``), is state filled after
    construction and has no default here.  Other dunders are called
    implicitly and are skipped."""
    for cls, stmts in record_fields(tree):
        defaults = {}
        for stmt in stmts:
            factory = isinstance(stmt.value, ast.Call) and any(
                k.arg == "default_factory" for k in stmt.value.keywords)
            if stmt.value is not None and not factory and stmt.target.id not in stored:
                defaults[stmt.target.id] = stmt.value
        yield cls.lineno, cls.name, cls.name, [s.target.id for s in stmts], defaults
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = child.name
            if name.startswith("__") and name != "__init__":
                continue
            args = child.args
            params = args.posonlyargs + args.args
            if isinstance(node, ast.ClassDef) and "staticmethod" not in map(ast.unparse, child.decorator_list):
                params = params[1:]  # self or cls
            positional = [a.arg for a in params]
            defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            owner = node.name if isinstance(node, ast.ClassDef) else None
            yield (child.lineno, f"{owner}.{name}" if owner else name,
                   owner if name == "__init__" else name,
                   positional + [a.arg for a in args.kwonlyargs], defaults)


def literal(node):
    """(True, value) of a literal AST, else (False, None)."""
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError):
        return False, None


def experiment_keys():
    """The keys of the keyword arguments ``cli._experiment_kwargs`` can
    produce: the string subscripts it assigns (``kw["nx_list"] = ...``)."""
    tree = ast.parse((SRC / "mhd2d" / "cli.py").read_text())
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_experiment_kwargs")
    return sorted({t.slice.value for n in ast.walk(fn) if isinstance(n, ast.Assign) for t in n.targets
                   if isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Constant)})


def experiment_calls(tree):
    """The ids of the calls in the lambdas of an ``EXPERIMENTS = {...}`` dict."""
    return {id(c) for n in ast.walk(tree) if isinstance(n, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "EXPERIMENTS" for t in n.targets)
            for c in ast.walk(n.value) if isinstance(c, ast.Call)}


def call_sites():
    """Call name -> [(positional argument ASTs, {keyword: value AST}, has * or **)]
    of every call under ``AUDITED``.  A call to a class also counts as a call
    to each class it derives from there.  An experiment call's ``**kw`` is
    read as the keys of ``experiment_keys``, each set to a value that is not
    a literal."""
    calls, bases, keys = {}, {}, experiment_keys()
    for d in AUDITED:
        for path in (ROOT / d).rglob("*.py"):
            tree = ast.parse(path.read_text())
            owner = {}  # a call of ``cls`` in a class body calls that class
            for c in ast.walk(tree):
                if isinstance(c, ast.ClassDef):
                    owner.update((id(n), c.name) for n in ast.walk(c))
                    bases[c.name] = [ast.unparse(b).split(".")[-1] for b in c.bases]
            experiments = experiment_calls(tree)
            for n in ast.walk(tree):
                if isinstance(n, ast.Call):
                    name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                    if name == "cls":
                        name = owner.get(id(n))
                    keywords = {k.arg: k.value for k in n.keywords}
                    if id(n) in experiments and None in keywords:
                        del keywords[None]
                        keywords.update((k, ast.Name("kw")) for k in keys)
                    star = any(isinstance(a, ast.Starred) for a in n.args) or None in keywords
                    calls.setdefault(name, []).append((n.args, keywords, star))

    def ancestors(name):
        return [a for b in bases.get(name, []) if b in bases for a in [b] + ancestors(b)]

    for name in list(bases):
        for base in ancestors(name):
            calls.setdefault(base, []).extend(calls.get(name, []))
    return calls


def held_defaults(params, defaults, sites):
    """Each defaulted parameter that every call in sites leaves at its default
    or sets to that same literal; a call with * or ** sets every parameter."""
    for p, default in defaults.items():
        want = literal(default)

        def same(args, keywords, star):
            i = params.index(p)
            arg = keywords.get(p, args[i] if i < len(args) else None)
            if star or arg is None:
                return not star
            got = literal(arg)
            return want[0] and got == want and type(got[1]) is type(want[1])  # 1 is not 1.0

        if all(same(*site) for site in sites):
            yield p


def held_parameters():
    """``file:line qualname(parameter) (default)`` of each defaulted parameter
    in ``src/mhd2d`` that no call under ``AUDITED`` sets to another value."""
    calls, stored = call_sites(), attribute_names(AUDITED, ast.Store)
    for path in sorted((SRC / "mhd2d").glob("*.py")):
        sigs = sorted(signatures(ast.parse(path.read_text()), stored), key=lambda sig: sig[0])
        for line, qualname, name, params, defaults in sigs:
            for p in held_defaults(params, defaults, calls.get(name, [])):
                yield f"{path.relative_to(ROOT)}:{line} {qualname}({p}) (default)"


def unread_fields():
    """``file:line Class.field (field)`` of each dataclass or ``NamedTuple``
    field in ``src/mhd2d`` that no ``.py`` file under ``src/``, ``tests/``,
    ``scripts/`` or ``perfbench/`` reads as ``.name``."""
    reads = attribute_names(("src", "tests", "scripts", "perfbench"), ast.Load)
    for path in sorted((SRC / "mhd2d").glob("*.py")):
        for line, name in fields(ast.parse(path.read_text())):
            if name.split(".")[1] not in reads:
                yield f"{path.relative_to(ROOT)}:{line} {name} (field)"


def attribute_names(dirs, ctx):
    """Every attribute name read (ctx ``ast.Load``) or assigned (``ast.Store``)
    as ``.name`` in the ``.py`` files under dirs."""
    names = set()
    for d in dirs:
        # this script's own AST walks read ``.id``, ``.attr`` and the like
        for path in set((ROOT / d).rglob("*.py")) - {Path(__file__).resolve()}:
            names.update(n.attr for n in ast.walk(ast.parse(path.read_text()))
                         if isinstance(n, ast.Attribute) and isinstance(n.ctx, ctx))
    return names


if __name__ == "__main__":
    seen, pkg = set(), str(SRC / "mhd2d")
    sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code.co_filename.startswith(pkg)
                   and seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno)))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            entry_points(Path(tmp))
        finally:
            sys.setprofile(None)
    for path in sorted((SRC / "mhd2d").glob("*.py")):
        for line, name in defs(ast.parse(path.read_text())):
            if (str(path), line) not in seen:
                print(f"{path.relative_to(ROOT)}:{line} {name}")
    for line in unread_fields():
        print(line)
    for line in held_parameters():
        print(line)
