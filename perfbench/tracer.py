"""Outside-in span tracing of the mhd2d package.

Spans are recorded by wrappers that this module installs on the package's
public classes and functions; nothing inside ``src/`` knows about them.
Class methods are wrapped once on the class.  Module functions are imported
by name across the package, so each one is re-bound in every ``mhd2d``
module that holds it.  ``Tracer.uninstall`` restores every original.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
the top).  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import sys
import time

from mhd2d import cli, dynamics, estimates, geometry, lifting, operators, spectral, verify

# (owner class, method, span name)
METHOD_SPANS = [
    (operators.TransportOperator, "__init__", "operators.transport_build"),
    (operators.TransportOperator, "solve", "operators.transport_solve"),
    (operators.StokesSaddle, "__init__", "operators.saddle_build"),
    (operators.StokesSaddle, "solve", "operators.saddle_solve"),
    (operators.NeumannPoisson, "__init__", "operators.poisson_build"),
    (lifting.BoundaryTrace, "vector_bc", "lifting.vector_bc"),
    (lifting.BoundaryTrace, "index_of", "lifting.index_of"),
    (dynamics.Stepper, "coupled_step", "dynamics.coupled_step"),
    (dynamics.Stepper, "b_step", "dynamics.b_step"),
    (dynamics.Stepper, "u_step", "dynamics.u_step"),
    (estimates.EnergyLedger, "write_csv", "cli.write"),
]

# (defining module, function, span name); re-bound wherever imported
FUNCTION_SPANS = [
    (geometry, "convect", "geometry.convect"),
    (operators, "project_divfree", "operators.project"),
    (spectral, "build_stokes_basis", "spectral.basis_build"),
    (spectral, "build_laplacian_basis", "spectral.basis_build"),
    (spectral, "project", "spectral.project"),
    (lifting, "harmonic_extend", "lifting.harmonic_extend"),
    (lifting, "hs_norm", "lifting.hs_norm"),
    (lifting, "hs_norm_dt", "lifting.hs_norm"),
    (lifting, "parabolic_lift", "lifting.parabolic_lift"),
    (lifting, "lifting_estimate_check", "lifting.lifting_check"),
    (lifting, "parabolic_estimate_check", "estimates.parabolic_check"),
    (estimates, "record", "estimates.record"),
    (estimates, "absorbing_radii", "estimates.radii"),
    (estimates, "window_sup", "estimates.radii"),
    (verify, "tail_compactness", "verify.experiment"),
    (cli, "parse_config", "cli.parse"),
    (dynamics, "write_checkpoint", "cli.write"),
]


class Tracer:
    """Installs span wrappers and keeps the spans and step reports."""

    def __init__(self):
        self.spans = []
        self.step_reports = []  # StepReport of every coupled step
        self.b_step_reports = []  # StepReport of every magnetic sub-step
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, on_result=None, when=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        on_result = {
            "dynamics.coupled_step": lambda r: self.step_reports.append(r[1]),
            "dynamics.b_step": lambda r: self.b_step_reports.append(r[1]),
        }
        for cls, meth, name in METHOD_SPANS:
            self._patch(cls, meth, self.wrap(name, getattr(cls, meth), on_result.get(name)))
        # body forcing counts only when a forcing callable is configured
        for meth, attr in (("u_at", "u"), ("b_at", "b")):
            orig = getattr(dynamics.Forcing, meth)
            when = lambda args, attr=attr: getattr(args[0], attr) is not None
            self._patch(dynamics.Forcing, meth, self.wrap("dynamics.forcing_eval", orig, when=when))
        modules = [m for k, m in sys.modules.items() if k == "mhd2d" or k.startswith("mhd2d.")]
        for home, fname, name in FUNCTION_SPANS:
            orig = getattr(home, fname)
            traced = self.wrap(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, traced)
        return self

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


def span_stats(spans):
    """Per name: call count, inclusive time and self time (seconds).

    Inclusive time sums only the outermost span of each name, so a function
    that calls itself (or a same-named helper) is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, parent) in enumerate(spans):
        st = stats.setdefault(name, {"n": 0, "s": 0.0, "self_s": 0.0})
        st["n"] += 1
        st["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st["s"] += end - start
    return stats


def count_within(spans, name, ancestor):
    """Number of spans called ``name`` that run inside a span ``ancestor``."""
    n = 0
    for span in spans:
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        n += p >= 0
    return n


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict):
    """The per-layer metrics of BENCHMARK.json from one traced body.

    ``extra`` supplies what the spans cannot: ``cli.bytes_written`` and
    ``trace.overhead_frac``.
    """
    st = span_stats(tracer.spans)

    def get(name, key):
        return st.get(name, {}).get(key, 0)

    steps = get("dynamics.coupled_step", "n")
    outer = sum(r.outer_iterations for r in tracer.step_reports)
    b_steps = get("dynamics.b_step", "n")
    out = {}
    for name in ("geometry.convect", "operators.transport_build", "operators.transport_solve",
                 "operators.saddle_build", "operators.saddle_solve", "operators.project",
                 "spectral.basis_build", "spectral.project", "lifting.vector_bc",
                 "lifting.index_of", "lifting.hs_norm", "lifting.harmonic_extend",
                 "dynamics.forcing_eval"):
        out[f"{name}_n"] = (get(name, "n"), "count")
        out[f"{name}_s"] = (get(name, "s"), "s")
    out["operators.solves_per_build"] = (
        _ratio(get("operators.transport_solve", "n"), get("operators.transport_build", "n")), "ratio")
    out["operators.poisson_build_n"] = (get("operators.poisson_build", "n"), "count")
    out["lifting.parabolic_lift_s"] = (get("lifting.parabolic_lift", "s"), "s")
    out["lifting.lifting_check_s"] = (get("lifting.lifting_check", "s"), "s")
    out["dynamics.coupled_step_n"] = (steps, "count")
    out["dynamics.coupled_step_self_s"] = (get("dynamics.coupled_step", "self_s"), "s")
    out["dynamics.b_step_n"] = (b_steps, "count")
    out["dynamics.b_step_self_s"] = (get("dynamics.b_step", "self_s"), "s")
    out["dynamics.u_step_self_s"] = (get("dynamics.u_step", "self_s"), "s")
    out["dynamics.outer_iters_per_step"] = (_ratio(outer, steps), "ratio")
    out["dynamics.picard_iters_per_b_step"] = (
        _ratio(sum(r.picard_iterations for r in tracer.b_step_reports), b_steps), "ratio")
    out["dynamics.outer_useful_frac"] = (_ratio(steps, outer), "frac")
    out["dynamics.clean_frac"] = (_ratio(sum(r.cleaned for r in tracer.step_reports), steps), "frac")
    out["dynamics.bc_lookups_per_step"] = (
        _ratio(count_within(tracer.spans, "lifting.vector_bc", "dynamics.coupled_step"), steps),
        "ratio")
    out["estimates.record_n"] = (get("estimates.record", "n"), "count")
    out["estimates.record_self_s"] = (get("estimates.record", "self_s"), "s")
    out["estimates.radii_s"] = (get("estimates.radii", "s"), "s")
    out["estimates.parabolic_check_s"] = (get("estimates.parabolic_check", "s"), "s")
    out["verify.experiment_s"] = (get("verify.experiment", "s"), "s")
    out["verify.experiment_self_s"] = (get("verify.experiment", "self_s"), "s")
    out["cli.parse_s"] = (get("cli.parse", "s"), "s")
    out["cli.write_s"] = (get("cli.write", "s"), "s")
    out["cli.bytes_written"] = (extra["cli.bytes_written"], "bytes")
    out["trace.overhead_frac"] = (extra["trace.overhead_frac"], "frac")
    return out


def first_steps(tracer: Tracer, n=100):
    """Transport builds, outer iterations and cleaning over the first n steps.

    Builds are counted up to the entry of step n+1, so the harmonic-lift
    operators built for the initial ledger row are included.
    """
    starts = [s[1] for s in tracer.spans if s[0] == "dynamics.coupled_step"]
    if len(starts) < n:
        return None
    end = starts[n] if len(starts) > n else float("inf")
    reports = tracer.step_reports[:n]
    return {
        "steps": n,
        "transport_build_n": sum(
            s[0] == "operators.transport_build" and s[1] < end for s in tracer.spans),
        "outer_iters_per_step": sum(r.outer_iterations for r in reports) / n,
        "clean_frac": sum(r.cleaned for r in reports) / n,
    }


def write_spans(spans, path):
    """Write spans as CSV: index,name,start_s,end_s,parent (times from the first span)."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
