"""The three benchmark workloads: seeded inputs, timed body, correctness gate.

Each workload is a class with

- ``__init__(seed)``: generate the inputs (this is part of set-up time);
- ``describe()``: the generated inputs as JSON-able data, saved with results;
- ``body(workdir, steps, probe)``: the timed work; calls ``probe`` (the
  host-speed probe, which returns its own duration) right before each step
  and appends ``(step seconds, probe seconds)`` to ``steps``; returns the
  outputs the gate needs;
- ``check(out, reference)``: a list of failed checks (empty when correct).

Only public functions and classes of the package are called.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import time

import numpy as np

from mhd2d import cli, dynamics, estimates, geometry, lifting, scenarios, spectral, verify
from mhd2d.geometry import Grid, VectorField

DT = 2e-3
# Relative tolerance against the recorded reference.  Every workload reaches
# the same discrete solution up to its solver tolerances (outer 1e-9, Picard
# 1e-10 per step, direct solves elsewhere); over 375 steps that adds up to at
# most 4e-7.  A change of the discrete scheme moves these numbers by
# O(dt) ~ 1e-3.
REF_RTOL = 1e-5


def _draw(rng, nominal, band=0.05):
    """nominal scaled by a factor drawn uniformly from [1-band, 1+band]."""
    return float(nominal * rng.uniform(1.0 - band, 1.0 + band))


def _close(got, want, rtol=REF_RTOL, atol=1e-14):
    return abs(got - want) <= rtol * abs(want) + atol


@contextlib.contextmanager
def _step_clock(steps, probe):
    """Time coupled steps by the interval between successive entries.

    The hook at the entry of ``Stepper.coupled_step`` runs the speed probe
    and takes a timestamp; it is the only hook of an untraced run.  An
    interval covers one coupled step and the ledger row recorded after it;
    the next step's probe time is taken out of it.
    """
    marks = []
    orig = dynamics.Stepper.coupled_step

    def entry(stepper, state):
        k = probe()
        marks.append((time.perf_counter(), k))
        return orig(stepper, state)

    dynamics.Stepper.coupled_step = entry
    try:
        yield
    finally:
        dynamics.Stepper.coupled_step = orig
        steps.extend((t1 - t0 - k1, k0) for (t0, k0), (t1, k1) in zip(marks, marks[1:]))


def _match(name, got, reference, failures):
    want = reference.get(name)
    if want is None:
        failures.append(f"no reference value for {name}")
    elif not _close(got, want):
        failures.append(f"{name} = {got!r}, reference {want!r}")


class Osc32:
    """`mhd2d run` through cli.main on a generated calib-osc style config."""

    name = "osc-32"
    # 375 coupled steps of calib-osc: the first 18 take 4 outer iterations,
    # the next 38 take 3 and the rest 2, so the median step falls inside the
    # 2-iteration steps and p90 in the middle of the 3-iteration ones, away
    # from the edges between these modes
    t_final = 0.75

    def __init__(self, seed):
        self.seed = seed
        if seed == 0:  # exactly the calib-osc scenario
            amp, freq, u_amp, b_amp = 0.15, 2.0, 0.5, 0.25
        else:
            rng = np.random.default_rng(seed)
            amp, freq = _draw(rng, 0.15), _draw(rng, 2.0)
            u_amp, b_amp = _draw(rng, 0.5), _draw(rng, 0.25)
        self.mode = lifting.TraceMode(
            "stream", amplitude=amp, kx=1, ky=1, envelope="cos", envelope_param=freq)
        self.u_amp, self.b_amp = u_amp, b_amp
        self.config_text = (
            "[grid]\nnx = 32\nny = 32\n\n"
            f"[time]\ndt = {DT!r}\nT = {self.t_final!r}\n\n"
            f"[boundary]\nmodes = stream amp={amp!r} kx=1 ky=1 env=cos p={freq!r}\n\n"
            f"[initial]\nu = bump amp={u_amp!r} kx=1 ky=1\n"
            f"b = matched; bump amp={b_amp!r} kx=1 ky=2\n\n"
            "[outputs]\nledger = ledger.csv\n"
        )

    def describe(self):
        return {"config_text": self.config_text, "modes": [repr(self.mode)]}

    def body(self, workdir, steps, probe):
        cfg_path = os.path.join(workdir, "osc.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(self.config_text)
        outdir = os.path.join(workdir, "out")
        with _step_clock(steps, probe):
            code = cli.main(["run", "--config", cfg_path, "--output-dir", outdir])
        return {"exit_code": code, "outdir": outdir}

    def check(self, out, reference):
        failures = []
        if out["exit_code"] != 0:
            return [f"cli.main exit code {out['exit_code']}"]
        out["bytes_written"] = sum(e.stat().st_size for e in os.scandir(out["outdir"]))
        grid = Grid(32, 32)
        trace = lifting.synthesize_trace(grid, [0.0], [self.mode])
        u0 = scenarios.stream_bump(grid, self.u_amp)
        b0 = lifting.stream_mode_field(grid, self.mode, 0.0) + scenarios.stream_bump(
            grid, self.b_amp, 1, 2)
        if not dynamics.compatibility_check(u0, b0, trace).passed:
            failures.append("compatibility check failed")
        with open(os.path.join(out["outdir"], "ledger.csv")) as fh:
            rows = list(csv.DictReader(fh))
        cols = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
        if len(rows) != 376:
            failures.append(f"ledger has {len(rows)} rows, expected 376")
        if not all(np.all(np.isfinite(v)) for v in cols.values()):
            failures.append("non-finite ledger entry")
        if np.max(cols["div_u_Linf"]) > 1e-9:
            failures.append(f"max div_u_Linf {np.max(cols['div_u_Linf']):.3e} > 1e-9")
        if np.max(cols["div_b_Linf"]) > 1e-10:
            failures.append(f"max div_b_Linf {np.max(cols['div_b_Linf']):.3e} > 1e-10")
        out["final_energy"] = float(cols["u_L2_sq"][-1] + cols["b_L2_sq"][-1])
        out["dissipation"] = float(np.trapezoid(
            cols["grad_u_L2_sq"] + cols["grad_btilde_L2_sq"], cols["t"]))
        if self.seed == 0:
            for key in ("final_energy", "dissipation"):
                _match(key, out[key], reference, failures)
        return failures

    def reference_values(self, out):
        return {"final_energy": out["final_energy"], "dissipation": out["dissipation"]}


class Tail64:
    """verify.tail_compactness at 64^2: coupled stepper, forcing, Lanczos bases."""

    name = "tail-64"
    # 180 coupled steps: the first 35 take 3 outer iterations, the next 74 take
    # 2 with falling Picard counts, the rest are cheapest.  p90 then falls in
    # the middle of the first group and the median inside the second.
    t_final = 0.36

    def __init__(self, seed):
        self.seed = seed  # the manufactured solution fixes the inputs

    def describe(self):
        return {"experiment": "verify.tail_compactness", "nx": 64, "dt": DT,
                "t_final": self.t_final, "n_list": [4, 8, 16, 32],
                "seed_effect": "none: the manufactured steady solution fixes every input"}

    def body(self, workdir, steps, probe):
        with _step_clock(steps, probe):
            rep = verify.tail_compactness(nx=64, dt=DT, n_list=(4, 8, 16, 32), t_final=self.t_final)
        return {"report": rep, "tails": list(rep.extras["tails"])}

    def check(self, out, reference):
        failures = [f"assertion {a.assertion_id} failed: {a.measured!r} vs {a.tolerance!r}"
                    for a in out["report"].assertions if not a.passed]
        want = reference.get("tails")
        if want is None or len(want) != len(out["tails"]):
            failures.append("no reference tails")
        else:
            failures += [f"tail {i} = {g!r}, reference {w!r}"
                         for i, (g, w) in enumerate(zip(out["tails"], want)) if not _close(g, w)]
        return failures

    def reference_values(self, out):
        return {"tails": out["tails"]}


class AbsorbSeries:
    """Absorbing-set trace pre-processing at 32^2 from public calls only."""

    name = "absorb-series"
    horizon = 6.0  # 3001 trace instants
    # nominal constants; the parabolic ones sit below the sharp constants so
    # the maximal margin is attained after t=0 and fingerprints the heat solves
    c_tilde, c0, c_omega, diam_b = 1.25, 1.0, 1.0, 1.0
    c_par_weak, c_par_strong = 1.0, 0.5

    def __init__(self, seed):
        self.seed = seed
        if seed == 0:  # exactly the absorbing "reference" mode
            amp, freq = 0.02, 1.0
        else:
            rng = np.random.default_rng(seed)
            amp, freq = _draw(rng, 0.02), _draw(rng, 1.0)
        self.grid = Grid(32, 32)
        self.mode = lifting.TraceMode(
            "stream", amplitude=amp, kx=1, ky=1, envelope="cos", envelope_param=freq)
        times = np.arange(int(round(self.horizon / DT)) + 1) * DT
        self.trace = lifting.synthesize_trace(self.grid, times, [self.mode])
        self.ramp = scenarios.make_scenario("ramp", nx=32, dt=DT, t_final=1.0).trace

    def describe(self):
        return {"modes": [repr(self.mode)], "horizon": self.horizon, "dt": DT,
                "ramp": "scenarios.make_scenario('ramp', nx=32, dt=2e-3, t_final=1.0)",
                "constants": {"c_tilde": self.c_tilde, "c0": self.c0, "c_omega": self.c_omega,
                              "diam_b": self.diam_b, "parabolic_c_weak": self.c_par_weak,
                              "parabolic_c_strong": self.c_par_strong}}

    def body(self, workdir, steps, probe):
        trace = self.trace
        spec_h = lifting.FractionalNormSpec(0.5)
        spec_dt = lifting.FractionalNormSpec(-0.5)
        n = len(trace.times)
        h12_sq, dth_sq, he_l2 = np.empty(n), np.empty(n), np.empty(n)
        for i, t in enumerate(trace.times):
            k = probe()
            t0 = time.perf_counter()
            h12_sq[i] = lifting.hs_norm(trace, t, spec_h) ** 2
            dth_sq[i] = lifting.hs_norm_dt(trace, t, spec_dt) ** 2
            he_l2[i] = geometry.l2_norm_sq(lifting.harmonic_extend(trace, t))
            steps.append((time.perf_counter() - t0, k))
        times = trace.times
        stokes = spectral.build_stokes_basis(self.grid, 1, with_pressure=False)
        lap = spectral.build_laplacian_basis(self.grid, 1)
        c_p = spectral.poincare_constants(stokes, lap)[2]
        w_total = (estimates.window_sup(times, h12_sq) + estimates.window_sup(times, dth_sq)
                   + estimates.window_sup(times, h12_sq**2))
        radii = estimates.absorbing_radii(
            times, h12_sq, dth_sq, he_l2, diam_b=self.diam_b, c_p=c_p,
            c_tilde=self.c_tilde, c0=self.c0, c_omega=self.c_omega)
        lift = lifting.lifting_estimate_check(trace, 0.5)
        prun = lifting.parabolic_lift(VectorField.zeros(self.grid), self.ramp, DT, 0.5)
        par = lifting.parabolic_estimate_check(prun, self.c_par_weak, self.c_par_strong)
        return {
            "series": (h12_sq, dth_sq, he_l2),
            "c_p": c_p, "w_total": w_total, "rho0": radii.rho0, "rho1": radii.rho1,
            "c_h1": lift.c_h1, "c_dt": lift.c_dt,
            "weak_margin": par.weak_margin, "strong_margin": par.strong_margin,
        }

    scalars = ("c_p", "w_total", "rho0", "rho1", "c_h1", "c_dt", "weak_margin", "strong_margin")
    # the grid fixes c_p and the fixed ramp trace the parabolic margins; the
    # other scalars depend on the drawn mode
    seed_free = ("c_p", "weak_margin", "strong_margin")

    def check(self, out, reference):
        failures = []
        bad = [k for k in self.scalars if not math.isfinite(out[k])]
        if bad:
            return [f"non-finite {bad}"]
        # one mode times an envelope: every per-instant value is the t=0 value
        # scaled by the envelope (or its finite difference) squared
        h12_sq, dth_sq, he_l2 = out["series"]
        t = self.trace.times
        env = self.mode.envelope_at(t)
        denv = np.empty_like(env)  # the differences BoundaryTrace.dt_values takes
        denv[1:-1] = (env[2:] - env[:-2]) / (t[2:] - t[:-2])
        denv[0] = (env[1] - env[0]) / (t[1] - t[0])
        denv[-1] = (env[-1] - env[-2]) / (t[-1] - t[-2])
        k = int(np.argmax(np.abs(denv)))
        for label, got, scale in (("h12_sq", h12_sq, env**2 * h12_sq[0] / env[0] ** 2),
                                  ("he_l2_sq", he_l2, env**2 * he_l2[0] / env[0] ** 2),
                                  ("dth_sq", dth_sq, denv**2 * dth_sq[k] / denv[k] ** 2)):
            err = np.max(np.abs(got - scale)) / np.max(np.abs(scale))
            if not err <= 1e-9:
                failures.append(f"per-instant {label} off the envelope law by {err:.3e}")
        if not _close(out["rho1"], (out["c_p"] + 1.0 + self.c_omega) * out["rho0"], 1e-12):
            failures.append("rho1 != (c_p + 1 + c_omega) * rho0")
        for key in self.scalars if self.seed == 0 else self.seed_free:
            _match(key, out[key], reference, failures)
        return failures

    def reference_values(self, out):
        return {k: out[k] for k in self.scalars}


WORKLOADS = {cls.name: cls for cls in (Osc32, Tail64, AbsorbSeries)}
