"""Command-line driver: config ingestion, runs, experiments, calibration, bases.

Configuration is a plain INI-style text file with fixed sections; unknown
sections or keys are rejected and every violation is reported at once.
Environment variables with the ``MHD_`` prefix provide defaults with the
lowest precedence (config file and flags override them).

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 failed experiment assertion.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    SolverConfig,
    check_restart_header,
    read_checkpoint,
    run,
    write_checkpoint,
)
from .errors import CompatibilityError, ConfigError, ExperimentFailure, SolverFailure
from .estimates import CalibrationStore
from .geometry import VectorField, l2_norm_sq
from .ioutil import atomic_write_text
from .lifting import TraceMode, matched_field, read_trace_csv, synthesize_trace
from .scenarios import stream_bump, trace_times
from .spectral import cached_basis
from .verify import ABSORBING_VARIANTS, EXPERIMENTS, REPORT_CSV_HEADER, STRONG_MODES, TAIL_NX
from .verify import calibrate_constants, store_keys

log = logging.getLogger("mhd2d")

_SCHEMA = {
    "grid": {"nx", "ny"},
    "time": {"dt", "T"},
    "physics": {"Re", "Rm", "S"},
    "galerkin": {"n"},
    "boundary": {"modes", "csv"},
    "initial": {"u", "b", "checkpoint"},
    "tolerances": {"picard", "outer", "compatibility"},
    "outputs": {"ledger", "checkpoint_every", "calibration", "basis_cache"},
    "experiment": {"id", "variant", "nx_list", "dt_list", "n_list", "diam_factor", "seed", "strong"},
}
_REQUIRED = {("grid", "nx"), ("grid", "ny"), ("time", "dt"), ("time", "T")}


@dataclass
class RunConfig:
    """Parsed, validated configuration for one CLI invocation."""

    solver: SolverConfig
    boundary_modes: list
    boundary_csv: str | None
    initial_u: str
    initial_b: str
    checkpoint_in: str | None
    ledger_path: str
    calibration_path: str
    basis_cache: str | None
    experiment_ids: list
    experiment_params: dict


def _parse_mode(text: str, errors) -> TraceMode | None:
    toks = text.split()
    if not toks:
        return None
    kind = toks[0]
    if kind not in ("stream", "fourier", "constant"):
        errors.append(f"boundary.modes: unknown mode kind {kind!r}")
        return None
    kw = {}
    for tok in toks[1:]:
        if "=" not in tok:
            errors.append(f"boundary.modes: malformed token {tok!r}")
            return None
        k, v = tok.split("=", 1)
        kw[k] = v
    try:
        mode = TraceMode(
            kind=kind,
            amplitude=float(kw.pop("amp", 1.0)),
            component=int(kw.pop("comp", 1)),
            wavenumber=int(kw.pop("k", 1)),
            kx=int(kw.pop("kx", 1)),
            ky=int(kw.pop("ky", 1)),
            envelope=kw.pop("env", "constant"),
            envelope_param=float(kw.pop("p", 1.0)),
        )
    except ValueError as exc:
        errors.append(f"boundary.modes: {exc}")
        return None
    if kw:
        errors.append(f"boundary.modes: unknown keys {sorted(kw)}")
        return None
    if mode.component not in (1, 2):
        errors.append(f"boundary.modes: comp must be 1 or 2 in {text!r}")
        return None
    return mode


def parse_config(path) -> RunConfig:
    """Read and validate a config file, reporting every violation at once."""
    if not os.path.exists(path):
        raise ConfigError([f"config file {path!r} does not exist"])
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError([f"config parse error: {exc}"])
    errors = []
    for sec in cp.sections():
        if sec not in _SCHEMA:
            errors.append(f"unknown section [{sec}]")
            continue
        for key in cp[sec]:
            if key not in {k.lower() for k in _SCHEMA[sec]}:
                errors.append(f"unknown key {sec}.{key}")
    for sec, key in _REQUIRED:
        if not cp.has_option(sec, key):
            errors.append(f"missing required key {sec}.{key}")

    # the SolverConfig settings the file gives; the others keep its defaults
    settings = {}

    def get(sec, key, conv, name):
        """Parse the value into ``settings[name]``; its range is
        ``SolverConfig.validate``'s to check."""
        if cp.has_option(sec, key):
            raw = cp.get(sec, key)
            try:
                settings[name] = conv(raw)
            except ValueError:
                errors.append(f"{sec}.{key}: cannot parse {raw!r}")

    get("grid", "nx", int, "nx")
    get("grid", "ny", int, "ny")
    get("time", "dt", float, "dt")
    get("time", "T", float, "t_final")
    get("physics", "Re", float, "re")
    get("physics", "Rm", float, "rm")
    get("physics", "S", float, "s")
    n_raw = cp.get("galerkin", "n", fallback="full").strip()
    if n_raw != "full":
        try:
            settings["n_modes"] = int(n_raw)
        except ValueError:
            errors.append(f"galerkin.n: expected integer or 'full', got {n_raw!r}")

    modes = []
    if cp.has_option("boundary", "modes"):
        for part in cp.get("boundary", "modes").split(";"):
            part = part.strip()
            if part:
                m = _parse_mode(part, errors)
                if m is not None:
                    modes.append(m)
    csv_path = cp.get("boundary", "csv", fallback=None)
    if csv_path and modes:
        errors.append("boundary: give either modes or csv, not both")

    get("tolerances", "picard", float, "picard_tol")
    get("tolerances", "outer", float, "outer_tol")
    get("tolerances", "compatibility", float, "compat_tol_factor")
    get("outputs", "checkpoint_every", int, "checkpoint_every")
    solver = SolverConfig(**settings)
    exp_ids = []
    exp_params = {}
    if cp.has_section("experiment"):
        exp_ids = [e.strip() for e in cp.get("experiment", "id", fallback="").split(",") if e.strip()]
        for e in exp_ids:
            if e not in EXPERIMENTS:
                errors.append(f"experiment.id: unknown experiment {e!r} (known: {sorted(EXPERIMENTS)})")
        for key in ("variant", "nx_list", "dt_list", "n_list", "diam_factor", "seed", "strong"):
            if cp.has_option("experiment", key):
                exp_params[key] = cp.get("experiment", key)

    rc = RunConfig(
        solver=solver,
        boundary_modes=modes,
        boundary_csv=csv_path,
        initial_u=cp.get("initial", "u", fallback="zero"),
        initial_b=cp.get("initial", "b", fallback="zero"),
        checkpoint_in=cp.get("initial", "checkpoint", fallback=None),
        ledger_path=cp.get("outputs", "ledger", fallback="ledger.csv"),
        calibration_path=cp.get("outputs", "calibration", fallback="calibration.txt"),
        basis_cache=cp.get("outputs", "basis_cache", fallback=None),
        experiment_ids=exp_ids,
        experiment_params=exp_params,
    )
    try:
        solver.validate()
    except ConfigError as exc:
        errors.extend(exc.violations)
    if errors:
        raise ConfigError(errors)
    return rc


def _build_initial(spec: str, grid, modes, errors):
    f = VectorField.zeros(grid)
    for term in spec.split(";"):
        term = term.strip()
        if not term or term == "zero":
            continue
        toks = term.split()
        kw = dict(tok.split("=", 1) for tok in toks[1:] if "=" in tok)
        with np.errstate(over="ignore", invalid="ignore"):  # a finite amp may still overflow
            if toks[0] == "bump":
                try:
                    amp, kx, ky = float(kw.get("amp", 1.0)), int(kw.get("kx", 1)), int(kw.get("ky", 1))
                    _checked("amp", amp, math.isfinite, "finite")
                except ValueError as exc:
                    errors.append(f"initial: term {term!r}: {exc}")
                    continue
                new = f + stream_bump(grid, amp, kx, ky)
            elif toks[0] == "matched":
                new = matched_field(grid, modes, f)
            else:
                errors.append(f"initial: unknown term {toks[0]!r}")
                continue
            # a non-finite value, or one whose square overflows, gives a
            # non-finite norm, which the compatibility check would square again
            finite = math.isfinite(l2_norm_sq(new))
        if finite:
            f = new
        else:
            errors.append(f"initial: term {term!r}: its field or its L2 norm is not finite")
    return f


def _make_dirs(path, what):
    """Create the directory ``path`` and its parents; a path that cannot be
    created (a regular file in the way, say) is a configuration error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"{what} {path!r}: cannot create the directory ({exc.strerror})"])


def _cmd_run(rc: RunConfig, outdir):
    grid = rc.solver.grid()
    rc.solver.checkpoint_dir = outdir
    ledger_path = os.path.join(outdir, rc.ledger_path)
    _make_dirs(os.path.dirname(ledger_path), "outputs.ledger")  # before the first step
    if rc.boundary_csv:
        trace = read_trace_csv(grid, rc.boundary_csv)
    else:
        try:
            trace = synthesize_trace(grid, trace_times(rc.solver), rc.boundary_modes)
        except ValueError as exc:  # an unknown envelope or a non-finite sample
            raise ConfigError([f"boundary.modes: {exc}"])
    basis = None
    if rc.solver.n_modes is not None:
        cache = rc.basis_cache or os.path.join(outdir, "basis_cache")
        _make_dirs(cache, "outputs.basis_cache")
        basis = cached_basis(grid, rc.solver.n_modes, cache)
    errors = []
    t0, p0, restart = 0.0, None, None
    if rc.checkpoint_in:
        ck = read_checkpoint(rc.checkpoint_in)
        check_restart_header(ck, rc.solver, trace)
        u0, b0, p0 = ck["state"].u, ck["state"].b, ck["state"].p
        t0, restart = ck["t"], ck["restart"]
    else:
        u0 = _build_initial(rc.initial_u, grid, rc.boundary_modes, errors)
        b0 = _build_initial(rc.initial_b, grid, rc.boundary_modes, errors)
        if errors:
            raise ConfigError(errors)
    if rc.boundary_csv:
        _check_trace_covers(trace, t0, rc.solver)
    _check_trace_squares(trace)
    traj, ledger = run(rc.solver, u0, b0, trace, basis=basis, t0=t0, p0=p0, restart=restart)
    ledger.write_csv(ledger_path)
    write_checkpoint(
        os.path.join(outdir, "final.mhdckpt"), traj.final_state, rc.solver, trace, traj.restart
    )
    log.info("run finished at t=%.6g; ledger rows: %d", traj.final_state.t, len(ledger))
    return 0


def _check_trace_covers(trace, t0, cfg):
    """Every instant the run records must be a sampled instant of a CSV trace
    (a synthesized trace samples 0, dt, ..., T by construction)."""
    for k in range(int(round((cfg.t_final - t0) / cfg.dt)) + 1):
        try:
            trace.index_of(t0 + k * cfg.dt)
        except ValueError as exc:
            raise ConfigError([f"boundary: {exc}; the run needs t = {t0!r} + k*dt up to T"])


def _check_trace_squares(trace):
    """Every instant's squared samples must sum to a finite number, or every
    trace norm and compatibility check would read inf."""
    with np.errstate(over="ignore"):
        sums = np.sum(trace.samples**2, axis=(1, 2))
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        raise ConfigError([f"boundary: the squared samples at t = {float(trace.times[bad[0]])!r} "
                           "do not sum to a finite number"])


def _checked(key, value, ok, need):
    if not ok(value):
        raise ValueError(f"{key} = {value!r} must be {need}")
    return value


def _experiment_kwargs(rc: RunConfig, name):
    """Keyword arguments of one experiment; a value out of range raises ValueError."""
    kw = {}
    p = rc.experiment_params

    def values(key, conv, ok, need):
        return tuple(_checked(key, conv(v), ok, need) for v in p[key].split(","))

    positive = (lambda v: 0 < v < math.inf, "positive and finite")
    if name in ("mms",) and "nx_list" in p:
        kw["nx_list"] = values("nx_list", int, lambda v: v >= 4, ">= 4")
    if name in ("mms", "picard") and "dt_list" in p:
        kw["dt_list"] = values("dt_list", float, *positive)
    if name == "tail" and "n_list" in p:
        cap = (TAIL_NX - 1) ** 2 - 1  # the Stokes basis holds n + 1 modes
        kw["n_list"] = values("n_list", int, lambda v: 1 <= v <= cap, f"in 1..{cap}")
    if name == "absorbing":
        if "variant" in p:
            kw["variant"] = _checked("variant", p["variant"], ABSORBING_VARIANTS.__contains__,
                                     f"one of {ABSORBING_VARIANTS}")
        if "diam_factor" in p:
            kw["diam_factor"] = _checked("diam_factor", float(p["diam_factor"]), *positive)
        if "strong" in p:
            kw["strong"] = _checked("strong", p["strong"], STRONG_MODES.__contains__,
                                    f"one of {STRONG_MODES}")
    if name in ("basis-stability", "brezis-gallouet") and "seed" in p:
        kw["seed"] = _checked("seed", int(p["seed"]), lambda v: v >= 0, ">= 0")
    return kw


def _cmd_experiment(rc: RunConfig, outdir):
    if not rc.experiment_ids:
        raise ConfigError(["experiment.id is required for the experiment command"])
    try:
        kwargs = {name: _experiment_kwargs(rc, name) for name in rc.experiment_ids}
    except ValueError as exc:  # a value that does not parse or is out of range
        raise ConfigError([f"experiment: {exc}"])
    needed = {k for e in rc.experiment_ids for k in store_keys(e, kwargs[e].get("strong", "off"))}
    store = None
    if needed:
        path = os.path.join(outdir, rc.calibration_path)  # an absolute path stays as it is
        store = CalibrationStore.read(path)
        missing = sorted(needed - store.values.keys())
        if missing:
            raise ConfigError([f"calibration store {path}: no constant {k!r}; run the calibrate "
                               "command first" for k in missing])
    results = [(name, EXPERIMENTS[name](store, **kwargs[name])) for name in rc.experiment_ids]

    summary_path = os.path.join(outdir, "summary.csv")
    existing = ""
    if os.path.exists(summary_path):
        with open(summary_path) as fh:
            existing = fh.read()
    if not existing:
        existing = REPORT_CSV_HEADER
    all_ok = True
    for name, rep in results:
        rep.write(os.path.join(outdir, f"report_{name}.csv"))
        existing += rep.csv_rows()
        all_ok &= rep.passed
        log.info("experiment %s: %s (%.1f s)", name, "pass" if rep.passed else "FAIL", rep.runtime_s)
        for a in rep.assertions:
            log.info("  %-28s measured=%.6g tol=%.6g %s", a.assertion_id, a.measured,
                     a.tolerance, "ok" if a.passed else "FAIL")
    atomic_write_text(summary_path, existing)
    if not all_ok:
        failed = [n for n, r in results if not r.passed]
        raise ExperimentFailure(f"experiments failed: {failed}")
    return 0


def _cmd_calibrate(rc: RunConfig, outdir):
    path = os.path.join(outdir, rc.calibration_path)
    _make_dirs(os.path.dirname(path), "outputs.calibration")  # before calibrating
    store = calibrate_constants(nx=rc.solver.nx, dt=rc.solver.dt)
    store.write(path)
    log.info("calibration written to %s (%d constants)", path, len(store.values))
    return 0


def _cmd_basis(rc: RunConfig, outdir):
    cache = rc.basis_cache or os.path.join(outdir, "basis_cache")
    grid = rc.solver.grid()
    n = rc.solver.n_modes or 16
    nz = (grid.nx - 1) * (grid.ny - 1)
    if n > nz:
        raise ConfigError([f"galerkin.n: the default of {n} Stokes modes exceeds the {nz} "
                           "this grid holds; set galerkin.n"])
    _make_dirs(cache, "outputs.basis_cache")
    cached_basis(grid, n, cache)
    log.info("cached stokes(%d) basis in %s", n, cache)
    return 0


def main(argv=None) -> int:
    env_out = os.environ.get("MHD_OUTPUT_DIR", ".")
    env_verbose = os.environ.get("MHD_VERBOSE", "") not in ("", "0", "false")
    parser = argparse.ArgumentParser(prog="mhd2d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "experiment", "calibrate", "basis"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the INI config file")
        sp.add_argument("--output-dir", default=env_out)
        sp.add_argument("--verbose", action="store_true", default=env_verbose)
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        rc = parse_config(args.config)
        _make_dirs(args.output_dir, "--output-dir")
        if args.command == "run":
            return _cmd_run(rc, args.output_dir)
        if args.command == "experiment":
            return _cmd_experiment(rc, args.output_dir)
        if args.command == "calibrate":
            return _cmd_calibrate(rc, args.output_dir)
        return _cmd_basis(rc, args.output_dir)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except (SolverFailure, CompatibilityError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ExperimentFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
