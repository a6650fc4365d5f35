import os
import struct
import sys
import weakref
import zlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import b_step_oracle, energy_budget_oracle, random_divfree
from mhd2d import dynamics, operators
from mhd2d.dynamics import (
    Forcing,
    SimState,
    SolverConfig,
    Stepper,
    _interior_rhs,
    check_restart_header,
    compatibility_check,
    read_checkpoint,
    run,
    write_checkpoint,
)
from mhd2d import geometry
from mhd2d.errors import CompatibilityError, ConfigError, StepFailure
from mhd2d.estimates import LEDGER_COLUMNS, stokes_regularity_ratio
from mhd2d.geometry import (
    Grid,
    ScalarField,
    VectorBC,
    VectorField,
    convect_interior,
    divergence,
    face_halves,
    induction_halves,
    inner,
    l2_norm_sq,
    magnetic_halves,
    wall_rows,
)
from mhd2d.lifting import BoundaryTrace, TraceMode, lifting_estimate_check, synthesize_trace
from mhd2d.operators import DirichletHeat, NeumannPoisson, StokesSaddle, TransportPair, dirichlet_heat
from mhd2d.scenarios import make_scenario, stream_bump
from mhd2d.spectral import build_laplacian_basis, build_stokes_basis
from mhd2d.verify import _FactoredStepper, _mms_case, _mms_scenario

DT = 1e-3


def halves(u):
    """What ``Stepper.b_step`` takes as ``u_frozen_halves``."""
    return face_halves(u, wall_rows(u.grid))


def b_inputs(st, u_frozen, b_prev, t_prev, operator, fb=None, b_start=None):
    """``Stepper.b_step``'s keywords for a step of ``st`` from (t_prev,
    b_prev) at u_frozen, as ``coupled_step`` prepares them, started from the
    halves of b_start (None: b_prev) under the boundary data at the new time."""
    bc = st.vector_bc(t_prev + st.cfg.dt)
    start = magnetic_halves(b_prev if b_start is None else b_start, wall_rows(st.grid, bc))
    return dict(rhs=_interior_rhs(b_prev, st.cfg.dt, fb), operator=operator,
                boundary=operator.boundary(bc), start=start, u_frozen_halves=halves(u_frozen))


def u_step_of(st, b_frozen, u_prev, t_prev):
    """``st.u_step`` from (t_prev, u_prev), unforced and advected by u_prev,
    with b_frozen's halves under the boundary data at the new time: (u_new, f)."""
    b_halves = magnetic_halves(b_frozen, wall_rows(st.grid, st.vector_bc(t_prev + st.cfg.dt)))
    a, t = halves(u_prev)
    return st.u_step(b_halves, _interior_rhs(u_prev, st.cfg.dt), u_advect_half=a, u_prev_half=t, fu=None)


def b_step(u_frozen, b_prev, trace, dt, **cfg_kw):
    """One unforced magnetic step of a fresh Stepper from the trace's first
    instant, on its heat operator and started from b_prev: (b_new, StepReport)."""
    cfg = SolverConfig(nx=b_prev.grid.nx, ny=b_prev.grid.ny, dt=dt, t_final=dt, **cfg_kw)
    st, t = Stepper(cfg, trace), trace.times[0]
    h, rep = st.b_step(u_frozen, t, **b_inputs(st, u_frozen, b_prev, t, st.magnetic_operator(u_frozen)))
    return h.t.f, rep


def u_step(b_frozen, u_prev, trace, dt, basis=None, n_modes=None):
    """One unforced velocity step of a fresh Stepper from the trace's first
    instant, advected by u_prev: (u_new, p)."""
    cfg = SolverConfig(nx=u_prev.grid.nx, ny=u_prev.grid.ny, dt=dt, t_final=dt, n_modes=n_modes)
    st = Stepper(cfg, trace, basis=basis)
    u_new, f = u_step_of(st, b_frozen, u_prev, trace.times[0])
    p = ScalarField.zeros(st.grid) if st.saddle is None else st.saddle.pressure(f.x, f.y, u_new)
    return u_new, p


def _zero_trace(grid, T=0.05, dt=DT):
    times = np.arange(0.0, T + 1e-12, dt)
    return synthesize_trace(grid, times, [])


def test_config_validation_collects_violations():
    cfg = SolverConfig(nx=2, ny=32, dt=-1.0, t_final=0.0, outer_mode="bogus")
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    msg = str(exc.value)
    assert "nx" in msg and "dt" in msg and "outer" in msg


@pytest.mark.parametrize(
    "field, value",
    [
        ("rm", 0.0),  # a ZeroDivisionError in magnetic_operator
        ("re", -1.0),
        ("s", np.nan),
        ("rm", np.inf),
        ("picard_tol", np.inf),
        ("t_final", np.nan),  # a ValueError from the step count in run
    ],
)
def test_config_validation_refuses_what_the_config_file_refuses(field, value):
    cfg = replace(SolverConfig(), **{field: value})
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert "must be" in str(exc.value)


def test_compatibility_check_pass_and_fail():
    g = Grid(16, 16)
    tz = _zero_trace(g)
    rep = compatibility_check(VectorField.zeros(g), VectorField.zeros(g), tz)
    assert rep.passed and rep.div_u == 0.0
    u0 = stream_bump(g, 0.7)
    rep = compatibility_check(u0, VectorField.zeros(g), tz)
    assert rep.passed and rep.div_u < 1e-10
    # constant magnetic data against a different constant trace
    c, cp = np.array([0.5, -0.2]), np.array([0.1, 0.3])
    b0 = VectorField(g, np.full(g.shape_xface(), c[0]), np.full(g.shape_yface(), c[1]))
    trc = synthesize_trace(
        g,
        tz.times,
        [TraceMode("constant", amplitude=cp[0], component=1),
         TraceMode("constant", amplitude=cp[1], component=2)],
    )
    rep = compatibility_check(b0, b0, trc)
    assert not rep.passed
    # normal components differ by |dc . n| per wall: residual sqrt(2)*|dc|
    expect = np.sqrt(np.sum((c - cp) ** 2) * 2.0)
    assert abs(rep.b_trace - expect) < 1e-12


def test_b_step_eigen_decay():
    g = Grid(16, 16)
    tz = _zero_trace(g)
    basis = build_laplacian_basis(g, 1)
    mu1 = basis.eigenvalues[0]
    new, rep = b_step(VectorField.zeros(g), basis.mode(0), tz, DT)
    factor = np.sqrt(l2_norm_sq(new) / l2_norm_sq(basis.mode(0)))
    assert abs(factor - 1.0 / (1.0 + mu1 * DT)) < 1e-8
    assert rep.picard_iterations == 2  # the heat solve, and one that confirms it


def test_b_step_zero_returns_zero_in_one_iteration():
    g = Grid(8, 8)
    tz = _zero_trace(g)
    new, rep = b_step(VectorField.zeros(g), VectorField.zeros(g), tz, DT)
    assert l2_norm_sq(new) == 0.0 and rep.picard_iterations == 1


def test_b_step_contracts_on_random_smooth_data(rng):
    g = Grid(16, 16)
    tz = _zero_trace(g)
    for seed in range(10):
        r = np.random.default_rng(seed)
        u = random_divfree(g, r, scale=0.05)
        b = random_divfree(g, r, scale=0.05)
        _, rep = b_step(u, b, tz, DT, picard_tol=1e-13)
        assert rep.contraction_ratio < 1.0


def test_b_step_unconditional_stability_pure_heat(rng):
    g = Grid(12, 12)
    tz = synthesize_trace(g, [0.0, 10.0], [])
    b = random_divfree(g, rng)
    new, _ = b_step(VectorField.zeros(g), b, tz, dt=10.0)
    assert l2_norm_sq(new) <= l2_norm_sq(b)


def test_u_step_single_mode_oracle():
    g = Grid(16, 16)
    tz = _zero_trace(g)
    basis = build_stokes_basis(g, 1)
    lam1 = basis.eigenvalues[0]
    new, p = u_step(VectorField.zeros(g), basis.mode(0), tz, DT)
    g1 = inner(new, basis.mode(0))
    assert abs(g1 - 1.0 / (1.0 + lam1 * DT)) < 1e-8
    assert abs(p.values.mean()) < 1e-12


def test_u_step_zero_and_divergence(rng):
    g = Grid(16, 16)
    tz = _zero_trace(g)
    new, _ = u_step(VectorField.zeros(g), VectorField.zeros(g), tz, DT)
    assert l2_norm_sq(new) == 0.0
    u = random_divfree(g, rng)
    b = random_divfree(g, rng, scale=0.3)
    new, _ = u_step(b, u, tz, DT)
    assert np.max(np.abs(divergence(new).values)) < 1e-9


def test_galerkin_full_truncation_matches_saddle(rng):
    g = Grid(8, 8)
    tz = _zero_trace(g)
    full = (g.nx - 1) * (g.ny - 1)
    basis = build_stokes_basis(g, full)
    u0 = random_divfree(g, rng, scale=0.2)
    b0 = random_divfree(g, rng, scale=0.2)
    u_a, _ = u_step(b0, u0, tz, DT)
    u_b, _ = u_step(b0, u0, tz, DT, basis=basis, n_modes=full)
    assert np.sqrt(l2_norm_sq(u_a - u_b)) < 1e-8


def test_coupled_step_zero_state_stays_zero():
    scen = make_scenario("zero", nx=8, dt=DT, t_final=5 * DT)
    st = Stepper(scen.cfg, scen.trace)
    state = SimState(0.0, scen.u0, scen.b0, ScalarField.zeros(scen.cfg.grid()))
    state, rep = st.coupled_step(state)
    assert l2_norm_sq(state.u) == 0.0 and l2_norm_sq(state.b) == 0.0


def test_fixed_point_vs_single_pass_first_order_splitting():
    # warm up past the initial layer, then compare a single step of the two
    # coupling modes from the same smooth state
    warm = make_scenario("decay", nx=16, dt=1e-3, t_final=0.05)
    traj, _ = run(warm.cfg, warm.u0, warm.b0, warm.trace)
    state0 = traj.final_state
    diffs = []
    for dt in (2e-3, 1e-3):
        tz = synthesize_trace(warm.cfg.grid(), [state0.t, state0.t + dt], [])
        states = {}
        for mode in ("fixed_point", "single_pass"):
            cfg = SolverConfig(nx=16, ny=16, dt=dt, t_final=dt, outer_mode=mode)
            st = Stepper(cfg, tz)
            out, _ = st.coupled_step(SimState(state0.t, state0.u, state0.b, state0.p))
            states[mode] = out
        diffs.append(
            np.sqrt(
                l2_norm_sq(states["fixed_point"].u - states["single_pass"].u)
                + l2_norm_sq(states["fixed_point"].b - states["single_pass"].b)
            )
        )
    # superlinear agreement: the lagged rough force keeps the observed rate
    # near dt^1.6 rather than the formal dt^2 of a smooth splitting
    assert diffs[0] / diffs[1] >= 2.5


def test_run_zero_scenario_ledger_is_zero():
    scen = make_scenario("zero", nx=8, dt=DT, t_final=0.01)
    traj, ledger = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    for col in ("u_L2_sq", "b_L2_sq", "grad_u_L2_sq"):
        assert np.max(ledger.col(col)) == 0.0


def test_run_decay_energy_monotone():
    scen = make_scenario("decay", nx=16, dt=DT, t_final=0.05)
    traj, ledger = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    e = ledger.col("u_L2_sq") + ledger.col("b_L2_sq")
    assert np.all(np.diff(e) < 0)
    assert np.max(ledger.col("div_u_Linf")) < 1e-9


def test_homogeneous_energy_law_margin_shrinks_with_dt():
    margins = []
    for dt in (2e-3, 1e-3):
        scen = make_scenario("decay", nx=16, dt=dt, t_final=0.05)
        _, ledger = run(scen.cfg, scen.u0, scen.b0, scen.trace)
        e = ledger.col("u_L2_sq") + ledger.col("b_L2_sq")
        diss = ledger.col("grad_u_L2_sq") + ledger.col("grad_btilde_L2_sq")
        margins.append(np.max(np.abs(np.diff(e) / dt + 2 * diss[1:])))
    assert margins[1] <= 0.75 * margins[0]


def test_restart_is_bit_identical(tmp_path):
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=0.02)
    traj_full, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    half_cfg = SolverConfig(**{**scen.cfg.__dict__, "t_final": 0.01})
    traj_half, _ = run(half_cfg, scen.u0, scen.b0, scen.trace)
    path = tmp_path / "mid.mhdckpt"
    write_checkpoint(path, traj_half.final_state, half_cfg, scen.trace, traj_half.restart)
    ck = read_checkpoint(path)
    check_restart_header(ck, half_cfg, scen.trace)
    st = ck["state"]
    resumed, _ = run(scen.cfg, st.u, st.b, scen.trace, t0=ck["t"], p0=st.p, restart=ck["restart"])
    _assert_same_state(traj_full.final_state, resumed.final_state)


def test_restart_from_a_mid_run_checkpoint_carries_the_iterates(tmp_path):
    # calib-osc cleans every step, so after step 5 the carried iterates
    # (uncleaned) differ from b; the mid-run file restarts bit for bit
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=10 * DT, checkpoint_every=5,
                         checkpoint_dir=str(tmp_path))
    full, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    ck = read_checkpoint(tmp_path / "ckpt_000005.mhdckpt")
    st, carried = ck["state"], ck["restart"]
    assert all(r.cleaned for r in full.reports[:5])
    assert not np.array_equal(carried.b_last.x, st.b.x)
    assert not np.array_equal(carried.b_prev.x, carried.b_last.x)
    check_restart_header(ck, scen.cfg, scen.trace)
    resumed, _ = run(scen.cfg, st.u, st.b, scen.trace, t0=ck["t"], p0=st.p, restart=carried)
    _assert_same_state(full.final_state, resumed.final_state)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    scen = make_scenario("calib-osc", nx=8, dt=DT, t_final=2 * DT)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    path = tmp_path_factory.mktemp("ckpt") / "c.mhdckpt"
    write_checkpoint(path, traj.final_state, scen.cfg, scen.trace, traj.restart)
    return path.read_bytes()


_VECTOR_BYTES_8 = 8 * 2 * 9 * 8  # one vector field at 8^2: two 9x8 face arrays of f8


@pytest.mark.parametrize(
    "mangle, why",
    [
        (lambda raw: b"NOTCKPT1" + raw[8:], "bad magic"),
        (lambda raw: raw[:20], "header truncated"),
        (lambda raw: raw[:-8], "payload has"),
        (lambda raw: raw[: -_VECTOR_BYTES_8], "payload has"),
        (lambda raw: raw + bytes(8), "payload has"),
        (lambda raw: raw[:-8] + struct.pack("<d", np.nan), "non-finite field"),
        (lambda raw: raw[:8] + struct.pack("<q", 2) + raw[16:], "too coarse"),
        (lambda raw: raw[:-3] + bytes([raw[-3] ^ 1]) + raw[-2:], "checksum mismatch"),
        (lambda raw: raw[:48] + struct.pack("<d", np.inf) + raw[56:], "non-finite header"),
    ],
    ids=["bad-magic", "short-header", "short-payload", "v2-length-payload", "long-payload",
         "nan-value", "coarse-grid", "flipped-bit", "infinite-re"],
)
def test_malformed_checkpoint_is_config_error(tmp_path, checkpoint_bytes, mangle, why):
    path = tmp_path / "bad.mhdckpt"
    path.write_bytes(mangle(checkpoint_bytes))
    with pytest.raises(ConfigError) as exc:
        read_checkpoint(path)
    assert str(path) in str(exc.value) and why in str(exc.value)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_checkpoint_reads_or_raises_config_error(tmp_path, checkpoint_bytes, data):
    raw = bytearray(checkpoint_bytes)
    cut = data.draw(st.integers(0, len(raw)), label="length")
    raw = raw[:cut]
    for _ in range(data.draw(st.integers(0, 4), label="flips")):
        if raw:
            k = data.draw(st.integers(0, len(raw) - 1), label="byte")
            raw[k] ^= data.draw(st.integers(1, 255), label="mask")
    path = tmp_path / "damaged.mhdckpt"
    path.write_bytes(bytes(raw))
    try:
        ck = read_checkpoint(path)
    except ConfigError:
        return
    assert isinstance(ck["state"], SimState)


def test_checkpoint_header_mismatch_rejected(tmp_path):
    scen = make_scenario("zero", nx=8, dt=DT, t_final=0.01)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    path = tmp_path / "c.mhdckpt"
    write_checkpoint(path, traj.final_state, scen.cfg, scen.trace, traj.restart)
    other = SolverConfig(nx=8, ny=8, dt=2 * DT, t_final=0.01)
    with pytest.raises(ConfigError):
        check_restart_header(read_checkpoint(path), other)


def test_incompatible_data_rejected():
    g = Grid(16, 16)
    tz = _zero_trace(g)
    bad_b = VectorField(g, np.ones(g.shape_xface()), np.zeros(g.shape_yface()))
    cfg = SolverConfig(nx=16, ny=16, dt=DT, t_final=2 * DT)
    with pytest.raises(CompatibilityError):
        run(cfg, VectorField.zeros(g), bad_b, tz)


def test_state_invariants_after_steps():
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=5 * DT)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    final = traj.final_state
    assert compatibility_check(final.u, final.b, scen.trace, t=final.t).passed
    assert np.max(np.abs(divergence(final.u).values)) < 1e-9  # compatibility_check scales by max abs(u)
    assert abs(final.p.values.mean()) < 1e-12


def test_picard_ratio_never_grows_much_when_dt_halves():
    vals = []
    for dt in (2e-3, 1e-3):
        scen = make_scenario("picard-ref", nx=16, dt=dt, t_final=6 * dt,
                             outer_mode="single_pass", picard_tol=1e-13)
        traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
        vals.append(max(r.contraction_ratio for r in traj.reports))
    assert vals[1] <= 1.05 * vals[0]


def _pair(st, u_ref):
    """The transport pair of ``st``'s magnetic step factored at u_ref."""
    return TransportPair(st.grid, u_ref, 1.0 / st.cfg.dt, 1.0 / st.cfg.rm)


def test_b_step_reused_pair_matches_fresh_factorization():
    # an outer iterate ubar != u^n on a pair factored at u^n reaches the
    # implicit-transport solution at ubar
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    st = Stepper(scen.cfg, scen.trace)
    u_n = scen.u0
    ubar = u_n + stream_bump(u_n.grid, 0.2, 1, 2)
    reused, rep = st.b_step(ubar, 0.0, **b_inputs(st, ubar, scen.b0, 0.0, _pair(st, u_n)))
    fresh, _ = st.b_step(ubar, 0.0, **b_inputs(st, ubar, scen.b0, 0.0, _pair(st, ubar)))
    reused, fresh = reused.t.f, fresh.t.f
    assert rep.picard_iterations > 1
    tol = 10 * scen.cfg.picard_tol * (1.0 + np.sqrt(l2_norm_sq(fresh)))
    assert np.sqrt(l2_norm_sq(reused - fresh)) <= tol


def test_warm_started_b_step_reaches_the_cold_fixed_point_sooner():
    # the second outer iterate of a step: ubar from the first iterate's b,
    # which is where the warm start begins Picard
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    st = Stepper(scen.cfg, scen.trace)
    u_n = scen.u0
    heat = st.magnetic_operator(u_n)
    b_first = st.b_step(u_n, 0.0, **b_inputs(st, u_n, scen.b0, 0.0, heat))[0].t.f
    ubar, _ = u_step_of(st, b_first, u_n, 0.0)
    warm, rep_warm = st.b_step(ubar, 0.0, **b_inputs(st, ubar, scen.b0, 0.0, heat, b_start=b_first))
    cold, rep_cold = st.b_step(ubar, 0.0, **b_inputs(st, ubar, scen.b0, 0.0, heat))
    warm, cold = warm.t.f, cold.t.f
    assert rep_warm.picard_iterations < rep_cold.picard_iterations
    tol = 10 * scen.cfg.picard_tol * (1.0 + np.sqrt(l2_norm_sq(cold)))
    assert np.sqrt(l2_norm_sq(warm - cold)) <= tol


@pytest.mark.parametrize("case", ["heat", "heat_shifted", "full", "pair_full"])
def test_b_step_matches_the_whole_field_picard_oracle(case):
    # the branches of the Picard loop: a zero lag on the heat chord (the heat
    # solve, which a second iteration confirms with residual 0), the
    # transport by -u_ref alone (a pair factored at u_ref), stretching plus
    # the whole transport on the heat operator, and on a pair the stretching
    # term (b's half with its divergence terms) less the transport by
    # u_frozen - u_ref (a velocity's half), each of the last two with a force
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    st = Stepper(scen.cfg, scen.trace)
    g, u_n = scen.cfg.grid(), scen.u0
    zero, heat = VectorField.zeros(g), st.magnetic_operator(u_n)
    u_frozen, operator, fb = {
        "heat": (zero, heat, None),
        "heat_shifted": (zero, _pair(st, u_n), None),
        "full": (u_n + stream_bump(g, 0.2, 1, 2), heat, 0.3 * scen.b0),
        "pair_full": (u_n + stream_bump(g, 0.2, 1, 2), _pair(st, u_n), 0.3 * scen.b0),
    }[case]
    kw = dict(operator=operator, fb=fb, b_start=2.0 * scen.b0 - stream_bump(g, 0.01, 2, 1))
    got, rep = st.b_step(u_frozen, 0.0, **b_inputs(st, u_frozen, scen.b0, 0.0, **kw))
    got = got.t.f
    want, residuals = b_step_oracle(st, u_frozen, scen.b0, 0.0, bc=st.vector_bc(DT), **kw)
    assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
    assert rep.picard_iterations == len(residuals)
    assert rep.picard_residual == residuals[-1]
    assert (rep.picard_iterations == 2) == (case == "heat")


@pytest.mark.parametrize("on_pair", [False, True])
def test_b_step_returns_its_last_iterate_s_halves_in_the_start_s_wall_rows(on_pair):
    # the halves b_step returns are what coupled_step hands the Lorentz term,
    # the next outer iterate's start and the pre-cleaning scan: a fresh build
    # of the new b under the boundary data, in the start's wall rows
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    st = Stepper(scen.cfg, scen.trace)
    g, u_n = scen.cfg.grid(), scen.u0
    ubar = u_n + stream_bump(g, 0.2, 1, 2)
    operator = _pair(st, u_n) if on_pair else st.magnetic_operator(u_n)
    b_start = 2.0 * scen.b0 - stream_bump(g, 0.01, 2, 1)
    kw = b_inputs(st, ubar, scen.b0, 0.0, operator, fb=0.3 * scen.b0, b_start=b_start)
    start = kw["start"]
    h, rep = st.b_step(ubar, 0.0, **kw)
    assert rep.picard_iterations > 1 and rep.picard_converged
    assert h.t.f1y is start.t.f1y and h.t.f2x is start.t.f2x
    fresh = magnetic_halves(h.t.f, wall_rows(g, st.vector_bc(DT)))
    for got, want in ((h.a, fresh.a), (h.t, fresh.t), ((h.div,), (fresh.div,))):
        for a, b in zip(got, want):
            assert a is b if isinstance(a, VectorField) else np.array_equal(a, b)


def test_a_coupled_step_runs_numpy_python_code_only_for_errstate():
    # the step's norms, maxima and solves call ufunc reductions and ndarray
    # methods, which reach numpy's kernels without the Python-level dispatch
    # of np.dot, np.max, np.vdot, np.concatenate or np.reshape.  The only
    # Python functions of numpy's package the step calls are np.errstate's
    # methods, around the outer loop and each magnetic step's Picard loop;
    # what they run inside numpy is numpy's own business and not counted
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=10 * DT)
    st = Stepper(scen.cfg, scen.trace)
    state = SimState(0.0, scen.u0, scen.b0, None)
    for _ in range(6):
        state, _ = st.coupled_step(state)
    home = os.path.dirname(np.__file__) + os.sep
    errstate = {getattr(np.errstate, name) for name in ("__init__", "__enter__", "__exit__")}
    allowed = {f.__code__ for f in errstate if hasattr(f, "__code__")}
    entered = []

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_filename.startswith(home)
                and not frame.f_back.f_code.co_filename.startswith(home)):
            entered.append(frame.f_code)

    sys.setprofile(profile)
    try:
        _, rep = st.coupled_step(state)
    finally:
        sys.setprofile(None)
    assert (rep.outer_iterations, rep.picard_iterations) == (4, 9)
    assert [c.co_name for c in entered if c not in allowed] == []


def test_b_step_equals_the_implicit_transport_solve_at_ubar():
    # the chord iteration on the heat operator lags all the transport; its
    # fixed point is the solve with a pair factored at ubar, which lags the
    # stretching term alone
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    st = Stepper(scen.cfg, scen.trace)
    g = scen.cfg.grid()
    ubar = scen.u0 + stream_bump(g, 0.2, 1, 2)
    kw = dict(fb=0.3 * scen.b0)
    chord, rep = st.b_step(ubar, 0.0, **b_inputs(st, ubar, scen.b0, 0.0, st.magnetic_operator(scen.u0), **kw))
    implicit, rep_implicit = st.b_step(ubar, 0.0, **b_inputs(st, ubar, scen.b0, 0.0, _pair(st, ubar), **kw))
    chord, implicit = chord.t.f, implicit.t.f
    assert rep.picard_converged and rep.picard_iterations > rep_implicit.picard_iterations
    assert np.sqrt(l2_norm_sq(chord - implicit)) <= 1e-9 * np.sqrt(l2_norm_sq(implicit))


def _collect_b_steps(monkeypatch, reports, cold=False):
    """Record every b_step report; ``cold`` starts every Picard loop from
    b^n, the b of the state the step advances."""
    b_step_orig, coupled_step_orig = Stepper.b_step, Stepper.coupled_step
    b_n = []

    def stepping(self, state):
        b_n[:] = [state.b]
        return coupled_step_orig(self, state)

    def collecting(self, *args, **kwargs):
        if cold:  # b^n's halves, in the start's wall rows
            start = kwargs["start"]
            kwargs["start"] = magnetic_halves(b_n[0], (start.t.f1y, start.t.f2x))
        out = b_step_orig(self, *args, **kwargs)
        reports.append(out[1])
        return out

    monkeypatch.setattr(Stepper, "b_step", collecting)
    if cold:
        monkeypatch.setattr(Stepper, "coupled_step", stepping)


def test_coupled_report_sums_and_maxes_its_b_steps(monkeypatch):
    reports = []
    _collect_b_steps(monkeypatch, reports)
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=10 * DT)
    st = Stepper(scen.cfg, scen.trace)
    state = SimState(0.0, scen.u0, scen.b0, ScalarField.zeros(scen.cfg.grid()))
    for _ in range(10):
        reports.clear()
        state, rep = st.coupled_step(state)
        assert len(reports) == rep.outer_iterations > 1
        assert rep.picard_iterations == sum(r.picard_iterations for r in reports)
        assert rep.contraction_ratio == max(r.contraction_ratio for r in reports)
        assert rep.picard_residual == reports[-1].picard_residual
        # u^n is moving, so the first iterate is not exact: it takes one
        # Picard iteration, unconverged, and a later iterate converges
        assert reports[0].picard_iterations == 1 and not reports[0].picard_converged
        assert rep.picard_converged and reports[-1].picard_converged


def test_unconverged_first_iterate_is_never_accepted(monkeypatch):
    # outer_tol = 1e3 accepts any velocity iterate, so only the Picard test
    # keeps the step going after its one-iteration first iterate
    reports = []
    _collect_b_steps(monkeypatch, reports)
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT, outer_tol=1e3)
    st = Stepper(scen.cfg, scen.trace)
    _, rep = st.coupled_step(SimState(0.0, scen.u0, scen.b0, ScalarField.zeros(scen.cfg.grid())))
    assert reports[0].picard_iterations == 1 and not reports[0].picard_converged
    assert rep.outer_iterations == len(reports) == 2
    assert reports[1].picard_iterations > 1 and reports[1].picard_converged


def test_single_pass_runs_the_full_picard_loop(monkeypatch):
    caps, reports = [], []
    b_step_orig = Stepper.b_step

    def capped(self, *args, **kwargs):
        caps.append(kwargs.get("max_iter", dynamics.PICARD_MAX_ITER))
        out = b_step_orig(self, *args, **kwargs)
        reports.append(out[1])
        return out

    monkeypatch.setattr(Stepper, "b_step", capped)
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=5 * DT, outer_mode="single_pass")
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    assert caps == [dynamics.PICARD_MAX_ITER] * 5
    assert all(r.picard_iterations > 1 and r.picard_converged for r in reports)
    assert [r.picard_iterations for r in traj.reports] == [r.picard_iterations for r in reports]


def test_each_outer_iterate_advects_with_the_last_velocity(monkeypatch):
    # the third velocity iterate is pushed 1% off, so the outer residual
    # rises there; the fourth iterate still advects with it as it stands
    class Stop(Exception):
        pass

    u_outs, advecting = [], []
    u_step_orig, b_step_orig = Stepper.u_step, Stepper.b_step

    def u_step(self, *args, **kwargs):
        u, force = u_step_orig(self, *args, **kwargs)
        if len(u_outs) == 2:
            u = 1.01 * u
        u_outs.append(u)
        return u, force

    def b_step(self, u_frozen, *args, **kwargs):
        advecting.append(u_frozen)
        if len(advecting) == 4:
            raise Stop
        return b_step_orig(self, u_frozen, *args, **kwargs)

    monkeypatch.setattr(Stepper, "u_step", u_step)
    monkeypatch.setattr(Stepper, "b_step", b_step)
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    with pytest.raises(Stop):
        Stepper(scen.cfg, scen.trace).coupled_step(SimState(0.0, scen.u0, scen.b0, None))
    residual = [np.sqrt(l2_norm_sq(u - ub)) for u, ub in zip(u_outs, advecting)]
    assert residual[2] > residual[1]
    assert all(advecting[k] is u_outs[k - 1] for k in (1, 2, 3))


def test_warm_start_moves_fixed_point_only_and_not_single_pass(monkeypatch):
    for mode in ("single_pass", "fixed_point"):
        scen = make_scenario("picard-ref", nx=16, dt=DT, t_final=5 * DT, outer_mode=mode)
        warm, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
        with monkeypatch.context() as m:
            _collect_b_steps(m, [], cold=True)
            cold, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
        # single_pass has one outer iterate, started from the extrapolation
        warm_n = sum(r.picard_iterations for r in warm.reports)
        cold_n = sum(r.picard_iterations for r in cold.reports)
        assert warm_n <= cold_n if mode == "single_pass" else warm_n < cold_n
        scale = np.sqrt(l2_norm_sq(cold.final_state.b))
        assert np.sqrt(l2_norm_sq(warm.final_state.b - cold.final_state.b)) <= 1e-9 * scale


def test_first_step_starts_from_b_n_exactly(monkeypatch):
    # the carried iterates are seeded (b0, b0), and 2 b0 - b0 == b0 bit for bit
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    first, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    starts = []
    b_step = Stepper.b_step

    def from_b_n(self, *args, **kwargs):
        if not starts:
            start = kwargs["start"]
            starts.append(start.t.f)
            # the first state's b, in the start's wall rows
            kwargs["start"] = magnetic_halves(scen.b0, (start.t.f1y, start.t.f2x))
        return b_step(self, *args, **kwargs)

    monkeypatch.setattr(Stepper, "b_step", from_b_n)
    forced, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    assert np.array_equal(starts[0].x, scen.b0.x) and np.array_equal(starts[0].y, scen.b0.y)
    _assert_same_state(first.final_state, forced.final_state)


def test_carried_iterates_are_used_only_at_their_time():
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=3 * DT)
    st = Stepper(scen.cfg, scen.trace)
    state0 = SimState(0.0, scen.u0, scen.b0, ScalarField.zeros(scen.cfg.grid()))
    once, _ = st.coupled_step(state0)
    once.p = st.pressure(once)
    state = once
    for _ in range(2):
        state, _ = st.coupled_step(state)
    assert st.b_iterates[0] == state.t
    again, _ = st.coupled_step(state0)  # t = 0 does not match: reseeded with (b0, b0)
    again.p = st.pressure(again)
    _assert_same_state(once, again)


def test_extrapolated_start_saves_picard_iterations_on_a_steady_run(monkeypatch):
    # tail compactness's steady case: the cleaning jump sets the first Picard
    # increment from b^n, the extrapolation of the uncleaned iterates skips it
    cfg, u0, b0, trace, forcing = _mms_scenario(_mms_case("steady"), 16, 2e-3, 0.16)
    carried, _ = run(cfg, u0, b0, trace, forcing=forcing)
    step = Stepper.coupled_step

    def from_b_n(self, state):
        self.b_iterates = None  # reseeded (b^n, b^n): the first Picard loop starts at b^n
        return step(self, state)

    monkeypatch.setattr(Stepper, "coupled_step", from_b_n)
    plain, _ = run(cfg, u0, b0, trace, forcing=forcing)
    picard = [sum(r.picard_iterations for r in t.reports) for t in (carried, plain)]
    assert picard[0] <= 0.9 * picard[1]
    # the first iterate's one Picard iteration lands closer to the fixed
    # point from the carried start, which can also save an outer iterate
    assert sum(r.outer_iterations for r in carried.reports) <= sum(
        r.outer_iterations for r in plain.reports)
    b, b_ref = carried.final_state.b, plain.final_state.b
    assert np.sqrt(l2_norm_sq(b - b_ref)) <= 1e-9 * np.sqrt(l2_norm_sq(b_ref))


def test_pure_heat_step_diverges_in_the_wall_band(monkeypatch):
    # Pins the defect of the componentwise Dirichlet magnetic solve: from
    # compatible data (u = b = 0 and one stream trace ramping up from 0) a
    # pure-heat step leaves div b far above the cleaning threshold, largest
    # in the cells at the wall, and the projection removes it.  A
    # divergence-free magnetic step (ROADMAP item 3) flips this test.
    g = Grid(16, 16)
    mode = TraceMode("stream", amplitude=0.2, kx=1, ky=2, envelope="ramp", envelope_param=5.0)
    trace = synthesize_trace(g, [0.0, DT], [mode])
    cfg = SolverConfig(nx=16, ny=16, dt=DT, t_final=DT, outer_mode="single_pass")
    zero = VectorField.zeros(g)
    assert compatibility_check(zero, zero, trace).passed
    before = []
    clean = dynamics.project_divfree
    monkeypatch.setattr(dynamics, "project_divfree",
                        lambda b, div: before.append(b) or clean(b, div))
    _, rep = Stepper(cfg, trace).coupled_step(SimState(0.0, zero, zero, ScalarField.zeros(g)))
    assert rep.picard_iterations == 2  # u = 0: one heat solve, and one that confirms it
    assert rep.cleaned and rep.div_b_before_clean > 1e6 * dynamics.DIV_CLEAN_THRESHOLD
    div = np.abs(divergence(before[0]).values)
    assert div.max() == rep.div_b_before_clean
    i, j = np.unravel_index(np.argmax(div), div.shape)
    assert min(i, j, div.shape[0] - 1 - i, div.shape[1] - 1 - j) == 0  # a cell at the wall
    assert div[2:-2, 2:-2].max() < 0.1 * div.max()


def test_run_factors_no_sparse_matrix(monkeypatch):
    # the magnetic step, the ledger rows and the parabolic lift of a strong
    # run all solve in closed form
    calls = []
    real = operators.splu
    monkeypatch.setattr(operators, "splu", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    nsteps = 20
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=nsteps * DT, strong_mode=True)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    assert sum(r.outer_iterations for r in traj.reports) > nsteps
    assert calls == []


def _fast_flow(rm, scale, nsteps=3):
    """calib-osc at 32^2, dt = 8e-3, with its initial velocity scaled: cell
    Courant number 0.4 * scale, where the lagged transport is large."""
    dt = 8e-3
    scen = make_scenario("calib-osc", nx=32, dt=dt, t_final=nsteps * dt, rm=rm, re=1.0)
    return scen, scale * scen.u0


@pytest.mark.parametrize("scale", [4, 16])
def test_stalled_heat_chord_falls_back_to_the_pair_at_u_n(monkeypatch, scale):
    # Courant 1.6 and 6.4 at Rm = 100: the heat chord stalls (at scale 4 its
    # ratio passes 1), and the step finishes on the pair factored at u^n,
    # reaching the fixed point of a stepper that solves on that pair throughout
    scen, u0 = _fast_flow(100.0, scale)
    calls = []
    real = operators.splu
    monkeypatch.setattr(operators, "splu", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    traj, _ = run(scen.cfg, u0, scen.b0, scen.trace)
    assert calls and all(r.picard_converged for r in traj.reports)
    state = SimState(0.0, u0, scen.b0, ScalarField.zeros(scen.cfg.grid()))
    st = _FactoredStepper(scen.cfg, scen.trace)
    for _ in traj.reports:
        state, _ = st.coupled_step(state)
    got, want = traj.final_state.b, state.b
    assert np.sqrt(l2_norm_sq(got - want)) <= 1e-8 * np.sqrt(l2_norm_sq(want))


def test_stalling_chord_stops_at_its_first_growing_residual(monkeypatch):
    # Courant 6.4 at Rm = 100: the chord's residual grows within a few
    # iterations, and the loop ends there instead of at the cap, unconverged,
    # so the step falls back to the pair at once
    reports = []
    b_step_orig = Stepper.b_step

    def recording(self, *args, **kwargs):
        out = b_step_orig(self, *args, **kwargs)
        reports.append((kwargs["operator"].u_ref is None, kwargs.get("max_iter"), out[1]))
        return out

    monkeypatch.setattr(Stepper, "b_step", recording)
    scen, u0 = _fast_flow(100.0, 16, nsteps=1)
    traj, _ = run(scen.cfg, u0, scen.b0, scen.trace)
    stalled = [rep for chord, cap, rep in reports
               if chord and cap == dynamics.PICARD_MAX_ITER and not rep.picard_converged]
    assert stalled and any(not chord for chord, _, _ in reports)  # the step fell back
    for rep in stalled:
        assert rep.picard_iterations < dynamics.PICARD_MAX_ITER and rep.contraction_ratio >= 1.0
    assert traj.reports[0].picard_converged


def test_fallback_step_counts_each_b_step_report_once(monkeypatch):
    # Courant 6.4 at Rm = 100: a chord stalls and its iterate is redone on
    # the pair; the reports b_step returned, the stalled chord's among them,
    # sum to the step's Picard count, and the pair's report is left as returned
    reports = []
    _collect_b_steps(monkeypatch, reports)
    scen, u0 = _fast_flow(100.0, 16, nsteps=1)
    st = Stepper(scen.cfg, scen.trace)
    _, rep = st.coupled_step(SimState(0.0, u0, scen.b0, ScalarField.zeros(scen.cfg.grid())))
    assert len(reports) > rep.outer_iterations  # at least one iterate fell back
    assert rep.picard_iterations == sum(r.picard_iterations for r in reports) == 138


@pytest.mark.parametrize("scale, nsteps, picard, outer, factored", [
    (2, 4, [50, 33, 26, 21], [6, 5, 5, 5], 0),
    (4, 3, [72, 63, 46], [6, 6, 5], 4),
], ids=["scale2", "scale4"])
def test_contracting_chord_keeps_its_picard_counts(monkeypatch, scale, nsteps, picard, outer,
                                                   factored):
    # Courant 0.8 and 1.6 at Rm = 100: every chord's residual falls, so the
    # stop for a stalling chord never fires, and the counts are those of the
    # chord run to its cap.  At scale 2 every chord converges; at scale 4 two
    # contract too slowly for the cap, spend all 25 iterations and fall back
    # (two pairs of two factorizations)
    calls = []
    real = operators.splu
    monkeypatch.setattr(operators, "splu", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    scen, u0 = _fast_flow(100.0, scale, nsteps=nsteps)
    traj, _ = run(scen.cfg, u0, scen.b0, scen.trace)
    assert len(calls) == factored
    assert [r.picard_iterations for r in traj.reports] == picard
    assert [r.outer_iterations for r in traj.reports] == outer


def test_step_fails_when_the_pair_does_not_contract_either():
    # Courant 26 at Rm = 1: neither the chord nor the pair at u^n contracts
    scen, u0 = _fast_flow(1.0, 64, nsteps=1)
    with pytest.raises(StepFailure, match="not contracting") as err:
        run(scen.cfg, u0, scen.b0, scen.trace)
    assert err.value.detail["ratio"] >= 1.0


def test_forcing_and_boundary_looked_up_once_per_step(monkeypatch):
    calls = []
    force = lambda t: VectorField.zeros(Grid(16, 16))
    lookup = BoundaryTrace.vector_bc

    def counting(self, t):
        calls.append("bc")
        return lookup(self, t)

    monkeypatch.setattr(BoundaryTrace, "vector_bc", counting)
    nsteps = 4
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=nsteps * DT, strong_mode=True)
    forcing = Forcing(u=lambda t: calls.append("u") or force(t),
                      b=lambda t: calls.append("b") or force(t))
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace, forcing=forcing)
    assert sum(r.outer_iterations for r in traj.reports) > nsteps
    assert calls.count("u") == calls.count("b") == nsteps
    # one lookup per coupled step, shared with the ledger row after it
    assert calls.count("bc") == nsteps + 1


def test_pair_boundary_prepared_once_per_step(monkeypatch):
    # the x and y Dirichlet data of the magnetic operator, shared by every
    # outer iterate; the harmonic lift of each ledger row has its own operator
    calls = []
    boundary = DirichletHeat.boundary
    monkeypatch.setattr(DirichletHeat, "boundary",
                        lambda self, bc: calls.append(self) or boundary(self, bc))
    nsteps = 6
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=nsteps * DT)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    magnetic = dirichlet_heat(scen.cfg.grid(), 1.0 / DT, 1.0 / scen.cfg.rm)
    assert sum(r.outer_iterations for r in traj.reports) > nsteps
    assert sum(op is magnetic for op in calls) == nsteps


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_step_fails_at_once_with_step_failure():
    scen = make_scenario("ramp", nx=16, t_final=0.01)
    g = scen.cfg.grid()
    huge = VectorField(g, np.full(g.shape_xface(), 1e300), np.full(g.shape_yface(), 1e300))
    forcing = Forcing(b=lambda t: huge if t > 0.005 else None)
    with pytest.raises(StepFailure, match="non-finite") as err:
        run(scen.cfg, scen.u0, scen.b0, scen.trace, forcing=forcing)
    assert err.value.t == pytest.approx(0.006, abs=1e-12)
    # the first Picard iterate of the first outer iterate stops it
    assert len(err.value.detail["residuals"]) == 1


def test_one_finiteness_scan_per_array_of_the_accepted_state(monkeypatch):
    nsteps = 5
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=nsteps * DT)
    scans, per_step = [], []
    scan, step = geometry._finite, Stepper.coupled_step

    def counted_step(self, state):
        before = len(scans)
        out = step(self, state)
        per_step.append(len(scans) - before)
        return out

    monkeypatch.setattr(geometry, "_finite", lambda a: scans.append(a.shape) or scan(a))
    monkeypatch.setattr(Stepper, "coupled_step", counted_step)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    assert sum(r.outer_iterations for r in traj.reports) > nsteps
    # u.x, u.y, b.x and b.y once per step, and the final state's recovered
    # p once; nothing else in the run scans
    assert per_step == [4] * nsteps
    assert len(scans) == 4 * nsteps + 1


def test_traced_entry_points_are_called_per_solve_iterate_and_row(monkeypatch):
    # the benchmark's span tracer wraps entry points as this test does: a
    # class method on its class, and the module functions wherever a module
    # of the package holds them.  The magnetic solve is the heat operator's
    # ``solve_interior`` on the magnetic step's key (the ledger row takes the
    # norms of b - h_e in closed form, and solves on no key).  The cell
    # divergence is taken of b only: ubar's halves carry no divergence terms
    from mhd2d import estimates

    events = []

    def counting(name, fn):
        return lambda *a, **kw: events.append(name) or fn(*a, **kw)

    solve = DirichletHeat.solve_interior
    magnetic = dirichlet_heat(Grid(16, 16), 1.0 / DT, 1.0)  # calib-osc: Rm = 1
    monkeypatch.setattr(DirichletHeat, "solve_interior",
                        lambda self, *a: (self is magnetic and events.append("solve"))
                        or solve(self, *a))
    for home, fname in ((geometry, "convect"), (estimates, "record"), (geometry, "divergence")):
        orig = getattr(home, fname)
        for mod in [m for k, m in sys.modules.items() if k.startswith("mhd2d")]:
            if getattr(mod, fname, None) is orig:
                monkeypatch.setattr(mod, fname, counting(fname, orig))
    step = Stepper.coupled_step
    monkeypatch.setattr(Stepper, "coupled_step",
                        lambda self, state: events.append("step") or step(self, state))
    nsteps = 5
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=nsteps * DT)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    marks = [i for i, e in enumerate(events) if e == "step"] + [len(events)]
    # the compatibility check's two, then the row at t0 with its two
    assert events[: marks[0]] == ["divergence"] * 2 + ["record"] + ["divergence"] * 2
    per_step = [events[a + 1 : b] for a, b in zip(marks, marks[1:])]
    counts = [(seg.count("solve"), seg.count("convect"), seg.count("record"), seg.count("divergence"))
              for seg in per_step]
    # one x and y solve per Picard iteration, one ledger row per step, and
    # no convect: the Lorentz term is formed from shared halves.  A step of
    # P Picard iterations takes b's divergence once in each build of a
    # magnetic iterate's halves: the first Picard loop's start, and each
    # iteration's new iterate, so P + 1; and two in the ledger row (u's and b's)
    want = [(r.picard_iterations, 0, 1, r.picard_iterations + 1 + 2) for r in traj.reports]
    assert counts == want
    assert counts == [(11, 0, 1, 14), (11, 0, 1, 14), (9, 0, 1, 12), (9, 0, 1, 12), (9, 0, 1, 12)]


def _relative_error(got, want):
    """The distance of two (x, y) interior-face pairs over the second's size."""
    err = sum(np.sum((a - b) ** 2) for a, b in zip(got, want))
    return float(np.sqrt(err / sum(np.sum(b**2) for b in want)))


def test_a_velocity_half_drops_round_off_and_a_magnetic_half_keeps_its_terms(rng):
    # every advecting velocity is a Stokes output u = C psi, or a sum of
    # Stokes modes, divergence-free by construction: the f·(div u) products
    # its half leaves out are round-off, in the velocity transport and in
    # the chord's induction term alike
    g = Grid(16, 16)
    solved = StokesSaddle(g, 1.0 / DT, 1.0).solve(rng.standard_normal(g.shape_xface()),
                                                  rng.standard_normal(g.shape_yface()))
    basis = build_stokes_basis(g, 6)
    c = rng.standard_normal(6)
    modes = VectorField(g, np.tensordot(c, basis.modes_x, axes=(0, 0)),
                        np.tensordot(c, basis.modes_y, axes=(0, 0)))
    fbc = VectorBC(*(rng.standard_normal(len(v)) for v in vars(VectorBC.zero(g)).values()))
    f = VectorField(g, rng.standard_normal(g.shape_xface()), rng.standard_normal(g.shape_yface()))
    for u in (solved, modes):
        a, t = face_halves(u, wall_rows(g))
        assert a.sx is None and a.sy is None
        full = magnetic_halves(u, wall_rows(g)).a
        f_half = face_halves(f, wall_rows(g, fbc))[1]
        transport = convect_interior(full, f_half)
        assert _relative_error(convect_interior(a, f_half), transport) <= 1e-13
        # the induction term against stretching less transport, u's half with its terms
        stretching = convect_interior(magnetic_halves(f, wall_rows(g)).a, t)
        got = induction_halves(*magnetic_halves(f, wall_rows(g, fbc))[:2], a, t)
        assert _relative_error(got, [s - tr for s, tr in zip(stretching, transport)]) <= 1e-13
    # a magnetic iterate before cleaning carries an O(1) divergence: the
    # products its half would leave out are not small, in the pair's
    # stretching term and in the Lorentz term, so b's half keeps them
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    st = Stepper(scen.cfg, scen.trace)
    state, rep = st.coupled_step(SimState(0.0, scen.u0, scen.b0, None))
    b_hat = st.b_iterates[2]
    assert rep.div_b_before_clean > 0.1
    ab, tb = face_halves(b_hat, wall_rows(g, st.vector_bc(state.t)))
    _, tu = face_halves(state.u, wall_rows(g))
    full = magnetic_halves(b_hat, wall_rows(g)).a
    assert _relative_error(convect_interior(ab, tu), convect_interior(full, tu)) > 1e-3
    assert _relative_error(convect_interior(ab, tb), convect_interior(full, tb)) > 1e-3


def test_wall_laplacian_is_built_once_per_instant_and_shared(monkeypatch):
    # the magnetic step (kappa = 1/Rm) and the ledger row after it (the
    # harmonic key, kappa = 1) scale one Laplacian of the step's wall data
    builds = []
    build = operators._wall_laplacian
    monkeypatch.setattr(operators, "_wall_laplacian", lambda *a: builds.append(a[1]) or build(*a))
    nsteps = 5
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=nsteps * DT, rm=10.0)
    run(scen.cfg, scen.u0, scen.b0, scen.trace)
    assert len(builds) == nsteps + 1  # the row at t0, then one per step
    # both keys' data terms equal a fresh build bit for bit
    bc = builds[-1]
    lx, ly = build(scen.cfg.grid(), bc)
    for key in ((1.0 / DT, 1.0 / scen.cfg.rm), (0.0, 1.0)):
        heat = dirichlet_heat(scen.cfg.grid(), *key)
        got_x, got_y, _ = heat.boundary(bc)
        assert np.array_equal(got_x, heat.kappa * lx) and np.array_equal(got_y, heat.kappa * ly)
    assert len(builds) == nsteps + 1  # both served by the last step's build
    # lifting_estimate_check keeps every instant's boundary data alive while
    # it lifts them one by one; it must not keep their Laplacians too
    held, most = [], []

    def tracked(*a):
        most.append(sum(ref() is not None for ref in held))
        lap = build(*a)
        held.extend(weakref.ref(arr) for arr in lap)
        return lap

    monkeypatch.setattr(operators, "_wall_laplacian", tracked)
    lifting_estimate_check(scen.trace)
    assert len(most) == len(scen.trace.times) > 2
    assert max(most) <= 2  # the previous instant's x and y, until the new build replaces them


@pytest.mark.parametrize("mode", ["fixed_point", "single_pass"])
def test_pressure_recovered_only_for_the_states_a_run_outputs(monkeypatch, tmp_path, mode):
    recoveries = []
    recover = StokesSaddle.pressure
    monkeypatch.setattr(StokesSaddle, "pressure",
                        lambda self, *a: recoveries.append(a) or recover(self, *a))
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=4 * DT, outer_mode=mode)
    # no cleaning, so the state's b is the one the velocity step saw
    monkeypatch.setattr(dynamics, "DIV_CLEAN_THRESHOLD", sys.float_info.max)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    assert len(traj.reports) == 4 and len(recoveries) == 1  # the final state's only
    final = traj.final_state
    assert abs(final.p.values.mean()) <= 1e-14 * np.max(np.abs(final.p.values))
    # one per checkpoint; the last step's checkpoint and final state share one
    recoveries.clear()
    cfg = replace(scen.cfg, checkpoint_every=2, checkpoint_dir=str(tmp_path))
    ckpt, _ = run(cfg, scen.u0, scen.b0, scen.trace)
    assert len(recoveries) == 2
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ckpt_000002.mhdckpt", "ckpt_000004.mhdckpt"]
    _assert_same_state(ckpt.final_state, final)
    assert np.array_equal(read_checkpoint(tmp_path / "ckpt_000004.mhdckpt")["state"].p.values,
                          final.p.values)
    # kept states carry u and b; p only where the run outputs it
    recoveries.clear()
    kept, _ = run(replace(scen.cfg, keep_states=True), scen.u0, scen.b0, scen.trace)
    assert len(recoveries) == 1 and len(kept.states) == 5
    assert all(st.p is None for st in kept.states[:-1])
    _assert_same_state(kept.states[-1], final)
    _assert_same_state(kept.final_state, final)

    recoveries.clear()
    st = Stepper(scen.cfg, scen.trace)
    state = SimState(0.0, scen.u0, scen.b0, ScalarField.zeros(scen.cfg.grid()))
    for _ in range(4):
        prev = state
        state, rep = st.coupled_step(state)
        assert state.p is None
    assert recoveries == []
    p = st.pressure(state)
    assert len(recoveries) == 1 and np.array_equal(p.values, final.p.values)
    with pytest.raises(ValueError, match="no accepted step"):
        st.pressure(prev)
    if mode == "single_pass":  # the one iterate is a plain velocity step at u^n
        u, f = u_step_of(st, state.b, prev.u, prev.t)
        assert np.array_equal(u.x, state.u.x) and np.array_equal(u.y, state.u.y)
        assert np.array_equal(st.saddle.pressure(f.x, f.y, u).values, p.values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_recovered_pressure_fails_with_step_failure():
    # a huge uniform x force at the last step is a discrete gradient: the
    # velocity step stays finite, and its pressure overflows
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=4 * DT)
    g = scen.cfg.grid()
    huge = VectorField(g, np.full(g.shape_xface(), 1e308), np.zeros(g.shape_yface()))
    forcing = Forcing(u=lambda t: huge if t > 3.5 * DT else None)
    stepped = []
    step = Stepper.coupled_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Stepper, "coupled_step", lambda self, state: stepped.append(step(self, state))
                   or stepped[-1])
        with pytest.raises(StepFailure, match="recovered pressure holds non-finite") as err:
            run(scen.cfg, scen.u0, scen.b0, scen.trace, forcing=forcing)
    assert len(stepped) == 4
    last = stepped[-1][0]
    assert geometry.all_finite(last.u, last.b)
    assert err.value.t == pytest.approx(4 * DT, abs=1e-12)
    assert err.value.detail == {"step": 4}
    assert str(err.value).startswith("step 4: ")


def test_step_failure_names_its_step():
    scen = make_scenario("ramp", nx=16, t_final=0.01)
    g = scen.cfg.grid()
    huge = VectorField(g, np.full(g.shape_xface(), 1e300), np.full(g.shape_yface(), 1e300))
    forcing = Forcing(b=lambda t: huge if t > 0.005 else None)
    with pytest.raises(StepFailure) as err:
        run(scen.cfg, scen.u0, scen.b0, scen.trace, forcing=forcing)
    # the step to t = 0.006 is the third at dt = 2e-3
    assert scen.cfg.dt == 2e-3 and err.value.detail["step"] == 3
    assert len(err.value.detail["residuals"]) == 1  # the step's own detail is kept
    assert str(err.value) == "step 3: magnetic Picard residual is non-finite (at t=0.006)"


def test_ledger_rows_make_no_harmonic_solve(monkeypatch):
    nsteps = 5
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=nsteps * DT)
    harmonic = dirichlet_heat(scen.cfg.grid(), 0.0, 1.0)
    solves = []
    solve = DirichletHeat.solve_interior
    monkeypatch.setattr(DirichletHeat, "solve_interior",
                        lambda self, *a: solves.append(self is harmonic) or solve(self, *a))
    _, ledger = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    assert len(ledger) == nsteps + 1
    assert len(solves) > 0 and not any(solves)  # magnetic solves only


def test_a_strong_run_builds_one_poisson_solver_for_its_grid(monkeypatch, tmp_path):
    # the cleaning projection, the strong rows' Stokes operator, the pressure
    # of each state the run outputs and the regularity ratio all solve on the
    # grid's memoized solver
    builds = []
    init = NeumannPoisson.__init__
    monkeypatch.setattr(NeumannPoisson, "__init__",
                        lambda self, grid: builds.append(grid) or init(self, grid))
    operators.neumann_poisson.cache_clear()
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=4 * DT, strong_mode=True)
    cfg = replace(scen.cfg, checkpoint_every=2, checkpoint_dir=str(tmp_path))
    traj, ledger = run(cfg, scen.u0, scen.b0, scen.trace)
    assert all(rep.cleaned for rep in traj.reports)
    assert ledger.strong and np.all(ledger.col("Su_L2_sq") > 0.0)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ckpt_000002.mhdckpt", "ckpt_000004.mhdckpt"]
    assert traj.final_state.p is not None
    assert stokes_regularity_ratio(traj.final_state.u) > 0.0
    assert builds == [scen.cfg.grid()]


def test_stokes_and_poisson_builds_call_no_sparse_lu(monkeypatch):
    from scipy.sparse.linalg._eigen.arpack import arpack

    calls = []

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    count(operators, "splu")
    count(scipy.linalg, "cholesky_banded")
    for name in ("splu", "lu_factor", "gmres"):  # what eigsh factors or iterates with
        count(arpack, name)
    g = Grid(12, 12)
    NeumannPoisson(g)
    StokesSaddle(g, 1.0 / DT, 1.0)
    # Stokes bases by Lanczos (32^2 and 8^2) and by the dense full-basis solve (4^2)
    for nx, n in ((32, 1), (8, 2), (4, 9)):
        build_stokes_basis(Grid(nx, nx), n)
    assert calls == []


def test_module_u_step_returns_mean_zero_pressure(rng):
    g = Grid(16, 16)
    u = random_divfree(g, rng, scale=0.2)
    b = random_divfree(g, rng, scale=0.5)  # its Lorentz force has a gradient part
    new, p = u_step(b, u, _zero_trace(g), DT)
    assert np.max(np.abs(p.values)) > 0.0
    assert abs(p.values.mean()) <= 1e-14 * np.max(np.abs(p.values))
    assert np.max(np.abs(divergence(new).values)) <= 1e-12


def _assert_same_state(a, b):
    assert np.array_equal(a.u.x, b.u.x) and np.array_equal(a.u.y, b.u.y)
    assert np.array_equal(a.b.x, b.b.x) and np.array_equal(a.b.y, b.b.y)
    assert np.array_equal(a.p.values, b.p.values)


def test_restart_of_a_forced_steady_run_is_bit_identical(tmp_path):
    # tail compactness's steady case at 16^2, stopped and resumed at step 60
    cfg, u0, b0, trace, forcing = _mms_scenario(_mms_case("steady"), 16, 2e-3, 0.16)
    full, _ = run(cfg, u0, b0, trace, forcing=forcing)
    half_cfg = replace(cfg, t_final=0.12)
    half, _ = run(half_cfg, u0, b0, trace, forcing=forcing)
    assert len(half.reports) == 60
    path = tmp_path / "step60.mhdckpt"
    write_checkpoint(path, half.final_state, half_cfg, trace, half.restart)
    ck = read_checkpoint(path)
    assert np.array_equal(ck["restart"].b_last.x, half.restart.b_last.x)
    check_restart_header(ck, cfg, trace)
    st = ck["state"]
    resumed, _ = run(cfg, st.u, st.b, trace, forcing=forcing, t0=ck["t"], p0=st.p,
                     restart=ck["restart"])
    _assert_same_state(full.final_state, resumed.final_state)
    # a Picard loop started from b^n instead agrees only to the solver tolerances
    fresh, _ = run(cfg, st.u, st.b, trace, forcing=forcing, t0=ck["t"], p0=st.p)
    assert not np.array_equal(full.final_state.b.x, fresh.final_state.b.x)
    scale = np.sqrt(l2_norm_sq(full.final_state.b))
    assert np.sqrt(l2_norm_sq(full.final_state.b - fresh.final_state.b)) <= 1e-9 * scale


def _old_layout_bytes(magic, state, cfg, trace):
    """``state`` in an earlier checkpoint layout: MHDCKPT1 (the first five
    header fields, no checksum, u, b, p), MHDCKPT2 (today's header, then u,
    b, p and u_ref = u) or MHDCKPT3 (MHDCKPT2 followed by the carried
    magnetic iterates, here b and b)."""
    g = state.u.grid
    arrays = [state.u.x, state.u.y, state.b.x, state.b.y, state.p.values]
    if magic == b"MHDCKPT1":
        return magic + struct.pack("<qqddq", g.nx, g.ny, state.t, cfg.dt, -1) + b"".join(
            a.astype("<f8").tobytes() for a in arrays)
    arrays += [state.u.x, state.u.y]
    if magic == b"MHDCKPT3":
        arrays += [state.b.x, state.b.y] * 2
    payload = b"".join(a.astype("<f8").tobytes() for a in arrays)
    head = magic + struct.pack("<qqddqddd32sQ", g.nx, g.ny, state.t, cfg.dt, -1, cfg.re, cfg.rm,
                               cfg.s, trace.digest(state.t), len(payload))
    return head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + payload


@pytest.mark.parametrize("magic", [b"MHDCKPT1", b"MHDCKPT2", b"MHDCKPT3"], ids=["v1", "v2", "v3"])
def test_old_checkpoint_layout_is_refused(tmp_path, capsys, magic):
    from mhd2d.cli import main

    scen = make_scenario("calib-osc", nx=8, dt=DT, t_final=2 * DT)  # Re = Rm = S = 1
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    path = tmp_path / "old.mhdckpt"
    path.write_bytes(_old_layout_bytes(magic, traj.final_state, scen.cfg, scen.trace))
    with pytest.raises(ConfigError) as exc:
        read_checkpoint(path)
    msg = str(exc.value)
    assert str(path) in msg and repr(magic) in msg and "MHDCKPT4" in msg
    # a restart with other physics: an MHDCKPT1 file records none to compare
    cfg = tmp_path / "restart.cfg"
    cfg.write_text(f"[grid]\nnx = 8\nny = 8\n\n[time]\ndt = {DT!r}\nT = {4 * DT!r}\n\n"
                   "[physics]\nRe = 50\nRm = 0.01\nS = 7\n\n"
                   f"[initial]\ncheckpoint = {path}\n")
    assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert f"config error: checkpoint {path}: not a checkpoint file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg_change, amp, why",
    [
        (dict(re=2.0), 0.15, "physics"),
        (dict(s=0.5), 0.15, "physics"),
        ({}, 0.16, "boundary trace"),
        (dict(t_final=2 * DT), 0.15, "no instant"),
    ],
    ids=["re", "s", "trace", "short-trace"],
)
def test_restart_refuses_changed_physics_or_trace(tmp_path, cfg_change, amp, why):
    scen = make_scenario("calib-osc", nx=8, dt=DT, t_final=4 * DT)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    path = tmp_path / "c.mhdckpt"
    write_checkpoint(path, traj.final_state, scen.cfg, scen.trace, traj.restart)
    ck = read_checkpoint(path)
    check_restart_header(ck, scen.cfg, scen.trace)
    cfg = replace(scen.cfg, **cfg_change)
    mode = replace(scen.boundary_modes[0], amplitude=amp)
    trace = synthesize_trace(cfg.grid(), np.arange(round(cfg.t_final / DT) + 1) * DT, [mode])
    with pytest.raises(ConfigError) as exc:
        check_restart_header(ck, cfg, trace)
    assert why in str(exc.value)


def test_strong_ledger_weak_columns_equal_weak_run():
    # calibration reads the weak constant off the strong-mode run
    weak = make_scenario("calib-osc", nx=16, t_final=0.2)
    strong = make_scenario("calib-osc", nx=16, t_final=0.2, strong_mode=True)
    _, led_w = run(weak.cfg, weak.u0, weak.b0, weak.trace)
    _, led_s = run(strong.cfg, strong.u0, strong.b0, strong.trace)
    strong_only = {"Su_L2_sq", "bhat_H1_sq", "lap_bhat_L2_sq"}
    assert all(np.max(led_s.col(c)) > 0.0 for c in strong_only)
    for c in LEDGER_COLUMNS:
        if c not in strong_only:
            assert np.array_equal(led_s.col(c), led_w.col(c)), c


@pytest.mark.parametrize("strong", [False, True])
def test_a_run_without_a_ledger_returns_the_same_trajectory(monkeypatch, tmp_path, strong):
    # a run without a ledger records no row, advances no parabolic lift and
    # looks up no boundary data for a row; the rest is the same bit for bit
    from mhd2d import estimates, lifting

    nsteps = 4
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=nsteps * DT, strong_mode=strong,
                         keep_states=True, checkpoint_every=2)
    calls = []
    for home, fname in ((estimates, "record"), (lifting, "heat_step")):
        orig = getattr(home, fname)
        for mod in [m for k, m in sys.modules.items() if k.startswith("mhd2d")]:
            if getattr(mod, fname, None) is orig:
                monkeypatch.setattr(mod, fname, lambda *a, f=orig, n=fname, **kw:
                                    calls.append(n) or f(*a, **kw))
    lookup = BoundaryTrace.vector_bc
    monkeypatch.setattr(BoundaryTrace, "vector_bc",
                        lambda self, t: calls.append("bc") or lookup(self, t))
    trajs = {}
    for ledger in (True, False):
        calls.clear()
        (tmp_path / str(ledger)).mkdir()
        cfg = replace(scen.cfg, checkpoint_dir=str(tmp_path / str(ledger)))
        trajs[ledger], rows = run(cfg, scen.u0, scen.b0, scen.trace, ledger=ledger)
        if ledger:
            assert len(rows) == nsteps + 1
            assert calls.count("record") == nsteps + 1 and calls.count("bc") == nsteps + 1
            assert calls.count("heat_step") == (nsteps if strong else 0)
        else:
            assert rows is None
            assert calls.count("record") == calls.count("heat_step") == 0
            assert calls.count("bc") == nsteps  # the steps' own
    with_rows, without = trajs[True], trajs[False]
    assert with_rows.times == without.times
    assert with_rows.reports == without.reports
    _assert_same_state(with_rows.final_state, without.final_state)
    for a, b in zip(with_rows.restart, without.restart):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert len(with_rows.states) == len(without.states) == nsteps + 1
    for a, b in zip(with_rows.states, without.states):
        assert a.t == b.t
        assert np.array_equal(a.u.x, b.u.x) and np.array_equal(a.u.y, b.u.y)
        assert np.array_equal(a.b.x, b.b.x) and np.array_equal(a.b.y, b.b.y)
    for name in ("ckpt_000002.mhdckpt", "ckpt_000004.mhdckpt"):
        assert (tmp_path / "True" / name).read_bytes() == (tmp_path / "False" / name).read_bytes()


@pytest.mark.parametrize(
    "sid, dt, nsteps, over, p_max, mismatch_max",
    [
        # measured: P 9.61e-4, |L + I| 2.32e-8 (largest over steps, relative to E^n)
        ("decay", 1e-3, 50, {}, 4e-3, 1e-7),
        # measured: P 1.14e-6, |L + I| 8.71e-7
        ("picard-ref", 2e-3, 25, dict(re=100.0, rm=100.0), 5e-6, 3.5e-6),
    ],
    ids=["decay", "picard-ref"],
)
def test_step_energy_budget_closes_to_round_off(sid, dt, nsteps, over, p_max, mismatch_max):
    """R(b_hat) = T + L + I on every step (measured 1.5e-13 and 9.2e-13 of E^n);
    the cleaning work P and the Lorentz-induction mismatch L + I stay at
    about a quarter of their bounds."""
    scen = make_scenario(sid, nx=32, dt=dt, t_final=nsteps * dt, **over)
    st = Stepper(scen.cfg, scen.trace)
    state = SimState(0.0, scen.u0, scen.b0, None)
    for _ in range(nsteps):
        new, _ = st.coupled_step(state)
        energy = inner(state.u, state.u) + inner(state.b, state.b)
        r_hat, r1, work_t, work_l, work_i = energy_budget_oracle(
            scen.cfg, state.u, state.b, new.u, st.b_iterates[2], new.b)
        assert abs(r_hat - work_t - work_l - work_i) <= 1e-10 * energy
        assert abs(r1 - r_hat) <= p_max * energy
        assert abs(work_l + work_i) <= mismatch_max * energy
        state = new
