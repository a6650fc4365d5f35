import struct
import weakref
import zlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_divfree
from mhd2d import dynamics, operators
from mhd2d.dynamics import (
    Forcing,
    SimState,
    SolverConfig,
    Stepper,
    check_restart_header,
    compatibility_check,
    read_checkpoint,
    run,
    write_checkpoint,
)
from mhd2d import geometry
from mhd2d.errors import CompatibilityError, ConfigError, StepFailure
from mhd2d.estimates import LEDGER_COLUMNS
from mhd2d.geometry import (
    Grid,
    ScalarField,
    VectorField,
    divergence,
    inner,
    l2_norm_sq,
    transported_half,
)
from mhd2d.lifting import BoundaryTrace, TraceMode, synthesize_trace
from mhd2d.operators import NeumannPoisson, StokesSaddle, TransportOperator
from mhd2d.scenarios import make_scenario, stream_bump
from mhd2d.spectral import build_laplacian_basis, build_stokes_basis
from mhd2d.verify import _mms_case, _mms_scenario

DT = 1e-3


def b_step(u_frozen, b_prev, trace, dt, **cfg_kw):
    """One unforced magnetic step of a fresh Stepper from the trace's first
    instant, on a pair factored at u_frozen and started from b_prev."""
    cfg = SolverConfig(nx=b_prev.grid.nx, ny=b_prev.grid.ny, dt=dt, t_final=dt, **cfg_kw)
    st, t = Stepper(cfg, trace), trace.times[0]
    return st.b_step(u_frozen, b_prev, t, bc=trace.vector_bc(t + dt),
                     transport=st.transport_operators(u_frozen), fb=None, b_start=b_prev)


def u_step(b_frozen, u_prev, trace, dt, basis=None, n_modes=None):
    """One unforced velocity step of a fresh Stepper from the trace's first
    instant, advected by u_prev: (u_new, p)."""
    cfg = SolverConfig(nx=u_prev.grid.nx, ny=u_prev.grid.ny, dt=dt, t_final=dt, n_modes=n_modes)
    st = Stepper(cfg, trace, basis=basis)
    u_new, f = st.u_step(b_frozen, u_prev, u_advect=u_prev, bc=trace.vector_bc(trace.times[0] + dt),
                         fu=None, u_prev_half=transported_half(u_prev))
    return u_new, st.pressure(f, u_new)


def _zero_trace(grid, T=0.05, dt=DT):
    times = np.arange(0.0, T + 1e-12, dt)
    return synthesize_trace(grid, times, [])


def test_config_validation_collects_violations():
    cfg = SolverConfig(nx=2, ny=32, dt=-1.0, t_final=0.0, outer_mode="bogus")
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    msg = str(exc.value)
    assert "nx" in msg and "dt" in msg and "outer" in msg


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
    assert rep.picard_iterations == 1


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
        (lambda raw: raw[: -2 * _VECTOR_BYTES_8], "payload has"),
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
    write_checkpoint(path, traj.final_state, scen.cfg, scen.trace)
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
    traj.final_state.validate(scen.trace)


def test_picard_ratio_never_grows_much_when_dt_halves():
    vals = []
    for dt in (2e-3, 1e-3):
        scen = make_scenario("picard-ref", nx=16, dt=dt, t_final=6 * dt,
                             outer_mode="single_pass", picard_tol=1e-13)
        traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
        vals.append(max(r.contraction_ratio for r in traj.reports))
    assert vals[1] <= 1.05 * vals[0]


def test_b_step_reused_pair_matches_fresh_factorization():
    # an outer iterate ubar != u^n on the pair factored at u^n reaches the
    # implicit-transport solution at ubar
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    st = Stepper(scen.cfg, scen.trace)
    u_n = scen.u0
    ubar = u_n + stream_bump(u_n.grid, 0.2, 1, 2)
    kw = dict(bc=st.vector_bc(DT), fb=None, b_start=scen.b0)
    reused, rep = st.b_step(ubar, scen.b0, 0.0, transport=st.transport_operators(u_n), **kw)
    fresh, _ = st.b_step(ubar, scen.b0, 0.0, transport=st.transport_operators(ubar), **kw)
    assert rep.picard_iterations > 1
    tol = 10 * scen.cfg.picard_tol * (1.0 + np.sqrt(l2_norm_sq(fresh)))
    assert np.sqrt(l2_norm_sq(reused - fresh)) <= tol


def test_warm_started_b_step_reaches_the_cold_fixed_point_sooner():
    # the second outer iterate of a step: ubar from the first iterate's b,
    # which is where the warm start begins Picard
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=DT)
    st = Stepper(scen.cfg, scen.trace)
    u_n = scen.u0
    pair, bc = st.transport_operators(u_n), st.vector_bc(DT)
    b_first, _ = st.b_step(u_n, scen.b0, 0.0, bc=bc, transport=pair, fb=None, b_start=scen.b0)
    ubar, _ = st.u_step(b_first, u_n, u_advect=u_n, bc=bc, fu=None,
                        u_prev_half=transported_half(u_n))
    warm, rep_warm = st.b_step(ubar, scen.b0, 0.0, bc=bc, transport=pair, fb=None,
                               b_start=b_first)
    cold, rep_cold = st.b_step(ubar, scen.b0, 0.0, bc=bc, transport=pair, fb=None,
                               b_start=scen.b0)
    assert rep_warm.picard_iterations < rep_cold.picard_iterations
    tol = 10 * scen.cfg.picard_tol * (1.0 + np.sqrt(l2_norm_sq(cold)))
    assert np.sqrt(l2_norm_sq(warm - cold)) <= tol


def _collect_b_steps(monkeypatch, reports, cold=False):
    """Record every b_step report; ``cold`` starts every Picard loop from b_prev."""
    b_step_orig = Stepper.b_step

    def collecting(self, *args, **kwargs):
        if cold:
            kwargs["b_start"] = args[1]
        out = b_step_orig(self, *args, **kwargs)
        reports.append(out[1])
        return out

    monkeypatch.setattr(Stepper, "b_step", collecting)


def test_coupled_report_sums_and_maxes_its_b_steps(monkeypatch):
    reports = []
    _collect_b_steps(monkeypatch, reports)
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=10 * DT)
    st = Stepper(scen.cfg, scen.trace)
    state = SimState(0.0, scen.u0, scen.b0, ScalarField.zeros(scen.cfg.grid()))
    warm_tail = False
    for _ in range(10):
        reports.clear()
        state, rep = st.coupled_step(state)
        assert len(reports) == rep.outer_iterations > 1
        assert rep.picard_iterations == sum(r.picard_iterations for r in reports)
        assert rep.contraction_ratio == max(r.contraction_ratio for r in reports)
        assert rep.picard_residual == reports[-1].picard_residual
        warm_tail |= reports[-1].picard_iterations < reports[0].picard_iterations
    assert warm_tail  # the last iterate alone would understate the step's work


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
            starts.append(kwargs["b_start"])
            kwargs["b_start"] = args[1]  # b_prev, the state's b
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
    state = once
    for _ in range(2):
        state, _ = st.coupled_step(state)
    assert st.b_iterates[0] == state.t
    again, _ = st.coupled_step(state0)  # t = 0 does not match: reseeded with (b0, b0)
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
    assert sum(r.outer_iterations for r in carried.reports) == sum(
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
                        lambda b, poisson: before.append(b) or clean(b, poisson))
    _, rep = Stepper(cfg, trace).coupled_step(SimState(0.0, zero, zero, ScalarField.zeros(g)))
    assert rep.picard_iterations == 1  # u = 0: the magnetic solve is one heat solve
    assert rep.cleaned and rep.div_b_before_clean > 1e6 * cfg.div_clean_threshold
    div = np.abs(divergence(before[0]).values)
    assert div.max() == rep.div_b_before_clean
    i, j = np.unravel_index(np.argmax(div), div.shape)
    assert min(i, j, div.shape[0] - 1 - i, div.shape[1] - 1 - j) == 0  # a cell at the wall
    assert div[2:-2, 2:-2].max() < 0.1 * div.max()


def test_transport_builds_equal_refactored_steps(monkeypatch):
    builds = []
    init = TransportOperator.__init__

    def counting(self, grid, comp, a, inv_dt, kappa):
        builds.append(comp)
        init(self, grid, comp, a, inv_dt, kappa)

    monkeypatch.setattr(TransportOperator, "__init__", counting)
    nsteps = 40
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=nsteps * DT)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    refactored = [r.transport_refactored for r in traj.reports]
    assert sum(r.outer_iterations for r in traj.reports) > nsteps
    assert refactored[0] and len(builds) == 2 * sum(refactored)
    assert sum(refactored) <= nsteps // 2  # the pair outlives its step
    # the velocity of the manufactured steady state stays put: one pair per run
    builds.clear()
    cfg, u0, b0, trace, forcing = _mms_scenario(_mms_case("steady"), 16, 2e-3, 0.12)
    traj, _ = run(cfg, u0, b0, trace, forcing=forcing)
    assert len(builds) == 2 and sum(r.transport_refactored for r in traj.reports) == 1


def test_live_pair_stays_within_reuse_threshold():
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=30 * DT)
    st = Stepper(scen.cfg, scen.trace)
    state = SimState(0.0, scen.u0, scen.b0, ScalarField.zeros(scen.cfg.grid()))
    for _ in range(30):
        u_n = state.u
        state, rep = st.coupled_step(state)
        dist = np.sqrt(l2_norm_sq(u_n - st.transport.u_ref))
        assert dist <= dynamics.TRANSPORT_REUSE_THETA * np.sqrt(l2_norm_sq(u_n))
        assert rep.transport_refactored == (st.transport.u_ref is u_n)

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
    # u.x, u.y, b.x, b.y and p once per step; nothing else in the run scans
    assert per_step == [5] * nsteps
    assert len(scans) == 5 * nsteps


@pytest.mark.parametrize("mode", ["fixed_point", "single_pass"])
def test_pressure_recovered_once_per_coupled_step(monkeypatch, mode):
    recoveries = []
    recover = StokesSaddle.pressure
    monkeypatch.setattr(StokesSaddle, "pressure",
                        lambda self, *a: recoveries.append(a) or recover(self, *a))
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=4 * DT, outer_mode=mode)
    # no cleaning, so the state's b is the one the velocity step saw
    st = Stepper(replace(scen.cfg, div_clean_threshold=np.inf), scen.trace)
    assert st.saddle.poisson is st.poisson  # cleaning, ledger and pressure share one solver
    state = SimState(0.0, scen.u0, scen.b0, ScalarField.zeros(scen.cfg.grid()))
    outer = 0
    for _ in range(4):
        prev = state
        state, rep = st.coupled_step(state)
        outer += rep.outer_iterations
    assert len(recoveries) == 4
    assert outer > 4 if mode == "fixed_point" else outer == 4
    assert abs(state.p.values.mean()) <= 1e-14 * np.max(np.abs(state.p.values))
    if mode == "single_pass":  # the one iterate is a plain velocity step at u^n
        u, f = st.u_step(state.b, prev.u, u_advect=prev.u, bc=st.vector_bc(state.t), fu=None,
                         u_prev_half=transported_half(prev.u))
        p = st.pressure(f, u)
        assert np.array_equal(p.values, state.p.values)


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
    StokesSaddle(g, 1.0 / DT, 1.0, NeumannPoisson(g))
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


def test_old_pair_is_freed_before_the_new_one_is_built(monkeypatch):
    live, seen = weakref.WeakSet(), []
    init = TransportOperator.__init__

    def tracking(self, grid, comp, a, inv_dt, kappa):
        seen.append(len(live))  # transport operators still alive
        live.add(self)
        init(self, grid, comp, a, inv_dt, kappa)

    monkeypatch.setattr(TransportOperator, "__init__", tracking)
    scen = make_scenario("calib-osc", nx=16, dt=DT, t_final=20 * DT)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    assert sum(r.transport_refactored for r in traj.reports) > 1
    assert seen[::2] == [0] * (len(seen) // 2) and seen[1::2] == [1] * (len(seen) // 2)


def _assert_same_state(a, b):
    assert np.array_equal(a.u.x, b.u.x) and np.array_equal(a.u.y, b.u.y)
    assert np.array_equal(a.b.x, b.b.x) and np.array_equal(a.b.y, b.b.y)
    assert np.array_equal(a.p.values, b.p.values)


def test_single_pass_matches_refactoring_every_b_step(monkeypatch):
    # with theta = 0 every step refactors at u^n: the pair factored once per
    # step, which a fresh factorization in every b_step reproduces bit for bit
    monkeypatch.setattr(dynamics, "TRANSPORT_REUSE_THETA", 0.0)
    for mode in ("single_pass", "fixed_point"):
        scen = make_scenario("picard-ref", nx=16, dt=DT, t_final=5 * DT, outer_mode=mode)
        every_step, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
        assert all(r.transport_refactored for r in every_step.reports)
        with monkeypatch.context() as m:
            if mode == "single_pass":  # u_frozen = u^n: factor at u_frozen in every b_step
                b_step_reused = Stepper.b_step

                def refactoring(self, u_frozen, b_prev, t_prev, **kw):
                    kw["transport"] = self.transport_operators(u_frozen)
                    return b_step_reused(self, u_frozen, b_prev, t_prev, **kw)

                m.setattr(Stepper, "b_step", refactoring)
            else:  # drop the live pair before every step
                step = Stepper.coupled_step

                def dropping(self, state):
                    self.transport = None
                    return step(self, state)

                m.setattr(Stepper, "coupled_step", dropping)
            fresh, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
        _assert_same_state(every_step.final_state, fresh.final_state)


def test_restart_with_a_reused_pair_live_is_bit_identical(tmp_path):
    # tail compactness's steady case at 16^2: the pair factored at step 1 is
    # still live at step 60, where the run stops and resumes
    cfg, u0, b0, trace, forcing = _mms_scenario(_mms_case("steady"), 16, 2e-3, 0.16)
    full, _ = run(cfg, u0, b0, trace, forcing=forcing)
    half_cfg = replace(cfg, t_final=0.12)
    half, _ = run(half_cfg, u0, b0, trace, forcing=forcing)
    assert len(half.reports) == 60 and not half.reports[-1].transport_refactored
    assert not np.array_equal(half.restart.u_ref.x, half.final_state.u.x)
    path = tmp_path / "step60.mhdckpt"
    write_checkpoint(path, half.final_state, half_cfg, trace, half.restart)
    ck = read_checkpoint(path)
    assert np.array_equal(ck["restart"].u_ref.x, half.restart.u_ref.x)
    check_restart_header(ck, cfg, trace)
    st = ck["state"]
    resumed, _ = run(cfg, st.u, st.b, trace, forcing=forcing, t0=ck["t"], p0=st.p,
                     restart=ck["restart"])
    _assert_same_state(full.final_state, resumed.final_state)
    # refactoring at u^n instead (what a v1 checkpoint implies) agrees only
    # to the solver tolerances
    fresh, _ = run(cfg, st.u, st.b, trace, forcing=forcing, t0=ck["t"], p0=st.p)
    assert not np.array_equal(full.final_state.b.x, fresh.final_state.b.x)
    scale = np.sqrt(l2_norm_sq(full.final_state.b))
    assert np.sqrt(l2_norm_sq(full.final_state.b - fresh.final_state.b)) <= 1e-9 * scale


def test_v1_checkpoint_reads_with_u_ref_equal_to_u(tmp_path):
    scen = make_scenario("calib-osc", nx=8, dt=DT, t_final=2 * DT)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    s = traj.final_state
    g = s.u.grid
    arrays = (s.u.x, s.u.y, s.b.x, s.b.y, s.p.values)
    path = tmp_path / "v1.mhdckpt"
    path.write_bytes(b"MHDCKPT1" + struct.pack("<qqddq", g.nx, g.ny, s.t, DT, -1)
                     + b"".join(a.astype("<f8").tobytes() for a in arrays))
    ck = read_checkpoint(path)
    assert ck["physics"] is None and ck["trace_digest"] is None
    carried = ck["restart"]
    assert carried.u_ref is ck["state"].u
    assert carried.b_prev is ck["state"].b and carried.b_last is ck["state"].b
    assert np.array_equal(ck["state"].b.y, s.b.y)
    check_restart_header(ck, scen.cfg, scen.trace)  # nothing recorded to mismatch


def test_v2_checkpoint_reads_with_the_iterates_equal_to_b(tmp_path):
    scen = make_scenario("calib-osc", nx=8, dt=DT, t_final=4 * DT)
    full, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    half_cfg = replace(scen.cfg, t_final=2 * DT)
    half, _ = run(half_cfg, scen.u0, scen.b0, scen.trace)
    s, u_ref = half.final_state, half.restart.u_ref
    g = s.u.grid
    arrays = (s.u.x, s.u.y, s.b.x, s.b.y, s.p.values, u_ref.x, u_ref.y)
    payload = b"".join(a.astype("<f8").tobytes() for a in arrays)
    head = b"MHDCKPT2" + struct.pack("<qqddqddd32sQ", g.nx, g.ny, s.t, DT, -1, scen.cfg.re,
                                     scen.cfg.rm, scen.cfg.s, scen.trace.digest(s.t), len(payload))
    path = tmp_path / "v2.mhdckpt"
    path.write_bytes(head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + payload)
    ck = read_checkpoint(path)
    st, carried = ck["state"], ck["restart"]
    assert np.array_equal(carried.u_ref.x, u_ref.x)
    assert carried.b_prev is st.b and carried.b_last is st.b
    check_restart_header(ck, scen.cfg, scen.trace)
    resumed, _ = run(scen.cfg, st.u, st.b, scen.trace, t0=ck["t"], p0=st.p, restart=carried)
    want, got = full.final_state, resumed.final_state
    for a, b in ((want.u, got.u), (want.b, got.b)):
        assert np.sqrt(l2_norm_sq(a - b)) <= 1e-9 * np.sqrt(l2_norm_sq(a))


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
