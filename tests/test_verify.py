import math

import numpy as np

from mhd2d import verify
from mhd2d.dynamics import run
from mhd2d.estimates import CalibrationStore
from mhd2d.geometry import l2_norm_sq
from mhd2d.lifting import lifting_estimate_check
from mhd2d.scenarios import make_scenario
from mhd2d.verify import (
    ExperimentReport,
    _fit_order,
    _mms_case,
    _mms_error,
    _mms_final_state,
    _mms_scenario,
    _sample_vec,
    absorbing_experiment,
    identity_suite,
    picard_contraction_study,
)


def test_report_plumbing(tmp_path):
    rep = ExperimentReport("demo")
    rep.check("a", "tag", 1.0, 2.0, True)
    rep.check("b", "tag", 3.0, 2.0, False)
    assert not rep.passed
    text = rep.to_csv_text()
    assert text.splitlines()[0] == "experiment,assertion,paper_ref,measured,tolerance,pass"
    assert "demo,b,tag,3.0,2.0,0" in text
    rep.write(tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == text


def test_fit_order_recovers_slope():
    hs = [0.1, 0.05, 0.025]
    errs = [h**2 * 3.0 for h in hs]
    assert abs(_fit_order(hs, errs) - 2.0) < 1e-12


def test_identity_suite_is_deterministic():
    a = identity_suite()
    b = identity_suite()
    assert a.to_csv_text() == b.to_csv_text()
    assert a.passed


def test_mms_zero_solution_zero_forcing():
    # a trivially zero manufactured state must be reproduced exactly
    from mhd2d.dynamics import SolverConfig
    from mhd2d.geometry import VectorField
    from mhd2d.lifting import synthesize_trace
    from mhd2d.scenarios import trace_times

    cfg = SolverConfig(nx=8, ny=8, dt=1e-3, t_final=5e-3)
    g = cfg.grid()
    tz = synthesize_trace(g, trace_times(cfg), [])
    traj, _ = run(cfg, VectorField.zeros(g), VectorField.zeros(g), tz)
    assert l2_norm_sq(traj.final_state.u) == 0.0
    assert l2_norm_sq(traj.final_state.b) == 0.0


def test_mms_steady_state_held_stationary():
    case = _mms_case("steady")
    err = _mms_error(case, 16, 1e-3, 0.05)
    # O(dx^2 + dt): at nx=16 the spatial part dominates and is small
    assert err < 0.08


def test_mms_forcing_consistency():
    # the symbolic forcing really balances the manufactured state: the
    # residual error must shrink at second order
    case = _mms_case("steady")
    e16 = _mms_error(case, 16, 1e-3, 0.05)
    e32 = _mms_error(case, 32, 1e-3, 0.05)
    assert e16 / e32 > 3.0


def _counting_case(kind):
    """_mms_case(kind) with every forcing lambda counting its calls."""
    case = _mms_case(kind)
    calls = {}

    def counted(name, f):
        def g(*args):
            calls[name] = calls.get(name, 0) + 1
            return f(*args)

        return g

    for key in ("fu", "fb"):
        case[key] = tuple(counted(f"{key}{i}", f) for i, f in enumerate(case[key]))
    return case, calls


def test_magnetic_temporal_order():
    # b = cos(4 pi t) curl psi_b + (0.3, 0.2) keeps its trace constant; the
    # unsteady case of criterion 02 has b = 0, so this is the only measure of
    # b's temporal order
    case = _mms_case("magnetic")
    t_final = 0.24

    def b_error(nx, dt, ref=None):
        st = _mms_final_state(case, nx, dt, t_final)
        want = _sample_vec(st.b.grid, case["b"], st.t) if ref is None else ref
        return math.sqrt(l2_norm_sq(st.b - want))

    # self-convergence against a fine-dt run on the same grid
    dts = (4e-3, 2e-3, 1e-3)
    ref = _mms_final_state(case, 16, 2.5e-4, t_final).b
    assert _fit_order(dts, [b_error(16, dt, ref) for dt in dts]) >= 0.9
    # against the exact field on a fine grid, with steps long enough that the
    # temporal error outweighs the spatial one
    dts = (4e-2, 2e-2, 1e-2)
    assert _fit_order(dts, [b_error(64, dt) for dt in dts]) >= 0.9


def test_steady_forcing_sampled_once_per_run():
    case, calls = _counting_case("steady")
    assert case["time_free"] == {"fu": True, "fb": True}
    nsteps = 4
    cfg, u0, b0, trace, forcing = _mms_scenario(case, 16, 1e-3, nsteps * 1e-3)
    fu, fb = forcing.u_at(0.0), forcing.b_at(0.0)
    kept = [a.copy() for a in (fu.x, fu.y, fb.x, fb.y)]
    for t in (0.0, 0.37, 5.0):
        for got, key in ((forcing.u_at(t), "fu"), (forcing.b_at(t), "fb")):
            want = _sample_vec(cfg.grid(), _mms_case("steady")[key], t)
            assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
    traj, _ = run(cfg, u0, b0, trace, forcing=forcing)
    assert len(traj.reports) == nsteps
    assert calls == {"fu0": 1, "fu1": 1, "fb0": 1, "fb1": 1}
    # every step shares the cached fields, and nothing writes to them
    assert all(np.array_equal(a, k) for a, k in zip((fu.x, fu.y, fb.x, fb.y), kept))
    assert not fu.x.flags.writeable and not fb.y.flags.writeable


def test_unsteady_forcing_sampled_every_step():
    case, calls = _counting_case("unsteady")
    assert case["time_free"] == {"fu": False, "fb": True}  # b stays zero
    nsteps = 4
    cfg, u0, b0, trace, forcing = _mms_scenario(case, 16, 1e-3, nsteps * 1e-3)
    calls.clear()
    run(cfg, u0, b0, trace, forcing=forcing)
    assert calls["fu0"] == calls["fu1"] == nsteps


def test_absorbing_gate_failure_reported():
    store = CalibrationStore()
    store.set("absorb_c1", 1e12, "synthetic")
    store.set("absorb_c0", 1.0, "synthetic")
    store.set("absorb_c_tilde", 1.25, "synthetic")
    store.set("absorb_c_omega", 1.0, "synthetic")
    rep = absorbing_experiment(store, nx=16, dt=4e-3, variant="reference")
    assert not rep.passed
    gate = [a for a in rep.assertions if a.assertion_id == "smallness-gate"]
    assert gate and not gate[0].passed


def test_picard_study_decoupled_ratio_is_zero():
    from mhd2d.dynamics import SolverConfig, Stepper, _interior_rhs
    from mhd2d.geometry import Grid, VectorField, face_halves, magnetic_halves, wall_rows
    from mhd2d.lifting import synthesize_trace

    g = Grid(8, 8)
    tz = synthesize_trace(g, [0.0, 1e-3], [])
    from conftest import random_divfree

    b0 = random_divfree(g, np.random.default_rng(1))
    st = Stepper(SolverConfig(nx=8, ny=8, dt=1e-3, t_final=1e-3), tz)
    u, bc = VectorField.zeros(g), tz.vector_bc(1e-3)
    heat = st.magnetic_operator(u)
    _, rep = st.b_step(u, 0.0, rhs=_interior_rhs(b0, 1e-3), operator=heat, boundary=heat.boundary(bc),
                       start=magnetic_halves(b0, wall_rows(g, bc)),
                       u_frozen_halves=face_halves(u, wall_rows(g)))
    assert rep.contraction_ratio == 0.0 and rep.picard_iterations == 2


def test_picard_study_report_is_pinned():
    # criterion 07 factors a transport pair at each step's u^n, apart from
    # the stepper's heat operator; these are its values bit for bit since
    # the study first did so
    rep = picard_contraction_study()
    assert rep.extras == {
        "ratios": [0.03543292886680397, 0.021836532984566618, 0.012616160627143151],
        "ratio_doubled": 0.06926489312908995,
    }
    assert rep.passed


def test_zero_perturbation_gives_exactly_zero_difference():
    from mhd2d.scenarios import make_scenario
    from mhd2d.verify import _difference_measure

    scen = make_scenario("cd-base", nx=16, dt=2e-3, t_final=0.02, keep_states=True)
    t1, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    t2, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    d = _difference_measure(t1.states, t2.states, scen.trace, scen.trace, scen.cfg.dt)
    assert d == 0.0


def test_tail_full_rank_and_single_mode():
    from conftest import random_divfree
    from mhd2d.geometry import Grid, grad_norm_sq
    from mhd2d.spectral import build_stokes_basis, project

    g = Grid(8, 8)
    full = (g.nx - 1) * (g.ny - 1)
    basis = build_stokes_basis(g, full)
    f = random_divfree(g, np.random.default_rng(2))
    _, rec = project(basis, f, full)
    assert grad_norm_sq(f - rec) < 1e-9
    k = 5
    xi = basis.mode(k - 1)
    for n in (k, k + 3):
        _, u1 = project(basis, xi, n)
        assert grad_norm_sq(xi - u1) < 1e-9
    _, u1 = project(basis, xi, k - 1)
    assert abs(grad_norm_sq(xi - u1) - basis.eigenvalues[k - 1]) < 1e-6


def test_calibration_runs_one_absorbing_probe(monkeypatch):
    # a probe whose window bound fails raises no constant and is not re-run
    seen = []

    def failing_probe(store, **kw):
        seen.append((store.get("absorb_c_omega"), store.get("absorb_c_tilde")))
        rep = ExperimentReport("absorbing")
        rep.check("window-bound", "synthetic", 2.0, 1.0, False)
        return rep

    monkeypatch.setattr(verify, "absorbing_experiment", failing_probe)
    store = verify.calibrate_constants(nx=8, dt=0.01)
    scen = make_scenario("calib-osc", nx=8, dt=0.01, strong_mode=True)
    c_omega = max(lifting_estimate_check(scen.trace, 0.5).c_h1 * 1.5, 1.0)
    assert seen == [(c_omega, 1.25)]
    assert store.values["absorb_c_omega"] == (c_omega, "calib-osc")
    assert "rho2_measured" not in store.values
