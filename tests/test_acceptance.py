"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
The calibration constants are measured once per session on the reference
scenarios and frozen for every assertion here.
"""

import time

import numpy as np

from mhd2d.dynamics import run
from mhd2d.geometry import Grid
from mhd2d.lifting import synthesize_trace
from mhd2d.scenarios import make_scenario
from mhd2d.spectral import build_laplacian_basis
from mhd2d.verify import (
    absorbing_experiment,
    basis_stability,
    brezis_gallouet_study,
    continuous_dependence,
    gronwall_suite,
    identity_suite,
    mms_convergence,
    picard_contraction_study,
    tail_compactness,
)


def _verdict(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _report_verdict(num, name, rep, budget_s):
    detail = "; ".join(
        f"{a.assertion_id}={a.measured:.4g} (tol {a.tolerance:.4g})" for a in rep.assertions
    )
    ok = rep.passed and rep.runtime_s < budget_s
    _verdict(num, name, ok, detail + f"; runtime {rep.runtime_s:.1f}s < {budget_s}s")


def test_criterion_01_vector_identities():
    rep = identity_suite(nx_pair=(32, 64))
    _report_verdict(1, "vector identity residual decay >= 3.5 per halving", rep, 10.0)


def test_criterion_02_mms_convergence():
    rep = mms_convergence(nx_list=(16, 32, 64), dt_list=(4e-3, 2e-3, 1e-3))
    _report_verdict(2, "manufactured-solution orders (space >= 1.9, time >= 0.9)", rep, 300.0)


def test_criterion_03_homogeneous_energy_law():
    t0 = time.time()
    margins = {}
    monotone = {}
    for dt in (2e-3, 1e-3):
        scen = make_scenario("decay", nx=32, dt=dt, t_final=0.1)
        _, ledger = run(scen.cfg, scen.u0, scen.b0, scen.trace)
        e = ledger.col("u_L2_sq") + ledger.col("b_L2_sq")
        diss = ledger.col("grad_u_L2_sq") + ledger.col("grad_btilde_L2_sq")
        margins[dt] = float(np.max(np.abs(np.diff(e) / dt + 2.0 * diss[1:])))
        monotone[dt] = bool(np.all(np.diff(e) <= 0.0))
    elapsed = time.time() - t0
    decays = margins[1e-3] <= 0.75 * margins[2e-3]
    ok = decays and all(monotone.values()) and elapsed < 60.0
    _verdict(
        3,
        "homogeneous energy law: O(dt) margin, E non-increasing",
        ok,
        f"margins {margins[2e-3]:.3g} -> {margins[1e-3]:.3g}, monotone {monotone}, "
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_04_heat_decay_oracle():
    from mhd2d.lifting import parabolic_lift

    t0 = time.time()
    g = Grid(32, 32)
    dt = 1e-4
    horizon = 0.05
    times = np.arange(0.0, horizon + 1e-12, dt)
    trace = synthesize_trace(g, times, [])
    basis = build_laplacian_basis(g, 1)
    mu1 = basis.eigenvalues[0]
    lift = parabolic_lift(basis.mode(0), trace, dt, horizon)
    rate = -(np.log(lift.l2_sq[-1]) - np.log(lift.l2_sq[0])) / (lift.times[-1] - lift.times[0])
    rel = abs(rate - 2.0 * mu1) / (2.0 * mu1)
    elapsed = time.time() - t0
    ok = rel < 0.01 and elapsed < 60.0
    _verdict(4, "magnetic heat decay matches 2*mu1 within 1%", ok,
             f"fitted {rate:.4f} vs {2 * mu1:.4f} (rel {rel:.2e}); runtime {elapsed:.1f}s < 60s")


def test_criterion_05_gronwall_bound(calibration_store):
    rep = gronwall_suite(calibration_store, nx=32, t_final=1.0)
    _report_verdict(5, "integrated energy bound on 5 boundary scenarios", rep, 600.0)


def test_criterion_06_continuous_dependence():
    rep = continuous_dependence(nx=32, t_final=0.5)
    _report_verdict(6, "quadratic continuous dependence across eps", rep, 600.0)


def test_criterion_07_picard_contraction():
    rep = picard_contraction_study(dt_list=(4e-3, 2e-3, 1e-3), nx=32)
    _report_verdict(7, "magnetic Picard contraction < 1, non-increasing in dt", rep, 120.0)


def test_criterion_08_absorbing_set(calibration_store):
    rep = absorbing_experiment(calibration_store, nx=32, dt=2e-3, variant="acceptance",
                               diam_factor=100.0, strong="check")
    _report_verdict(8, "absorbing ball entry and stay, window bounds", rep, 600.0)


def test_criterion_09_tail_compactness():
    rep = tail_compactness(n_list=(4, 8, 16, 32), nx=32, dt=2e-3, t_final=0.5)
    _report_verdict(9, "tail H1 energy decreasing, >= 10x from n=4 to n=32", rep, 300.0)


def test_criterion_10_basis_inequality_and_regularity():
    rep = basis_stability(nx_pair=(32, 64), n=10, seed=0)
    _report_verdict(10, "spectral constants stable within factor 2 across nx", rep, 300.0)


def test_criterion_11_sup_interpolation():
    rep = brezis_gallouet_study(nx_pair=(32, 64), count=200, seed=0)
    _report_verdict(11, "sup-interpolation ratio stable within 10%", rep, 60.0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    blobs = []
    for sub in ("a", "b"):
        scen = make_scenario("calib-osc", nx=16, dt=2e-3, t_final=0.05)
        traj, ledger = run(scen.cfg, scen.u0, scen.b0, scen.trace)
        from mhd2d.dynamics import write_checkpoint

        path = tmp_path / f"{sub}.mhdckpt"
        write_checkpoint(path, traj.final_state, scen.cfg, scen.trace, traj.restart)
        blobs.append(ledger.to_csv_text().encode() + path.read_bytes())
    reports = [identity_suite().to_csv_text() for _ in range(2)]
    elapsed = time.time() - t0
    ok = blobs[0] == blobs[1] and reports[0] == reports[1]
    _verdict(12, "bit-identical repeat of run and experiment", ok,
             f"runtime {elapsed:.1f}s")
