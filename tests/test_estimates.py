import math

import numpy as np
import pytest

from mhd2d.estimates import (
    LEDGER_COLUMNS,
    CalibrationStore,
    EnergyLedger,
    absorbing_radii,
    brezis_gallouet_ratio,
    calibrate_weak_energy,
    gronwall_weak,
    record,
    smallness_gate,
    stokes_regularity_ratio,
    strong_energy,
    weak_energy_residual,
)
from conftest import ledger_row_oracle, scalar_from_function
from mhd2d.geometry import Grid, ScalarField, VectorField
from mhd2d.lifting import TraceMode, synthesize_trace
from mhd2d.spectral import build_stokes_basis


def _ledger_from(times, **cols):
    led = EnergyLedger(strong="Su_L2_sq" in cols)
    n = len(times)
    for i in range(n):
        row = {c: 0.0 for c in LEDGER_COLUMNS}
        row["t"] = times[i]
        for k, v in cols.items():
            row[k] = v[i] if np.ndim(v) else v
        led.add_row(**row)
    return led


def test_ledger_strictly_increasing_times():
    led = EnergyLedger()
    led.add_row(**{c: 0.0 for c in LEDGER_COLUMNS})
    with pytest.raises(ValueError):
        led.add_row(**{c: 0.0 for c in LEDGER_COLUMNS})


def test_record_zero_state():
    g = Grid(8, 8)
    tz = synthesize_trace(g, [0.0], [])
    led = EnergyLedger()
    z = VectorField.zeros(g)
    row = record(led, 0.0, z, z, tz, bc=tz.vector_bc(0.0))
    assert all(v == 0.0 for v in row.values())


def test_record_stokes_mode_norms():
    g = Grid(16, 16)
    tz = synthesize_trace(g, [0.0], [])
    basis = build_stokes_basis(g, 1)
    led = EnergyLedger()
    row = record(led, 0.0, basis.mode(0), VectorField.zeros(g), tz, bc=tz.vector_bc(0.0))
    assert abs(row["u_L2_sq"] - 1.0) < 1e-10
    assert abs(row["grad_u_L2_sq"] - basis.eigenvalues[0]) < 1e-8


def test_record_constant_b_with_matching_trace():
    g = Grid(8, 8)
    c = 0.7
    tr = synthesize_trace(g, [0.0], [TraceMode("constant", amplitude=c, component=1)])
    b = VectorField(g, np.full(g.shape_xface(), c), np.zeros(g.shape_yface()))
    led = EnergyLedger()
    row = record(led, 0.0, VectorField.zeros(g), b, tr, bc=tr.vector_bc(0.0))
    assert row["grad_btilde_L2_sq"] < 1e-20
    assert row["btilde_L2_sq"] < 1e-20


def test_weak_margins_homogeneous_and_scaling():
    t = np.linspace(0.0, 1.0, 11)
    e = np.exp(-2 * t)
    diss = np.exp(-2 * t)  # chosen so dE/dt + diss = -e < 0
    led = _ledger_from(t, u_L2_sq=e, grad_u_L2_sq=diss)
    m = weak_energy_residual(led, 1.0)
    assert np.max(m) <= 1e-8
    led4 = _ledger_from(t, u_L2_sq=4 * e, grad_u_L2_sq=4 * diss)
    m4 = weak_energy_residual(led4, 1.0)
    assert np.allclose(m4, 4 * m, rtol=1e-12)  # homogeneous with h = 0


def test_calibrate_weak_energy_zero_when_dissipative():
    t = np.linspace(0.0, 1.0, 11)
    led = _ledger_from(t, u_L2_sq=np.exp(-t), grad_u_L2_sq=np.ones_like(t),
                       h_H12_Gamma=0.5 * np.ones_like(t))
    # energy decays faster than the source could demand; measured c may be 0
    c = calibrate_weak_energy(led)
    assert c >= 0.0
    m = weak_energy_residual(led, c + 1e-12)
    assert np.max(m) <= 1e-9


def test_gronwall_weak_homogeneous_and_constant_h():
    t = np.linspace(0.0, 2.0, 21)
    e = 3.0 * np.exp(-t)
    led = _ledger_from(t, u_L2_sq=e)
    gb = gronwall_weak(led, 1.0)
    assert np.allclose(gb.psi, e[0])
    assert np.allclose(gb.phi, 0.0)
    assert gb.phi[0] == 0.0
    assert np.all(np.diff(gb.psi) >= -1e-14) and np.all(np.diff(gb.phi) >= -1e-14)
    h = 0.6
    led2 = _ledger_from(t, u_L2_sq=e, h_H12_Gamma=h * np.ones_like(t))
    c = 2.0
    gb2 = gronwall_weak(led2, c)
    assert np.allclose(gb2.phi, c * h**4 * t, rtol=1e-10)


def test_strong_energy_zero_trajectory_and_k_product():
    t = np.linspace(0.0, 1.0, 6)
    led = _ledger_from(
        t,
        Su_L2_sq=np.zeros_like(t),
        h_H32_Gamma=0.3 * np.ones_like(t),
    )
    margins, gb = strong_energy(led, 1.0)
    assert np.max(margins) <= 0.0  # only the forcing term, with a minus sign
    assert np.allclose(gb.k_series, 0.0)  # K vanishes iff the state is zero
    led2 = _ledger_from(
        t,
        Su_L2_sq=np.zeros_like(t),
        u_L2_sq=np.ones_like(t),
        grad_u_L2_sq=np.ones_like(t),
    )
    _, gb2 = strong_energy(led2, 1.0)
    assert np.all(gb2.k_series > 0.0)


def test_absorbing_radii_formulas():
    t = np.linspace(0.0, 3.0, 301)
    h12 = 0.04 * (1.0 + 0.5 * np.sin(2 * np.pi * t)) ** 0.5
    dth = 0.01 * np.ones_like(t)
    he = 0.002 * (1.0 + 0.2 * np.cos(2 * np.pi * t))
    r = absorbing_radii(t, h12**2, dth**2, he, diam_b=5.0, c_p=9.0, c_tilde=1.5, c0=2.0, c_omega=1.2)
    assert abs(r.rho1 / r.rho0 - (9.0 + 1.0 + 1.2)) < 1e-12
    # independent re-evaluation of the same quadratures
    def window_sup(series):
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (series[1:] + series[:-1]) * np.diff(t))])
        best = 0.0
        for i, ti in enumerate(t):
            j = np.searchsorted(t, ti + 1.0 - 1e-12)
            if j >= len(t):
                break
            best = max(best, cum[j] - cum[i])
        return best

    geom = math.exp(9.0) * 2.0 / (math.exp(9.0) - 1.0)
    rho0 = 2 * 1.5 * np.max(he) + geom * (
        window_sup(h12**2) + window_sup(dth**2) + window_sup(h12**4)
    )
    assert abs(rho0 - r.rho0) < 1e-12 * rho0
    t0 = math.log(5.0 / (1.5 * np.max(he))) / 9.0
    assert abs(r.t0 - t0) < 1e-12


def test_absorbing_radii_zero_boundary():
    t = np.linspace(0.0, 3.0, 31)
    z = np.zeros_like(t)
    r = absorbing_radii(t, z, z, z, diam_b=2.0, c_p=9.0, c_tilde=1.5, c0=2.0, c_omega=1.0)
    assert r.rho0 == 0.0 and math.isinf(r.t0)


def test_absorbing_time_depends_only_on_diameter():
    t = np.linspace(0.0, 3.0, 31)
    h = 0.01 * np.ones_like(t)
    r1 = absorbing_radii(t, h, h, h, diam_b=4.0, c_p=9.0, c_tilde=1.5, c0=2.0, c_omega=1.0)
    r2 = absorbing_radii(t, h, h, h, diam_b=4.0, c_p=9.0, c_tilde=1.5, c0=2.0, c_omega=1.0)
    assert r1.t0 == r2.t0


def test_smallness_gate():
    ok, val = smallness_gate(2.0, 0.5, 9.0)
    assert ok and abs(val - 2.0 * 0.5**4) < 1e-15
    ok, _ = smallness_gate(1e4, 1.0, 9.0)
    assert not ok


def test_brezis_gallouet_sine_mode():
    g = Grid(32, 32)
    f = scalar_from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    r = brezis_gallouet_ratio(f)
    # analytic: sup=1, H1^2 = 1/4 + pi^2/2, H2^2 = H1^2 + 4 pi^4 / 4
    h1 = 0.25 + np.pi**2 / 2
    h2 = h1 + np.pi**4
    expect = 1.0 / math.sqrt(h1 * (1 + math.log(h2 / h1)))
    assert abs(r - expect) < 0.02 * expect


def test_brezis_gallouet_scale_invariance(rng):
    g = Grid(16, 16)
    f = ScalarField(g, rng.standard_normal(g.shape_center()))
    r1 = brezis_gallouet_ratio(f)
    r2 = brezis_gallouet_ratio(ScalarField(g, 7.3 * f.values))
    assert abs(r1 - r2) < 1e-10 * r1
    with pytest.raises(ValueError):
        brezis_gallouet_ratio(ScalarField.zeros(g))


def test_stokes_regularity_ratio_eigenmodes():
    g = Grid(16, 16)
    basis = build_stokes_basis(g, 3)
    r = stokes_regularity_ratio(basis.mode(0))
    assert np.isfinite(r) and r > 0
    r2 = stokes_regularity_ratio(3.0 * basis.mode(0))
    assert abs(r - r2) < 1e-9 * r
    with pytest.raises(ValueError):
        stokes_regularity_ratio(VectorField.zeros(g))


def test_calibration_store_round_trip(tmp_path):
    store = CalibrationStore()
    store.set("weak_energy_c", 1.2345678901234, "calib-osc")
    store.set("absorb_c0", 7.5, "absorbing-reference")
    path = tmp_path / "c.txt"
    store.write(path)
    back = CalibrationStore.read(path)
    assert back.values == store.values
    with pytest.raises(KeyError):
        back.get("missing")


def test_term_homogeneity_degrees_match_declared():
    from mhd2d.estimates import TERM_HOMOGENEITY, weak_energy_terms

    t = np.linspace(0.0, 1.0, 9)
    base = dict(
        u_L2_sq=1.0 + t,
        btilde_L2_sq=0.5 + t**2,
        grad_u_L2_sq=2.0 + t,
        grad_btilde_L2_sq=1.0 + 0.1 * t,
        h_H12_Gamma=0.3 + 0.05 * t,
        dth_Hm12_Gamma=0.2 + 0.01 * t,
    )
    alpha = 1.7
    scaled = {
        k: (alpha ** (1 if k in ("h_H12_Gamma", "dth_Hm12_Gamma") else 2)) * np.asarray(v)
        for k, v in base.items()
    }
    led1 = _ledger_from(t, **base)
    led2 = _ledger_from(t, **scaled)
    t1 = weak_energy_terms(led1)
    t2 = weak_energy_terms(led2)
    for name, deg in TERM_HOMOGENEITY.items():
        ratio = t2[name][1:-1] / t1[name][1:-1]
        assert np.allclose(ratio, alpha**deg, rtol=1e-10), name


def test_strong_energy_on_recorded_run(calibration_store):
    from mhd2d.dynamics import run
    from mhd2d.scenarios import make_scenario

    scen = make_scenario("ramp", nx=16, dt=2e-3, t_final=0.3, strong_mode=True)
    _, ledger = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    c = calibration_store.get("strong_energy_c")
    margins, gb = strong_energy(ledger, c)
    assert np.max(margins[3:]) <= 1e-6 * max(1.0, np.max(np.abs(margins)))
    assert np.all(gb.trajectory <= gb.bound * (1 + 1e-9) + 1e-9)


def test_homogeneous_decay_at_poincare_rate():
    from mhd2d.dynamics import run
    from mhd2d.scenarios import make_scenario
    from mhd2d.spectral import build_laplacian_basis, build_stokes_basis, poincare_constants

    scen = make_scenario("decay", nx=16, dt=1e-3, t_final=0.2)
    _, ledger = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    g = scen.cfg.grid()
    _, _, c_p = poincare_constants(
        build_stokes_basis(g, 1), build_laplacian_basis(g, 1)
    )
    e = ledger.col("u_L2_sq") + ledger.col("b_L2_sq")
    t = ledger.times
    assert np.all(e <= e[0] * np.exp(-c_p * t) * (1.0 + 1e-10))


@pytest.mark.parametrize("strong", [False, True], ids=["weak", "strong"])
def test_ledger_row_matches_the_whole_field_oracle_bit_for_bit(strong):
    # a mid-run calib-osc state at 16^2, recorded with the run's own lifts;
    # the two norms of b - h_e come in closed form, without h_e, and agree
    # with the whole-field oracle to round-off, every other column bit for bit
    from mhd2d.dynamics import run
    from mhd2d.lifting import harmonic_extend_bc, heat_step
    from mhd2d.scenarios import make_scenario

    scen = make_scenario("calib-osc", nx=16, dt=1e-3, t_final=5e-3, strong_mode=strong)
    traj, _ = run(scen.cfg, scen.u0, scen.b0, scen.trace)
    st = traj.final_state
    g = scen.cfg.grid()
    bc = scen.trace.vector_bc(st.t)
    h_e = harmonic_extend_bc(g, bc)
    h_p = heat_step(scen.b0, st.t, bc, 1.0 / scen.cfg.rm) if strong else None
    row = record(EnergyLedger(strong=strong), st.t, st.u, st.b, scen.trace, h_p, bc=bc)
    want = ledger_row_oracle(st.t, st.u, st.b, scen.trace, h_e, h_p, bc, strong)
    assert row.keys() == want.keys()
    assert all(want[c] != 0.0 for c in want if c not in ("t", "div_u_Linf"))
    lifted = ("btilde_L2_sq", "grad_btilde_L2_sq")
    assert {c: row[c] for c in row if c not in lifted and row[c] != want[c]} == {}
    for c in lifted:
        assert abs(row[c] - want[c]) <= 1e-13 * want[c]
