import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhd2d import lifting, operators
from mhd2d.dynamics import run as run_mhd
from mhd2d.errors import CompatibilityError, ConfigError
from mhd2d.geometry import Grid, VectorField, l2_norm_sq
from mhd2d.lifting import (
    BoundaryTrace,
    FractionalNormSpec,
    TraceMode,
    check_compatibility_trace,
    harmonic_extend,
    harmonic_extend_bc,
    heat_step,
    hs_norm,
    hs_norm_dt,
    lifting_estimate_check,
    parabolic_estimate_check,
    parabolic_lift,
    read_trace_csv,
    stream_mode_field,
    synthesize_trace,
)
from mhd2d.operators import DirichletHeat, dirichlet_heat
from mhd2d.scenarios import make_scenario
from mhd2d.spectral import build_laplacian_basis

TIMES = np.arange(0.0, 0.1 + 1e-12, 1e-3)


def test_trace_invariants():
    g = Grid(8, 8)
    n = 2 * (g.nx + g.ny)
    with pytest.raises(ValueError):
        BoundaryTrace(g, [0.0, 0.0], np.zeros((2, n, 2)))  # non-increasing times
    with pytest.raises(ValueError):
        BoundaryTrace(g, [0.0], np.zeros((1, n - 1, 2)))  # wrong node count
    with pytest.raises(ValueError):
        BoundaryTrace(Grid(8, 16), [0.0], np.zeros((1, 48, 2)))  # non-square cells


def test_hs_norm_constant_trace():
    g = Grid(8, 8)
    tr = synthesize_trace(g, [0.0], [TraceMode("constant", amplitude=2.0, component=2)])
    n0 = hs_norm(tr, 0.0, FractionalNormSpec(0.0))
    assert abs(n0**2 - 4.0 * 4.0) < 1e-12  # |c|^2 * perimeter


def test_hs_norm_parseval():
    g = Grid(16, 16)
    tr = synthesize_trace(g, [0.0], [TraceMode("fourier", amplitude=1.3, component=1, wavenumber=3)])
    n0 = hs_norm(tr, 0.0, FractionalNormSpec(0.0))
    direct = np.sqrt(g.dx * np.sum(tr.values(0.0) ** 2))
    assert abs(n0 - direct) < 1e-10


def test_hs_norm_pure_mode_multiplier():
    g = Grid(16, 16)
    k = 2
    tr = synthesize_trace(g, [0.0], [TraceMode("fourier", amplitude=0.7, component=2, wavenumber=k)])
    kappa = 2 * np.pi * k / 4.0
    for s in (-0.5, 0.5, 1.5):
        ns = hs_norm(tr, 0.0, FractionalNormSpec(s))
        n0 = hs_norm(tr, 0.0, FractionalNormSpec(0.0))
        assert abs(ns**2 - (1 + kappa**2) ** s * n0**2) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hs_norm_monotone_in_s(seed):
    rng = np.random.default_rng(seed)
    g = Grid(8, 8)
    n = 2 * (g.nx + g.ny)
    tr = BoundaryTrace(g, [0.0], rng.standard_normal((1, n, 2)))
    norms = [hs_norm(tr, 0.0, FractionalNormSpec(s)) for s in (-0.5, 0.0, 0.5, 1.5)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_hs_norm_unsupported_exponent():
    with pytest.raises(ValueError, match="unsupported"):
        FractionalNormSpec(0.25)


def test_hs_norm_truncation_cap():
    g = Grid(8, 8)
    tr = synthesize_trace(g, [0.0], [TraceMode("constant", amplitude=1.0)])
    with pytest.raises(ValueError, match="Nyquist"):
        hs_norm(tr, 0.0, FractionalNormSpec(0.0, truncation=1000))


def _hs_norm_sq_oracle(values, s, truncation=None):
    """The per-instant squared H^s norm: one rfft and one sum per component."""
    n = values.shape[0]
    if truncation is None:
        truncation = n // 2
    if truncation > n // 2:
        raise ValueError(f"truncation {truncation} exceeds Nyquist {n // 2}")
    total = 0.0
    kk = np.arange(n // 2 + 1)
    mult = (1.0 + (2.0 * np.pi * kk / 4.0) ** 2) ** s
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    keep = kk <= truncation
    for comp in range(values.shape[1]):
        c = np.fft.rfft(values[:, comp]) / n
        total += 4.0 * np.sum(weights[keep] * mult[keep] * np.abs(c[keep]) ** 2)
    return float(total)


def _dt_values_oracle(tr, i):
    """Central difference inside, one-sided at the ends, zero for one instant."""
    if len(tr.times) == 1:
        return np.zeros_like(tr.samples[0])
    lo, hi = max(i - 1, 0), min(i + 1, len(tr.times) - 1)
    return (tr.samples[hi] - tr.samples[lo]) * (1.0 / (tr.times[hi] - tr.times[lo]))


def _random_trace(g, nt, rng):
    times = np.cumsum(rng.uniform(0.5, 1.5, nt)) * 1e-3  # uneven steps
    n = 2 * (g.nx + g.ny)
    samples = rng.standard_normal((nt, n, 2)) * np.exp(rng.standard_normal((nt, 1, 1)))
    return BoundaryTrace(g, times, samples)


SERIES_SPECS = [FractionalNormSpec(s) for s in (-0.5, 0.0, 0.5, 1.5)] + [FractionalNormSpec(0.5, 5)]


@pytest.mark.parametrize("spec", SERIES_SPECS, ids=lambda sp: f"s{sp.s}-t{sp.truncation}")
def test_norm_series_matches_per_instant_oracle(rng, spec):
    # 600 instants span three blocks; the series is the per-instant norm bit for bit
    g = Grid(8, 8)
    tr = _random_trace(g, 600, rng)
    nt = len(tr.times)
    want = np.array([_hs_norm_sq_oracle(tr.samples[i], spec.s, spec.truncation) for i in range(nt)])
    want_dt = np.array(
        [_hs_norm_sq_oracle(_dt_values_oracle(tr, i), spec.s, spec.truncation) for i in range(nt)]
    )
    assert np.array_equal(tr.norm_sq_series(spec), want)
    assert np.array_equal(tr.norm_sq_series(spec, dt=True), want_dt)
    # both one-sided ends of the time difference, and the public norms
    for i in (0, 1, 255, 256, nt - 2, nt - 1):
        t = tr.times[i]
        assert hs_norm(tr, t, spec) == want[i] ** 0.5
        assert hs_norm_dt(tr, t, spec) == want_dt[i] ** 0.5


def test_norm_series_one_instant_trace(rng):
    tr = _random_trace(Grid(8, 8), 1, rng)
    t = tr.times[0]
    for spec in SERIES_SPECS:
        assert hs_norm(tr, t, spec) == _hs_norm_sq_oracle(tr.samples[0], spec.s, spec.truncation) ** 0.5
        assert hs_norm_dt(tr, t, spec) == 0.0
        assert np.array_equal(tr.norm_sq_series(spec, dt=True), [0.0])


def test_norm_series_rejects_nyquist_and_unsampled_instants(rng):
    tr = _random_trace(Grid(8, 8), 5, rng)
    bad = FractionalNormSpec(0.0, truncation=17)  # Nyquist is 16
    with pytest.raises(ValueError, match="Nyquist"):
        tr.norm_sq_series(bad)
    with pytest.raises(ValueError, match="Nyquist"):
        hs_norm_dt(tr, tr.times[2], bad)
    t_mid = 0.5 * (tr.times[1] + tr.times[2])
    for norm in (hs_norm, hs_norm_dt):
        with pytest.raises(ValueError, match="not a sampled trace instant"):
            norm(tr, t_mid, FractionalNormSpec(0.5))
        with pytest.raises(ValueError, match="not a sampled trace instant"):
            norm(tr, tr.times[-1] + 1.0, FractionalNormSpec(0.5))


def test_norm_series_memoized_and_read_only(rng):
    tr = _random_trace(Grid(8, 8), 4, rng)
    spec = FractionalNormSpec(1.5)
    first = tr.norm_sq_series(spec)
    assert tr.norm_sq_series(FractionalNormSpec(1.5)) is first
    assert tr.norm_sq_series(spec, dt=True) is not first
    with pytest.raises(ValueError):
        first[0] = 0.0
    with pytest.raises(ValueError):
        tr.samples[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        tr.samples += 1.0
    with pytest.raises(ValueError):
        tr.times[0] = -1.0


def test_trace_samples_view_without_copy(rng):
    g = Grid(8, 8)
    samples = rng.standard_normal((3, 32, 2))
    tr = BoundaryTrace(g, [0.0, 0.1, 0.2], samples)
    assert np.shares_memory(tr.samples, samples)
    samples[0, 0, 0] = 1.0  # the caller's array stays writeable


def test_strong_run_computes_each_trace_series_once(monkeypatch):
    calls = []
    real = lifting._hs_norm_sq_samples

    def counting(values, s, truncation=None):
        calls.append((s, np.shape(values)[:-2]))
        return real(values, s, truncation)

    monkeypatch.setattr(lifting, "_hs_norm_sq_samples", counting)
    dt = 1e-3
    scen = make_scenario("calib-osc", nx=12, dt=dt, t_final=8 * dt, strong_mode=True)
    _, ledger = run_mhd(scen.cfg, scen.u0, scen.b0, scen.trace)
    nt = len(scen.trace.times)
    assert len(ledger) == 9 and nt <= 256
    # H^1/2 and H^3/2 of h and H^-1/2 of dt h, one block each
    assert sorted(calls) == [(-0.5, (nt,)), (0.5, (nt,)), (1.5, (nt,))]


def _vector_bc_oracle(tr, t):
    """Eight separate interpolations of the instant's node values."""
    g, n = tr.grid, tr.n_nodes
    vals = tr.samples[tr.index_of(t)]
    xf, yf, xc, yc = g.xf(), g.yf(), g.xc(), g.yc()
    arcs = ((0, xf), (0, 2.0 + (1.0 - xf)), (0, 3.0 + (1.0 - yc)), (0, 1.0 + yc),
            (1, xc), (1, 2.0 + (1.0 - xc)), (1, 3.0 + (1.0 - yf)), (1, 1.0 + yf))
    fields = []
    for comp, s in arcs:
        pos = np.mod(s, 4.0) / g.dx - 0.5
        k0 = np.floor(pos).astype(int)
        w = pos - k0
        k0 = np.mod(k0, n)
        fields.append((1.0 - w) * vals[k0, comp] + w * vals[np.mod(k0 + 1, n), comp])
    return fields


@pytest.mark.parametrize("nx", [8, 64])
def test_vector_bc_gather_matches_per_field_interpolation(rng, nx):
    tr = _random_trace(Grid(nx, nx), 3, rng)
    for t in tr.times:
        got = vars(tr.vector_bc(t)).values()
        for g_arr, w_arr in zip(got, _vector_bc_oracle(tr, t), strict=True):
            assert np.array_equal(g_arr, w_arr)


def test_harmonic_extend_zero_and_linear():
    g = Grid(16, 16)
    tr = synthesize_trace(g, [0.0], [])
    he = harmonic_extend(tr, 0.0)
    assert l2_norm_sq(he) == 0.0
    import mhd2d.lifting as lifting

    bx, by = lifting._boundary_xy(g)
    samples = np.stack([np.stack([bx, bx], axis=-1)])
    tr = BoundaryTrace(g, [0.0], samples)
    he = harmonic_extend(tr, 0.0)
    exact = VectorField.from_functions(g, lambda x, y: x, lambda x, y: x)
    assert np.max(np.abs(he.x - exact.x)) < 1e-10
    assert np.max(np.abs(he.y - exact.y)) < 1e-10


def _harmonic_poly_trace(g):
    import mhd2d.lifting as lifting

    bx, by = lifting._boundary_xy(g)
    vals = bx**2 - by**2
    return BoundaryTrace(g, [0.0], np.stack([np.stack([vals, vals], axis=-1)]))


def test_harmonic_extend_quadratic_oracle():
    errs = []
    for nx in (16, 32, 64):
        g = Grid(nx, nx)
        he = harmonic_extend(_harmonic_poly_trace(g), 0.0)
        exact = VectorField.from_functions(g, lambda x, y: x**2 - y**2, lambda x, y: x**2 - y**2)
        errs.append(max(np.max(np.abs(he.x - exact.x)), np.max(np.abs(he.y - exact.y))))
    assert errs[0] / errs[1] >= 3.3 and errs[1] / errs[2] >= 3.3


def test_harmonic_extend_maximum_principle(rng):
    g = Grid(12, 12)
    n = 2 * (g.nx + g.ny)
    vals = rng.standard_normal((1, n, 2))
    tr = BoundaryTrace(g, [0.0], vals)
    he = harmonic_extend(tr, 0.0)
    pad = 1e-9
    assert he.x.max() <= vals[0, :, 0].max() + pad and he.x.min() >= vals[0, :, 0].min() - pad
    assert he.y.max() <= vals[0, :, 1].max() + pad and he.y.min() >= vals[0, :, 1].min() - pad


def test_harmonic_extend_linearity(rng):
    g = Grid(10, 10)
    n = 2 * (g.nx + g.ny)
    s1 = rng.standard_normal((1, n, 2))
    s2 = rng.standard_normal((1, n, 2))
    a, b = 1.7, -0.4
    t1 = BoundaryTrace(g, [0.0], s1)
    t2 = BoundaryTrace(g, [0.0], s2)
    t3 = BoundaryTrace(g, [0.0], a * s1 + b * s2)
    combo = harmonic_extend(t3, 0.0)
    split = a * harmonic_extend(t1, 0.0) + b * harmonic_extend(t2, 0.0)
    assert np.sqrt(l2_norm_sq(combo - split)) < 1e-10


def test_lifting_estimate_zero_trace():
    g = Grid(12, 12)
    tr = synthesize_trace(g, TIMES, [])
    rep = lifting_estimate_check(tr)
    assert rep.c_h1 == 0.0 and rep.c_dt == 0.0


def test_lifting_estimate_scaling_invariance():
    g = Grid(12, 12)
    mode = TraceMode("fourier", amplitude=0.5, component=1, wavenumber=2, envelope="cos", envelope_param=3.0)
    tr1 = synthesize_trace(g, TIMES, [mode])
    mode2 = TraceMode("fourier", amplitude=1.0, component=1, wavenumber=2, envelope="cos", envelope_param=3.0)
    tr2 = synthesize_trace(g, TIMES, [mode2])
    r1 = lifting_estimate_check(tr1)
    r2 = lifting_estimate_check(tr2)
    assert abs(r1.c_h1 - r2.c_h1) < 1e-10 * max(1.0, r1.c_h1)
    assert abs(r1.c_dt - r2.c_dt) < 1e-10 * max(1.0, r1.c_dt)


def test_lifting_estimate_resolution_stability():
    vals = []
    for nx in (16, 32):
        g = Grid(nx, nx)
        tr = synthesize_trace(g, TIMES, [TraceMode("fourier", amplitude=1.0, component=2, wavenumber=1)])
        vals.append(lifting_estimate_check(tr).c_h1)
    assert max(vals) / min(vals) < 2.0


def test_parabolic_lift_zero_and_constant():
    g = Grid(12, 12)
    tr = synthesize_trace(g, TIMES, [])
    run = parabolic_lift(VectorField.zeros(g), tr, 1e-3, 0.05)
    assert np.max(run.l2_sq) == 0.0
    c = 0.8
    trc = synthesize_trace(g, TIMES, [TraceMode("constant", amplitude=c, component=1)])
    b0 = VectorField(g, np.full(g.shape_xface(), c), np.zeros(g.shape_yface()))
    run = parabolic_lift(b0, trc, 1e-3, 0.05)
    assert abs(run.l2_sq[-1] - run.l2_sq[0]) < 1e-10 * run.l2_sq[0]


def test_parabolic_lift_eigen_decay():
    g = Grid(32, 32)
    dt = 1e-4
    tt = np.arange(0.0, 0.1 + 1e-12, dt)
    tz = synthesize_trace(g, tt, [])
    basis = build_laplacian_basis(g, 1)
    mu1 = basis.eigenvalues[0]
    run = parabolic_lift(basis.mode(0), tz, dt, 0.1)
    rate = -(np.log(run.l2_sq[-1]) - np.log(run.l2_sq[0])) / (run.times[-1] - run.times[0])
    assert abs(rate - 2 * mu1) / (2 * mu1) < 0.01


def test_parabolic_lift_monotone_when_homogeneous(rng):
    g = Grid(12, 12)
    tz = synthesize_trace(g, TIMES, [])
    b0 = VectorField.zeros(g)
    b0.x[1:-1, :] = rng.standard_normal((g.nx - 1, g.ny))
    run = parabolic_lift(b0, tz, 1e-3, 0.05)
    assert np.all(np.diff(run.l2_sq) <= 1e-14)


def test_parabolic_lift_compatibility_gate():
    g = Grid(12, 12)
    trc = synthesize_trace(g, TIMES, [TraceMode("constant", amplitude=1.0, component=2)])
    with pytest.raises(CompatibilityError):
        parabolic_lift(VectorField.zeros(g), trc, 1e-3, 0.02)


def test_parabolic_estimate_margins():
    g = Grid(12, 12)
    tz = synthesize_trace(g, TIMES, [])
    b0 = stream_mode = VectorField.zeros(g)
    b0.x[1:-1, :] = 0.3
    run = parabolic_lift(b0, tz, 1e-3, 0.05)
    rep = parabolic_estimate_check(run, 1.0, 1.0)
    assert rep.weak_margin <= 1e-10


def test_dirichlet_heat_shared_by_strong_run_and_parabolic_lift(monkeypatch):
    builds = []
    init = DirichletHeat.__init__

    def counting(self, grid, inv_dt, kappa):
        builds.append(inv_dt)
        init(self, grid, inv_dt, kappa)

    monkeypatch.setattr(DirichletHeat, "__init__", counting)
    dirichlet_heat.cache_clear()
    dt = 1e-3
    scen = make_scenario("calib-osc", nx=12, dt=dt, t_final=3 * dt, strong_mode=True)
    run_mhd(scen.cfg, scen.u0, scen.b0, scen.trace)
    parabolic_lift(scen.b0, scen.trace, dt, 3 * dt, kappa=1.0 / scen.cfg.rm)
    assert sorted(builds) == [0.0, 1.0 / dt]  # the harmonic lift and one heat step
    g = scen.cfg.grid()
    assert dirichlet_heat(g, 1.0 / dt, 1.0) is dirichlet_heat(Grid(12, 12), 1.0 / dt, 1.0)
    assert dirichlet_heat(g, 0.0, 1.0) is not dirichlet_heat(g, 1.0 / dt, 1.0)


def test_lifts_call_no_sparse_lu(monkeypatch):
    calls = []
    real = operators.splu
    monkeypatch.setattr(operators, "splu", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    dirichlet_heat.cache_clear()
    g = Grid(12, 12)
    mode = TraceMode("stream", amplitude=0.6, kx=2, ky=1, envelope="cos", envelope_param=1.0)
    trace = synthesize_trace(g, TIMES, [mode])
    bc = trace.vector_bc(0.0)
    harmonic_extend_bc(g, bc)
    heat_step(stream_mode_field(g, mode, 0.0), 1e-3, bc, 0.5)
    parabolic_lift(stream_mode_field(g, mode, 0.0), trace, 1e-3, 5e-3)
    assert calls == []


def test_compatibility_of_stream_modes():
    g = Grid(16, 16)
    mode = TraceMode("stream", amplitude=0.6, kx=2, ky=1, envelope="cos", envelope_param=1.0)
    tr = synthesize_trace(g, TIMES, [mode])
    b0 = stream_mode_field(g, mode, 0.0)
    res, ok = check_compatibility_trace(b0, tr)
    assert ok and res < 1e-12
    assert abs(tr.net_flux(0.0)) < 1e-13


def test_trace_csv_round_trip(tmp_path):
    g = Grid(8, 8)
    tr = synthesize_trace(g, [0.0, 0.1], [TraceMode("fourier", amplitude=0.5, wavenumber=1)])
    path = tmp_path / "trace.csv"
    lines = ["time,arclength,h1,h2"]
    for it, t in enumerate(tr.times):
        for k, s in enumerate(tr.nodes()):
            lines.append(f"{float(t)!r},{float(s)!r},{float(tr.samples[it, k, 0])!r},{float(tr.samples[it, k, 1])!r}")
    path.write_text("\n".join(lines) + "\n")
    back = read_trace_csv(g, path)
    assert np.array_equal(back.samples, tr.samples)
    assert np.array_equal(back.times, tr.times)


def test_trace_csv_unsorted_times(tmp_path):
    g = Grid(8, 8)
    tr = synthesize_trace(g, [0.0], [TraceMode("constant", amplitude=1.0)])
    path = tmp_path / "bad.csv"
    lines = ["time,arclength,h1,h2"]
    for t in (0.2, 0.1):
        for k, s in enumerate(tr.nodes()):
            lines.append(f"{t},{float(s)!r},0.0,0.0")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="row 34"):
        read_trace_csv(g, path)


def _constant_trace_lines(g, times):
    nodes = synthesize_trace(g, [0.0], []).nodes()
    return ["time,arclength,h1,h2"] + [f"{t},{float(s)!r},0.0,0.0" for t in times for s in nodes]


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda lines: lines.__setitem__(5, "0.0,0.5"), "row 6: expected 4 columns"),
        (lambda lines: lines.__setitem__(7, lines[7].replace(",0.0,0.0", ",abc,0.0")),
         "row 8: non-numeric cell"),
        (lambda lines: lines.pop(32), "row 32: instant 0.0 has 31 nodes, expected 32"),
    ],
    ids=["short-row", "non-numeric-cell", "ragged-block"],
)
def test_trace_csv_malformed_rows_are_config_errors(tmp_path, edit, match):
    g = Grid(8, 8)
    lines = _constant_trace_lines(g, (0.0, 0.1))
    edit(lines)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=match):
        read_trace_csv(g, path)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_damaged_trace_csv_reads_or_raises_config_error(tmp_path_factory, data):
    g = Grid(4, 4)
    tr = synthesize_trace(g, [0.0, 0.1], [TraceMode("stream", amplitude=0.2)])
    lines = ["time,arclength,h1,h2"] + [
        f"{t!r},{s!r},{tr.samples[i, k, 0]!r},{tr.samples[i, k, 1]!r}"
        for i, t in enumerate(tr.times) for k, s in enumerate(tr.nodes())
    ]
    raw = bytearray(("\n".join(lines) + "\n").encode()[: data.draw(st.integers(0, 4000))])
    for _ in range(data.draw(st.integers(0, 4))):
        if raw:
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    path = tmp_path_factory.mktemp("csv") / "damaged.csv"
    path.write_bytes(bytes(raw))
    try:
        back = read_trace_csv(g, path)
    except ConfigError as exc:
        assert str(path) in str(exc)
        return
    assert back.samples.shape[1:] == (16, 2) and np.all(np.isfinite(back.samples))


def test_index_of_nearest_instant():
    tr = synthesize_trace(Grid(8, 8), TIMES, [])
    last = len(TIMES) - 1
    for i in (0, 37, last):
        for t in (TIMES[i], TIMES[i] - 5e-11, TIMES[i] + 5e-11, i * 1e-3):
            assert tr.index_of(t) == i == int(np.argmin(np.abs(TIMES - t)))
    for t in (-1e-3, TIMES[-1] + 1e-3, 0.5 * (TIMES[3] + TIMES[4]), TIMES[5] + 1e-6, np.nan):
        with pytest.raises(ValueError, match="not a sampled trace instant"):
            tr.index_of(t)


def test_parabolic_estimates_hold_with_calibrated_constants(calibration_store):
    g = Grid(32, 32)
    dt = 2e-3
    tt = np.arange(0.0, 0.5 + 1e-12, dt)
    modes = [
        TraceMode("stream", amplitude=0.12, kx=1, ky=1, envelope="cos", envelope_param=1.0),
        TraceMode("stream", amplitude=0.08, kx=2, ky=1, envelope="sin", envelope_param=3.0),
    ]
    tr = synthesize_trace(g, tt, modes)
    b0 = stream_mode_field(g, modes[0], 0.0)
    run = parabolic_lift(b0, tr, dt, 0.5)
    rep = parabolic_estimate_check(
        run,
        calibration_store.get("parabolic_c_weak"),
        calibration_store.get("parabolic_c_strong"),
    )
    scale = max(1.0, float(np.max(run.h1_sq)))
    assert rep.weak_margin <= 1e-6 * scale
    assert rep.strong_margin <= 1e-6 * scale
