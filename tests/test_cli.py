import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mhd2d.cli import main, parse_config
from mhd2d.errors import ConfigError

MINIMAL = """
[grid]
nx = 16
ny = 16

[time]
dt = 1e-3
T = 0.01
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_minimal_defaults(tmp_path):
    rc = parse_config(_write(tmp_path, MINIMAL))
    assert rc.solver.re == 1.0 and rc.solver.rm == 1.0 and rc.solver.s == 1.0
    assert rc.solver.n_modes is None
    assert rc.initial_u == "zero"


def test_parse_rejects_bad_dt(tmp_path):
    bad = MINIMAL.replace("dt = 1e-3", "dt = 0")
    with pytest.raises(ConfigError) as exc:
        parse_config(_write(tmp_path, bad))
    assert any("time.dt" in v for v in exc.value.violations)


def test_parse_collects_all_violations(tmp_path):
    text = """
[grid]
nx = 16
ny = 16
bogus = 1

[time]
dt = -1
T = 0.01

[nonsense]
foo = bar
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(_write(tmp_path, text))
    joined = " | ".join(exc.value.violations)
    assert "grid.bogus" in joined
    assert "time.dt" in joined
    assert "[nonsense]" in joined


def test_parse_rejects_unknown_mode_and_experiment(tmp_path):
    text = MINIMAL + """
[boundary]
modes = vortex amp=1.0

[experiment]
id = not-a-thing
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(_write(tmp_path, text))
    joined = " | ".join(exc.value.violations)
    assert "vortex" in joined and "not-a-thing" in joined


@pytest.mark.parametrize(
    "edit, faults",
    [
        (lambda t: t.replace("T = 0.01", "T = 0.01\n\n[physics]\nRe = -1\n\n[tolerances]\npicard = 0"),
         ["physics.Re must be", "tolerances.picard must be"]),
        (lambda t: t.replace("dt = 1e-3", "dt = -1"), ["time.dt must be positive"]),
        (lambda t: t.replace("dt = 1e-3", "dt = inf"), ["time.dt must be finite"]),
    ],
    ids=["re-and-picard", "negative-dt", "infinite-dt"],
)
def test_each_config_fault_is_reported_once(tmp_path, capsys, edit, faults):
    cfg = _write(tmp_path, edit(MINIMAL))
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(faults), lines
    for line, fault in zip(lines, faults):
        assert line.startswith(f"config error: {fault}"), line


def test_main_run_zero_scenario(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
    ledger = (out / "ledger.csv").read_text().splitlines()
    assert ledger[0].startswith("t,u_L2_sq")
    vals = np.array([float(v) for v in ledger[1].split(",")])
    assert np.all(vals[1:] == 0.0)
    assert (out / "final.mhdckpt").exists()


def test_main_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, MINIMAL.replace("dt = 1e-3", "dt = 0"))
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("value", ["0", "-1e-9", "inf", "one"])
@pytest.mark.parametrize("key", ["picard", "outer", "compatibility"])
def test_bad_tolerance_errors_name_config_keys(tmp_path, capsys, key, value):
    from mhd2d.cli import _SCHEMA

    cfg = _write(tmp_path, MINIMAL + f"\n[tolerances]\n{key} = {value}\n")
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    keys = {f"{sec}.{k}" for sec, names in _SCHEMA.items() for k in names}
    assert lines and all(line.startswith("config error: ") for line in lines)
    for line in lines:  # "<section>.<key> must be ..." or "<section>.<key>: cannot parse ..."
        named = line.split()[2].rstrip(":")
        assert named in keys and named == f"tolerances.{key}", line


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_non_finite_step_is_solver_failure(tmp_path, capsys, monkeypatch):
    from mhd2d.dynamics import Forcing
    from mhd2d.geometry import Grid, VectorField

    g = Grid(16, 16)
    huge = VectorField(g, np.full(g.shape_xface(), 1e300), np.full(g.shape_yface(), 1e300))
    monkeypatch.setattr(Forcing, "b_at", lambda self, t: huge if t > 0.005 else None)
    cfg = _write(tmp_path, MINIMAL)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "solver failure:" in err and "non-finite" in err and "t=0.006" in err


def test_main_step_failure_names_the_step(tmp_path, capsys, monkeypatch):
    from mhd2d.dynamics import Forcing
    from mhd2d.geometry import Grid, VectorField

    g = Grid(16, 16)
    huge = VectorField(g, np.full(g.shape_xface(), 1e300), np.full(g.shape_yface(), 1e300))
    monkeypatch.setattr(Forcing, "b_at", lambda self, t: huge if t > 0.005 else None)
    cfg = _write(tmp_path, MINIMAL)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 3
    # dt = 1e-3: the step to t = 0.006 is the sixth
    assert "solver failure: step 6: magnetic Picard residual is non-finite (at t=0.006)" in (
        capsys.readouterr().err)


def test_main_incompatible_initial_data_exit_code(tmp_path, capsys):
    # b = 0 has no normal trace, the boundary data do
    text = MINIMAL + "\n[boundary]\nmodes = stream amp=0.1 kx=1 ky=1\n\n[initial]\nb = zero\n"
    cfg = _write(tmp_path, text)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 3
    assert "incompatible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        MINIMAL.replace("nx = 16", "nx = 32"),
        MINIMAL + "\n[initial]\nu = bump kx=one\n",
        MINIMAL + "\n[galerkin]\nn = 0\n",
        MINIMAL + "\n[galerkin]\nn = 226\n",
        MINIMAL + "\n[galerkin]\nm = -1\n",  # galerkin.m is an unknown key
        MINIMAL + "\n[galerkin]\nm = 16\n",
        MINIMAL + "\n[tolerances]\ndiv_clean = 1e-10\n",
        MINIMAL + "\n[boundary]\nmodes = constant amp=0.1 comp=3\n",
    ],
    ids=["non-square-grid", "bad-initial-integer", "no-modes", "too-many-modes", "negative-m",
         "unknown-galerkin-m", "unknown-div-clean", "component-3"],
)
def test_main_malformed_input_is_config_error(tmp_path, capsys, text):
    cfg = _write(tmp_path, text)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_main_ragged_trace_csv_is_config_error(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    rows = ["time,arclength,h1,h2"] + [f"0.0,{(k + 0.5) / 16!r},0.0,0.0" for k in range(63)]
    csv_path.write_text("\n".join(rows) + "\n")
    cfg = _write(tmp_path, MINIMAL + f"\n[boundary]\ncsv = {csv_path}\n")
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "row 64: instant 0.0 has 63 nodes, expected 64" in capsys.readouterr().err


def test_main_missing_trace_csv_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + f"\n[boundary]\ncsv = {tmp_path / 'nowhere.csv'}\n")
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "nowhere.csv: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["bad magic", "truncated"])
def test_main_malformed_checkpoint_is_config_error(tmp_path, capsys, damage):
    cfg = _write(tmp_path, MINIMAL)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "a")]) == 0
    raw = (tmp_path / "a" / "final.mhdckpt").read_bytes()
    bad = tmp_path / "bad.mhdckpt"
    bad.write_bytes(b"XXXXXXXX" + raw[8:] if damage == "bad magic" else raw[: len(raw) // 2])
    cfg = _write(tmp_path, MINIMAL + f"\n[initial]\ncheckpoint = {bad}\n", "restart.cfg")
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "b")]) == 2
    assert f"config error: checkpoint {bad}:" in capsys.readouterr().err


def test_main_run_determinism(tmp_path):
    text = MINIMAL + """
[boundary]
modes = stream amp=0.1 kx=1 ky=1 env=cos p=2.0

[initial]
u = bump amp=0.4 kx=1 ky=1
b = matched
"""
    cfg = _write(tmp_path, text)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        outs.append((out / "ledger.csv").read_bytes() + (out / "final.mhdckpt").read_bytes())
    assert outs[0] == outs[1]


def test_main_experiment_and_summary(tmp_path):
    text = MINIMAL + """
[experiment]
id = identities
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--output-dir", str(out)]) == 0
    assert (out / "report_identities.csv").exists()
    summary = (out / "summary.csv").read_text()
    assert summary.count("\nidentities,") == 3
    # a second invocation appends (reports are append-only)
    assert main(["experiment", "--config", cfg, "--output-dir", str(out)]) == 0
    assert (out / "summary.csv").read_text().count("\nidentities,") == 6


def test_main_experiment_gate_violation_exit_code(tmp_path):
    calib = tmp_path / "calib.txt"
    from mhd2d.estimates import CalibrationStore

    store = CalibrationStore()
    store.set("absorb_c1", 1e12, "synthetic")
    store.set("absorb_c0", 1.0, "synthetic")
    store.set("absorb_c_tilde", 1.25, "synthetic")
    store.set("absorb_c_omega", 1.0, "synthetic")
    store.write(calib)
    text = MINIMAL + f"""
[outputs]
calibration = {calib}

[experiment]
id = absorbing
variant = reference
"""
    cfg = _write(tmp_path, text)
    rcode = main(["experiment", "--config", cfg, "--output-dir", str(tmp_path / "o")])
    assert rcode == 4
    report = (tmp_path / "o" / "report_absorbing.csv").read_text()
    assert "smallness-gate" in report and ",0\n" in report


def test_main_malformed_experiment_value_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "\n[experiment]\nid = mms\nnx_list = 16,1x\n")
    assert main(["experiment", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "config error: experiment: invalid literal for int()" in capsys.readouterr().err


def test_main_experiment_requires_store(tmp_path):
    text = MINIMAL + """
[experiment]
id = absorbing
"""
    cfg = _write(tmp_path, text)
    assert main(["experiment", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2


def test_main_basis_command(tmp_path):
    text = MINIMAL + """
[galerkin]
n = 3
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["basis", "--config", cfg, "--output-dir", str(out)]) == 0
    assert os.listdir(out / "basis_cache") == ["basis_stokes_16x16_3.mhdbasis"]  # no Laplacian


def test_main_restart_from_checkpoint(tmp_path):
    cfg = _write(tmp_path, MINIMAL + "\n[initial]\nu = bump amp=0.3 kx=1 ky=1\n")
    out1 = tmp_path / "o1"
    assert main(["run", "--config", cfg, "--output-dir", str(out1)]) == 0
    restart = MINIMAL + f"""
[initial]
checkpoint = {out1 / 'final.mhdckpt'}
"""
    # T in the restart config is the *absolute* final time
    restart = restart.replace("T = 0.01", "T = 0.02")
    cfg2 = _write(tmp_path, restart, name="restart.cfg")
    out2 = tmp_path / "o2"
    assert main(["run", "--config", cfg2, "--output-dir", str(out2)]) == 0


def test_main_run_with_galerkin_truncation(tmp_path):
    text = MINIMAL + """
[galerkin]
n = 8

[initial]
u = bump amp=0.3 kx=1 ky=1
"""
    cfg = _write(tmp_path, text, name="trunc.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
    assert (out / "basis_cache" / "basis_stokes_16x16_8.mhdbasis").exists()


def _restart_config(ckpt, amp=0.1, re=1.0):
    return MINIMAL.replace("T = 0.01", "T = 0.02") + f"""
[boundary]
modes = stream amp={amp!r} kx=1 ky=1 env=cos p=2.0

[physics]
Re = {re!r}

[initial]
checkpoint = {ckpt}
"""


@pytest.mark.parametrize(
    "change, why",
    [({}, None), ({"re": 2.0}, "checkpoint physics (Re, Rm, S)"),
     ({"amp": 0.12}, "boundary trace up to t=")],
    ids=["same", "changed-re", "changed-trace"],
)
def test_main_restart_refuses_changed_physics_or_trace(tmp_path, capsys, change, why):
    first = MINIMAL + """
[boundary]
modes = stream amp=0.1 kx=1 ky=1 env=cos p=2.0

[initial]
u = bump amp=0.4 kx=1 ky=1
b = matched
"""
    assert main(["run", "--config", _write(tmp_path, first), "--output-dir", str(tmp_path / "a")]) == 0
    cfg = _write(tmp_path, _restart_config(tmp_path / "a" / "final.mhdckpt", **change), "r.cfg")
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "b")])
    err = capsys.readouterr().err
    if why is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and f"config error: {why}" in err


# --- damaged inputs end with a documented exit code ---------------------------

FUZZ_CONFIG = """[grid]
nx = 4
ny = 4

[time]
dt = 0.25
T = 0.5

[physics]
Re = 1.0
Rm = 2.0
S = 0.5

[boundary]
modes = stream amp=0.15 kx=1 ky=1 env=cos p=2.0; constant amp=0.1 comp=2

[initial]
u = bump amp=0.3 kx=1 ky=1
b = matched; bump amp=0.2 kx=1 ky=2

[tolerances]
picard = 1e-10
outer = 1e-9
"""


def _damage(data, raw):
    """Truncated (half of the time) and up to four bytes flipped."""
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(0, 4), label="flips")):
        if raw:
            k = data.draw(st.integers(0, len(raw) - 1), label="byte")
            raw[k] ^= data.draw(st.integers(1, 255), label="mask")
    return bytes(raw)


def _exit_code(tmp_path, config_path, capsys):
    code = main(["run", "--config", str(config_path), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4) and "Traceback" not in err
    return code


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_config_exits_by_contract(tmp_path, capsys, data):
    path = tmp_path / "damaged.cfg"
    path.write_bytes(_damage(data, FUZZ_CONFIG.encode()))
    _exit_code(tmp_path, path, capsys)


def _zero_trace_csv(n_nodes=16, times=(0.0, 0.25, 0.5)):
    rows = ["time,arclength,h1,h2"]
    rows += [f"{t!r},{(k + 0.5) / 4!r},0.0,0.0" for t in times for k in range(n_nodes)]
    return ("\n".join(rows) + "\n").encode()


def _csv_config(tmp_path, csv_path):
    text = FUZZ_CONFIG.split("[boundary]")[0] + f"[boundary]\ncsv = {csv_path}\n"
    return _write(tmp_path, text, "csv.cfg")


def test_undamaged_fuzz_inputs_run(tmp_path, capsys):
    assert _exit_code(tmp_path, _write(tmp_path, FUZZ_CONFIG), capsys) == 0
    (tmp_path / "trace.csv").write_bytes(_zero_trace_csv())
    assert _exit_code(tmp_path, _csv_config(tmp_path, tmp_path / "trace.csv"), capsys) == 0


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_trace_csv_exits_by_contract(tmp_path, capsys, data):
    csv_path = tmp_path / "trace.csv"
    csv_path.write_bytes(_damage(data, _zero_trace_csv()))
    _exit_code(tmp_path, _csv_config(tmp_path, csv_path), capsys)


# the experiment, calibrate and basis commands: their runners are stubbed, so
# a damaged config exercises parsing and dispatch only
FUZZ_COMMANDS = {
    "experiment": MINIMAL + """
[experiment]
id = mms, picard, tail, absorbing, basis-stability, gronwall
nx_list = 16,32
dt_list = 4e-3,2e-3
n_list = 4,8
variant = reference
diam_factor = 1.5
seed = 3
strong = measure
""",
    "calibrate": MINIMAL,
    "basis": MINIMAL + "\n[galerkin]\nn = 3\n",
}


@pytest.fixture
def stubbed_runners(monkeypatch, tmp_path):
    from mhd2d import cli
    from mhd2d.estimates import CalibrationStore
    from mhd2d.verify import ExperimentReport, store_keys

    for name in list(cli.EXPERIMENTS):
        monkeypatch.setitem(cli.EXPERIMENTS, name,
                            lambda store, _name=name, **kw: ExperimentReport(_name))
    store = CalibrationStore()
    for key in {k for name in cli.EXPERIMENTS for k in store_keys(name, strong="check")}:
        store.set(key, 1.0, "stub")
    monkeypatch.setattr(cli, "calibrate_constants", lambda nx, dt: store)
    monkeypatch.setattr(cli, "cached_basis", lambda grid, n, cache: None)
    (tmp_path / "out").mkdir()
    store.write(tmp_path / "out" / "calibration.txt")  # the store the experiments read


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
def test_undamaged_command_configs_dispatch(tmp_path, capsys, stubbed_runners, command):
    path = _write(tmp_path, FUZZ_COMMANDS[command])
    assert main([command, "--config", path, "--output-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_command_config_exits_by_contract(tmp_path, capsys, stubbed_runners, command, data):
    path = tmp_path / "damaged.cfg"
    path.write_bytes(_damage(data, FUZZ_COMMANDS[command].encode()))
    code = main([command, "--config", str(path), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4) and "Traceback" not in err


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_basis_cache_is_rebuilt(tmp_path, capsys, data):
    from mhd2d.geometry import Grid
    from mhd2d.spectral import build_stokes_basis, load_basis

    cfg = _write(tmp_path, FUZZ_COMMANDS["basis"])
    argv = ["basis", "--config", cfg, "--output-dir", str(tmp_path / "out")]
    shutil.rmtree(tmp_path / "out", ignore_errors=True)  # each example damages a fresh cache
    assert main(argv) == 0
    path = tmp_path / "out" / "basis_cache" / "basis_stokes_16x16_3.mhdbasis"
    path.write_bytes(_damage(data, path.read_bytes()))
    capsys.readouterr()
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    loaded, fresh = load_basis(path), build_stokes_basis(Grid(16, 16), 3)
    assert np.array_equal(loaded.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(loaded.modes_x, fresh.modes_x)
    assert np.array_equal(loaded.modes_y, fresh.modes_y)


EXPERIMENT_HEAD = MINIMAL + "\n[experiment]\n"


@pytest.mark.parametrize(
    "command,text,expect",
    [
        ("basis", MINIMAL.replace("16", "4"), "galerkin.n"),
        ("experiment", EXPERIMENT_HEAD + "id = mms\nnx_list = 16,2\n", "nx_list"),
        ("experiment", EXPERIMENT_HEAD + "id = picard\ndt_list = -1\n", "dt_list"),
        ("experiment", EXPERIMENT_HEAD + "id = mms\ndt_list = 1e-3,nan\n", "dt_list"),
        ("experiment", EXPERIMENT_HEAD + "id = tail\nn_list = 0,4\n", "n_list"),
        ("experiment", EXPERIMENT_HEAD + "id = tail\nn_list = 4,961\n", "n_list"),
        ("experiment", EXPERIMENT_HEAD + "id = absorbing\ndiam_factor = 0\n", "diam_factor"),
        ("experiment", EXPERIMENT_HEAD + "id = absorbing\nvariant = refrence\n", "variant"),
        ("experiment", EXPERIMENT_HEAD + "id = absorbing\nstrong = yes\n", "strong"),
        ("experiment", EXPERIMENT_HEAD + "id = basis-stability\nseed = -1\n", "seed"),
        ("run", MINIMAL + "\n[outputs]\ncheckpoint_every = -2\n", "checkpoint_every"),
    ],
    ids=["default-n-too-large", "coarse-grid", "negative-dt", "nan-dt",
         "zero-modes", "tail-over-capacity", "zero-diameter", "unknown-variant", "unknown-strong",
         "negative-seed", "negative-checkpoint-every"],
)
def test_out_of_range_command_value_is_config_error(tmp_path, capsys, stubbed_runners, command,
                                                     text, expect):
    path = _write(tmp_path, text)
    assert main([command, "--config", path, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and expect in err and "Traceback" not in err


def test_tail_cut_above_stokes_capacity_exits_before_running(tmp_path, capsys, monkeypatch):
    # the 32^2 tail grid holds 961 Stokes modes, so a cut n needs n + 1 <= 961
    from mhd2d import cli

    ran = []
    monkeypatch.setitem(cli.EXPERIMENTS, "tail", lambda store, **kw: ran.append(kw))
    path = _write(tmp_path, EXPERIMENT_HEAD + "id = tail\nn_list = 4,5000\n")
    out = tmp_path / "out"
    assert main(["experiment", "--config", path, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "n_list" in err and "Traceback" not in err
    assert ran == [] and os.listdir(out) == []  # the experiment never started; no report
    edge = _write(tmp_path, EXPERIMENT_HEAD + "id = tail\nn_list = 4,960\n")
    assert cli._experiment_kwargs(parse_config(edge), "tail") == {"n_list": (4, 960)}


ABSORB_KEYS = "".join(f"absorb_{k} 1.0 stub\n" for k in ("c1", "c_tilde", "c0", "c_omega"))


@pytest.mark.parametrize(
    "ids,store,expect",
    [
        ("gronwall", b"MHDCALIB0\nweak_energy_c 1.0 calib-osc\n", "line 1: expected MHDCALIB1"),
        ("gronwall", b"\xff\xfe\x00binary", "line 1: expected MHDCALIB1"),
        ("gronwall", b"MHDCALIB1\nweak_energy_c notanumber calib-osc\n", "line 2:"),
        ("gronwall", b"MHDCALIB1\n\nweak_energy_c nan calib-osc\n", "line 3:"),
        ("gronwall", b"MHDCALIB1\nweak_energy_c 1.0\n", "line 2:"),
        ("gronwall", None, "cannot read"),
        ("gronwall", b"MHDCALIB1\n" + ABSORB_KEYS.encode(), "no constant 'weak_energy_c'"),
        ("absorbing\nstrong = check", b"MHDCALIB1\n" + ABSORB_KEYS.encode(),
         "no constant 'rho2_measured'"),
    ],
    ids=["bad-magic", "not-text", "non-numeric", "non-finite", "short-line", "directory",
         "missing-constant", "missing-strong-constant"],
)
def test_faulty_calibration_store_is_config_error(tmp_path, capsys, stubbed_runners, ids, store,
                                                  expect):
    calib = tmp_path / "calib.txt"
    if store is None:
        calib.mkdir()  # exists, but cannot be read as a file
    else:
        calib.write_bytes(store)
    path = _write(tmp_path, EXPERIMENT_HEAD + f"id = {ids}\n[outputs]\ncalibration = {calib}\n")
    assert main(["experiment", "--config", path, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: calibration store {calib}") and expect in err
    assert "Traceback" not in err and not os.path.exists(tmp_path / "out" / "summary.csv")


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CONFIGS) if f.endswith(".cfg")))
def test_shipped_config_parses(name):
    parse_config(os.path.join(CONFIGS, name))


@pytest.mark.parametrize("command", ["experiment", "calibrate", "basis"])
def test_shipped_experiments_config_dispatches(tmp_path, capsys, stubbed_runners, command):
    path = os.path.join(CONFIGS, "experiments.cfg")
    assert main([command, "--config", path, "--output-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
