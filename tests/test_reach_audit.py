import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import reach_audit  # noqa: E402


def test_held_defaults_are_perfbench_and_the_experiment_defaults_no_config_sets():
    # every other default in src/mhd2d is set to another value by some call
    # under src/, scripts/ or perfbench/.  perfbench/workloads.py passes the
    # first two at their defaults, so they stay until its calls change; the
    # experiments are called with the keyword arguments a config can give,
    # which never include the last four
    held = [line.split(" ", 1)[1] for line in reach_audit.held_parameters()]
    assert held == [
        "stream_mode_field(t) (default)",
        "build_stokes_basis(with_pressure) (default)",
        "mms_convergence(dt_spatial) (default)",
        "continuous_dependence(eps_list) (default)",
        "continuous_dependence(dt) (default)",
        "gronwall_suite(dt) (default)",
    ]


def test_experiment_calls_set_only_the_keys_a_config_can_give():
    assert reach_audit.experiment_keys() == [
        "diam_factor", "dt_list", "n_list", "nx_list", "seed", "strong", "variant"]
