import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import reach_audit  # noqa: E402


def test_only_perfbench_holds_a_default_that_no_caller_changes():
    # every other default in src/mhd2d is set to another value by some call
    # under src/, scripts/ or perfbench/.  perfbench/workloads.py passes
    # these two at their defaults, so they stay until its calls change
    held = [line.split(" ", 1)[1] for line in reach_audit.held_parameters()]
    assert held == [
        "stream_mode_field(t) (default)",
        "build_stokes_basis(with_pressure) (default)",
    ]


def test_only_three_record_fields_are_never_read():
    # a dataclass or NamedTuple field that no code under src/, tests/,
    # scripts/ or perfbench/ reads as .name; these three are reported in a
    # StepReport or CompatReport repr and read by nothing else
    unread = [line.split(" ", 1)[1] for line in reach_audit.unread_fields()]
    assert unread == [
        "StepReport.outer_residual (field)",
        "CompatReport.div_b (field)",
        "CompatReport.u_trace (field)",
    ]


def test_experiment_calls_set_only_the_keys_a_config_can_give():
    assert reach_audit.experiment_keys() == [
        "diam_factor", "dt_list", "n_list", "nx_list", "seed", "strong", "variant"]
