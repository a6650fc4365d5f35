"""Failure classes shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat:
configuration problems, solver breakdowns, and failed experiment
assertions are different things.
"""


class ConfigError(Exception):
    """Invalid or inconsistent configuration / input file."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SolverFailure(Exception):
    """A linear solve, eigensolve or time step could not be completed."""

    def __init__(self, message, t=None, detail=None):
        self.t = t
        self.detail = detail
        if t is not None:
            message = f"{message} (at t={t:.6g})"
        super().__init__(message)


class StepFailure(SolverFailure):
    """A time step failed to converge, or a state holds a non-finite value or
    ledger entry; usually means dt is too large."""


class CompatibilityError(ValueError):
    """Initial data does not match the boundary data at t=0."""


class ExperimentFailure(Exception):
    """An experiment assertion violated its tolerance."""
