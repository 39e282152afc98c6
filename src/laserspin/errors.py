"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, DomainError -> 3,
IntegratorError -> 4.
"""

import numpy as np


class DomainError(ValueError):
    """A physics parameter is outside the admissible domain."""


class InvalidStateError(DomainError):
    """A density matrix violates Hermiticity, unit trace or positivity."""

    @classmethod
    def unless(cls, ok, message: str, first: int = 0) -> None:
        """Raise with message unless ok holds.  ok is one bool for a single
        matrix, or one bool per sample of a stack whose first sample is
        sample first, and then the message names the first failing
        sample."""
        ok = np.asarray(ok)
        if not ok.all():
            where = f" at sample {first + int(ok.argmin())}" if ok.ndim else ""
            raise cls(message + where)


class ConfigError(ValueError):
    """A configuration file is malformed or carries unknown/invalid keys."""


class IntegratorError(RuntimeError):
    """A time integrator could not meet its tolerance (step underflow or
    step budget)."""
