"""Exception types shared across the package."""


class ChaosWptError(Exception):
    """Base class for all package-specific errors."""


class DivergenceError(ChaosWptError):
    """A trajectory left the admissible region (overflow guard tripped)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class UnstableRegimeError(ChaosWptError):
    """A closed-form steady-state quantity was requested for unstable parameters."""


class ComplexFixedPointError(ChaosWptError):
    """The map has no real fixed point for the given parameters."""


class UndefinedIntervalError(ChaosWptError):
    """The stable parameter interval does not exist for the given parameters."""


class MomentInconsistencyError(ChaosWptError):
    """Supplied signal moments violate a moment inequality (e.g. m4 < m2^2)."""


class DegenerateSignalError(ChaosWptError):
    """A waveform statistic is undefined because the signal has (near-)zero power."""


class InvalidSweepError(ChaosWptError):
    """The sweep parameter does not apply to the configured system."""


class ConfigError(ChaosWptError):
    """Configuration document is invalid; ``problems`` lists every violation."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


class SaturationWarning(UserWarning):
    """The fourth-moment term dominates the DC estimate; the quartic model is suspect."""


class CompiledKernelWarning(UserWarning):
    """No compiled library: every Lorenz orbit takes the textbook RK4 step; ensembles add block sums in numpy."""
