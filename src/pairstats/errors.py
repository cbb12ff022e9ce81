"""Exception types shared across the toolkit.

Everything raised on purpose derives from PairStatsError so callers can
catch toolkit failures without swallowing genuine bugs.
"""


class PairStatsError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(PairStatsError):
    """A grid, packet or scenario parameter violates a stated bound."""


class StabilityError(ConfigurationError):
    """Time step too large for the spectral kinetic phase."""


class GridMismatchError(PairStatsError):
    """Two wavefunctions do not share a grid or a time coordinate."""


class BoundaryContaminationError(PairStatsError):
    """Amplitude reached the box edges during propagation."""


class BudgetExceededError(PairStatsError):
    """An exhaustive check was asked to enumerate more than its budget."""


class CalibrationError(PairStatsError):
    """Barrier calibration failed to bracket or converge.

    Carries the runs made so far as a list of (v0, transmission)
    pairs, in run order.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


class PauliDegeneracyError(PairStatsError):
    """Antisymmetrization requested for near-identical packets."""


class PrematureMeasurementError(PairStatsError):
    """A read-out requested before the packet has scattered off the barrier."""


class MeasurementTimeoutError(PairStatsError):
    """The measurement criterion was not met within the step budget."""


class ConsistencyError(PairStatsError):
    """An internal cross-check (e.g. the quadrant sum rule) failed."""
