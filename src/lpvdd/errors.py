"""Exception types shared across the package."""

__all__ = ["LpvError", "DimensionMismatch", "WindowOutOfRange", "NonAdjacentIntervals",
           "IntervalMismatch", "InvalidShape", "InvalidModel", "RankDeficientObservability",
           "InconsistentTrajectory"]


class LpvError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LpvError):
    """Operands disagree on a signal, scheduling, or matrix dimension."""


class WindowOutOfRange(LpvError):
    """A coefficient evaluation needs scheduling samples outside the data."""


class NonAdjacentIntervals(LpvError):
    """Concatenation of trajectories whose time intervals do not abut."""


class IntervalMismatch(LpvError):
    """Two trajectories were expected to share the same time interval."""


class InvalidShape(LpvError):
    """A matrix construction was requested with impossible dimensions."""


class InvalidModel(LpvError):
    """A model violates a structural invariant required by an operation."""


class RankDeficientObservability(LpvError):
    """The evaluated observability map cannot pin down the initial state."""


class InconsistentTrajectory(LpvError):
    """The supplied window is not a trajectory of the model (residual too large)."""
