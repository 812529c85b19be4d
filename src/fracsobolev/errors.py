"""Exception types raised by the toolkit."""

__all__ = [
    "FracSobolevError",
    "InvalidGrid",
    "NegativeOrderOnNonMeanZero",
    "InvalidMask",
    "InvalidOrder",
    "UnsupportedOrder",
    "DegenerateInput",
    "InnerSolveFailed",
    "ConstraintViolated",
    "TailTooFat",
    "UnderResolved",
    "OverlappingAtoms",
    "BudgetExceeded",
    "ConfigError",
]


class FracSobolevError(Exception):
    """Base class for all toolkit errors.

    ``param`` names the offending constructor parameter when there is one
    (for example ``"points_per_dim"``), so callers can map it to their own
    configuration keys; it is None otherwise.
    """

    def __init__(self, *args, param=None):
        super().__init__(*args)
        self.param = param


class InvalidGrid(FracSobolevError):
    """Grid parameters violate the construction contract."""


class NegativeOrderOnNonMeanZero(FracSobolevError):
    """Negative fractional order applied to a field with a nonzero mean."""


class InvalidMask(FracSobolevError):
    """Domain mask is empty, touches the outermost cell layer or has a
    malformed shape spec, or a field is nonzero where a mask or the box edge
    requires it to vanish (off the domain, or on the outermost cell layer)."""


class InvalidOrder(FracSobolevError):
    """Fractional order s outside the admissible range (0, N/2)."""


class UnsupportedOrder(FracSobolevError):
    """Gagliardo double integral requested for s outside (0, 1)."""


class DegenerateInput(FracSobolevError):
    """Input field is numerically zero where a nonzero field is required."""


class InnerSolveFailed(FracSobolevError):
    """Inner conjugate-gradient solve ended above its residual tolerance."""


class ConstraintViolated(FracSobolevError):
    """Unit-ball constraint on the homogeneous norm exceeded beyond tolerance."""


class TailTooFat(FracSobolevError):
    """Bubble tail at the box boundary exceeds the configured threshold."""


class UnderResolved(FracSobolevError):
    """Rescaled bubble core is narrower than the grid can resolve."""


class OverlappingAtoms(FracSobolevError):
    """Localization balls of distinct atoms intersect or leave the box."""


class BudgetExceeded(FracSobolevError):
    """Admissibility budget for a (field, atoms) pair exceeded."""


class ConfigError(FracSobolevError):
    """Invalid experiment configuration; carries the offending key."""

    def __init__(self, key, reason):
        self.key = key
        self.reason = reason
        super().__init__(f"{key}: {reason}")
