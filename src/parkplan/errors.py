"""Exception types shared across the package, and the one check of a
config value.

Every config class validates its numeric fields in ``__post_init__`` by
calling ``require(self, rule, *names)`` with one of the rules below, so a
value is held to the same rule whether Python code or a config file set
it. Each value is tested on its own: a NaN fails every rule, and a bool
or a string is never a number. The error names each failing field and
its value.
"""

import math
from numbers import Integral, Real


class ParkPlanError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ParkPlanError):
    """A config object violates one of its invariants."""


class InputError(ParkPlanError):
    """Caller supplied an unusable input (bad file, bad pose, bad index)."""


class ScenarioFormatError(InputError):
    """Scenario document exists but cannot be parsed or fails validation."""


class InfeasibleGeometryError(ParkPlanError):
    """Requested synthetic layout cannot physically contain the vehicle."""


class SamplingExhaustedError(ParkPlanError):
    """Rejection sampling ran out of attempts without a collision-free result."""


class ResetRejectedError(ParkPlanError):
    """Environment reset was asked to start from a colliding pose."""


class ProtocolError(ParkPlanError):
    """Environment stepped after episode termination."""


class NumericError(ParkPlanError):
    """A numeric quantity (loss, gradient) became non-finite."""


def _real(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


# a rule: what a value must be, and the test of one value
POSITIVE = ("finite and > 0", lambda v: _real(v) and 0 < v < math.inf)
POSITIVE_OR_INF = ("> 0 (inf sets no limit)", lambda v: _real(v) and v > 0)
NON_NEGATIVE = ("finite and >= 0", lambda v: _real(v) and 0 <= v < math.inf)
NON_NEGATIVE_OR_INF = (">= 0 (inf sets no limit)", lambda v: _real(v) and v >= 0)
FINITE = ("finite", lambda v: _real(v) and -math.inf < v < math.inf)
UNIT_INTERVAL = ("in [0, 1]", lambda v: _real(v) and 0 <= v <= 1)
COUNT = ("an integer >= 1", lambda v: _integer(v) and v >= 1)
NATURAL = ("an integer >= 0", lambda v: _integer(v) and v >= 0)


def require(obj, rule, *names) -> None:
    """Raise a ``ConfigurationError`` unless each named field of ``obj``
    keeps ``rule``."""
    text, holds = rule
    bad = [f"{name} must be {text}, got {getattr(obj, name)!r}"
           for name in names if not holds(getattr(obj, name))]
    if bad:
        raise ConfigurationError("; ".join(bad))
