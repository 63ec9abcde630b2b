"""Shared exception taxonomy.

Exit-code mapping used by the CLI: input/config problems -> 2,
numerical failures -> 3.
"""

import numbers
import sys


class FragfieldError(Exception):
    """Base class for all library errors."""


class InvalidInputError(FragfieldError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class DomainError(InvalidInputError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(InvalidInputError):
    """Configuration file violates the schema."""


class InfeasibleMomentsError(InvalidInputError):
    """(m, zeta) pair outside the feasible region zeta < m(1-m)."""


class DegenerateSurrogateError(InvalidInputError):
    """Moment pair with zeta = 0 cannot be represented as a Beta."""


class UndefinedScoreError(InvalidInputError):
    """Score requested for an all-zero confusion triple."""


class InfeasibleSeparationError(InvalidInputError):
    """Ordinal separations cannot fit inside the clip interval."""


class NumericalFailureError(FragfieldError):
    """Linear algebra or quadrature failed beyond recovery (CLI exit code 3)."""


def check_number(name, value, what="a finite number", ok=None, *, integer=False):
    """Return ``value`` if it is a finite real, not a bool (an integer if
    ``integer``) and ``ok(value)`` holds; else raise ``InvalidInputError``.

    Comparing with the float range, not converting, also rejects NaN, the
    infinities and an integer too large for a float.
    """
    kind = numbers.Integral if integer else numbers.Real
    if (
        isinstance(value, bool)
        or not isinstance(value, kind)
        or not -sys.float_info.max <= value <= sys.float_info.max
        or (ok is not None and not ok(value))
    ):
        raise InvalidInputError(f"{name} must be {what}, got {value!r}")
    return value
