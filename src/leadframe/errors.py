"""Exception hierarchy shared by all leadframe modules, and the range checks
every config dataclass applies to its fields.

ParseError and its subclasses cover malformed input files (CLI exit code 2);
every other LeadframeError is a domain or validation failure (exit code 1).
"""

import math
from numbers import Real
from typing import Callable


class LeadframeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LeadframeError):
    """Input file could not be parsed."""


class MissingColumn(ParseError):
    """A required column is absent from the CSV header."""


class BadValue(ParseError):
    """A cell holds a value outside its column's domain."""


class EmptyInput(ParseError):
    """The input contains a header but no data rows."""


class ValidationError(LeadframeError):
    """Structurally parseable data violates a panel invariant."""


class DuplicateObservation(ValidationError):
    """The same (entity, period) pair appears more than once."""


class UnknownColumn(LeadframeError):
    """An aggregation references a column the records do not carry."""


class NonFiniteValue(LeadframeError):
    """A value computed from finite inputs overflowed to inf or nan."""


class DegenerateLabels(LeadframeError):
    """Training data contains only one class."""


class DimensionMismatch(LeadframeError):
    """Feature vector or dataset shape does not match the model."""


class TooFewEntities(LeadframeError):
    """Not enough entities to perform an entity-level split."""


class InvalidConfig(LeadframeError):
    """A configuration value is missing, malformed, or out of range."""


def check_int(value: object, message: str, low: int = 0, high: float = math.inf) -> None:
    """Raise InvalidConfig(message) unless value is an int, not a bool, in [low, high)."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value < high:
        raise InvalidConfig(message)


def check_real(value: object, message: str, accept: Callable[[float], bool]) -> None:
    """Raise InvalidConfig(message) unless value is a finite real, not a bool, that
    ``accept`` holds for."""
    finite = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    if not (finite and accept(value)):
        raise InvalidConfig(message)
