"""Exception hierarchy shared by all leadframe modules, the range checks
every config dataclass applies to its fields, and the JSON file reader.

ParseError and its subclasses cover malformed input files (CLI exit code 2);
every other LeadframeError is a domain or validation failure (exit code 1).
"""

import json
import math
from numbers import Real
from pathlib import Path
from typing import Callable, Union


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
    try:
        finite = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not (finite and accept(value)):
        raise InvalidConfig(message)


def load_json(path: Union[str, Path]) -> object:
    """Parse a UTF-8 JSON file.

    A syntax error stays ``json.JSONDecodeError``; a document the decoder
    cannot hold (nested deeper than the recursion limit, an integer with
    more digits than ``int`` converts) is a ParseError.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise ParseError(f"invalid JSON: {path} is nested too deeply") from None
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
