"""Shared exception types for the streamcode package, and the JSON field
readers that turn a malformed input file into an InvalidInput."""

from __future__ import annotations

from typing import Any, Callable


class StreamcodeError(Exception):
    """Base class for errors raised by this package."""


class InvalidInput(StreamcodeError, ValueError):
    """A caller supplied parameters outside the documented domain."""


class InvariantViolation(StreamcodeError):
    """An internal consistency check failed; indicates a bug or a broken stream."""


class PatternViolation(InvalidInput):
    """An erasure pattern does not satisfy the guard-spacing contract."""


class DecodeFailure(StreamcodeError):
    """The receiver could not uniquely solve for the source bits."""


class ImpossibleBin(StreamcodeError):
    """No candidate sequence is consistent with a received bin index."""


def json_field(obj: Any, key: str, convert: Callable = lambda v: v) -> Any:
    """``convert(obj[key])`` for a parsed JSON object.

    Raises:
        InvalidInput: naming ``key`` when ``obj`` is no JSON object, lacks
            the key, or holds a value that ``convert`` rejects with a
            TypeError or ValueError (an InvalidInput from a nested reader
            included, so the message spells the path to the bad field).
    """
    if not isinstance(obj, dict):
        raise InvalidInput(f"expected a JSON object with {key!r}, got {type(obj).__name__}")
    if key not in obj:
        raise InvalidInput(f"JSON object has no {key!r}")
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{key!r}: {exc}") from exc


def json_int(v: Any) -> int:
    """``v`` if it is a JSON integer; a float (even 2.0), bool or string is a TypeError."""
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v
