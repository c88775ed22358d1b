"""One rule for turning a JSON value into a field, for instance, ensemble, model and config files.

A field has a kind: ``int`` or ``float``, ``str``, a list of choices, or a
converter of the JSON value.  An integer field refuses a bool and a number
with a fractional part, and a real one refuses a bool; integer-valued
numbers and strings such as ``2.0`` and ``"2"`` are accepted, as a
command-line flag's text is.  ``read`` takes a whole JSON object and
refuses a non-object and an unknown, missing or wrong-kind field with
ValueError, naming the object and the field.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = []


def number(kind, value):
    """``kind(value)`` for int or float; TypeError for a bool, a fraction for int, or text that is no such number."""
    if isinstance(value, bool) or kind is int and isinstance(value, float) and not value.is_integer():
        raise TypeError
    try:
        return kind(value)
    except ValueError:
        raise TypeError from None


def listed(kind):
    """A converter of a JSON list whose entries all have ``kind`` (int, float or a converter)."""
    entry = functools.partial(number, kind) if kind in (int, float) else kind

    def entries(value) -> list:
        if not isinstance(value, list):
            raise TypeError
        return [entry(item) for item in value]

    return entries


def matrix(value) -> np.ndarray:
    """A JSON list of equal-length lists of reals, as a float array."""
    return np.array(listed(listed(float))(value), dtype=float)


def convert(what: str, name: str, kind, value):
    """``value`` as field ``name`` of ``kind``; a value of the wrong kind raises ValueError."""
    if isinstance(kind, list):
        if isinstance(value, bool) or value not in kind:
            raise ValueError(f"{what} field {name!r} must be one of {kind}, got {value!r}")
        return value
    try:
        if kind in (int, float):
            return number(kind, value)
        if kind is str and not isinstance(value, str):
            raise TypeError  # str() would take any value
        return kind(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{what} field {name!r} has the wrong type: {value!r}") from None


def read(data, what: str, kinds: dict, required=()) -> dict:
    """The fields of JSON object ``data``, each converted by its kind in ``kinds``; ``what`` names it in messages."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = data.keys() - kinds.keys()
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    for name in required:
        if name not in data:
            raise ValueError(f"{what} has no {name!r} field")
    return {name: convert(what, name, kinds[name], value) for name, value in data.items()}
