"""One rule for turning a value into a field, for JSON files and Python constructors alike.

A field has a kind: ``int`` or ``float``, a number with bounds such as
``(int, 0)`` (at least 0) or ``(float, 0.0, 1.0)`` (in [0, 1]), ``str``, a
list of choices, or a converter of the value; so a field's rule holds its
range, and NaN is outside every bound.  An integer field refuses a bool and a
number with a fractional part, and a real one refuses a bool; integer-valued
numbers and strings such as ``2.0`` and ``"2"`` are accepted, as a flag's
text is.  A list field takes a JSON list, or a tuple or 1-d array from
Python, and a matrix refuses ragged rows and an imaginary part whose shape
differs from the real part's.  ``read`` takes a whole JSON object and refuses
a non-object and an unknown, missing, wrong-kind or out-of-range field, and
``own`` converts a constructed object's fields; both raise ValueError naming
the object, the field and any bound it breaks.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = []

# numpy's scalars too: an array from a Python caller holds them, and int(np.True_) is 1.
_BOOLS, _REALS = (bool, np.bool_), (float, np.floating)
# The kind of every seed: numpy's generators take any non-negative integer.
SEED = (int, 0)


class _OutOfRange(ValueError):
    """A number outside the bounds of its kind; ``convert`` names the field."""


def base(kind):
    """int or float for a number kind, with bounds or without; None for any other kind."""
    kind = kind[0] if isinstance(kind, tuple) else kind
    return kind if kind in (int, float) else None


def number(kind, value):
    """``value`` as a number of ``kind``; TypeError for a bool, a fraction for int, or text that is no such number."""
    kind, low, high = (*kind, math.inf)[:3] if isinstance(kind, tuple) else (kind, None, None)
    if isinstance(value, _BOOLS) or kind is int and isinstance(value, _REALS) and not float(value).is_integer():
        raise TypeError
    try:
        value = kind(value)
    except ValueError:
        raise TypeError from None
    if low is not None and not low <= value <= high:  # NaN fails every bound
        rule = f"must be at least {low}" if high == math.inf else f"must lie in [{low}, {high}]"
        raise _OutOfRange(f"{rule}, got {value!r}")
    return value


def listed(kind):
    """A converter of a list, tuple or 1-d array whose entries all have ``kind`` (a number kind or a converter)."""
    entry = functools.partial(number, kind) if base(kind) else kind

    def entries(value) -> tuple:
        if not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1):
            raise TypeError
        return tuple(map(entry, value))

    return entries


def matrix(value) -> np.ndarray:
    """A list of equal-length lists of reals, as a float array."""
    rows = listed(listed(float))(value)
    if len({len(row) for row in rows}) > 1:
        raise TypeError  # ragged
    return np.array(rows, dtype=float)


def joined(parts: dict, what: str, re: str, im: str) -> np.ndarray:
    """The complex matrix of the read matrix fields ``re`` and (optional) ``im``, which must have one shape."""
    if im in parts and parts[im].shape != parts[re].shape:
        raise ValueError(f"{what} field {im!r} has shape {parts[im].shape}, but {re!r} has {parts[re].shape}")
    return parts[re] + 1j * parts.get(im, 0.0)


def convert(what: str, name: str, kind, value):
    """``value`` as field ``name`` of ``kind``; a value of the wrong kind or out of its bounds raises ValueError."""
    if isinstance(kind, list):
        if isinstance(value, bool) or value not in kind:
            raise ValueError(f"{what} field {name!r} must be one of {kind}, got {value!r}")
        return value
    try:
        if base(kind):
            return number(kind, value)
        if kind is str and not isinstance(value, str):
            raise TypeError  # str() would take any value
        return kind(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{what} field {name!r} has the wrong type: {value!r}") from None
    except _OutOfRange as exc:
        raise ValueError(f"{what} field {name!r} {exc}") from None


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


def own(obj, what: str, kinds: dict) -> None:
    """Convert the fields of dataclass ``obj`` named in ``kinds`` in place; only one whose default is None may be None."""
    for name, kind in kinds.items():
        value = getattr(obj, name)
        if value is not None or obj.__dataclass_fields__[name].default is not None:
            object.__setattr__(obj, name, convert(what, name, kind, value))
