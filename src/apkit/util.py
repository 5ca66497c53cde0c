"""Shared helpers: radius schedules, their tails, deterministic formatting
and the JSON encoding of result records."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvalidArgument


def schedule(radii) -> np.ndarray:
    """Sorted float radii; InvalidArgument unless nonempty, positive, finite."""
    radii = np.sort(np.asarray(radii, dtype=float).reshape(-1))
    if radii.size == 0 or not (0 < radii[0] and radii[-1] < math.inf):
        raise InvalidArgument("radii must be positive and finite")
    return radii


def tail(values) -> np.ndarray:
    """The last ceil(n/2) values: the large-radius end of a schedule."""
    arr = np.asarray(values, dtype=float)
    return arr[len(arr) // 2:]


def tail_max(values) -> float:
    """Max over the tail: the limsup surrogate."""
    return float(np.max(tail(values)))


def tail_mean(values) -> float:
    return float(np.mean(tail(values)))


def relative_spread(values) -> float:
    """(max - min) / max(|values|), 0 for an all-zero or single tail."""
    arr = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        return 0.0
    return float((np.max(arr) - np.min(arr)) / scale)


def tail_spread(values) -> float:
    """Relative spread of the tail widened to two values; inf for one value."""
    arr = np.asarray(values, dtype=float)
    return (relative_spread(arr[min(len(arr) // 2, len(arr) - 2):])
            if len(arr) > 1 else math.inf)


def tail_converged(values, rtol: float = 0.05) -> bool:
    return tail_spread(values) < rtol


def fmt_float(x: float) -> str:
    """17 significant digits: enough to round-trip a double exactly."""
    return format(float(x), ".17g")


def jsonable(obj):
    """Plain JSON types, recursively.

    Arrays become lists and numpy scalars Python values; non-finite floats
    become None; any other object is encoded through its ``to_json()``.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if hasattr(obj, "to_json"):
        return jsonable(obj.to_json())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class Record:
    """Base of result dataclasses whose JSON form is their fields by name."""

    def to_json(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name))
                for f in dataclasses.fields(self)}
