"""Shared helpers: radius schedules, their tails, deterministic formatting."""

from __future__ import annotations

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
