"""Small shared helpers: tail statistics and deterministic formatting."""

from __future__ import annotations

import numpy as np

# Relative spread below which a tail of estimates counts as converged.
DEFAULT_CONVERGENCE_RTOL = 0.05


def tail_slice(values, fraction: float):
    """Last `fraction` of a sequence, never empty."""
    arr = np.asarray(values, dtype=float)
    k = max(1, int(np.ceil(len(arr) * fraction)))
    return arr[-k:]


def tail_max(values, fraction: float = 0.5) -> float:
    """Max over the trailing half of a schedule: the limsup surrogate."""
    return float(np.max(tail_slice(values, fraction)))


def tail_mean(values, fraction: float = 0.5) -> float:
    return float(np.mean(tail_slice(values, fraction)))


def relative_spread(values) -> float:
    """(max - min) / max(|values|), 0 for an all-zero or single tail."""
    arr = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        return 0.0
    return float((np.max(arr) - np.min(arr)) / scale)


def tail_converged(values, fraction: float = 0.25,
                   rtol: float = DEFAULT_CONVERGENCE_RTOL) -> bool:
    """Converged when the trailing quarter's relative spread is below rtol."""
    return relative_spread(tail_slice(values, fraction)) < rtol


def fmt_float(x: float) -> str:
    """17 significant digits: enough to round-trip a double exactly."""
    return format(float(x), ".17g")

