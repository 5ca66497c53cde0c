"""Compactly supported radial bump functions used as test weights."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument

SHAPES = ("triangle_bump", "cosine_bump")


def _simpson(fvals: np.ndarray, h: float) -> float:
    n = len(fvals)
    assert n % 2 == 1
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * fvals) * h / 3.0)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Continuous radial bump: amplitude at the center, zero on the boundary.

    ``triangle_bump`` decays linearly in |x - center|/support_radius;
    ``cosine_bump`` is the raised cosine (1 + cos(pi s))/2 profile.
    """

    shape: str
    support_radius: float
    amplitude: float = 1.0
    center: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise InvalidArgument(f"shape must be one of {SHAPES}")
        if not (0 < self.support_radius < math.inf):
            raise InvalidArgument("support_radius must be positive and finite")
        center = np.asarray(self.center, dtype=float).reshape(-1)
        if not (math.isfinite(self.amplitude) and np.all(np.isfinite(center))):
            raise InvalidArgument("amplitude and center must be finite")
        object.__setattr__(self, "center", center)

    @property
    def dim(self) -> int:
        return len(self.center)

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s = np.sqrt(np.sum((x - self.center) ** 2, axis=1)) / self.support_radius
        inside = s <= 1.0
        out = np.zeros(len(s))
        if self.shape == "triangle_bump":
            out[inside] = self.amplitude * (1.0 - s[inside])
        else:
            out[inside] = self.amplitude * 0.5 * (1.0 + np.cos(np.pi * s[inside]))
        return out

    def integral(self, dim: int | None = None) -> float:
        """Lebesgue integral over R^dim (closed form or high-order quadrature)."""
        from .pointset import ball_volume

        n = dim if dim is not None else self.dim
        vball = ball_volume(n, 1.0)
        if self.shape == "triangle_bump":
            # int_0^1 (1 - s) s^(n-1) ds
            radial = 1.0 / (n * (n + 1.0))
        else:
            s = np.linspace(0.0, 1.0, 4097)
            radial = _simpson(s ** (n - 1) * 0.5 * (1.0 + np.cos(np.pi * s)),
                              s[1] - s[0])
        return self.amplitude * vball * self.support_radius ** n * n * radial

    def normalized(self, dim: int | None = None) -> "TestFunction":
        """Copy rescaled to unit integral (a probability-style weight)."""
        total = self.integral(dim)
        return TestFunction(self.shape, self.support_radius,
                            self.amplitude / total, self.center)

    def support_bound(self) -> float:
        """sup |x| over the support ball."""
        return float(np.linalg.norm(self.center) + self.support_radius)

    def to_json(self) -> dict:
        return {"shape": self.shape, "support_radius": float(self.support_radius),
                "amplitude": float(self.amplitude),
                "center": [float(c) for c in self.center]}

    @staticmethod
    def from_json(doc: dict) -> "TestFunction":
        return TestFunction(doc["shape"], doc["support_radius"],
                            doc.get("amplitude", 1.0), doc.get("center", [0.0]))
