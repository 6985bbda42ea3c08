"""Input signals u(t).

Two representations are supported: the constant zero and a sampled signal
interpolated with a cubic spline.  Spline interpolation of samples is an
approximation of whatever produced the samples, accurate only as far as the
sampling is dense.

Both are piecewise polynomials, which is what the propagation engine needs:
``degree`` is the polynomial degree, ``knots`` the times where the polynomial
changes, and ``taylor(a)`` the coefficients of u(a + s) in powers of s on the
piece that starts at a.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionMismatch


class ZeroSignal:
    """u(t) = 0 for all t."""

    degree = 0
    knots = np.empty(0)

    def __init__(self, dim: int):
        if dim < 0:
            raise DimensionMismatch("signal dimension must be nonnegative")
        self.dim = int(dim)
        self._value = np.zeros(self.dim)
        self._value.flags.writeable = False

    def __call__(self, t: float) -> np.ndarray:
        return self._value

    def taylor(self, a: float) -> np.ndarray:
        return np.zeros((1, self.dim))

    @property
    def is_zero(self) -> bool:
        return True

    def to_json(self):
        return "zero"

    def __repr__(self):
        return f"ZeroSignal(dim={self.dim})"


class SampledSignal:
    """Cubic-spline interpolation of time samples.

    Outside [times[0], times[-1]] the signal is held constant at the nearest
    endpoint value.
    """

    degree = 3

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or values.ndim != 2 or values.shape[0] != times.shape[0]:
            raise DimensionMismatch(
                f"signal samples misshaped: times {times.shape}, values {values.shape}"
            )
        if times.shape[0] < 2:
            raise ConfigError("sampled signal needs at least two samples")
        if np.any(np.diff(times) <= 0):
            raise ConfigError("signal sample times must be strictly increasing")
        self.times = times
        self.values = values
        self.dim = values.shape[1]
        from scipy.interpolate import CubicSpline  # only sampled inputs pay its import

        self._spline = CubicSpline(times, values, axis=0)
        self.knots = self.times
        self.times.flags.writeable = False
        self.values.flags.writeable = False

    def __call__(self, t: float) -> np.ndarray:
        t = min(max(t, self.times[0]), self.times[-1])
        return self._spline(t)

    def taylor(self, a: float) -> np.ndarray:
        """Coefficients c, shape (4, dim), with u(a + s) = sum_j c[j] s^j on
        the piece that starts at a (the spline evaluates a knot from the
        right)."""
        c = np.zeros((self.degree + 1, self.dim))
        if a < self.times[0] or a >= self.times[-1]:
            c[0] = self(a)
            return c
        for j in range(self.degree + 1):
            c[j] = self._spline(a, nu=j) / math.factorial(j)
        return c

    @property
    def is_zero(self) -> bool:
        return False

    def to_json(self):
        return {"times": self.times.tolist(), "values": self.values.tolist()}

    def __repr__(self):
        return f"SampledSignal(dim={self.dim}, n={len(self.times)})"


def signal_from_json(obj, dim: int):
    """Build a signal from its JSON form: "zero" or {"times": [...], "values": [[...]]}."""
    if obj == "zero" or obj is None:
        return ZeroSignal(dim)
    if isinstance(obj, dict) and "times" in obj and "values" in obj:
        sig = SampledSignal(obj["times"], obj["values"])
        if sig.dim != dim:
            raise DimensionMismatch(
                f"signal dimension {sig.dim} does not match input gain columns {dim}"
            )
        return sig
    raise ConfigError(f"unrecognized input-signal spec: {obj!r}")
