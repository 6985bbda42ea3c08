"""Input signals u(t).

Two representations are supported: the constant zero and a sampled signal
interpolated with a cubic spline.  The spline is the not-a-knot one (the third
derivative is continuous at the second and the second-to-last sample), which
is scipy's ``CubicSpline`` default: a line through two samples, a parabola
through three.  Its knot slopes solve a tridiagonal system, and it keeps one
row of power coefficients per piece.  Spline interpolation of samples is an
approximation of whatever produced the samples, accurate only as far as the
sampling is dense.

Both are piecewise polynomials, which is what the propagation engine needs:
``degree`` is the polynomial degree, ``knots`` the times where the polynomial
changes, and ``taylor(a)`` the coefficients of u(a + s) in powers of s on the
piece that starts at a.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionMismatch


class ZeroSignal:
    """u(t) = 0 for all t."""

    degree = 0
    knots = np.empty(0)

    def __init__(self, dim: int):
        from .model import _count                   # model imports this module
        self.dim = _count(dim, "signal dimension", 0)
        self._value = np.zeros(self.dim)
        self._value.flags.writeable = False

    def __call__(self, t: float) -> np.ndarray:
        return self._value

    def taylor(self, a: float) -> np.ndarray:
        return np.zeros((1, self.dim))

    def to_json(self):
        return "zero"

    def __repr__(self):
        return f"ZeroSignal(dim={self.dim})"


def _not_a_knot_coefficients(x, y):
    """Power coefficients, (n - 1, 4, dim), of the not-a-knot cubic spline
    through the rows of y, (n, dim), at the knots x, n >= 2.  Its knot slopes
    solve the banded system of scipy's CubicSpline by tridiagonal
    elimination without pivoting: the first interior pivot is x[2] - x[0]
    and the interior rows are diagonally dominant, so every interior
    multiplier stays below 1."""
    n = len(x)
    dx = np.diff(x)[:, None]
    slope = np.diff(y, axis=0) / dx
    b = np.vstack([slope, slope[-1:]])           # two samples: a line
    if n > 2:
        h = dx[:, 0]
        lo, dg, up = np.zeros(n), np.zeros(n), np.zeros(n)
        lo[1:-1], dg[1:-1], up[1:-1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
        b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if n == 3:                               # a parabola
            dg[0] = up[0] = lo[2] = dg[2] = 1.0
            b[0], b[2] = 2.0 * slope[0], 2.0 * slope[1]
        else:
            d = x[2] - x[0]
            dg[0], up[0] = h[1], d
            b[0] = ((h[0] + 2.0 * d) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d
            d = x[-1] - x[-3]
            lo[-1], dg[-1] = d, h[-2]
            b[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * d + h[-1]) * h[-2] * slope[-1]) / d
        for i in range(1, n):
            w = lo[i] / dg[i - 1]
            dg[i] -= w * up[i - 1]
            b[i] -= w * b[i - 1]
        b[-1] /= dg[-1]
        for i in range(n - 2, -1, -1):
            b[i] = (b[i] - up[i] * b[i + 1]) / dg[i]
    t = (b[:-1] + b[1:] - 2.0 * slope) / dx
    return np.stack([y[:-1], b[:-1], (slope - b[:-1]) / dx - t, t / dx], axis=1)


class SampledSignal:
    """Not-a-knot cubic-spline interpolation of time samples.

    ``coef[i, j]`` is the coefficient of s^j of u(times[i] + s) on piece i;
    a time on a knot belongs to the piece it starts.  Outside [times[0],
    times[-1]] the signal is held constant at the nearest endpoint value.
    """

    degree = 3

    def __init__(self, times, values):
        from .model import _count, _quantity        # model imports this module
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or values.ndim != 2 or values.shape[0] != times.shape[0]:
            raise DimensionMismatch(
                f"signal samples misshaped: times {times.shape}, values {values.shape}"
            )
        _count(len(times), "number of signal samples", 2)
        _quantity(values, "sampled signal")
        _quantity(np.diff(_quantity(times, "signal sample times")),
                  "signal sample time steps", "positive")
        self.times = times
        self.values = values
        self.dim = values.shape[1]
        self.coef = _not_a_knot_coefficients(times, values)
        self.knots = self.times
        for a in (self.times, self.values, self.coef):
            a.flags.writeable = False

    def _piece(self, t):
        return min(int(np.searchsorted(self.times, t, side="right")) - 1,
                   len(self.times) - 2)

    def __call__(self, t: float) -> np.ndarray:
        t = min(max(t, self.times[0]), self.times[-1])
        i = self._piece(t)
        c, s = self.coef[i], t - self.times[i]
        return ((c[3] * s + c[2]) * s + c[1]) * s + c[0]

    def taylor(self, a: float) -> np.ndarray:
        """Coefficients c, shape (4, dim), with u(a + s) = sum_j c[j] s^j on
        the piece that starts at a: on a knot the piece's own row, inside a
        piece its Taylor shift to a."""
        c = np.zeros((self.degree + 1, self.dim))
        c[0] = self(a)
        if self.times[0] <= a < self.times[-1]:
            i = self._piece(a)
            p, d = self.coef[i], a - self.times[i]
            c[1] = (3.0 * p[3] * d + 2.0 * p[2]) * d + p[1]
            c[2] = 3.0 * p[3] * d + p[2]
            c[3] = p[3]
        return c

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
