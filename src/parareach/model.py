"""Core domain types: constrained LTI system, paraboloids, augmented states.

The plant is ``xdot = A x + B w + B_u u`` where the disturbance w is unknown
but bounded through an energy budget: the running integral of
``[x; u; w]' M [x; u; w]`` added to the initial budget must stay nonnegative.
The budget is tracked as an extra scalar state ``x_q``, and sets of augmented
states ``(x, x_q)`` are represented by paraboloids: sublevel sets of a value
function quadratic in x and affine in x_q with unit coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricMatrix,
    ConfigError,
    DimensionMismatch,
    NotNegativeDefinite,
)
from .signals import ZeroSignal, signal_from_json

SYM_TOL = 1e-10      # relative symmetry tolerance before construction rejects
PD_MARGIN = 1e-12    # strict margin for the negative-definiteness of M_w


# The four input rules, each checked here only: a count, a quantity, a shape
# (one entry per row) and a time within a horizon.
def _count(value, name, least=1):
    """``value`` as an int: an int or numpy integer, not a bool, at least
    ``least``; else ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ConfigError(f"{name} must be a whole number of at least {least}, "
                          f"got {value!r}")
    return int(value)


def _quantity(value, name, sign=None, inf=False):
    """``value``, a number or an array, as floats, else ConfigError: of an
    integer or float dtype (not a bool, not a string), no NaN, no infinite
    entry unless ``inf``, and with ``sign`` "positive" or "nonnegative"
    every entry above or at least 0."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf":
        raise ConfigError(f"{name} must be a number, got {value!r}")
    a = a.astype(float, copy=False)
    ok = ~np.isnan(a) if inf else np.isfinite(a)
    if sign is not None:
        ok &= (a > 0.0) if sign == "positive" else (a >= 0.0)
    if not ok.all():
        if a.ndim > 1 and sign is None:        # a matrix is named, not printed
            raise ConfigError(f"{name} has non-finite entries")
        rule = " and ".join(filter(None, (sign, None if inf else "finite")))
        raise ConfigError(f"{name} must be {rule}, got {value}")
    return a


def _shaped(value, shape, name):
    """``value`` as a float array of ``shape``, else DimensionMismatch (and
    ConfigError for an entry that is not a number); a str in ``shape`` (like
    "G") stands for any length.  So points are rows
    (G, n), and a stack of R rows takes one budget, start, time or state
    per row."""
    try:
        a = np.asarray(value, dtype=float)
    except ValueError as e:
        try:
            np.asarray(value)
        except ValueError:                      # rows of different lengths
            raise DimensionMismatch(f"{name}: {e}") from e
        raise ConfigError(f"{name} must be a number, got {value!r}") from e
    if a.ndim != len(shape) or any(s != d for s, d in zip(shape, a.shape)
                                   if not isinstance(s, str)):
        shown = str(tuple(shape)).replace("'", "")
        raise DimensionMismatch(f"{name} must have shape {shown}, got {a.shape}")
    return a


def _within(values, end, name):
    """``values`` as floats, each in [0, end] (so none is NaN), else ConfigError."""
    a = np.asarray(values, dtype=float)
    if not np.all((a >= 0.0) & (a <= end)):
        raise ConfigError(f"{name} must lie in [0, {end:g}], got {values}")
    return a


def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim == 1:
        a = a.reshape(len(a), 1) if len(a) else a.reshape(0, 0)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got ndim={a.ndim}")
    return _quantity(a, name)


def _symmetrize(a, name):
    scale = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.T)
    if asym > SYM_TOL * max(scale, 1e-300) and asym > SYM_TOL:
        raise AsymmetricMatrix(f"{name} is not symmetric: rel deviation {asym / max(scale, 1e-300):.3e}")
    return 0.5 * (a + a.T)


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class IqcSystem:
    """Validated constrained plant. Immutable; build with :func:`make_system`."""

    A: np.ndarray
    B: np.ndarray
    Bu: np.ndarray
    M: np.ndarray
    u: object
    n: int
    m: int
    p: int
    # blocks of M in (x, u, w) order
    Mx: np.ndarray = field(repr=False, default=None)
    Mxu: np.ndarray = field(repr=False, default=None)
    Mxw: np.ndarray = field(repr=False, default=None)
    Mu: np.ndarray = field(repr=False, default=None)
    Muw: np.ndarray = field(repr=False, default=None)
    Mw: np.ndarray = field(repr=False, default=None)
    Mw_inv: np.ndarray = field(repr=False, default=None)

    def to_json(self) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "Bu": self.Bu.tolist(),
            "M": self.M.tolist(),
            "u": self.u.to_json(),
        }


def make_system(A, B, B_u, M, u=None) -> IqcSystem:
    """Validate matrices and assemble an :class:`IqcSystem`.

    ``M`` is indexed in (x, u, w) block order and must be symmetric up to
    ``SYM_TOL`` (it is symmetrized on construction); its w-block must be
    negative definite with eigenvalues at most ``-PD_MARGIN``.  ``u`` may be
    ``None`` (zero input), a piecewise-polynomial signal, or the JSON form
    accepted by :func:`parareach.signals.signal_from_json`.  A signal is
    called as ``u(t)`` and, for the propagation engine, gives its polynomial
    ``degree``, its ``knots`` and ``taylor(a)``, the coefficients of
    u(a + s) in powers of s (see :mod:`parareach.signals`).
    """
    A = _as_matrix(A, "A")
    n = len(A)
    A = _shaped(A, (n, n), "A")
    B = _shaped(_as_matrix(B, "B"), (n, "m"), "B")
    B_u = _shaped(_as_matrix(B_u, "B_u"), (n, "p"), "B_u")
    m, p = B.shape[1], B_u.shape[1]
    M = _symmetrize(_shaped(_as_matrix(M, "M"), (n + p + m,) * 2, "M"), "M")

    Mx = M[:n, :n]
    Mxu = M[:n, n:n + p]
    Mxw = M[:n, n + p:]
    Mu = M[n:n + p, n:n + p]
    Muw = M[n:n + p, n + p:]
    Mw = M[n + p:, n + p:]

    if m > 0:
        eig = np.linalg.eigvalsh(Mw)
        if np.any(eig > -PD_MARGIN):
            raise NotNegativeDefinite(
                f"w-block of M must be negative definite; eigenvalues {eig}"
            )
        Mw_inv = np.linalg.inv(Mw)
    else:
        Mw_inv = Mw.copy()

    if u is None:
        u = ZeroSignal(p)
    elif isinstance(u, (str, dict)):
        u = signal_from_json(u, p)
    if getattr(u, "dim", p) != p:
        raise DimensionMismatch(f"input signal dimension {u.dim} != {p}")
    if not all(hasattr(u, a) for a in ("degree", "knots", "taylor")):
        raise ConfigError(f"input signal {u!r} is not piecewise polynomial: "
                          "it needs degree, knots and taylor(a)")

    _freeze(A, B, B_u, M, Mx, Mxu, Mxw, Mu, Muw, Mw, Mw_inv)
    return IqcSystem(A=A, B=B, Bu=B_u, M=M, u=u, n=n, m=m, p=p,
                     Mx=Mx, Mxu=Mxu, Mxw=Mxw, Mu=Mu, Muw=Muw, Mw=Mw, Mw_inv=Mw_inv)


def system_from_json(obj: dict) -> IqcSystem:
    """Load a system from its JSON form (fields A, B, Bu, M, u)."""
    for key in ("A", "B", "Bu", "M"):
        if key not in obj:
            raise DimensionMismatch(f"system JSON missing field {key!r}")
    return make_system(obj["A"], obj["B"], obj["Bu"], obj["M"], obj.get("u", "zero"))


@dataclass(frozen=True)
class Paraboloid:
    """Parameters (E, f, g) of the value function x'Ex - 2f'x + g + x_q.

    E must be symmetric; no definiteness is required (indefinite and negative
    quadratic coefficients arise naturally during propagation).
    """

    E: np.ndarray
    f: np.ndarray
    g: float

    def __post_init__(self):
        E = _as_matrix(self.E, "E")
        E = _symmetrize(_shaped(E, (len(E),) * 2, "E"), "E")
        f = _shaped(_quantity(np.reshape(self.f, -1), "f"), (len(E),), "f")
        _freeze(E, f)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", float(_quantity(self.g, "g")))

    @property
    def dim(self) -> int:
        return self.E.shape[0]

    def quad(self, x) -> float:
        """x'Ex - 2f'x + g (the x-only part of the value function)."""
        x = np.asarray(x, dtype=float).reshape(self.dim)
        return float(x @ self.E @ x - 2.0 * self.f @ x + self.g)


@dataclass(frozen=True)
class AugmentedState:
    """LTI state together with the remaining energy budget."""

    x: np.ndarray
    x_q: float

    def __post_init__(self):
        x = _quantity(np.reshape(self.x, -1), "augmented state")
        _freeze(x)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "x_q", float(_quantity(self.x_q, "augmented state")))


def value_function(P: Paraboloid, X: AugmentedState) -> float:
    """h = x'Ex - 2f'x + g + x_q; membership in P means h <= 0."""
    if X.x.shape[0] != P.dim:
        raise DimensionMismatch(f"state dim {X.x.shape[0]} != paraboloid dim {P.dim}")
    return P.quad(X.x) + X.x_q
