"""Time propagation of paraboloid parameters.

One engine serves the parameter flow, its dense output, the surface rides and
the back-traces.  On each piece of the input, where u(a + s) is a polynomial
of degree d in the local time s, the state is augmented with the input's
basis: zeta = [x; 1; s; ...; s^d].  The value function x'Ex - 2f'x + g is then
zeta' P zeta for a single symmetric P, and the piece has a constant
Hamiltonian H = [[At, -B Mw^-1 B'], [-Qt, -At']], so its transition matrix
Phi(h) = expm(H h) is exact for zero input and for the cubic-spline input
alike:

* the parameter flow restarts at every node from P <- Y X^-1 with
  [X; Y] = Phi [I; P] (Kenney & Leipnik, IEEE TAC 30(10), 1985);
* dense output applies Phi(t - t_k) to the stored node;
* a surface ride advances [zeta; P zeta] by Phi, and its budget by Van Loan's
  block exponential of the energy rate (IEEE TAC 23(3), 1978);
* a back-trace advances by Phi(-h).

The exponentials are the scaling-and-squaring Padé algorithm of Al-Mohy &
Higham (SIAM J. Matrix Anal. Appl. 31(3), 2009), batched over stacks of
(piece, step) pairs in :mod:`parareach._expm`.

The seeds of a family differ only in their scaling, so :func:`propagate`
steps them together: each node is one step of the (M, k, k) stack of their
augmented P with the piece's shared Phi.

Riccati solutions can blow up in finite time: E passes through infinity where
X turns singular.  X starts every step at I, so a step crosses a blow-up when
an eigenvalue of its x-block leaves the open right half-plane (for n = 2:
a positive trace and determinant), which also catches two
eigenvalues of E passing through infinity together (det X keeps its sign).
A member that crosses one leaves the stack, its blow-up time alone bisected
on Phi(s) and its stored grid ending strictly before it; the others step on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._expm import expm
from .errors import (ConfigError, DimensionMismatch, NonPositiveScale, OutOfDomain,
                     SingularMw)
from .model import IqcSystem, Paraboloid, _quantity, _shaped

ESCAPE_BRACKET_RTOL = 1e-6  # relative width of the blow-up time bracket
DOMAIN_TOL = 1e-12          # slack of a domain [0, t_end]: absolute at 0, relative at t_end
_VALUE_BLOCK = 8192         # elements of Flow.value's scratch block (64 kB)
_VALUE_KERNEL_MIN = 2048    # results below which Flow.value's einsum costs less


@dataclass(frozen=True)
class IntegratorConfig:
    """Grid and limits of the propagation engine.

    ``max_step`` bounds the node spacing, ``escape_norm`` the Frobenius norm
    of E before propagation stops, and ``t_end`` the horizon.  The engine is
    exact up to the matrix exponential, so ``rel_tol`` only sets the default
    touch tolerance of surface rides (``TOUCH_TOL_FACTOR * rel_tol``), and
    ``abs_tol`` is accepted but unused.  Each field is a positive, finite
    quantity (the input rules of the README's "Library entry points").
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 0.025
    escape_norm: float = 1e7
    t_end: float = 1.0

    def __post_init__(self):
        for field in ("rel_tol", "abs_tol", "max_step", "escape_norm", "t_end"):
            name = f"IntegratorConfig.{field}"          # a number, not an array
            _shaped(_quantity(getattr(self, field), name, "positive"), (), name)
        if self.rel_tol < 1e-13 or self.abs_tol < 1e-13:
            raise ConfigError("tolerances below 1e-13 are not resolvable in float64")


def _mw_solve(sys: IqcSystem, rhs):
    if sys.m == 0:
        return np.zeros_like(rhs)
    if sys.Mw_inv is None or not np.all(np.isfinite(sys.Mw_inv)):
        raise SingularMw("w-block of M is not invertible")
    return sys.Mw_inv @ rhs


def _swap(a):
    return np.swapaxes(a, -1, -2)


def _right_half_plane(X):
    """Whether all eigenvalues of each X (..., n, n) have positive real parts."""
    if X.shape[-1] == 2:
        a, b, c, d = X[..., 0, 0], X[..., 0, 1], X[..., 1, 0], X[..., 1, 1]
        return (a + d > 0.0) & (a * d - b * c > 0.0)
    return np.linalg.eigvals(X).real.min(axis=-1) > 0.0


class Flow:
    """Constant Hamiltonians of the augmented value function, one per input
    piece of [0, t_end], and the uniform node grid they are stepped on.

    Pieces start at 0 and at every input knot in (0, t_end); each is cut into
    equal steps of at most ``max_step``.  Per piece the Van Loan block
    ``Z = [[-H', N], [0, H]]`` is kept, where ``N`` is the energy rate of the
    maximizing disturbance as a quadratic form in ``[zeta; P zeta]``, and the
    forward and backward full steps are precomputed from it.
    """

    def __init__(self, sys: IqcSystem, t_end: float, max_step: float):
        u = sys.u
        n, p = sys.n, sys.p
        d1 = u.degree + 1
        k = n + d1
        self.system, self.n, self.k = sys, n, k
        knots = np.asarray(u.knots, dtype=float)
        cuts = np.concatenate([[0.0], knots[(knots > 0.0) & (knots < t_end)], [t_end]])
        self.starts = cuts[:-1]
        counts = [max(1, int(np.ceil((b - a) / max_step - 1e-9)))
                  for a, b in zip(cuts[:-1], cuts[1:])]
        self.h = np.diff(cuts) / counts
        self.grid = np.concatenate(
            [np.linspace(a, b, c + 1)[:-1] for a, b, c in zip(cuts[:-1], cuts[1:], counts)]
            + [[t_end]])
        self.powers = np.arange(d1)

        D = np.diag(np.arange(1.0, d1), -1)          # d/ds [1, s, ..] = D [1, s, ..]
        B = np.vstack([sys.B, np.zeros((d1, sys.m))])
        Mxu, Mxuw = sys.M[:n + p, :n + p], sys.M[:n + p, n + p:]
        Z = []
        for a in self.starts:
            C = np.asarray(u.taylor(a), dtype=float).reshape(d1, p).T   # u = C [1, s, ..]
            L = np.block([[np.eye(n), np.zeros((n, d1))], [np.zeros((p, n)), C]])
            A = np.block([[sys.A, sys.Bu @ C], [np.zeros((d1, n)), D]])
            Mz, Mzw = L.T @ Mxu @ L, L.T @ Mxuw
            Kz, Kl = -_mw_solve(sys, Mzw.T), -_mw_solve(sys, B.T)   # w* = Kz zeta + Kl lam
            At, Qt, R = A + B @ Kz, Mz + Mzw @ Kz, -B @ Kl
            Hj = np.block([[At, -R], [-Qt, -At.T]])
            T = np.block([[np.eye(k), np.zeros((k, k))], [Kz, Kl]])
            N = T.T @ np.block([[Mz, Mzw], [Mzw.T, sys.Mw]]) @ T
            N = 0.5 * (N + N.T)
            Z.append(np.block([[-Hj.T, N], [np.zeros_like(N), Hj]]))
        self.Z = np.array(Z)
        self.H = self.Z[:, 2 * k:, 2 * k:]          # views of Z's H blocks
        # full steps, forward and backward, from one stacked exponential
        Phi, W = self._exp(np.tile(np.arange(len(self.h)), 2),
                           np.concatenate([self.h, -self.h]))
        self._full = tuple(a.reshape((2, len(self.h)) + a.shape[1:])    # [dt < 0, j]
                           for a in (Phi, W))

    # -- pieces and the augmented representation ----------------------------

    def piece_of(self, t):
        """Index of the piece holding the step that starts at time t."""
        return np.searchsorted(self.starts, t, side="right") - 1

    def basis(self, j, t):
        """[1, s, .., s^d] at local time s = t - start of piece j."""
        s = np.asarray(t, dtype=float) - self.starts[j]
        return s[..., None] ** self.powers

    def embed(self, E, f, g):
        """An augmented P with zeta' P zeta = x'Ex - 2f'x + g for every basis
        value (the basis always starts with 1)."""
        E = np.asarray(E, dtype=float)
        P = np.zeros(E.shape[:-2] + (self.k, self.k))
        n = self.n
        P[..., :n, :n] = E
        P[..., :n, n] = P[..., n, :n] = -np.asarray(f, dtype=float)
        P[..., n, n] = g
        return P

    def value(self, E, f, g, x):
        """x'Ex - 2f'x + g as the quadratic form z'Qz in z = [x; 1], with
        Q = [[E, -f], [-f', g]]; shapes broadcast over leading axes.

        The terms (z_i Q_ij) z_j are added into a zeroed result in i-outer,
        j-inner order, from contiguous columns, leaving out the products with
        z_n = 1.  That is the order and the rounding of numpy's one-call
        einsum over z, Q, z, except where its iterator loops over j alone and
        sums each row of Q apart: at a single point, and for n = 1 at some
        sizes (a trailing axis of 2).  Calls with n = 1 or with fewer than
        ``_VALUE_KERNEL_MIN`` results keep the einsum, which costs less there
        than the kernel's Python overhead.  The terms go through one small
        scratch array, a block of leading rows at a time: a scratch array of
        the result's size costs more in fresh pages than the arithmetic."""
        n = self.n
        E, f, x = (np.asarray(a, dtype=float) for a in (E, f, x))
        shape = np.broadcast_shapes(E.shape[:-2], x.shape[:-1])
        if n == 1 or math.prod(shape) < _VALUE_KERNEL_MIN:
            Q = self.embed(E, f, g)[..., :n + 1, :n + 1]
            z = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
            return np.einsum("...i,...ij,...j->...", z, Q, z)

        def column(a):      # a contiguous copy, viewed at the result's shape
            return np.broadcast_to(np.ascontiguousarray(a), shape)
        z = [column(x[..., i]) for i in range(n)]
        q = [column(-f[..., i]) for i in range(n)]      # Q_in = Q_ni
        Q = [[column(E[..., i, j]) for j in range(n)] + [q[i]]
             for i in range(n)] + [q + [column(np.asarray(g, dtype=float))]]
        out = np.zeros(shape)
        rows = max(1, _VALUE_BLOCK // math.prod(shape[1:]))
        tmp = np.empty((min(rows, shape[0]),) + shape[1:])
        for a in range(0, shape[0], rows):
            b = slice(a, a + rows)
            o, t = out[b], tmp[:min(rows, shape[0] - a)]
            for i in range(n + 1):
                for j in range(n + 1):
                    term = Q[i][j][b]
                    if i < n:
                        term = np.multiply(z[i][b], term, out=t)
                    if j < n:
                        term = np.multiply(term, z[j][b], out=t)
                    o += term
        return out

    def read(self, P, phi):
        """(E, f, g) of an augmented P at the basis value phi."""
        n = self.n
        f = 0.0 - np.einsum("...ij,...j->...i", P[..., :n, n:], phi)   # no -0.0
        g = np.einsum("...i,...ij,...j->...", phi, P[..., n:, n:], phi)
        return P[..., :n, :n], f, g

    def params_after(self, j, t, E, f, g, dt):
        """(E, f, g) at t + dt from (E, f, g) at t, within piece j, and the
        x-block of X: the linear-fractional step P <- Y X^-1 with
        [X; Y] = Phi(dt) [I; P].  The basis rows of X are those of the input's
        own unit-determinant shift, so X is singular exactly where its x-block
        is.  Shapes broadcast over leading axes, with one matrix exponential
        per distinct (j, dt)."""
        if np.ndim(dt) == 0 and abs(dt) == self.h[j]:
            Phi = self._full[0][int(dt < 0), j]
        else:
            # one key per pair, exact: j the real part, dt the imaginary
            key, inv = np.unique(j + 1j * np.asarray(dt), return_inverse=True)
            Phi = expm(self.H[key.real.astype(int)] * key.imag[:, None, None])
            Phi = Phi[inv.reshape(np.shape(dt))]
        k = self.k
        P = self.embed(E, f, g)
        X = Phi[..., :k, :k] + Phi[..., :k, k:] @ P
        Y = Phi[..., k:, :k] + Phi[..., k:, k:] @ P
        P = np.linalg.solve(_swap(X), _swap(Y))
        P = 0.5 * (P + _swap(P))
        return self.read(P, self.basis(j, t + dt)) + (X[..., :self.n, :self.n],)

    def dense_output(self, E, f, g, t_end, tq):
        """(E, f, g) at the times tq, clamped to [0, t_end], from the node
        samples of one paraboloid, (K, n, n), (K, n), (K,), or of M members,
        (M, K, ...) with t_end (M,).  A member's nodes are the grid's up to
        its last, at t_end, which may be off the grid (a blow-up bracket's
        end); between nodes, Phi(t - t_k) advances the node before t."""
        t_end = np.asarray(t_end, dtype=float)[..., None]
        tq = np.clip(tq, 0.0, t_end)
        i = np.where(tq < t_end, np.searchsorted(self.grid, tq, side="right") - 1,
                     g.shape[-1] - 1)
        node = np.indices(i.shape, sparse=True)[:-1] + (i,)    # of each query
        E, f, g = E[node], f[node], g[node]
        off = np.nonzero((tq < t_end) & (tq > self.grid[i]))
        if len(off[0]):
            t0 = self.grid[i[off]]
            E[off], f[off], g[off], _ = self.params_after(
                self.piece_of(t0), t0, E[off], f[off], g[off], tq[off] - t0)
        return E, f, g

    # -- rides --------------------------------------------------------------

    def anchor(self, j, t, x, E, f):
        """Ride states [zeta; P zeta] at times t in the basis of piece j, over
        leading axes.  Only the x-part of P zeta moves zeta and the budget;
        the rest is left 0."""
        b = np.broadcast_to(self.basis(j, t), x.shape[:-1] + self.powers.shape)
        Ex_f = np.einsum("...ij,...j->...i", E, x) - f
        return np.concatenate([x, b, Ex_f, np.zeros_like(b)], axis=-1)

    def rate(self, j, t, x, E, f):
        """Budget rates eta' N eta, eta = ``anchor(j, t, x, E, f)``, over
        leading axes: the energy rate whose integral W a ride adds."""
        eta, m = self.anchor(j, t, x, E, f), 2 * self.k
        return np.einsum("...i,...ij,...j->...", eta, self.Z[j, :m, m:], eta)

    def ride(self, j, t, E, f, dt):
        """Steps of rides anchored at times t to surfaces with parameters
        (E, f) there, by dt within piece j (either sign), over leading axes:
        (A, c, W), with which a ride from x ends at A x + c and gains the
        budget eta' W eta, eta = ``anchor(j, t, x, E, f)``.  (A, c) is
        Phi[:n] eta with the anchor written out."""
        Phi, W = self.vanloan(j, dt)
        n, k = self.n, self.k
        Pf = Phi[..., :n, k:k + n]                  # on P zeta's x-part
        A = Phi[..., :n, :n] + Pf @ E
        c = (np.einsum("...ij,...j->...i", Phi[..., :n, n:k], self.basis(j, t))
             - np.einsum("...ij,...j->...i", Pf, f))
        return A, c, W

    def vanloan(self, j, dt):
        """(Phi(dt), W(dt)) on piece j, over leading axes, with W(dt) the
        integral over [0, dt] of Phi' N Phi: a ride from eta gains the budget
        eta' W eta.  Exact for either sign of dt; the full steps are
        precomputed, and each other distinct (j, dt) takes one Van Loan
        exponential."""
        j, dt = np.broadcast_arrays(j, np.asarray(dt, dtype=float))
        # one key per pair, exact: j the real part, dt the imaginary
        key, inv = np.unique(j + 1j * dt, return_inverse=True)
        js, hs = key.real.astype(int), key.imag
        full = np.abs(hs) == self.h[js]
        Phi, W = (a[(hs < 0).astype(int), js] for a in self._full)
        if not full.all():
            Phi[~full], W[~full] = self._exp(js[~full], hs[~full])
        inv = inv.reshape(dt.shape)
        return Phi[inv], W[inv]

    def _exp(self, j, dt):
        """(Phi, W) from one Van Loan exponential per (j, dt) pair."""
        F = expm(self.Z[j] * dt[..., None, None])
        m = 2 * self.k
        Phi = F[..., m:, m:]
        W = _swap(Phi) @ F[..., :m, m:]
        return Phi, 0.5 * (W + _swap(W))


def domain_end(t_end):
    """The last time treated as inside a domain ending at ``t_end``."""
    return t_end * (1 + DOMAIN_TOL) + 1e-15


class TimeVaryingParaboloid:
    """Member ``row`` of a :class:`ParaboloidStack`: (E(t), f(t), g(t)) at
    its nodes, read-only views of the row cut after its last node, with
    exact dense output: a query between nodes applies the transition matrix
    Phi(t - t_k) of its piece to the node before it.

    ``steps[k]`` is the length the flow stepped from node k (the piece's
    uniform step, or a shorter last step before a finite escape).  grid[0] =
    0; if ``escape_time`` is set, the grid ends strictly before it and queries
    past the grid raise :class:`OutOfDomain`.  ``gamma`` is the row's seed
    scaling."""

    def __init__(self, stack: "ParaboloidStack", row: int):
        k = int(stack.last[row]) + 1
        self.stack, self.row, self.flow, self.n = stack, row, stack.flow, stack.flow.n
        self.grid, self.steps = stack.times[row, :k], stack.steps[row, :k - 1]
        self.E_samples, self.f_samples, self.g_samples = (a[row, :k] for a in stack.nodes)
        self.escape_time = stack.escape[row]
        self.gamma = float(stack.gammas[row])

    @property
    def t_end(self) -> float:
        return float(self.grid[-1])

    def _check_domain(self, t: float):
        if not -DOMAIN_TOL <= t <= domain_end(self.t_end):     # also NaN
            if self.escape_time is not None and t >= self.t_end:
                raise OutOfDomain(
                    f"t={t} is beyond the interval of definition "
                    f"[0, {self.t_end}] (finite escape near t={self.escape_time})")
            raise OutOfDomain(f"t={t} outside [0, {self.t_end}]")

    def params_at(self, t: float):
        """(E, f, g) arrays at time t (exact dense output; the stored values
        at grid points)."""
        E, f, g = self.params_at_many(np.array([t], dtype=float))
        return E[0], f[0], float(g[0])

    def params_at_many(self, tq):
        """(E, f, g) tables at an array of times within the domain:
        shapes (K, n, n), (K, n), (K,), from :meth:`Flow.dense_output`."""
        tq = np.asarray(tq, dtype=float)
        if tq.size:
            for t in (tq.min(), tq.max()):
                self._check_domain(float(t))
        return self.flow.dense_output(self.E_samples, self.f_samples, self.g_samples,
                                      self.t_end, tq)

    def __call__(self, t: float) -> Paraboloid:
        E, f, g = self.params_at(t)
        return Paraboloid(E, f, g)


@dataclass(frozen=True)
class ParaboloidStack:
    """One seed under M scalings ``gammas`` (M,), stepped together by one
    :class:`Flow` on its first K nodes ``grid`` (K,).  Per member (row r):
    the node times ``times`` (M, K), steps ``steps`` (M, K - 1) and nodes
    ``nodes`` (E, f, g), (M, K, n, n), (M, K, n), (M, K); the index
    ``last[r]`` of its last node, at ``t_end[r]``; and its ``escape[r]``
    time, or None.  Past ``last[r]`` a row is padded: its times and nodes
    repeat the last one, and its steps are 0.  All arrays are read-only;
    the ``members`` are views of the rows."""

    flow: Flow
    grid: np.ndarray
    gammas: np.ndarray
    times: np.ndarray
    steps: np.ndarray
    nodes: tuple
    last: np.ndarray
    t_end: np.ndarray
    escape: tuple

    @cached_property
    def members(self) -> tuple:
        return tuple(TimeVaryingParaboloid(self, r) for r in range(len(self.last)))


def propagate(P0: Paraboloid, sys: IqcSystem, cfg: IntegratorConfig, gamma=1.0):
    """Step the (E, f, g) flow from the seed scaled by ``gamma`` over the grid
    of one :class:`Flow` up to cfg.t_end: a :class:`ParaboloidStack` for an
    array of scalings, and the one member of its stack, a
    :class:`TimeVaryingParaboloid`, for a scalar ``gamma``.

    Each node is one :meth:`Flow.params_after` on the member stack and one
    batched test.  A member leaves the stack at the first step where an
    eigenvalue of the x-block of X reaches the closed left half-plane (E
    passes through infinity; :func:`_right_half_plane`) or E exceeds
    ``cfg.escape_norm`` in Frobenius norm; its crossing is bisected on
    Phi(s), with the same test, into ``escape_time``, and its last node is
    the last time bracketed below it.  So each member's nodes are, bit for
    bit, those it gets when propagated alone.
    """
    if P0.dim != sys.n:
        raise DimensionMismatch(f"seed dim {P0.dim} != system dim {sys.n}")
    gs = _quantity(gamma, "seed scalings")
    if gs.ndim > 1 or gs.size == 0 or not np.all(gs > 0.0):
        raise NonPositiveScale(f"seed scalings must be positive, got {gamma}")
    flow = Flow(sys, cfg.t_end, cfg.max_step)
    M, K, gm = gs.size, len(flow.grid), gs.flatten()
    pieces = flow.piece_of(flow.grid[:-1])
    times, steps = np.tile(flow.grid, (M, 1)), np.tile(flow.h[pieces], (M, 1))
    node = (gm[:, None, None] * P0.E, gm[:, None] * P0.f, gm * P0.g)  # of live members
    E, f, g = (np.repeat(a[:, None], K, axis=1) for a in node)
    last, escape, live = np.full(M, K - 1), [None] * M, np.arange(M)

    def step(E0, f0, g0, dt):
        E1, f1, g1, X = flow.params_after(j, t, E0, f0, g0, dt)
        ok = (_right_half_plane(X)
              & (np.einsum("...ij,...ij->...", E1, E1) <= cfg.escape_norm ** 2)
              & np.isfinite(f1).all(axis=-1) & np.isfinite(g1))
        return (E1, f1, g1), ok

    for i, (t, j) in enumerate(zip(flow.grid[:-1], pieces)):
        node, ok = step(*node, flow.h[j])
        rows = live if len(live) < M else slice(None)
        E[rows, i + 1], f[rows, i + 1], g[rows, i + 1] = node
        if ok.all():
            continue
        for r in live[~ok]:             # bisect the blow-up of each leaver
            lo, hi = 0.0, flow.h[j]
            while hi - lo > ESCAPE_BRACKET_RTOL * max(t + hi, 1e-3):
                mid = 0.5 * (lo + hi)
                cand, passed = step(E[r, i], f[r, i], g[r, i], mid)
                if passed:
                    lo, (E[r, i + 1], f[r, i + 1], g[r, i + 1]) = mid, cand
                else:
                    hi = mid
            escape[r], last[r] = float(t + hi), i + (lo > 0.0)
            times[r, i + 1], steps[r, i] = t + lo, lo
        node, live = tuple(a[ok] for a in node), live[ok]
        if not len(live):
            break
    K = last.max() + 1
    col = np.minimum(np.arange(K), last[:, None])     # each row padded by its last node
    times, E, f, g = (a[np.arange(M)[:, None], col] for a in (times, E, f, g))
    steps = np.where(np.arange(K - 1) < last[:, None], steps[:, :K - 1], 0.0)
    for a in (gm, times, steps, E, f, g, last):
        a.flags.writeable = False
    stack = ParaboloidStack(flow, flow.grid[:K], gm, times, steps, (E, f, g), last,
                            times[:, -1], tuple(escape))
    return stack.members[0] if gs.ndim == 0 else stack
