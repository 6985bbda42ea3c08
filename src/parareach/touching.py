"""Optimal disturbances and trajectories that ride a paraboloid surface.

The disturbance maximizing the time derivative of a paraboloid's value
function is an affine function of the state (strict concavity comes from the
negative-definite w-block of the energy-rate matrix).  Trajectories driven by
it keep the value function constant, so from a seed-boundary state they stay
on the moving surface; their budget rate at t=0, as a function of the seed
scaling, is the quadratic that the family construction solves for.

Rides and back-traces are stepped with the transition matrices of the
propagation engine (:class:`parareach.riccati.Flow`): the ride state
[zeta; P zeta] moves by Phi over each step, Phi(-h) steps it back, and the
budget gains Van Loan's exact integral of the energy rate.

Both come in stacks of rows, each a member of one
:class:`parareach.riccati.ParaboloidStack`; a single ride or back-trace is a
one-row stack.  A ride is affine in its start, so the steps of all rows are
composed into ride maps by one log-depth scan, about 2 log2(steps) batched
products, and the maps move every start to all its nodes at once.  A ride's
row is its member's stack row, cut at the member's last node or the horizon
and padded past it as the stack pads it; a back-trace's row steps to the
node before its start, then back node by node to 0, and is padded after
that.  A row's states do not depend on the other rows or on the padding.
A failed row keeps its error, and the other rows finish.

A sweep has two parts.  Its span part depends only on the row and its
span, 0 to the end for a ride and t_at back to 0 for a back-trace: the node
tables, the step matrices and their scanned maps.  Its start part moves the
starts by the maps and adds up the budgets.  This module keeps, per stack,
the span of the last single ride and of the last single back-trace,
read-only, so a loop of single rides or back-traces on one member builds
each span once; stacked calls build their own.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import DimensionMismatch, NotOnBoundary, OutOfDomain, StepSizeUnderflow
from .model import AugmentedState, IqcSystem, Paraboloid, _freeze, _quantity, _shaped
from .riccati import IntegratorConfig, TimeVaryingParaboloid

TOUCH_TOL_FACTOR = 100.0  # touch_tol = factor * rel_tol unless given
_SPANS = weakref.WeakKeyDictionary()    # stack -> {kind: (key, span)}, see _shared


def optimal_disturbance(P: Paraboloid, x, u_t, sys: IqcSystem) -> np.ndarray:
    """w* = -Mw^-1 (B'(Ex - f) + Mxw'x + Muw'u): the unique maximizer of the
    value-function derivative at state x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u_t = np.asarray(u_t, dtype=float).reshape(-1)
    if x.shape[0] != sys.n or u_t.shape[0] != sys.p or P.dim != sys.n:
        raise DimensionMismatch(
            f"optimal_disturbance shapes: x {x.shape}, u {u_t.shape}, P dim {P.dim}")
    v = sys.B.T @ (P.E @ x - P.f) + sys.Mxw.T @ x + sys.Muw.T @ u_t
    return -(sys.Mw_inv @ v)


class Rides:
    """Surface rides stepped together, one per row, on the nodes of one
    :class:`parareach.riccati.Flow`: ``grid`` (K,) the Flow's nodes the stack
    steps over, and per row the node times ``times`` (R, K), states ``x``
    (R, K, n), budgets ``xq`` (R, K) and value functions ``h`` (R, K) (a
    diagnostic), each padded past the row's last node ``last[r]`` by
    repeating it.  ``etas`` (R, K - 1, 2k) are the ride states each step
    starts from, from which :meth:`state_at_many` is exact between nodes.
    ``errors[r]`` is the :class:`NotOnBoundary` or
    :class:`StepSizeUnderflow` of a row that left the surface, else None.
    A single ride's node tables, ``times`` among them, are the read-only
    arrays of its stack's span memo (the module docstring); a stacked
    call's are its own."""

    def __init__(self, flow, times, last, x, xq, h, etas, errors):
        self.flow = flow
        self.grid = flow.grid[:times.shape[1]]
        self.times, self.last = times, last
        self.x, self.xq, self.h, self.etas = x, xq, h, etas
        self.errors = errors

    def state_at_many(self, rows, tq):
        """(x, x_q) of the rides ``rows`` at the times ``tq``, shapes (Q, n),
        (Q,): the ride state of the node before each time, advanced by its
        transition matrix.  Times outside a row's nodes are clamped to them."""
        rows = np.asarray(rows)
        last = self.last[rows]
        end = self.times[rows, last]
        tq = np.clip(np.asarray(tq, dtype=float), 0.0, end)
        i = np.where(tq < end, np.searchsorted(self.grid, tq, side="right") - 1, last)
        x, xq = self.x[rows, i], self.xq[rows, i]
        t0 = self.times[rows, i]
        off = np.nonzero(tq > t0)[0]
        if len(off):
            eta = self.etas[rows[off], i[off]]
            Phi, W = self.flow.vanloan(self.flow.piece_of(t0[off]), tq[off] - t0[off])
            x[off] = np.einsum("kij,kj->ki", Phi[:, :x.shape[1]], eta)
            xq[off] += np.einsum("ki,kij,kj->k", eta, W, eta)
        return x, xq

    def row(self, r: int) -> "AugmentedTrajectory":
        return AugmentedTrajectory(self, r)


class AugmentedTrajectory:
    """One ride of :class:`Rides` (row ``r``): (x, x_q) at its nodes
    ``grid``, with the paraboloid's value function recorded along the way as
    a diagnostic, and exact dense output between them."""

    def __init__(self, rides: Rides, r: int):
        k = rides.last[r] + 1
        self.grid = rides.times[r, :k]
        self.x_samples = rides.x[r, :k]
        self.xq_samples = rides.xq[r, :k]
        self.h_samples = rides.h[r, :k]
        self._rides, self._row = rides, r

    def state_at_many(self, tq):
        """(x, x_q) at an array of times, shapes (K, n), (K,); times outside
        the grid are clamped to its ends."""
        tq = np.asarray(tq, dtype=float)
        return self._rides.state_at_many(np.full(tq.shape, self._row), tq)

    def state_at(self, t: float):
        """(x, x_q) at time t (exact dense output of a ride)."""
        x, xq = self.state_at_many([t])
        return x[0], float(xq[0])


def _flow_of(tvps, sys: IqcSystem):
    """The Flow all rows step with; refuse rows of different stacks, and a
    ``sys`` other than the system it was built from."""
    stack = tvps[0].stack
    if any(m.stack is not stack for m in tvps):
        raise DimensionMismatch("stacked rows must be members of one ParaboloidStack")
    own = stack.flow.system
    if sys is not own and sys.to_json() != own.to_json():
        raise DimensionMismatch(
            "sys differs from the system the paraboloid was propagated with")
    return stack.flow


def _node_tables(stack, rows, ends):
    """Stack rows ``rows`` cut at their end times ``ends``: node times (R, K),
    step lengths (R, K - 1) and (E, f, g) (R, K, ...), padded past each row's
    last node (the first at or after its end) by the end and the parameters
    there, with steps of 0 (which leave a ride where it is), and the index
    of each row's last node.  An end between two nodes is reached by a
    shorter last step, with its parameters from dense output."""
    last = np.count_nonzero(stack.times[rows] < ends[:, None], axis=1)
    K = last.max() + 1
    nodes = [a[rows, :K] for a in stack.nodes]
    at_end = stack.flow.dense_output(*nodes, stack.t_end[rows], ends[:, None])
    past = np.arange(K) >= last[:, None]
    times = np.where(past, ends[:, None], stack.times[rows, :K])
    E, f, g = (np.where(past.reshape(past.shape + (1,) * (a.ndim - 2)), a_end, a)
               for a, a_end in zip(nodes, at_end))
    cols = np.arange(K - 1)
    steps = np.where(cols < last[:, None], stack.steps[rows, :K - 1], 0.0)
    short = (cols == last[:, None] - 1) & (stack.times[rows, last] != ends)[:, None]
    steps[short] = (times[:, 1:] - times[:, :-1])[short]    # into an end off the nodes
    return times, steps, E, f, g, last


def _scan(M):
    """Maps M (R, S, m, m) replaced by their prefix products M_i ... M_0, by
    a work-efficient scan (Blelloch, CMU-CS-90-190, 1990) over aligned
    power-of-two blocks: about 2 log2(S) batched products.  The up-sweep
    leaves at i the product of the block that ends there, as long as the
    lowest set bit of i + 1; the down-sweep multiplies it onto the prefix
    before the block.  So the prefix at i is the blocks of the binary digits
    of i + 1, from the largest, grouped the same way whatever S is."""
    S, d = M.shape[1], 1
    while 2 * d <= S:
        M[:, 2 * d - 1::2 * d] = M[:, 2 * d - 1::2 * d] @ M[:, d - 1:S - d:2 * d]
        d *= 2
    while d > 1:
        d //= 2
        M[:, 3 * d - 1::2 * d] = M[:, 3 * d - 1::2 * d] @ M[:, 2 * d - 1:S - d:2 * d]
    return M


def _ride_maps(A, c):
    """Each row's ride maps, from its steps (A, c) (R, S, ...) as
    homogeneous maps M = [[A, c], [0, 1]]: ``maps[r, i]`` (R, S, n + 1,
    n + 1) is M_i ... M_0 of row r."""
    R, S, n = c.shape
    M = np.zeros((R * S, n + 1, n + 1))
    M[:, :n, :n] = A.reshape(-1, n, n)
    M[:, :n, n] = c.reshape(-1, n)
    M[:, n, n] = 1.0
    return _scan(M.reshape(R, S, n + 1, n + 1))


def _sweep(flow, j, t, E, f, dt, W, maps, x0):
    """Rides of R rows over S steps each, step i of row r anchored at time
    t[r, i] to (E, f)[r, i], by dt[r, i] within piece j[r, i], with budget
    integral W[r, i] and ride maps ``maps`` (:func:`_ride_maps`), from x0
    (R, n): the states (R, S + 1, n), the budget gain of each step (R, S),
    and the ride states the steps start from (R, S, 2k).  Node i is reached
    by the map of the last step of nonzero length before it, or by none, so
    a step of length 0 leaves a ride exactly where it is.  Such steps pad a
    row after its last real step; their maps are the identity, but the scan
    groups them with the real steps otherwise than the real steps alone."""
    R, S = dt.shape
    reach = np.maximum.accumulate(np.where(dt != 0, np.arange(1, S + 1), 0), axis=1)
    z0 = np.column_stack([x0, np.ones(R)])[:, None, :, None]           # [x0; 1]
    x = np.concatenate([x0[:, None], (maps[..., :-1, :] @ z0)[..., 0]], axis=1)
    x = x[np.arange(R)[:, None], np.column_stack([np.zeros(R, int), reach])]
    etas = flow.anchor(j, t, x[:, :-1], E, f)
    return x, np.einsum("...i,...ij,...j->...", etas, W, etas), etas


def _shared(stack, kind, rows, at, build):
    """The span part of R rides or back-traces, ``build(stack, rows, at)``.
    A one-row call reads it from the stack's slot for ``kind``, keyed by
    the row and the bits of ``at``, and on a miss stores its build there,
    read-only: a stack holds at most one span per kind, for as long as the
    stack lives.  Calls of more rows build their own."""
    at = np.asarray(at, dtype=float)
    if len(rows) > 1:
        return build(stack, rows, at)
    key = (int(rows[0]), int(at.view(np.int64)[0]))
    slots = _SPANS.setdefault(stack, {})
    if kind not in slots or slots[kind][0] != key:
        slots[kind] = (key, build(stack, rows, at))
        _freeze(*slots[kind][1])
    return slots[kind][1]


def _ride_span(stack, rows, ends):
    """The part of rides of stack rows ``rows`` to ``ends`` that no start
    changes: their node tables (:func:`_node_tables`), and the pieces,
    budget integrals and ride maps of their steps."""
    flow = stack.flow
    times, steps, E, f, g, last = _node_tables(stack, rows, ends)
    j = flow.piece_of(times[:, :-1])
    A, c, W = flow.ride(j, times[:, :-1], E[:, :-1], f[:, :-1], steps)
    return times, steps, E, f, g, last, j, W, _ride_maps(A, c)


def _back_span(stack, rows, t_at):
    """The part of back-traces of stack rows ``rows`` from ``t_at`` that no
    state changes: the steps of each row as :func:`_sweep` takes them, with
    their budget integrals and ride maps, and the parameters (E, f, g) at
    t_at."""
    flow = stack.flow
    r, end, last = np.arange(len(rows)), stack.t_end[rows], stack.last[rows]
    times, steps, E, f, g = (a[rows] for a in (stack.times, stack.steps) + stack.nodes)
    Ea, fa, ga = (a[:, 0] for a in flow.dense_output(E, f, g, end, t_at[:, None]))
    start = np.where(t_at < end, np.searchsorted(flow.grid, t_at, side="right") - 1, last)
    t0 = times[r, start]
    # the leg to the node before t_at, then the steps back from node k + 1 to
    # k, k = start - 1 .. 0, then steps of 0 up to the longest row's length
    K = times.shape[1]
    k = start[:, None] - 1 - np.arange(K - 1)
    at = np.maximum(k, 0) + K * r[:, None]          # node k in the rows laid end to end

    def legs(first, nodes, shift=1):                # nodes (R, K, ...) at node k + shift
        at_k = np.take(nodes.reshape((-1,) + nodes.shape[2:]), at + shift, axis=0)
        return np.concatenate([first[:, None], at_k], axis=1)

    j, t = legs(flow.piece_of(t0), flow.piece_of(times), 0), legs(t_at, times)
    E_k, f_k = legs(Ea, E), legs(fa, f)
    dt = np.column_stack([t0 - t_at, np.where(k >= 0, -np.take(steps, at - r[:, None]), 0.0)])
    A, c, W = flow.ride(j, t, E_k, f_k, dt)
    return j, t, E_k, f_k, dt, W, _ride_maps(A, c), Ea, fa, ga


def touching_trajectory(tvp, X0, sys: IqcSystem, cfg: IntegratorConfig,
                        touch_tol=None):
    """Ride the surface of ``tvp`` from a seed-boundary state over the
    paraboloid's interval of definition (up to ``cfg.t_end``).

    The ride is stepped on the paraboloid's own nodes with its transition
    matrices, re-anchored at every node to the stored parameters, so the
    disturbance is the exact maximizer throughout; ``cfg.max_step`` does not
    apply.  ``sys`` must be the system ``tvp`` was propagated with, else
    :class:`DimensionMismatch` is raised.  A start with |h| above
    ``touch_tol`` raises :class:`NotOnBoundary`; if |h| exceeds it at a
    later node, the ride raises :class:`StepSizeUnderflow` rather than
    projecting back.  ``touch_tol`` is nonnegative, and ``np.inf`` turns
    the check off.  Returns an :class:`AugmentedTrajectory`.

    Stacked: with a sequence of members of one stack (a family's, repeats
    allowed), one start each, and ``touch_tol`` a number or one per row
    (else :class:`DimensionMismatch`), all rides are stepped together and a
    :class:`Rides` is returned, whose ``errors`` hold what a single ride
    would have raised.  A stacked call builds its rows' ride maps itself; a
    single ride reuses those of the last single ride on the same stack to
    the same end.  The rides are the same bit for bit either way.
    """
    single = isinstance(tvp, TimeVaryingParaboloid)
    tvps, X0 = ([tvp], [X0]) if single else (list(tvp), list(X0))
    flow = _flow_of(tvps, sys)
    R = len(tvps)
    x0 = _shaped([X.x for X in X0], (R, flow.n), "ride starts")
    tols = _quantity(TOUCH_TOL_FACTOR * cfg.rel_tol if touch_tol is None else touch_tol,
                     "touch_tol", "nonnegative", inf=True)
    tols = np.broadcast_to(tols, (R,)) if tols.ndim == 0 else _shaped(tols, (R,), "touch_tol")

    rows = np.array([m.row for m in tvps])
    ends = np.array([min(cfg.t_end, m.t_end) for m in tvps], dtype=float)
    times, steps, E, f, g, last, j, W, maps = _shared(tvps[0].stack, "ride", rows, ends,
                                                      _ride_span)
    x, gains, etas = _sweep(flow, j, times[:, :-1], E[:, :-1], f[:, :-1], steps, W, maps, x0)
    xq = np.cumsum(np.column_stack([[X.x_q for X in X0], gains]), axis=1)
    h = flow.value_each(*(a.reshape((-1,) + a.shape[2:])
                          for a in (E, f, g, x))).reshape(xq.shape) + xq
    errors = [None] * R
    for r in np.nonzero(np.any(np.abs(h) > tols[:, None], axis=1))[0]:
        k = np.nonzero(np.abs(h[r]) > tols[r])[0][0]
        if k == 0:
            errors[r] = NotOnBoundary(f"initial state is off the seed surface: "
                                      f"h={h[r, 0]:.3e} (tol {tols[r]:.1e})")
        else:
            errors[r] = StepSizeUnderflow(
                f"value-function drift exceeded touch_tol={tols[r]:.1e} "
                f"near t={times[r, k]}")
    rides = Rides(flow, times, last, x, xq, h, etas, errors)
    if not single:
        return rides
    if errors[0] is not None:
        raise errors[0]
    return rides.row(0)


def trace_back_to_seed(tvp, sys: IqcSystem, cfg: IntegratorConfig, t_at, x_at):
    """Find the seed state whose surface-riding trajectory passes through
    ``x_at`` (on the surface of tvp) at time ``t_at``, by stepping the ride
    back to t=0 with the inverse transition matrices Phi(-h).  The budget at
    t_at is pinned to the surface, so the returned state lies on the seed
    surface up to rounding.  ``sys`` must be the system ``tvp`` was
    propagated with, else :class:`DimensionMismatch` is raised; ``cfg`` is
    not used, since the steps are the paraboloid's own.  A ``t_at`` outside
    the paraboloid's domain raises :class:`OutOfDomain`, and a trace whose
    state leaves the finite range raises :class:`StepSizeUnderflow`.

    Stacked: with a sequence of members of one stack, ``t_at`` one time per
    row and ``x_at`` one state per row (else :class:`DimensionMismatch`),
    all rows are stepped back together (each joins at the node before its
    start), and a list is returned holding per row the
    :class:`AugmentedState`, or the error a single back-trace would have
    raised.  A single back-trace reuses the steps and maps of the last one
    on the same member from the same ``t_at``, as single rides do
    (:func:`touching_trajectory`), and a row's seed state, its budget
    included, is the same bit for bit alone and in any stack.
    """
    single = isinstance(tvp, TimeVaryingParaboloid)
    tvps, t_at, x_at = ([tvp], [t_at], [x_at]) if single else (list(tvp), t_at, x_at)
    flow = _flow_of(tvps, sys)
    R, n = len(tvps), flow.n
    t_at = _shaped(t_at, (R,), "back-trace times")
    x_at = _shaped(x_at, (R, n), "back-trace states")
    out = [None] * R
    for r, m in enumerate(tvps):
        try:
            m._check_domain(t_at[r])
        except OutOfDomain as e:
            out[r] = e
    # a row out of its domain is stepped from 0, then dropped
    t_at = np.where([e is None for e in out], np.maximum(t_at, 0.0), 0.0)

    j, t, E, f, dt, W, maps, Ea, fa, ga = _shared(tvps[0].stack, "back",
                                                  np.array([m.row for m in tvps]), t_at,
                                                  _back_span)
    x, gains, _ = _sweep(flow, j, t, E, f, dt, W, maps, x_at)
    xq = np.cumsum(np.column_stack([-flow.value_each(Ea, fa, ga, x_at), gains]),
                   axis=1)[:, -1]
    finite = np.isfinite(x[:, -1]).all(axis=1) & np.isfinite(xq)
    for r in np.nonzero([e is None for e in out])[0]:
        out[r] = (AugmentedState(x[r, -1], xq[r]) if finite[r] else StepSizeUnderflow(
            f"back-trace from t={t_at[r]} left the finite range"))
    if not single:
        return out
    if not isinstance(out[0], AugmentedState):
        raise out[0]
    return out[0]
