"""Brute-force evidence: sample admissible disturbances, integrate directly.

Trajectories are deliberately integrated without the transition-matrix
engine of the paraboloid flow: a fixed-step classical RK4 steps them on a
shared time grid, vectorized across the batch.  Soundness of the
computed sets is then checked against these samples, and coverage measures
how much of a computed slice the samples actually visit.

Half of the samples can be steered by the surface-riding disturbance of a
randomly chosen family member (plus noise): extremal trajectories hug the
boundary, which uniform disturbances almost never reach.  A ride is released
into a plain push at a drawn time, or earlier where its member escapes.  The
initial states are drawn uniformly from the solid seed set by one map from
the unit ball, without rejection.  All randomness is drawn up front from one
generator in a fixed order, so a fixed seed reproduces trajectories byte for
byte regardless of how the integration work is later distributed.

That work is distributed over forked worker processes, one per usable CPU
(``os.sched_getaffinity``).  The rows of each source, plain and steered, are
dealt to its blocks in turn, so every block gets every member in equal
shares.  Before the fork the parent evaluates the input and the member
parameters at every RK4 stage time, so the workers call no user code; they
send back each block's admissible columns, which the parent writes into the
output in place.  The oracle runs its blocks inline with one usable CPU,
without ``os.fork``, in a daemonic process (which may not have children)
and beside other live threads.

A steered block holds its rows by descending ride count, the number of
distinct stage times before the row's release (its switch time or its
member's domain end), so at every stage time the rows still riding lead the
block: the optimal disturbance and its stage tables are computed for that
leading slice only, and the released tail spends its budget on its own
slice.

The admissible trajectories come back as columns (:class:`OracleSamples`),
one row per trajectory in a fixed order, which keeps fixed-seed outputs
byte-identical: the plain draws come first, in draw order, then the steered
draws, grouped stably by ascending member: one permutation of the draws,
which stay where they were drawn, deals the blocks and places their rows.

At an RK4 stage time with input u, the state rate and the budget rate of
v = [x; w; 1] are a linear map R and a quadratic form Q (:func:`_stage_forms`).
A plain row holds w over each step, so its step is one map of z = [x; w; 1],
x <- Phi z, with the budget gain z'Gz, both composed from the four stages'
forms before the fork (:func:`_step_maps`).  A steered row's noise scale is
not linear in x, so its steps keep their four stages; its optimal
disturbance is w* = K x + k, from feedback tables built before the fork per
member and stage time (:func:`_feedback`).

The step arithmetic has one rule: every per-trajectory quantity is a
running sum, in index order, of elementwise products of coordinate rows,
with zero coefficients skipped (a sum of no products is +0).  A block holds
its trajectories in column layout, states (n, N), disturbances (m, N) and
gathered feedback tables (m, n, N) and (m, N), so that each coordinate is
one contiguous row.  Elementwise operations round each column alone, so a
column's bits do not depend on its batch, its block or the BLAS build: a
block may drop its rejected rows at every saved time, down to one.
Reordering or regrouping a sum changes the outputs.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import RejectionStarvation
from .family import ParaboloidFamily, _rate_roots, _seed_center, mesh_points, xq_max_at
from .model import IqcSystem, Paraboloid, _count, _quantity, _shaped, _within


@dataclass(frozen=True)
class OracleConfig:
    """Sampling parameters.

    ``w_scale`` multiplies a per-trajectory affordability estimate derived
    from the drawn initial budget and harvest rate, so the same value works
    across systems of very different state scales.  Plain draws combine a
    per-trajectory persistent direction with per-segment noise; persistent
    pushes are what reach the far lobes of the set, and the admissibility
    rejection is the arbiter of how hard a push the budget allows.  The
    counts are whole, ``t_end`` is positive and the two scales nonnegative,
    all finite (the input rules of the README's "Library entry points").
    """

    n_trajectories: int
    segments: int = 8
    w_scale: float = 1.0
    seed: int = 0
    t_end: float = 1.0
    boundary_fraction: float = 0.5    # share steered by a member's optimal disturbance
    noise_rel: float = 0.05

    def __post_init__(self):
        for name, least in (("n_trajectories", 1), ("segments", 1), ("seed", 0)):
            _count(getattr(self, name), f"OracleConfig.{name}", least)
        for field, sign in (("t_end", "positive"), ("w_scale", "nonnegative"),
                            ("noise_rel", "nonnegative"), ("boundary_fraction", None)):
            name = f"OracleConfig.{field}"              # a number, not an array
            _shaped(_quantity(getattr(self, field), name, sign), (), name)
        _within(self.boundary_fraction, 1.0, "OracleConfig.boundary_fraction")

    @property
    def n_steps(self) -> int:
        """RK4 steps over [0, t_end], about one per 2.5e-3."""
        return max(200, int(np.ceil(self.t_end / 2.5e-3)))


@dataclass(frozen=True)
class OracleSamples:
    """Admissible trajectories sampled at ``times`` (S,): states ``x``
    (S, N, n), budgets ``x_q`` (S, N), disturbances ``w`` (S, N, m), and the
    owning member's value function ``h`` (S, N) as a diagnostic (NaN without
    a family, or past the member's interval of definition).  Plain draws are
    owned by member 0.  ``len`` is the number N of trajectories."""

    times: np.ndarray
    x: np.ndarray
    x_q: np.ndarray
    w: np.ndarray
    h: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[1]


def _draw_initial_states(P0: Paraboloid, n: int, rng):
    """Uniform draws (n, dim) and (n,) from the solid seed set
    {(x, x_q): x_q >= 0, q(x) + x_q <= 0}, needing a positive definite
    quadratic coefficient.  Its slice at x_q is the ellipsoid
    (x - c)' E0 (x - c) <= cap - x_q of volume proportional to
    (cap - x_q)^(dim/2), so s = x_q / cap is Beta(1, dim/2 + 1), drawn by
    inversion, and x is uniform in the slice: a uniform point of the unit
    ball, scaled and mapped through E0^{-1/2}."""
    _, _, c, q_min, root = _seed_center(P0)
    if q_min >= 0.0:
        raise RejectionStarvation("seed contains no states with nonnegative budget")
    cap, dim = -q_min, P0.dim
    s = 1.0 - rng.uniform(size=n) ** (2.0 / (dim + 2))
    d = rng.standard_normal((n, dim))
    r = rng.uniform(size=n) ** (1.0 / dim) * np.sqrt(cap * (1.0 - s))
    d *= (r / np.linalg.norm(d, axis=1))[:, None]
    return c + d @ root.T, cap * s


def _form_terms(R, Q):
    """Per pair of the stacks R (S, k, d) and Q (S, d, d), the nonzero
    coefficients of R's rows, [[(j, r_ij), ...] per row i] in j order, and
    the nonzero terms [(a, b, q_ab), ...] of z'Qz over a >= b in (a, b)
    order, with q_ab = Q_ab + Q_ba off the diagonal.  Pairs with equal bytes
    share one entry (with a constant input, every stage time's do)."""
    C = np.tril(Q + Q.transpose(0, 2, 1), -1) + Q * np.eye(Q.shape[-1])
    keys, terms = [R_s.tobytes() + C_s.tobytes() for R_s, C_s in zip(R, C)], {}
    for key, R_s, C_s in zip(keys, R, C):
        terms[key] = terms.get(key) or (
            [[(j, r) for j, r in enumerate(row) if r] for row in R_s.tolist()],
            [(a, b, c) for a, row in enumerate(C_s.tolist()) for b, c in enumerate(row) if c])
    return [terms[key] for key in keys]


def _sum(products, out):
    """Write the running sum of ``products``, pairs of factors, into ``out``
    in their order: the first product as it is, then each later one added;
    +0 when there is none."""
    first = True
    for x, y in products:
        if first:
            np.multiply(x, y, out=out)
            first = False
        else:
            out += x * y
    if first:
        out[...] = 0.0
    return out


def _times(K, Z):
    """K z for coordinate rows Z (a list whose first entry is a row of N
    columns; any entry may be a scalar), from K's row coefficients
    (:func:`_form_terms`): row j is the running sum over i of Z[i] k_ji."""
    out = np.empty((len(K), len(Z[0])))
    for out_j, row in zip(out, K):
        _sum(((Z[i], k_ji) for i, k_ji in row), out_j)
    return out


def _quad(terms, Z):
    """Columnwise z'Qz for coordinate rows Z as for :func:`_times`, from Q's
    terms (:func:`_form_terms`): the running sum of (Z[a] q_ab) Z[b]."""
    return _sum(((Z[a] * c, Z[b]) for a, b, c in terms), np.empty(len(Z[0])))


def _stage_forms(sys: IqcSystem, U):
    """Per stage time, with the input u a row of ``U``: the state rate
    R = [A, Bu, B] T = [A, B, Bu u] (n, d) and the budget rate's form
    Q = T'MT (d, d) of v = [x; w; 1], d = n + m + 1, where T v = [x; u; w]."""
    n, m, p = sys.n, sys.m, sys.p
    T = np.zeros((len(U), n + p + m, n + m + 1))
    T[:, :n, :n], T[:, n:n + p, -1], T[:, n + p:, n:n + m] = np.eye(n), U, np.eye(m)
    return np.hstack([sys.A, sys.Bu, sys.B]) @ T, T.transpose(0, 2, 1) @ sys.M @ T


def _step_maps(R, Q, grid):
    """Per step of ``grid``, the classical RK4 step of a row that holds w
    over it as one map of z = [x; w; 1], composed in one pass over all steps
    from the :func:`_stage_forms` R, Q of the stage times (nodes, then
    midpoints): the state Phi z after the step and the budget gain z'Gz.
    Stage s sees v = P_s z, with P_1 = I and P_2, P_3, P_4 adding h/2, h/2, h
    times the rate K_s = R_s P_s of stage 1, 2, 3 to the state rows [I 0 0]:
    Phi = [I 0 0] + h/6 (K_1 + 2 K_2 + 2 K_3 + K_4) and
    G = h/6 sum_s c_s P_s' Q_s P_s, c = (1, 2, 2, 1)."""
    S, (n, d) = len(grid) - 1, R.shape[1:]
    h = np.diff(grid)[:, None, None]
    at = (slice(0, S), slice(S + 1, None), slice(S + 1, None), slice(1, S + 1))
    P, dPhi, G = np.broadcast_to(np.eye(d), (S, d, d)), 0.0, 0.0
    for s, (c, frac) in enumerate(zip((1, 2, 2, 1), (0.5, 0.5, 1.0, 0.0))):
        K = R[at[s]] @ P
        dPhi = dPhi + c * K
        G = G + c * (P.transpose(0, 2, 1) @ Q[at[s]] @ P)
        P = np.concatenate([np.eye(n, d) + frac * h * K, P[:, n:]], axis=1)
    return np.eye(n, d) + h / 6.0 * dPhi, h / 6.0 * G


def _feedback(sys: IqcSystem, E, f, U):
    """The optimal disturbance w* = K x + k as feedback tables, member last:
    from the parameters E (M, T, n, n) and f (M, T, n) of M members at T
    stage times with inputs U (T, p), K = -Mw^-1'(B'E + Mxw') (T, m, n, M)
    and k = Mw^-1'(B'f - Muw'u) (T, m, M), each written once."""
    (M, T, n), Mi = f.shape, sys.Mw_inv.T
    K = np.einsum("ji,stic->tjcs", -(Mi @ sys.B.T), E, out=np.empty((T, sys.m, n, M)))
    K -= (Mi @ sys.Mxw.T)[:, :, None]
    k = np.einsum("ji,sti->tjs", Mi @ sys.B.T, f, out=np.empty((T, sys.m, M)))
    k -= (U @ (Mi @ sys.Muw.T).T)[:, :, None]
    return K, k


def _steered_w(K, k, X, noise):
    """Optimal disturbance w* = K x + k (m, N) of per-column feedback tables
    K (m, n, N), k (m, N) at X (n, N), plus max(|w*|, 1e-3) times the
    relative noise (m, N)."""
    w = np.empty(k.shape)
    for w_j, K_j, k_j in zip(w, K, k):
        _sum(zip(K_j, X), w_j)
        w_j += k_j
    scale = np.maximum(np.sqrt(_sum(zip(w, w), np.empty(w.shape[1]))), 1e-3)
    for w_j, noise_j in zip(w, noise):
        w_j += scale * noise_j
    return w


def _map_step(Phi, G):
    """The step of :func:`_integrate_batch` for rows that hold w over each
    step, from the maps of :func:`_step_maps`: X <- Phi z, XQ += z'Gz,
    z = [x; w; 1]."""
    maps = _form_terms(Phi, G)

    def step(i, X, XQ, w_of):
        phi, quad = maps[i]
        z = [*X, *w_of(i, i, X, XQ), 1.0]
        return _times(phi, z), XQ + _quad(quad, z)
    return step


def _rk4_step(grid, R, Q):
    """The step of :func:`_integrate_batch` for rows whose w depends on
    their state: classical RK4, stage by stage, from the :func:`_stage_forms`
    of the stage times (the nodes of ``grid``, then its midpoints)."""
    forms = _form_terms(R, Q)
    mid = len(grid)                 # stage-time index of the first midpoint

    def rhs(w_of, i, ti, X, XQ):
        rate, quad = forms[ti]
        v = [*X, *w_of(i, ti, X, XQ), 1.0]
        return _times(rate, v), _quad(quad, v)

    def step(i, X, XQ, w_of):
        h = grid[i + 1] - grid[i]
        k1x, k1q = rhs(w_of, i, i, X, XQ)
        k2x, k2q = rhs(w_of, i, mid + i, X + 0.5 * h * k1x, XQ + 0.5 * h * k1q)
        k3x, k3q = rhs(w_of, i, mid + i, X + 0.5 * h * k2x, XQ + 0.5 * h * k2q)
        k4x, k4q = rhs(w_of, i, i + 1, X + h * k3x, XQ + h * k3q)
        return (X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x),
                XQ + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q))
    return step


def _integrate_batch(sys: IqcSystem, X0, XQ0, grid, source, save_idx, step):
    """Fixed-step RK4 over ``grid`` from column-layout states X0 (n, N).
    ``source(cols)`` gives the disturbance w_of(i, ti, X, XQ) (m, len(cols))
    of the columns ``cols`` of X0 in step i at stage time ti, and
    ``step(i, X, XQ, w_of)`` the states and budgets after step i
    (:func:`_map_step` or :func:`_rk4_step`).  Returns the states (S, K, n),
    budgets (S, K) and disturbances (S, K, m) at the ``save_idx`` nodes of
    the K columns whose budget stays nonnegative, and that mask (N,).

    At each saved node the batch drops the columns it has rejected, and it
    stops when none is left.  Columns never mix: each keeps its bits in any
    batch."""
    X, XQ = X0.copy(), XQ0.copy()
    N = X.shape[1]
    cols = np.arange(N)             # the column of X0 that each column of X holds
    w_of = source(cols)
    admissible = XQ >= 0.0
    saved_X = np.empty((len(save_idx), N, sys.n))
    saved_XQ = np.empty((len(save_idx), N))
    saved_W = np.empty((len(save_idx), N, sys.m))
    save_ptr = {int(i): k for k, i in enumerate(save_idx)}
    for i in range(len(grid)):
        if i:                       # the step from node i - 1 to node i
            X, XQ = step(i - 1, X, XQ, w_of)
            admissible &= XQ >= 0.0
        if i not in save_ptr:
            continue
        k = save_ptr[i]
        saved_X[k, cols], saved_XQ[k, cols] = X.T, XQ
        saved_W[k, cols] = w_of(max(i - 1, 0), i, X, XQ).T
        keep = np.flatnonzero(admissible)
        if not len(keep):
            break
        if len(keep) < len(cols) and i + 1 < len(grid):
            X, XQ, admissible, cols = X[:, keep], XQ[keep], admissible[keep], cols[keep]
            w_of = source(cols)
    ok = np.zeros(N, dtype=bool)
    ok[cols] = admissible
    keep = np.flatnonzero(ok)
    return saved_X[:, keep], saved_XQ[:, keep], saved_W[:, keep], ok


# Fewest rows in a block of a split batch.  Each block pays a fixed cost
# per step (about 0.07 s of CPU for a steered sec5 block, 0.01 s for a plain
# one), and on 2 cores splitting breaks even at about 2000 rows a block (sec5,
# forked, medians of 9: 0.38 s split and unsplit at 8000 draws, 0.41 against
# 0.38 s at 4000 draws, 0.48 against 0.58 s at 20000 draws).
_MIN_BLOCK_ROWS = 2000


def _worker_count() -> int:
    """Forked workers for the RK4 blocks: one per usable CPU, or 0 to run
    inline, as with one CPU, without ``os.fork``, in a daemonic process
    (which may not have children) or beside other live threads (a fork from
    a threaded process can deadlock)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    import multiprocessing
    return 0 if multiprocessing.current_process().daemon else cpus


def _row_blocks(rows, workers, key=None):
    """``rows`` dealt in turn to blocks, ``rows[r]`` to block r mod k, one
    block per worker while each keeps ``_MIN_BLOCK_ROWS`` rows; one block
    when that cannot be.  With a ``key`` per row, each block is sorted
    stably by descending key."""
    k = max(1, min(workers, len(rows) // _MIN_BLOCK_ROWS))
    blocks = [rows[b::k] for b in range(k)] if len(rows) else []
    return blocks if key is None else [b[np.argsort(-key[b], kind="stable")] for b in blocks]


def _ride_stages(stage_t, switch_t, defined, member_of):
    """The rank of each stage time among the distinct ones, and per steered
    draw the number of distinct stage times it rides: those before its
    ``switch_t`` and within its member's interval of definition (a prefix:
    ``defined``, the stage tables' mask, is t <= the member's domain end).
    A draw rides at stage ti exactly when rank[ti] is below its count; past
    it, the ride is released."""
    times, first = np.unique(stage_t, return_index=True)
    inside = np.count_nonzero(defined[:, first], axis=1)
    ride = np.minimum(np.searchsorted(times, switch_t), inside[member_of])
    return np.searchsorted(times, stage_t), ride


_block_run = None       # a forked worker's copy of the parent's block function


def _adopt(run):
    global _block_run
    _block_run = run


def _call(b):
    return _block_run(b)


def _map_blocks(run, n_blocks, workers):
    """``[run(b) for b in range(n_blocks)]``, in forked worker processes
    when there are two or more workers and blocks.  The workers inherit
    ``run`` and its data from the fork; only block numbers and results
    are pickled, and an exception in a block reaches the caller."""
    if min(workers, n_blocks) < 2:
        return [run(b) for b in range(n_blocks)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(min(workers, n_blocks), multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(run,)) as pool:
        return list(pool.map(_call, range(n_blocks)))


def _affordable_amplitude(sys, quad, X0, XQ0, t_end, wcost):
    """Disturbance scale a trajectory could sustain: balance the w-cost
    ``wcost`` (the largest eigenvalue of -Mw) in the energy-rate form against
    the drawn budget plus the initial harvest rate, the budget rate at w = 0
    (``quad``, the terms of its form at t = 0), over the horizon, per
    column of X0 (n, N).  Only sets the sampling scale; admissibility is
    decided by the integration."""
    harvest = _quad(quad, [*X0, *np.zeros((sys.m, X0.shape[1])), 1.0])
    budget = XQ0 + np.maximum(harvest, 0.0) * t_end
    return np.sqrt(np.maximum(budget, 0.0) / (wcost * t_end)) + 1e-6


def sample_admissible(sys: IqcSystem, P0: Paraboloid, cfg: OracleConfig,
                      family: Optional[ParaboloidFamily] = None,
                      sample_times: Optional[Sequence[float]] = None) -> OracleSamples:
    """Draw piecewise-constant disturbances, integrate the constrained plant,
    and keep the trajectories whose budget never dips below zero, as one
    :class:`OracleSamples` in the row order of the module docstring.

    With a ``family``, a ``boundary_fraction`` share of the draws is steered
    by the optimal disturbance of a randomly chosen member plus relative
    noise.  ``sample_times`` join the segment bounds as the sample times.
    """
    seg_bounds = np.linspace(0.0, cfg.t_end, cfg.segments + 1)
    save_times = np.unique(np.concatenate([
        seg_bounds, _within([] if sample_times is None else list(sample_times), cfg.t_end,
                            "sample times")]))

    base = np.linspace(0.0, cfg.t_end, cfg.n_steps + 1)
    grid = np.unique(np.concatenate([base, seg_bounds, save_times]))
    save_idx = np.searchsorted(grid, save_times)
    seg_of_step = np.minimum(
        np.searchsorted(seg_bounds, 0.5 * (grid[:-1] + grid[1:]), side="right") - 1,
        cfg.segments - 1)

    # the input at every RK4 stage time, nodes then midpoints, is evaluated
    # here and the member parameters below: the blocks call no user code
    stage_t = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])
    U = np.array([sys.u(t) for t in stage_t], dtype=float).reshape(len(stage_t), sys.p)
    R, Q = _stage_forms(sys, U)
    map_step, rk4_step = _map_step(*_step_maps(R, Q, grid)), _rk4_step(grid, R, Q)

    N = cfg.n_trajectories
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])

    # fixed draw order: initial states, amplitudes, directions, noise, picks,
    # then the steered draws' noise levels and release rates
    X0, XQ0 = _draw_initial_states(P0, N, rng)
    if family is not None:
        E_tab, f_tab, g_tab, defined = family.params_at_many(stage_t)
    wcost = -float(np.min(np.linalg.eigvalsh(sys.Mw))) if sys.m else 1.0     # m = 0: no w-cost
    amp = cfg.w_scale * rng.uniform(0.0, 1.0, size=N) * _affordable_amplitude(
        sys, _form_terms(R[:1], Q[:1])[0][1], X0.T, XQ0, cfg.t_end, wcost)
    direction = rng.standard_normal((N, sys.m))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    direction /= np.maximum(norms, 1e-12)
    persistence = rng.uniform(0.0, 1.0, size=(N, 1, 1))
    raw_W = rng.standard_normal((N, cfg.segments, sys.m))
    raw_W = (persistence * direction[:, None, :]
             + np.sqrt(1.0 - persistence ** 2) * raw_W)
    n_boundary, member_of = 0, np.zeros(0, dtype=int)
    noise_lvl = release_u = span = rank = ride = None
    if family is not None and cfg.boundary_fraction > 0 and sys.m > 0:
        n_boundary = int(round(cfg.boundary_fraction * N))
        member_of = rng.integers(0, len(family.members), size=n_boundary)
        # half the picks follow the family's own scaling rule instead: ride a
        # member the start state can afford (initial budget rate >= 0), which
        # is what survives out to the far reaches of the set
        affordable = rng.random(size=n_boundary) < 0.5
        gplus = _rate_roots(P0, X0[:n_boundary], sys)
        target = 1.0 + rng.random(size=n_boundary) ** 2 * np.maximum(gplus - 1.0, 0.0)
        nearest = np.clip(np.searchsorted(family.gammas, target), 0,
                          len(family.gammas) - 1)
        member_of = np.where(affordable, nearest, member_of)
        # ride the member surface (banking budget), then release it as a
        # plain push; switch beyond t_end means riding the whole horizon
        switch_t = cfg.t_end * rng.uniform(0.25, 1.5, size=n_boundary)
        # noise level per trajectory, down to (near) pure rides: surface
        # riding is a knife edge for the budget, and only low-noise rides
        # survive it out to the far reaches of the set
        noise_lvl = cfg.noise_rel * rng.uniform(0.0, 1.0, size=n_boundary) ** 2
        # releases above the balanced rate are sustainable because harvesting
        # continues; overdrafts are culled by the admissibility check
        release_u = cfg.w_scale * rng.uniform(0.3, 1.6, size=n_boundary)
        span = wcost * np.maximum(cfg.t_end - switch_t, 0.05 * cfg.t_end)
        rank, ride = _ride_stages(stage_t, switch_t, defined, member_of)
        K_tab, k_tab = _feedback(sys, E_tab, f_tab, U)
    if family is not None:      # from here on, h reads the saved nodes only
        E_tab, f_tab, g_tab, defined = (a[:, save_idx] for a in (E_tab, f_tab, g_tab, defined))
    # output row r holds draw order[r]: the plain draws, then the steered by member
    order = np.concatenate([np.arange(n_boundary, N), np.argsort(member_of, kind="stable")])

    # the disturbance sources of a block's live rows, in column layout; each
    # builds its own segment-major (S, m, rows) arrays, so no whole-batch
    # copy is made, and a block builds them anew as it drops rows
    def segment_major(rows):
        return np.ascontiguousarray(raw_W[rows].transpose(1, 2, 0))

    def plain(rows):
        W_plain = amp[rows] * segment_major(rows)

        def plain_w(step, ti, X, XQ):
            return W_plain[seg_of_step[step]]
        return plain_w

    def steered(rows):
        # the rows come by descending ride count, so the riding rows lead
        members, raw_b, later = member_of[rows], segment_major(rows), -ride[rows]
        noise = noise_lvl[rows] * raw_b
        release, budget_span = release_u[rows], span[rows]
        gathered = {}   # one stage table at a time: stages repeat in runs

        def steered_w(step, ti, X, XQ):
            seg = seg_of_step[step]
            r = int(np.searchsorted(later, -rank[ti]))     # rows riding at ti
            if r:
                if ti not in gathered:
                    gathered.clear()
                    gathered[ti] = (K_tab[ti].take(members[:r], axis=2),
                                    k_tab[ti].take(members[:r], axis=1))
                w = _steered_w(*gathered[ti], X[:, :r], noise[seg][:, :r])
                if r == len(rows):
                    return w
            # the released rows (past their switch time or their member's
            # domain) spend the banked budget on the drawn direction pieces
            spend = release[r:] * np.sqrt(np.maximum(XQ[r:], 0.0) / budget_span[r:])
            pushed = spend * raw_b[seg][:, r:]
            return np.concatenate([w, pushed], axis=1) if r else pushed
        return steered_w

    workers = _worker_count()
    blocks = ([(plain, map_step, rows)
               for rows in _row_blocks(order[:N - n_boundary], workers)]
              + [(steered, rk4_step, rows)
                 for rows in _row_blocks(order[N - n_boundary:], workers, ride)])

    def run(b):
        source, step, rows = blocks[b]
        return _integrate_batch(sys, X0[rows].T, XQ0[rows], grid,
                                lambda cols: source(rows[cols]), save_idx, step)

    done = _map_blocks(run, len(blocks), workers)
    admitted = np.zeros(N, dtype=bool)      # per draw
    for (*_, rows), (*_, ok) in zip(blocks, done):
        admitted[rows] = ok
    kept = order[admitted[order]]           # the admitted draws, in output order
    out_col = np.empty(N, dtype=int)        # each block's kept columns go straight there
    out_col[kept] = np.arange(len(kept))
    K = len(kept)
    x, xq, w = (np.empty((len(save_idx), K, *tail)) for tail in ((sys.n,), (), (sys.m,)))
    for (*_, rows), (sX, sXQ, sW, ok) in zip(blocks, done):
        at = out_col[rows[ok]]
        x[:, at], xq[:, at], w[:, at] = sX, sXQ, sW
    if N >= 1000 and K < 0.001 * N:
        raise RejectionStarvation(f"acceptance rate {K / N:.2e} below 0.1%")
    h = np.full(xq.shape, np.nan)
    if family is not None:
        # each row's owner (member 0 for a plain draw) picks its value function
        # from the stage table; one sample time at a time bounds the temporaries
        owner = np.concatenate([member_of, np.zeros(N - n_boundary, dtype=int)])[kept]
        for s in range(len(save_idx)):
            E, f, g, ok = (a[:, s].take(owner, axis=0) for a in (E_tab, f_tab, g_tab, defined))
            h[s] = family.stack.flow.value(E, f, g, x[s]) + xq[s]
            h[s, ~ok] = np.nan
    return OracleSamples(save_times, x, xq, w, h)


@dataclass
class CoverageReport:
    """Cell-coverage of a computed slice by oracle endpoints."""

    fraction: float
    n_inside_cells: int
    n_covered_cells: int
    gaps: list                      # centers of inside cells with no endpoint
    window_lo: np.ndarray
    window_hi: np.ndarray
    cells_per_dim: int
    t: float

    def to_json(self) -> dict:      # the fields in order, arrays as float lists
        return {**asdict(self), "gaps": [list(map(float, g)) for g in self.gaps],
                "window_lo": list(map(float, self.window_lo)),
                "window_hi": list(map(float, self.window_hi))}


def coverage(F: ParaboloidFamily, t: float, endpoints, cells_per_dim: int = 24,
             window=None) -> CoverageReport:
    """Fraction of slice cells with nonnegative budget headroom that contain
    at least one endpoint, a row of ``endpoints`` (P, n).  Uncovered cells
    point at over-conservatism of the family (or under-sampling) and are
    returned as the gap report.  An explicit ``window`` is a (lo, hi) pair,
    shape (2, n), whose width hi - lo is positive and finite.
    """
    cells_per_dim = _count(cells_per_dim, "cells_per_dim")
    dim = F.seed.dim
    pts = _shaped(endpoints, ("P", dim), "endpoints")
    if window is None:
        _count(len(pts), "number of endpoints (no window given)")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        pad = 0.05 * np.maximum(hi - lo, 1e-9)
        lo, hi = lo - pad, hi + pad
    else:
        lo, hi = _shaped(window, (2, dim), "coverage window")
        _quantity(hi - lo, "coverage window width", "positive")
    width = (hi - lo) / cells_per_dim
    centers = mesh_points([lo[d] + width[d] * (np.arange(cells_per_dim) + 0.5)
                           for d in range(dim)])
    inside = xq_max_at(F, t, centers) >= 0.0

    covered = np.zeros(len(centers), dtype=bool)
    if len(pts):
        cell = np.floor((pts - lo) / width).astype(int)
        ok = np.all((cell >= 0) & (cell < cells_per_dim), axis=1)
        flat = np.zeros(len(pts), dtype=int)
        for d in range(dim):
            flat = flat * cells_per_dim + cell[:, d]
        covered[np.unique(flat[ok])] = True

    n_inside = int(np.count_nonzero(inside))
    n_cov = int(np.count_nonzero(inside & covered))
    gaps = [centers[k] for k in np.nonzero(inside & ~covered)[0]]
    frac = 1.0 if n_inside == 0 else n_cov / n_inside
    return CoverageReport(fraction=frac, n_inside_cells=n_inside,
                          n_covered_cells=n_cov, gaps=gaps,
                          window_lo=lo, window_hi=hi,
                          cells_per_dim=cells_per_dim, t=float(t))
