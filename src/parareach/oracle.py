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

The stage arithmetic has one rule: every per-trajectory quantity is a
running sum, in index order, of elementwise products of coordinate rows,
with zero coefficients skipped (a sum of no products is +0).  The kernels
hold a block's trajectories in column layout, states (n, N), disturbances
(m, N) and steered stage tables (n, n, N) and (n, N), so that each
coordinate is one contiguous row.  Elementwise operations round each column
alone, so a column's bits do not depend on its batch, its block or the BLAS
build: a block may drop its rejected rows at every saved time, down to one.
Reordering or regrouping a sum changes the outputs.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, RejectionStarvation
from .family import (ParaboloidFamily, _points, _rate_roots, _seed_center, mesh_points,
                     xq_max_at)
from .model import IqcSystem, Paraboloid


@dataclass(frozen=True)
class OracleConfig:
    """Sampling parameters.

    ``w_scale`` multiplies a per-trajectory affordability estimate derived
    from the drawn initial budget and harvest rate, so the same value works
    across systems of very different state scales.  Plain draws combine a
    per-trajectory persistent direction with per-segment noise; persistent
    pushes are what reach the far lobes of the set, and the admissibility
    rejection is the arbiter of how hard a push the budget allows.
    """

    n_trajectories: int
    segments: int = 8
    w_scale: float = 1.0
    seed: int = 0
    t_end: float = 1.0
    boundary_fraction: float = 0.5    # share steered by a member's optimal disturbance
    noise_rel: float = 0.05

    def __post_init__(self):
        ints = (self.n_trajectories, self.segments, self.seed)
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in ints):
            raise ConfigError(f"oracle counts and seed must be integers, got {ints}")
        if min(self.n_trajectories, self.segments) < 1:
            raise ConfigError("oracle counts must be positive")
        if self.seed < 0:
            raise ConfigError(f"oracle seed must be nonnegative, got {self.seed}")
        finite = np.isfinite([self.t_end, self.w_scale, self.noise_rel]).all()
        if not (finite and self.t_end > 0 and self.w_scale >= 0 and self.noise_rel >= 0):
            raise ConfigError("oracle horizon must be positive, amplitude and noise "
                              "nonnegative, all finite")
        if not (0.0 <= self.boundary_fraction <= 1.0):
            raise ConfigError("boundary_fraction must lie in [0, 1]")

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


def _terms(M):
    """The nonzero coefficients of each row of M, [(j, m_ij), ...] in j
    order; a vector is one row."""
    return [[(j, m_ij) for j, m_ij in enumerate(row) if m_ij]
            for row in np.atleast_2d(M).tolist()]


def _system_terms(sys: IqcSystem):
    """The :func:`_terms` of each matrix the stage kernels take, by name: A
    and B (the state rate), B', Mxw' and Mw^-1' (the steered disturbance),
    and the blocks Mx, Mw and Mxw of the quadratic form."""
    return {"A": _terms(sys.A), "B": _terms(sys.B), "B'": _terms(sys.B.T),
            "Mxw'": _terms(sys.Mxw.T), "Mw_inv'": _terms(sys.Mw_inv.T),
            "Mx": _terms(sys.Mx), "Mw": _terms(sys.Mw), "Mxw": _terms(sys.Mxw)}


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


def _times(K, X):
    """K X for column-layout X (k, N), from K's :func:`_terms`: row j is the
    running sum over i of k_ji X[i]."""
    out = np.empty((len(K), X.shape[1]))
    for out_j, row in zip(out, K):
        _sum(((k_ji, X[i]) for i, k_ji in row), out_j)
    return out


def _dot(X, Y):
    """Columnwise sum over i of X[i] Y[i] for column-layout X and Y."""
    return _sum(zip(X, Y), np.empty(X.shape[-1]))


def _bilinear(X, M, Y):
    """Columnwise x' M y for column-layout X, Y, from M's :func:`_terms`: the
    running sum of (X[i] m_ij) Y[j] in (i, j) order."""
    return _sum(((X[i] * m_ij, Y[j]) for i, row in enumerate(M) for j, m_ij in row),
                np.empty(X.shape[1]))


def _live(u_t):
    """The input as the stage kernels take it: None where it is all zero."""
    return u_t if u_t.any() else None


def _qform_batch(sys: IqcSystem, X, u_t, W, terms=None):
    """Columnwise [x; u; w]' M [x; u; w] for column-layout X (n, N), W (m, N);
    ``u_t`` is None for a zero input, ``terms`` those of :func:`_system_terms`."""
    terms = terms or _system_terms(sys)
    out = _bilinear(X, terms["Mx"], X)
    out += _bilinear(W, terms["Mw"], W)
    if u_t is not None:
        out += (_times(_terms(2.0 * (sys.Mxu @ u_t)), X)[0] + float(u_t @ sys.Mu @ u_t)
                + _times(_terms(2.0 * (sys.Muw.T @ u_t)), W)[0])
    if any(terms["Mxw"]):
        out += 2.0 * _bilinear(X, terms["Mxw"], W)
    return out


def _steered_w(sys, E, f, X, u_t, noise, terms=None):
    """Optimal disturbance (m, N) of per-column parameters E (n, n, N),
    f (n, N) at X (n, N), plus relative noise (m, N); ``u_t`` and ``terms``
    as for :func:`_qform_batch`."""
    terms = terms or _system_terms(sys)
    V = np.empty_like(X)
    for i in range(len(X)):
        V[i] = _dot(E[i], X) - f[i]
    V = _times(terms["B'"], V)
    if any(terms["Mxw"]):
        V += _times(terms["Mxw'"], X)
    if u_t is not None:
        for V_j, c in zip(V, u_t @ sys.Muw):
            V_j += c
    w = -_times(terms["Mw_inv'"], V)
    scale = np.maximum(np.sqrt(_dot(w, w)), 1e-3)
    for w_j, noise_j in zip(w, noise):
        w_j += scale * noise_j
    return w


def _integrate_batch(sys: IqcSystem, X0, XQ0, grid, source, save_idx, inputs, terms):
    """Fixed-step RK4 over ``grid`` from column-layout states X0 (n, N).
    Stage times are indexed ``ti`` over the nodes of ``grid``, then its
    midpoints; ``inputs[ti]`` is the input there (None where zero).
    ``source(cols)`` gives the disturbance w_of(step, ti, t, X, XQ, u_t)
    (m, len(cols)) of the columns ``cols`` of X0.  Returns the states
    (S, K, n), budgets (S, K) and disturbances (S, K, m) at the ``save_idx``
    nodes of the K columns whose budget stays nonnegative, and that mask (N,).

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
    mid = len(grid)                 # stage-time index of the first midpoint

    def rhs(step, ti, t, X, XQ):
        u_t = inputs[ti]
        W = w_of(step, ti, t, X, XQ, u_t)
        dX = _times(terms["A"], X) + _times(terms["B"], W)
        if u_t is not None:
            for dX_i, c in zip(dX, sys.Bu @ u_t):
                dX_i += c
        return dX, _qform_batch(sys, X, u_t, W, terms)

    for i in range(len(grid)):
        if i:                       # the step from node i - 1 to node i
            t0, t1 = grid[i - 1], grid[i]
            h = t1 - t0
            tm = 0.5 * (t0 + t1)
            k1x, k1q = rhs(i - 1, i - 1, t0, X, XQ)
            k2x, k2q = rhs(i - 1, mid + i - 1, tm, X + 0.5 * h * k1x, XQ + 0.5 * h * k1q)
            k3x, k3q = rhs(i - 1, mid + i - 1, tm, X + 0.5 * h * k2x, XQ + 0.5 * h * k2q)
            k4x, k4q = rhs(i - 1, i, t1, X + h * k3x, XQ + h * k3q)
            X = X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            XQ = XQ + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
            admissible &= XQ >= 0.0
        if i not in save_ptr:
            continue
        k = save_ptr[i]
        saved_X[k, cols], saved_XQ[k, cols] = X.T, XQ
        saved_W[k, cols] = w_of(max(i - 1, 0), i, grid[i], X, XQ, inputs[i]).T
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


# Fewest rows in a block of a split batch.  Each block pays the whole batch's
# fixed per-stage cost (about 0.13 s of CPU for a steered sec5 block, 0.05 s
# for a plain one), so on 2 cores splitting breaks even at about 2000 rows a
# block (sec5 at 8000 draws, medians of 10: 0.82 and 0.71 s in two sets
# against 0.78 and 0.79 s unsplit) and loses below (6000 draws: 0.65 s
# against 0.60 s); measured before blocks dropped their rejected rows.
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


def _affordable_amplitude(sys, X0, XQ0, t_end, wcost):
    """Disturbance scale a trajectory could sustain: balance the w-cost
    ``wcost`` (the largest eigenvalue of -Mw) in the energy-rate form against
    the drawn budget plus the initial harvest rate over the horizon, per
    column of X0 (n, N).  Only sets the sampling scale; admissibility is
    decided by the integration."""
    u0 = sys.u(0.0)
    Z = np.zeros((sys.m, X0.shape[1]))
    harvest = _qform_batch(sys, X0, _live(u0), Z)
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
    if sample_times is None:
        sample_times = []
    seg_bounds = np.linspace(0.0, cfg.t_end, cfg.segments + 1)
    save_times = np.unique(np.concatenate([
        seg_bounds, np.asarray(list(sample_times), dtype=float)]))
    if np.any(save_times < 0) or np.any(save_times > cfg.t_end):
        raise ConfigError("sample times must lie within [0, t_end]")

    base = np.linspace(0.0, cfg.t_end, cfg.n_steps + 1)
    grid = np.unique(np.concatenate([base, seg_bounds, save_times]))
    save_idx = np.searchsorted(grid, save_times)
    seg_of_step = np.minimum(
        np.searchsorted(seg_bounds, 0.5 * (grid[:-1] + grid[1:]), side="right") - 1,
        cfg.segments - 1)

    # the input at every RK4 stage time, nodes then midpoints, is evaluated
    # here and the member parameters below: the blocks call no user code
    stage_t = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])
    inputs = [_live(sys.u(t)) for t in stage_t]
    terms = _system_terms(sys)

    N = cfg.n_trajectories
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])

    # fixed draw order: initial states, amplitudes, directions, noise, picks,
    # then the steered draws' noise levels and release rates
    X0, XQ0 = _draw_initial_states(P0, N, rng)
    if family is not None:
        E_tab, f_tab, g_tab, defined = family.params_at_many(stage_t)
    wcost = -float(np.min(np.linalg.eigvalsh(sys.Mw))) if sys.m else 1.0     # m = 0: no w-cost
    amp = cfg.w_scale * rng.uniform(0.0, 1.0, size=N) * _affordable_amplitude(
        sys, X0.T, XQ0, cfg.t_end, wcost)
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
    # output row r holds draw order[r]: the plain draws, then the steered by member
    order = np.concatenate([np.arange(n_boundary, N), np.argsort(member_of, kind="stable")])

    # the disturbance sources of a block's live rows, in column layout; each
    # builds its own segment-major (S, m, rows) arrays, so no whole-batch
    # copy is made, and a block builds them anew as it drops rows
    def segment_major(rows):
        return np.ascontiguousarray(raw_W[rows].transpose(1, 2, 0))

    def plain(rows):
        W_plain = amp[rows] * segment_major(rows)

        def plain_w(step, ti, t, X, XQ, u_t):
            return W_plain[seg_of_step[step]]
        return plain_w

    def steered(rows):
        # the rows come by descending ride count, so the riding rows lead
        members, raw_b, later = member_of[rows], segment_major(rows), -ride[rows]
        noise = noise_lvl[rows] * raw_b
        release, budget_span = release_u[rows], span[rows]
        gathered = {}   # one stage table at a time: stages repeat in runs

        def steered_w(step, ti, t, X, XQ, u_t):
            seg = seg_of_step[step]
            r = int(np.searchsorted(later, -rank[ti]))     # rows riding at ti
            if r:
                if ti not in gathered:
                    gathered.clear()
                    gathered[ti] = (E_tab[:, ti].transpose(1, 2, 0).take(members[:r], axis=2),
                                    f_tab[:, ti].T.take(members[:r], axis=1))
                w = _steered_w(sys, *gathered[ti], X[:, :r], u_t, noise[seg][:, :r], terms)
                if r == len(rows):
                    return w
            # the released rows (past their switch time or their member's
            # domain) spend the banked budget on the drawn direction pieces
            spend = release[r:] * np.sqrt(np.maximum(XQ[r:], 0.0) / budget_span[r:])
            pushed = spend * raw_b[seg][:, r:]
            return np.concatenate([w, pushed], axis=1) if r else pushed
        return steered_w

    workers = _worker_count()
    blocks = ([(plain, rows) for rows in _row_blocks(order[:N - n_boundary], workers)]
              + [(steered, rows) for rows in _row_blocks(order[N - n_boundary:], workers, ride)])

    def run(b):
        source, rows = blocks[b]
        return _integrate_batch(sys, X0[rows].T, XQ0[rows], grid,
                                lambda cols: source(rows[cols]), save_idx, inputs, terms)

    done = _map_blocks(run, len(blocks), workers)
    admitted = np.zeros(N, dtype=bool)      # per draw
    for (_, rows), (*_, ok) in zip(blocks, done):
        admitted[rows] = ok
    kept = order[admitted[order]]           # the admitted draws, in output order
    out_col = np.empty(N, dtype=int)        # each block's kept columns go straight there
    out_col[kept] = np.arange(len(kept))
    K = len(kept)
    x, xq, w = (np.empty((len(save_idx), K, *tail)) for tail in ((sys.n,), (), (sys.m,)))
    for (_, rows), (sX, sXQ, sW, ok) in zip(blocks, done):
        at = out_col[rows[ok]]
        x[:, at], xq[:, at], w[:, at] = sX, sXQ, sW
    if N >= 1000 and K < 0.001 * N:
        raise RejectionStarvation(f"acceptance rate {K / N:.2e} below 0.1%")
    h = np.full(xq.shape, np.nan)
    if family is not None:
        # each row's owner (member 0 for a plain draw) picks its value function
        # from the stage table; one sample time at a time bounds the temporaries
        owner = np.concatenate([member_of, np.zeros(N - n_boundary, dtype=int)])[kept]
        for s, ti in enumerate(save_idx):
            E, f, g, ok = (a[:, ti].take(owner, axis=0) for a in (E_tab, f_tab, g_tab, defined))
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
    returned as the gap report.  An explicit ``window`` is a finite (lo, hi)
    pair with hi > lo.
    """
    if cells_per_dim < 1:
        raise ConfigError(f"coverage needs at least one cell per dimension, got {cells_per_dim}")
    pts = _points(F, endpoints)
    if window is None:
        if len(pts) == 0:
            raise ConfigError("coverage needs endpoints or an explicit window")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        pad = 0.05 * np.maximum(hi - lo, 1e-9)
        lo, hi = lo - pad, hi + pad
    else:
        lo, hi = (np.asarray(w, dtype=float) for w in window)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all() and np.all(hi > lo)):
            raise ConfigError("coverage window must be finite, with hi > lo")
    dim = F.seed.dim
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
