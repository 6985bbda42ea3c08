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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NotOnBoundary, StepSizeUnderflow
from .model import AugmentedState, IqcSystem, Paraboloid, value_function
from .riccati import IntegratorConfig, TimeVaryingParaboloid

TOUCH_TOL_FACTOR = 100.0  # touch_tol = factor * rel_tol unless given


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


class AugmentedTrajectory:
    """A surface ride built by :func:`touching_trajectory`: (x, x_q) at the
    nodes, with the paraboloid's value function recorded along the way
    as a diagnostic, and the engine state at the nodes (``flow`` and
    ``etas``), from which :meth:`state_at` is exact between nodes."""

    def __init__(self, grid, x_samples, xq_samples, h_samples, flow, etas):
        self.grid = np.asarray(grid, dtype=float)
        self.x_samples = np.asarray(x_samples, dtype=float)
        self.xq_samples = np.asarray(xq_samples, dtype=float)
        self.h_samples = np.asarray(h_samples, dtype=float)
        self._flow = flow
        self._etas = etas

    def state_at_many(self, tq):
        """(x, x_q) at an array of times, shapes (K, n), (K,): the ride state
        of the node before each time, advanced by its transition matrix.
        Times outside the grid are clamped to its ends."""
        tq = np.clip(np.asarray(tq, dtype=float), self.grid[0], self.grid[-1])
        i = np.searchsorted(self.grid, tq, side="right") - 1
        x, xq = self.x_samples[i], self.xq_samples[i]
        dt = tq - self.grid[i]
        off = np.nonzero(dt > 0.0)[0]
        if len(off):
            eta = self._etas[i[off]]
            Phi, W = self._flow.vanloan(self._flow.piece_of(self.grid[i[off]]), dt[off])
            x[off] = np.einsum("kij,kj->ki", Phi[:, :x.shape[1]], eta)
            xq[off] += np.einsum("ki,kij,kj->k", eta, W, eta)
        return x, xq

    def state_at(self, t: float):
        """(x, x_q) at time t (exact dense output of a ride)."""
        x, xq = self.state_at_many([t])
        return x[0], float(xq[0])

    @property
    def endpoint(self) -> AugmentedState:
        return AugmentedState(self.x_samples[-1], self.xq_samples[-1])


def _check_system(tvp: TimeVaryingParaboloid, sys: IqcSystem):
    """Rides step with the transition matrices of ``tvp``; refuse a ``sys``
    other than the system those were built from."""
    own = tvp.flow.system
    if sys is not own and sys.to_json() != own.to_json():
        raise DimensionMismatch(
            "sys differs from the system the paraboloid was propagated with")


def touching_trajectory(tvp: TimeVaryingParaboloid, X0: AugmentedState,
                        sys: IqcSystem, cfg: IntegratorConfig,
                        touch_tol: Optional[float] = None) -> AugmentedTrajectory:
    """Ride the surface of ``tvp`` from a seed-boundary state over the
    paraboloid's interval of definition (up to ``cfg.t_end``).

    The ride is stepped on the paraboloid's own nodes with its transition
    matrices, re-anchored at every node to the stored parameters, so the
    disturbance is the exact maximizer throughout; ``cfg.max_step`` does not
    apply.  ``sys`` must be the system ``tvp`` was propagated with, else
    :class:`DimensionMismatch` is raised.  If |h| exceeds ``touch_tol`` at a
    node, the ride raises :class:`StepSizeUnderflow` rather than projecting
    back.
    """
    _check_system(tvp, sys)
    if touch_tol is None:
        touch_tol = TOUCH_TOL_FACTOR * cfg.rel_tol
    h0 = value_function(tvp(0.0), X0)
    if abs(h0) > touch_tol:
        raise NotOnBoundary(
            f"initial state is off the seed surface: h={h0:.3e} (tol {touch_tol:.1e})")

    flow = tvp.flow
    t_end = min(cfg.t_end, tvp.t_end)
    K = int(np.searchsorted(tvp.grid, t_end, side="right"))
    grid, steps = tvp.grid[:K], list(tvp.steps[:K - 1])
    if grid[-1] < t_end:
        grid = np.append(grid, t_end)
        steps.append(t_end - grid[-2])
    E, f, g = tvp.params_at_many(grid)
    pieces = flow.piece_of(grid[:-1])

    x, xq = np.array(X0.x, dtype=float), X0.x_q
    xs, xqs, etas = [x], [xq], []
    for i, (j, dt) in enumerate(zip(pieces, steps)):
        x, xq, eta = flow.ride(j, grid[i], x, xq, E[i], f[i], dt)
        etas.append(eta)
        xs.append(x)
        xqs.append(xq)
    j_end = pieces[-1] if len(pieces) else flow.piece_of(grid[-1])
    etas.append(flow.anchor(j_end, grid[-1], x, E[-1], f[-1]))
    etas = np.array(etas)
    xs, xqs = np.array(xs), np.array(xqs)

    h = flow.value(E, f, g, xs) + xqs
    drift = np.nonzero(np.abs(h) > touch_tol)[0]
    if len(drift):
        k = drift[0]
        raise StepSizeUnderflow(
            f"value-function drift exceeded touch_tol={touch_tol:.1e} near t={grid[k]}",
            t_last=grid[k - 1])
    return AugmentedTrajectory(grid, xs, xqs, h, flow=flow, etas=etas)


def trace_back_to_seed(tvp: TimeVaryingParaboloid, sys: IqcSystem,
                       cfg: IntegratorConfig, t_at: float, x_at) -> AugmentedState:
    """Find the seed state whose surface-riding trajectory passes through
    ``x_at`` (on the surface of tvp) at time ``t_at``, by stepping the ride
    back to t=0 with the inverse transition matrices Phi(-h).  The budget at
    t_at is pinned to the surface, so the returned state lies on the seed
    surface up to rounding.  ``sys`` must be the system ``tvp`` was
    propagated with, else :class:`DimensionMismatch` is raised; ``cfg`` is
    not used, since the steps are the paraboloid's own."""
    _check_system(tvp, sys)
    x = np.asarray(x_at, dtype=float).reshape(-1)
    E, f, g = tvp.params_at(t_at)
    xq = -(x @ E @ x - 2.0 * f @ x + g)
    if t_at <= 0.0:
        return AugmentedState(x, xq)
    flow, grid = tvp.flow, tvp.grid
    i = int(np.searchsorted(grid, t_at, side="right")) - 1
    t, dt = t_at, grid[i] - t_at
    for k in range(i, -1, -1):          # the leg from t back to node k
        if dt < 0.0:
            x, xq, _ = flow.ride(flow.piece_of(grid[k]), t, x, xq, E, f, dt)
        if k:
            t, E, f, dt = grid[k], tvp.E_samples[k], tvp.f_samples[k], -tvp.steps[k - 1]
    return AugmentedState(x, float(xq))
