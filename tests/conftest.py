"""Shared fixtures and independent oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

import parareach as pr
from parareach.family import _slab_points
from parareach.presets import load_preset

ROOT_LO = 2.0 - np.sqrt(2.0)
ROOT_HI = 2.0 + np.sqrt(2.0)


def scalar_flow(t, e0):
    """Closed-form solution of de/dt = -e^2/2 + 2e - 1.

    Separable: with r(t) = r0 * exp(-sqrt(2) t), r0 = (e0-hi)/(e0-lo), the
    solution is (hi - lo*r)/(1 - r).  Blows up when r(t) = 1.
    """
    if np.isclose(e0, ROOT_LO):
        return ROOT_LO
    r0 = (e0 - ROOT_HI) / (e0 - ROOT_LO)
    r = r0 * np.exp(-np.sqrt(2.0) * np.asarray(t, dtype=float))
    return (ROOT_HI - ROOT_LO * r) / (1.0 - r)


def scalar_blowup_time(e0):
    """Finite escape time of the scalar flow; only defined for e0 below the
    lower equilibrium."""
    assert e0 < ROOT_LO
    r0 = (e0 - ROOT_HI) / (e0 - ROOT_LO)
    return float(np.log(r0) / np.sqrt(2.0))


@pytest.fixture(scope="session")
def ex1_system():
    return load_preset("ex1-stable")["system"]


@pytest.fixture(scope="session")
def ex1_stable_seed():
    return load_preset("ex1-stable")["seed"]


@pytest.fixture(scope="session")
def ex1_escape_seed():
    return load_preset("ex1-escape")["seed"]


@pytest.fixture(scope="session")
def sec5_system():
    return load_preset("sec5")["system"]


@pytest.fixture(scope="session")
def sec5_seed():
    return load_preset("sec5")["seed"]


@pytest.fixture(scope="session")
def ex1_cfg():
    return pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.025,
                               t_end=10.0)


@pytest.fixture(scope="session")
def sec5_cfg():
    return pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.004,
                               t_end=1.0)


@pytest.fixture(scope="session")
def ex1_stable_tvp(ex1_system, ex1_stable_seed, ex1_cfg):
    return pr.propagate(ex1_stable_seed, ex1_system, ex1_cfg)


@pytest.fixture(scope="session")
def sec5_tvp(sec5_system, sec5_seed, sec5_cfg):
    return pr.propagate(sec5_seed, sec5_system, sec5_cfg)


# Planar system with a sinusoidal input: drives all of (E, f, g).
@pytest.fixture(scope="session")
def driven_system():
    u = pr.SampledSignal(np.linspace(0.0, 5.0, 11),
                         0.7 * np.sin(np.linspace(0.0, 5.0, 11))[:, None])
    A = [[-0.8, 0.3], [-0.2, -1.1]]
    B = [[1.0, 0.0], [0.3, 0.8]]
    Bu = [[0.5], [-0.4]]
    M = np.zeros((5, 5))
    M[:2, :2] = [[1.2, 0.1], [0.1, 0.9]]
    M[:2, 2] = [0.2, -0.1]
    M[2, :2] = [0.2, -0.1]
    Mxw = np.array([[0.1, 0.0], [0.0, -0.2]])
    M[:2, 3:] = Mxw
    M[3:, :2] = Mxw.T
    M[2, 2] = 0.8
    M[2, 3:] = [0.1, -0.3]
    M[3:, 2] = [0.1, -0.3]
    M[3:, 3:] = [[-2.0, 0.3], [0.3, -1.5]]
    return pr.make_system(A, B, Bu, M, u=u)


@pytest.fixture(scope="session")
def driven_seed():
    return pr.Paraboloid(np.diag([1.0, 1.5]), [0.1, -0.2], -0.5)


@pytest.fixture(scope="session")
def driven_cfg():
    return pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.01,
                               t_end=3.0)


@pytest.fixture(scope="session")
def driven_tvp(driven_system, driven_seed, driven_cfg):
    return pr.propagate(driven_seed, driven_system, driven_cfg)


# -- seed scaling, energy rate, rim slab and nonconvexity witness, written out
# once: the tests' references, which no library path calls -----------------

def scale_paraboloid(P, gamma):
    """Componentwise scaling (gE, gf, gg); requires gamma > 0.

    For gamma >= 1 the scaled set contains the original within the
    nonnegative-budget half-space.
    """
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise pr.NonPositiveScale(f"scaling factor must be positive, got {gamma}")
    return pr.Paraboloid(gamma * P.E, gamma * P.f, gamma * P.g)


def energy_rate(sys_, x, u_t, w):
    """[x; u; w]' M [x; u; w] evaluated blockwise."""
    x = np.asarray(x, dtype=float).reshape(sys_.n)
    u_t = np.asarray(u_t, dtype=float).reshape(sys_.p)
    w = np.asarray(w, dtype=float).reshape(sys_.m)
    return float(
        x @ sys_.Mx @ x
        + 2.0 * x @ sys_.Mxu @ u_t
        + 2.0 * x @ sys_.Mxw @ w
        + u_t @ sys_.Mu @ u_t
        + 2.0 * u_t @ sys_.Muw @ w
        + w @ sys_.Mw @ w
    )


def sample_slab_states(P0, eps_q, density=64, n_radial=3, n_levels=8):
    """Sample the slab of states near the seed rim: x with the x-part of the
    value function in [0, eps_q], budget levels in [-eps_q, 0]."""
    levels = np.linspace(-eps_q, 0.0, n_levels)
    return [pr.AugmentedState(x, xq) for x in _slab_points(P0, eps_q, density, n_radial)
            for xq in levels]


def find_nonconvex_witness(F, slc):
    """Search for inside points whose midpoint is outside the projected set,
    among 20000 random pairs of inside grid points (a fixed seed).

    Returns (x1, x2, midpoint) with headroom > 1e-9 at the endpoints and
    < -1e-9 at the midpoint (all re-evaluated exactly), or None.
    """
    margin = 1e-9
    inside = slc.x_grid[slc.xq_max > margin]
    if len(inside) < 2:
        return None
    rng = np.random.default_rng(7)
    i = rng.integers(0, len(inside), size=20000)
    j = rng.integers(0, len(inside), size=20000)
    keep = i != j
    i, j = i[keep], j[keep]
    mids = 0.5 * (inside[i] + inside[j])
    vals = pr.xq_max_at(F, slc.t, mids)
    hits = np.nonzero(vals < -margin)[0]
    for h in hits:
        x1, x2, mid = inside[i[h]], inside[j[h]], mids[h]
        v1, v2 = pr.xq_max_at(F, slc.t, np.stack([x1, x2]))
        if v1 > margin and v2 > margin:
            return x1, x2, mid
    return None


# -- the input spline as scipy's CubicSpline gives it: the tests' reference for
# the spline of parareach.signals ---------------------------------------------

class ScipySplineSignal(pr.SampledSignal):
    """A sampled signal interpolated by scipy's CubicSpline (not-a-knot), with
    ``taylor(a)`` from its derivatives at a: the signal parareach had before
    it had its own spline."""

    def __init__(self, times, values):
        from scipy.interpolate import CubicSpline

        super().__init__(times, values)
        self.spline = CubicSpline(self.times, self.values, axis=0)

    def __call__(self, t):
        return self.spline(min(max(t, self.times[0]), self.times[-1]))

    def taylor(self, a):
        c = np.zeros((self.degree + 1, self.dim))
        if a < self.times[0] or a >= self.times[-1]:
            c[0] = self(a)
            return c
        for j in range(self.degree + 1):
            c[j] = self.spline(a, nu=j) / math.factorial(j)
        return c


def with_scipy_spline(sys_):
    """sys_ with its sampled input interpolated by :class:`ScipySplineSignal`."""
    return pr.make_system(sys_.A, sys_.B, sys_.Bu, sys_.M,
                          u=ScipySplineSignal(sys_.u.times, sys_.u.values))


# -- the (E, f, g) flow in closed form, state by state: the tests' reference
# for the transition-matrix engine of parareach.riccati ----------------------

def riccati_rhs(E, sys_):
    """dE/dt = -EA - A'E - Mx + (B'E + Mxw')' Mw^-1 (B'E + Mxw'), symmetrized."""
    E = np.asarray(E, dtype=float)
    S = sys_.B.T @ E + sys_.Mxw.T
    dE = -E @ sys_.A - sys_.A.T @ E - sys_.Mx + S.T @ (sys_.Mw_inv @ S)
    return 0.5 * (dE + dE.T)


def f_rhs(E, f, sys_, u_t):
    """df/dt = -A'f + (Mxu + E Bu) u + (E B + Mxw) Mw^-1 (B'f - Muw' u)."""
    E = np.asarray(E, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    u_t = np.asarray(u_t, dtype=float).reshape(-1)
    r = sys_.B.T @ f - sys_.Muw.T @ u_t
    return (-sys_.A.T @ f + (sys_.Mxu + E @ sys_.Bu) @ u_t
            + (E @ sys_.B + sys_.Mxw) @ (sys_.Mw_inv @ r))


def g_quadrature_matrix(sys_):
    """Constant matrix G with dg/dt = [f; u]' G [f; u].

    G = [[B Mw^-1 B',            Bu - B Mw^-1 Muw'],
         [(Bu - B Mw^-1 Muw')',  Muw Mw^-1 Muw' - Mu]].

    The sign of the u-block is fixed by requiring the maximum over w of the
    value-function time derivative to vanish identically (the property the
    whole overapproximation rests on); TestValueDerivative checks it.
    """
    BMw = (sys_.Mw_inv @ sys_.B.T).T         # B Mw^-1  (n x m)
    G12 = sys_.Bu - BMw @ sys_.Muw.T
    G22 = sys_.Muw @ (sys_.Mw_inv @ sys_.Muw.T) - sys_.Mu
    G = np.block([[BMw @ sys_.B.T, G12], [G12.T, G22]])
    return 0.5 * (G + G.T)


def g_rhs(f, u_t, G):
    z = np.concatenate([np.asarray(f, dtype=float).reshape(-1),
                        np.asarray(u_t, dtype=float).reshape(-1)])
    return float(z @ G @ z)


@dataclass(frozen=True)
class ParaboloidRate:
    """Time derivatives (dE, df, dg) of paraboloid parameters at an instant."""

    dE: np.ndarray
    df: np.ndarray
    dg: float


def paraboloid_rate(P, sys_, u_t):
    """Parameter derivatives at the instant where the input takes value u_t."""
    return ParaboloidRate(dE=riccati_rhs(P.E, sys_), df=f_rhs(P.E, P.f, sys_, u_t),
                          dg=g_rhs(P.f, u_t, g_quadrature_matrix(sys_)))


def value_derivative(P, x, u_t, w_t, sys_, rate):
    """dh/dt along the flow for disturbance w_t, by the chain rule over
    (x, x_q, E, f, g).  h is affine in x_q with unit slope, so the budget
    level does not enter.  The quadratic coefficient in w_t is Mw, so the
    value at ``optimal_disturbance`` is the maximum."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u_t = np.asarray(u_t, dtype=float).reshape(-1)
    w_t = np.asarray(w_t, dtype=float).reshape(-1)
    xdot = sys_.A @ x + sys_.B @ w_t + sys_.Bu @ u_t
    dxq = energy_rate(sys_, x, u_t, w_t)
    return float(x @ rate.dE @ x - 2.0 * rate.df @ x + rate.dg
                 + 2.0 * (P.E @ x - P.f) @ xdot + dxq)


def xq_rate_at_zero(P0, gamma, X, sys_):
    """Budget rate at t=0 of the surface-riding trajectory of the scaled seed
    through X.  Quadratic in gamma with negative leading coefficient."""
    u0 = sys_.u(0.0)
    w = pr.optimal_disturbance(scale_paraboloid(P0, gamma), X.x, u0, sys_)
    return energy_rate(sys_, X.x, u0, w)


# -- gamma_bar state by state: the tests' reference for the bits of the
# batched rate quadratic of parareach.family ---------------------------------

def reference_rate_quadratic(P0, x, sys_):
    """(a, b, c) of the budget rate at t=0 of the surface ride through x, as a
    quadratic in the seed scaling, from lone products of one state."""
    u0 = sys_.u(0.0)
    w_lin = -(sys_.Mw_inv @ (sys_.B.T @ (P0.E @ x - P0.f)))
    w_base = -(sys_.Mw_inv @ (sys_.Mxw.T @ x + sys_.Muw.T @ u0))
    a = float(w_lin @ sys_.Mw @ w_lin)
    b = 2.0 * float(x @ sys_.Mxw @ w_lin + u0 @ sys_.Muw @ w_lin
                    + w_base @ sys_.Mw @ w_lin)
    c = energy_rate(sys_, x, u0, w_base)
    return a, b, c


def reference_rate_root(P0, x, sys_):
    """The larger root of the rate quadratic of the state x if it is at
    least 1, else 1.0 (also where there is no root, or a >= -1e-300)."""
    a, b, c = reference_rate_quadratic(P0, x, sys_)
    if a >= -1e-300:
        return 1.0
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return 1.0
    root = float((-b - np.sqrt(disc)) / (2.0 * a))
    return root if root >= 1.0 else 1.0


def reference_gamma_bar(P0, sys_, eps_q, sampler_density=64):
    """The largest root >= 1 of the rate quadratic over the rim slab's
    states, one state at a time; 1.0 when there is none."""
    return max((reference_rate_root(P0, X.x, sys_)
                for X in sample_slab_states(P0, eps_q, density=sampler_density,
                                            n_radial=3, n_levels=1)), default=1.0)


def reference_params(sys_, P0, t_end):
    """Independent (E, f, g) solution: scipy's DOP853 (rtol 1e-12) on
    riccati_rhs, f_rhs and g_quadrature_matrix, restarted at every input
    knot.  Returns a function of an array of times giving (E, f, g)."""
    from scipy.integrate import solve_ivp

    n = sys_.n
    G = g_quadrature_matrix(sys_)

    def rhs(t, y):
        E, f, u_t = y[:n * n].reshape(n, n), y[n * n:n * n + n], sys_.u(t)
        z = np.concatenate([f, u_t])
        return np.concatenate([riccati_rhs(E, sys_).ravel(),
                               f_rhs(E, f, sys_, u_t), [z @ G @ z]])

    knots = np.asarray(sys_.u.knots, dtype=float)
    cuts = np.concatenate([[0.0], knots[(knots > 0) & (knots < t_end)], [t_end]])
    y = np.concatenate([P0.E.ravel(), P0.f, [P0.g]])
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-12,
                        atol=1e-12, dense_output=True)
        assert sol.success, sol.message
        pieces.append(sol.sol)
        y = sol.y[:, -1]

    def at(ts):
        ts = np.asarray(ts, dtype=float)
        idx = np.clip(np.searchsorted(cuts, ts, side="right") - 1, 0, len(pieces) - 1)
        Y = np.array([pieces[i](t) for i, t in zip(idx, ts)])
        return Y[:, :n * n].reshape(-1, n, n), Y[:, n * n:n * n + n], Y[:, -1]

    return at


def node_rates(tvp, sys_):
    """(dE/dt, df/dt, dg/dt) at the nodes of a propagation, node by node,
    written out from the system matrices rather than taken from
    riccati_rhs, f_rhs and g_rhs: with r = B'f - Muw'u,
    dg/dt = r' Mw^-1 r + 2 f' Bu u - u' Mu u."""
    Mw_inv = np.linalg.inv(sys_.Mw)
    dE, df, dg = [], [], []
    for t, E, f in zip(tvp.grid, tvp.E_samples, tvp.f_samples):
        u = sys_.u(t)
        S = sys_.B.T @ E + sys_.Mxw.T
        r = sys_.B.T @ f - sys_.Muw.T @ u
        dE.append(-E @ sys_.A - sys_.A.T @ E - sys_.Mx + S.T @ Mw_inv @ S)
        df.append(-sys_.A.T @ f + (sys_.Mxu + E @ sys_.Bu) @ u + S.T @ Mw_inv @ r)
        dg.append(r @ Mw_inv @ r + 2.0 * f @ sys_.Bu @ u - u @ sys_.Mu @ u)
    return np.array(dE), np.array(df), np.array(dg)


def boundary_state(P0, direction, level):
    """State on the seed surface: x-part value -level along a unit direction,
    budget = level."""
    lam, V = np.linalg.eigh(P0.E)
    assert np.all(lam > 0)
    root = V @ np.diag(1.0 / np.sqrt(lam)) @ V.T
    c = V @ ((V.T @ P0.f) / lam)
    q_min = P0.g - float(c @ (P0.E @ c))
    rho = -q_min - level
    assert rho >= 0
    x = c + np.sqrt(rho) * (root @ np.asarray(direction, dtype=float))
    return pr.AugmentedState(x, level)


def random_boundary_states(P0, n, rng):
    dim = P0.dim
    out = []
    lam, _ = np.linalg.eigh(P0.E)
    c_q = -P0.g  # budget cap for centered seeds
    for _ in range(n):
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        level = rng.uniform(0.0, c_q)
        out.append(boundary_state(P0, d, level))
    return out


def random_iqc_system(rng, n=None, m=None, p=None, sampled_input=False):
    """Random well-posed system (w-block strictly negative definite), with
    dense blocks of M; unset dimensions are drawn from 1 to 3, and ``m = 0``
    gives a plant without a disturbance channel.  With ``sampled_input``,
    driven by a cubic spline through 4 to 8 random samples on [0, 1.5], so
    the engine steps several input pieces."""
    n = int(rng.integers(1, 4)) if n is None else n
    m = int(rng.integers(1, 4)) if m is None else m
    p = int(rng.integers(1, 4)) if p is None else p
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    Bu = rng.standard_normal((n, p))
    k = n + p + m
    M = rng.standard_normal((k, k))
    M = 0.5 * (M + M.T)
    W = rng.standard_normal((m, m))
    M[n + p:, n + p:] = -(W @ W.T + np.eye(m))
    u = None
    if sampled_input:
        times = np.linspace(0.0, 1.5, int(rng.integers(4, 9)))
        u = pr.SampledSignal(times, rng.standard_normal((len(times), p)))
    return pr.make_system(A, B, Bu, M, u=u)


# -- rides and back-traces node by node: the tests' reference for the stacked
# rides of parareach.touching ------------------------------------------------

def _reference_step(flow, j, t, x, xq, E, f, dt):
    """One step of a ride anchored at (t, E, f) on piece j: the ride state
    [x; basis; E x - f; 0] moved by Phi(dt), its budget by W(dt)."""
    eta = np.concatenate([x, flow.basis(j, t), E @ x - f, np.zeros(flow.k - flow.n)])
    Phi, W = flow.vanloan(j, dt)
    return Phi[:flow.n] @ eta, xq + eta @ W @ eta


def reference_ride(tvp, X0, t_end):
    """A ride of tvp from X0 up to min(t_end, tvp.t_end), one node at a time:
    (node times, x (K, n), x_q (K,))."""
    flow = tvp.flow
    t_end = min(t_end, tvp.t_end)
    K = int(np.searchsorted(tvp.grid, t_end, side="right"))
    grid, steps = tvp.grid[:K], list(tvp.steps[:K - 1])
    if grid[-1] < t_end:
        grid = np.append(grid, t_end)
        steps.append(t_end - grid[-2])
    E, f, _ = tvp.params_at_many(grid)
    x, xq = np.array(X0.x, dtype=float), X0.x_q
    xs, xqs = [x], [xq]
    for i, dt in enumerate(steps):
        x, xq = _reference_step(flow, flow.piece_of(grid[i]), grid[i], x, xq,
                                E[i], f[i], dt)
        xs.append(x)
        xqs.append(xq)
    return grid, np.array(xs), np.array(xqs)


def reference_trace_back(tvp, t_at, x_at):
    """The back-trace of tvp from x_at at t_at to t=0, one node at a time,
    with the budget pinned to the surface at t_at: (x, x_q) at 0."""
    flow, grid = tvp.flow, tvp.grid
    x = np.asarray(x_at, dtype=float).reshape(-1)
    E, f, g = tvp.params_at(t_at)
    xq = -(x @ E @ x - 2.0 * f @ x + g)
    if t_at <= 0.0:
        return x, xq
    i = int(np.searchsorted(grid, t_at, side="right")) - 1
    t, dt = t_at, grid[i] - t_at
    for k in range(i, -1, -1):          # the leg from t back to node k
        if dt < 0.0:
            x, xq = _reference_step(flow, flow.piece_of(grid[k]), t, x, xq, E, f, dt)
        if k:
            t, E, f, dt = grid[k], tvp.E_samples[k], tvp.f_samples[k], -tvp.steps[k - 1]
    return x, float(xq)


# -- the value function as one einsum over [x; 1]: the tests' reference for
# the bits of Flow.value -----------------------------------------------------

def reference_value(flow, E, f, g, x):
    """x'Ex - 2f'x + g as numpy's one-call einsum of z'Qz, z = [x; 1], with Q
    the top-left (n+1)-block of ``flow.embed``."""
    Q = flow.embed(E, f, g)[..., :flow.n + 1, :flow.n + 1]
    z = np.concatenate([x, np.ones(np.shape(x)[:-1] + (1,))], axis=-1)
    return np.einsum("...i,...ij,...j->...", z, Q, z)


# -- the blow-up test by the eigenvalues, and the band search by bisection:
# the tests' references for the closed form of parareach.riccati and the
# regula falsi of parareach.family ------------------------------------------

def reference_right_half_plane(X):
    """Whether every eigenvalue of each matrix of X (..., n, n) lies in the
    open right half-plane, from LAPACK's general eigensolver."""
    return np.linalg.eigvals(X).real.min(axis=-1) > 0.0


def reference_band_times(rides, eps_q):
    """Per ride of a Rides stack: the times where its budget sits in
    [-eps_q, 0] at a node, or crosses 0, -eps_q/2 or -eps_q between two
    nodes, bisected on the dense output of all rides together (up to 50
    halvings) down to the end of the last bracket on the band's side of the
    level.  Rows with an error get none."""
    ts, xq, R = rides.times, rides.xq, len(rides.times)
    levels = np.array([0.0, -0.5 * eps_q, -eps_q])
    ok = np.array([e is None for e in rides.errors])[:, None, None]
    z = xq[:, None, :] - levels[:, None]
    r, lv, k = np.nonzero(ok & (np.signbit(z[..., :-1]) != np.signbit(z[..., 1:])))
    lo, hi, side = ts[r, k], ts[r, k + 1], np.signbit(z[r, lv, k])
    for _ in range(50):                 # all crossings of all rides at once
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break                       # every bracket is down to adjacent floats
        below = np.signbit(rides.state_at_many(r, mid)[1] - levels[lv]) == side
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    band = (ok[:, 0] & (xq >= -eps_q) & (xq <= 0.0)
            & (np.arange(ts.shape[1]) <= rides.last[:, None]))
    end = np.where(side == (lv == 0), lo, hi)       # lo is below 0, above -eps_q
    return [np.sort(np.concatenate([end[r == q], ts[q][band[q]]])) for q in range(R)]


# -- the oracle's RK4 without dropping rejected rows: the tests' reference
# for parareach.oracle -------------------------------------------------------

def reference_integrate_batch(sys_, X0, XQ0, grid, w_of, save_idx, U, step=None):
    """Fixed-step RK4 over ``grid`` from column-layout states X0 (n, N), every
    column integrated to the end: states (S, N, n), budgets (S, N) and
    disturbances (S, N, m) at the ``save_idx`` nodes, and the mask (N,) of the
    columns whose budget stays nonnegative.  ``w_of(i, ti, X, XQ)`` supplies
    the disturbance of all N columns in step i at stage time ti (the nodes
    of ``grid``, then its midpoints), where the input is ``U[ti]``.  Each step
    is ``step(i, X, XQ, w_of)`` if given, else the classical RK4, stage by
    stage, in numpy's matrix products and einsum."""
    X, XQ = X0.copy(), XQ0.copy()
    N = X.shape[1]
    admissible = XQ >= 0.0
    saved_X = np.empty((len(save_idx), N, sys_.n))
    saved_XQ = np.empty((len(save_idx), N))
    saved_W = np.empty((len(save_idx), N, sys_.m))
    save_ptr = {int(i): k for k, i in enumerate(save_idx)}
    mid = len(grid)                 # stage-time index of the first midpoint

    def rhs(i, ti, X, XQ):
        W, u = w_of(i, ti, X, XQ), U[ti]
        v = np.concatenate([X, np.repeat(u[:, None], N, axis=1), W])   # [x; u; w]
        return (sys_.A @ X + sys_.B @ W + (sys_.Bu @ u)[:, None],
                np.einsum("ik,ij,jk->k", v, sys_.M, v))

    def rk4(i, X, XQ, w_of):
        h = grid[i + 1] - grid[i]
        k1x, k1q = rhs(i, i, X, XQ)
        k2x, k2q = rhs(i, mid + i, X + 0.5 * h * k1x, XQ + 0.5 * h * k1q)
        k3x, k3q = rhs(i, mid + i, X + 0.5 * h * k2x, XQ + 0.5 * h * k2q)
        k4x, k4q = rhs(i, i + 1, X + h * k3x, XQ + h * k3q)
        return (X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x),
                XQ + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q))

    def save(k, i, ti, X, XQ):
        saved_X[k].T[...], saved_XQ[k] = X, XQ
        saved_W[k].T[...] = w_of(i, ti, X, XQ)

    if 0 in save_ptr:
        save(save_ptr[0], 0, 0, X, XQ)
    for i in range(len(grid) - 1):
        X, XQ = (step or rk4)(i, X, XQ, w_of)
        admissible &= XQ >= 0.0
        if i + 1 in save_ptr:
            save(save_ptr[i + 1], i, i + 1, X, XQ)
    return saved_X, saved_XQ, saved_W, admissible
