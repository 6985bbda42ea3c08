"""Families of scaled-seed propagations and their intersection.

Scaling the seed paraboloid by gamma >= 1 relaxes it inside the nonnegative-
budget half-space, so every scaled propagation bounds the reachable set and
the intersection over scalings is a tighter bound.  The useful scalings are
those whose surface-riding trajectories can still gain budget near the seed
rim; the budget rate there is quadratic in gamma with negative leading
coefficient, which yields a finite largest useful scaling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, OutOfDomain, UnboundedSlab
from .model import AugmentedState, IqcSystem, Paraboloid, _count, _quantity, _shaped
from .riccati import DOMAIN_TOL, IntegratorConfig, ParaboloidStack, domain_end, propagate
from .touching import TOUCH_TOL_FACTOR, touching_trajectory, trace_back_to_seed

_RATE_MARGIN = 0.0      # a budget rate >= -margin in the rim band is a violation
_MEMBERSHIP_TOL = 1e-4  # relative slack for a ride point on the intersection's surface
_QUERY_BLOCK = 4096     # member-time queries per block; each needs ~0.5 kB of temporaries


def _sphere_directions(n: int, count: int, seed: int = 20_170_824) -> np.ndarray:
    """Deterministic unit directions: exact grids for n <= 2, seeded otherwise."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        th = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((count, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _seed_center(P0: Paraboloid):
    """Eigenpairs (lam, V) of E0, the center c of the seed, the least value
    q_min of its x-part there and the whitening map E0^{-1/2};
    :class:`UnboundedSlab` unless E0 is positive definite."""
    lam, V = np.linalg.eigh(P0.E)
    if np.any(lam <= 0.0):
        raise UnboundedSlab(
            f"seed quadratic coefficient not positive definite (eigenvalues {lam}); "
            "its footprint and rim slab are unbounded: give the scalings, or a probe "
            "grid, explicitly; the oracle cannot draw initial states from it")
    c = V @ ((V.T @ P0.f) / lam)
    root = V @ np.diag(1.0 / np.sqrt(lam)) @ V.T
    return lam, V, c, P0.g - float(c @ (P0.E @ c)), root


def _slab_points(P0: Paraboloid, eps_q: float, density: int, n_radial: int) -> np.ndarray:
    """States x (N, n) with the seed's x-part value in [0, eps_q], on shells
    through the whitening map of E0 (else :class:`UnboundedSlab`)."""
    _, _, c, q_min, root = _seed_center(P0)
    rho_lo = max(0.0, -q_min)
    rho_hi = -q_min + eps_q
    if rho_hi <= 0.0:
        return np.empty((0, P0.dim))
    dirs = _sphere_directions(P0.dim, density)
    radii = np.linspace(rho_lo, rho_hi, n_radial)
    radii = radii[radii > 0.0] if rho_lo == 0.0 else radii
    return np.concatenate([c + np.sqrt(rho) * dirs @ root.T for rho in radii])


# Stacked per-row products: each row rounds like the product of its state
# alone, where one matrix product over all rows would sum in another order.
def _mv(A, X):                  # A @ x for every row x of X
    return (A @ X[..., None])[..., 0]


def _form(Y, A, Z):             # y @ A @ z for every pair of rows
    return ((Y[:, None, :] @ A) @ Z[..., None])[:, 0, 0]


def _rate_quadratic(P0: Paraboloid, X: np.ndarray, sys: IqcSystem):
    """Coefficients (a, b, c), one per row of X (N, n), of the budget rate at
    t = 0 as a quadratic in the scaling, from the affine dependence of the
    optimal disturbance on it (w = w_base + gamma * w_lin): interpolating
    three rates instead would cancel catastrophically when a is many orders
    below the rate itself."""
    u0 = np.asarray(sys.u(0.0), dtype=float).reshape(sys.p)
    U = np.broadcast_to(u0, (len(X), sys.p))
    w_lin = -_mv(sys.Mw_inv, _mv(sys.B.T, _mv(P0.E, X) - P0.f))
    w_base = -_mv(sys.Mw_inv, _mv(sys.Mxw.T, X) + sys.Muw.T @ u0)
    a = _form(w_lin, sys.Mw, w_lin)
    b = 2.0 * (_form(X, sys.Mxw, w_lin) + _form(U, sys.Muw, w_lin)
               + _form(w_base, sys.Mw, w_lin))
    c = (_form(X, sys.Mx, X) + _form(2.0 * X, sys.Mxu, U) + _form(2.0 * X, sys.Mxw, w_base)
         + _form(U, sys.Mu, U) + _form(2.0 * U, sys.Muw, w_base)
         + _form(w_base, sys.Mw, w_base))
    return a, b, c


def _rate_roots(P0: Paraboloid, X: np.ndarray, sys: IqcSystem) -> np.ndarray:
    """Per row x of X (N, n): the largest scaling whose surface ride from x
    starts with a nonnegative budget rate, the larger root of the rate
    quadratic; 1 where there is none above 1, or where the rate does not
    depend on the scaling (a >= -1e-300)."""
    a, b, c = _rate_quadratic(P0, X, sys)
    disc = b * b - 4.0 * a * c
    k = (a < -1e-300) & (disc >= 0.0)
    root = np.ones(len(X))
    root[k] = (-b[k] - np.sqrt(disc[k])) / (2.0 * a[k])
    return np.where(root >= 1.0, root, 1.0)


def gamma_bar(P0: Paraboloid, sys: IqcSystem, eps_q: float,
              sampler_density: int = 64) -> float:
    """Largest scaling with nonnegative initial budget rate over the sampled
    rim slab; 1.0 when no sampled state admits a rising rate.  Samples whose
    rate does not depend on the scaling (a >= -1e-300) are left out."""
    if P0.dim != sys.n:
        raise DimensionMismatch(f"seed dim {P0.dim} != system dim {sys.n}")
    _quantity(eps_q, "eps_q", "positive")
    density = _count(sampler_density, "sampler_density")
    roots = _rate_roots(P0, _slab_points(P0, eps_q, density, 3), sys)
    return float(np.max(roots, initial=1.0))


@dataclass
class ParaboloidFamily:
    """Scaled-seed propagations sharing one seed, stepped together as one
    :class:`ParaboloidStack`; immutable after build."""

    seed: Paraboloid
    stack: ParaboloidStack
    eps_q: float
    T: float
    K_bound: float
    system: IqcSystem
    gamma_bar_value: Optional[float] = None

    @property
    def gammas(self) -> np.ndarray:
        return self.stack.gammas

    @property
    def members(self) -> tuple:
        return self.stack.members

    @property
    def t_max(self) -> float:
        return float(self.stack.t_end.max())

    def params_at_many(self, tq):
        """(E, f, g, defined) of every member at the times tq, shapes (M, T, n, n),
        (M, T, n), (M, T), (M, T): each member's query is clamped to its t_end,
        and ``defined`` marks the times within its interval of definition."""
        tq = np.asarray(tq, dtype=float)
        if np.any(tq < -DOMAIN_TOL):
            raise OutOfDomain(f"t={tq.min()} before the family's start 0")
        t_end = self.stack.t_end
        step = max(1, _QUERY_BLOCK // len(t_end))     # times per block
        blocks = [self.stack.flow.dense_output(*self.stack.nodes, t_end, tq[s:s + step])
                  for s in range(0, max(len(tq), 1), step)]
        E, f, g = (np.concatenate(a, axis=1) for a in zip(*blocks))
        return E, f, g, tq <= domain_end(t_end[:, None])

    def to_manifest(self, assumption_report=None) -> dict:
        man = {
            "gammas": self.gammas.tolist(),
            "escape_times": list(self.stack.escape),
            "K_bound": self.K_bound,
            "eps_q": self.eps_q,
            "horizon": self.T,
            "gamma_bar": self.gamma_bar_value,
        }
        if assumption_report is not None:
            man["assumptions"] = assumption_report.to_json()
        return man


def build_family(P0: Paraboloid, sys: IqcSystem, eps_q: float, n_members: int,
                 cfg: IntegratorConfig, gammas: Optional[Sequence[float]] = None,
                 spacing: str = "uniform",
                 sampler_density: int = 64) -> ParaboloidFamily:
    """Propagate one member per scaling in [1, gamma_bar].

    The grid is uniform by default (``spacing="log"`` switches to log-spaced,
    useful when the scaling bound spans orders of magnitude); endpoints are
    always included.  Explicit ``gammas`` bypass the bound computation.
    Members that escape before the horizon keep their truncated domains.
    """
    _quantity(eps_q, "eps_q", "positive")
    n_members = _count(n_members, "n_members")
    if spacing not in ("uniform", "log"):
        raise ConfigError(f"unknown gamma spacing {spacing!r}")
    gbar = None
    if gammas is None:
        gbar = gamma_bar(P0, sys, eps_q, sampler_density=sampler_density)
        if n_members == 1 or gbar <= 1.0:
            gs = np.array([1.0])
        else:
            gs = (np.geomspace if spacing == "log" else np.linspace)(1.0, gbar, n_members)
    else:
        gs = _quantity(gammas, "explicit gammas", "positive")
        _count(gs.size, "number of explicit gammas")
    gs = np.unique(gs)

    stack = propagate(P0, sys, cfg, gamma=gs)
    k_bound = float(np.max(np.linalg.norm(stack.nodes[0], axis=(-2, -1))))
    return ParaboloidFamily(seed=P0, stack=stack,
                            eps_q=eps_q, T=cfg.t_end, K_bound=k_bound,
                            system=sys, gamma_bar_value=gbar)


@dataclass
class ReachSlice:
    """Per-point budget headroom of the family intersection at one time.

    A point x belongs to the projected overapproximation iff xq_max(x) >= 0;
    the admissible budget slab there is [0, xq_max(x)].  ``member_argmin``
    holds the index (into the family's ascending gammas) of the active
    constraint; ties go to the lowest gamma.
    """

    t: float
    x_grid: np.ndarray
    xq_max: np.ndarray
    member_argmin: np.ndarray
    gammas: np.ndarray = field(repr=False, default=None)

    @property
    def argmin_gamma(self) -> np.ndarray:
        return self.gammas[self.member_argmin]


def _member_values(F: ParaboloidFamily, t: float, xs) -> np.ndarray:
    """Member values -(x'Ex - 2f'x + g) at t of points xs, (M, G); +inf where not defined."""
    xs = _shaped(xs, ("G", F.seed.dim), "points")
    E, f, g, defined = F.params_at_many([t])
    if not defined.any():
        raise OutOfDomain(f"t={t} beyond the family's interval of definition "
                          f"[0, {F.t_max}]")
    vals = F.stack.flow.value(E, f, g, xs)
    vals[~defined[:, 0]] = -np.inf
    return np.negative(vals, out=vals)


def reach_slice(F: ParaboloidFamily, t: float, x_grid) -> ReachSlice:
    """Evaluate the intersection's budget headroom over a grid of states (G, n)."""
    vals = _member_values(F, t, x_grid)
    pos = np.argmin(vals, axis=0)          # first minimum = lowest gamma (sorted)
    return ReachSlice(t=float(t), x_grid=np.asarray(x_grid, dtype=float),
                      xq_max=vals[pos, np.arange(len(pos))], member_argmin=pos,
                      gammas=F.gammas)


def xq_max_at(F: ParaboloidFamily, t: float, xs) -> np.ndarray:
    """Budget headroom min over members at the points ``xs`` (G, n)."""
    return np.min(_member_values(F, t, xs), axis=0)


def membership_margins(F: ParaboloidFamily, t: float, xs, xqs) -> np.ndarray:
    """Batched intersection margins x_q_k - xq_max(x_k): the intersection
    holds a state whose margin is <= 0 and whose budget is nonnegative.
    ``xqs`` holds one budget per point."""
    xs = _shaped(xs, ("G", F.seed.dim), "points")
    return _shaped(xqs, (len(xs),), "budgets") - xq_max_at(F, t, xs)


# -- assumption diagnostics ---------------------------------------------------

def rising_energy_violations(xq_values, xq_rates, eps_q: float,
                             margin: float = 0.0):
    """Indices where the budget sits in [-eps_q, 0] but is not strictly
    falling (rate >= -margin)."""
    xq = np.asarray(xq_values, dtype=float)
    rates = np.asarray(xq_rates, dtype=float)
    band = (xq >= -eps_q) & (xq <= 0.0)
    return np.nonzero(band & (rates >= -margin))[0]


@dataclass
class AssumptionReport:
    """Diagnostics for the two exactness hypotheses; violations are listed,
    never fatal (outer bounds stay valid without them)."""

    k_bound: float
    escape_norm: float
    bounded_ok: bool
    escaped_members: list
    falling_ok: bool
    violations: list
    n_boundary_points: int
    notes: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _rim_points(slc: ReachSlice) -> np.ndarray:
    """Zero crossings of the headroom between consecutive grid points in
    lexicographic order, located by linear interpolation, as rows.

    On a row-major mesh the consecutive pairs are neighbours along the last
    axis, plus the row wraps, which move more than one coordinate and are
    dropped.  So crossings are found along the last axis only; on a 1-D
    grid that is every crossing."""
    order = np.lexsort(slc.x_grid.T[::-1])
    xs, v = slc.x_grid[order], slc.xq_max[order]
    a, b, d = v[:-1], v[1:], xs[1:] - xs[:-1]
    k = np.nonzero(np.isfinite(a) & np.isfinite(b) & ((a < 0) != (b < 0)) & (a != b)
                   & (np.count_nonzero(np.abs(d) > 1e-12, axis=1) == 1))[0]
    return xs[k] + (a[k] / (a[k] - b[k]))[:, None] * d[k]


def _band_times(rides, eps_q):
    """Per ride of a :class:`Rides` stack (none for a row with an error): the
    times where its budget sits in [-eps_q, 0] at a node, or crosses 0,
    -eps_q/2 or -eps_q between two nodes, searched for all rides together by
    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on the dense
    output.  A secant point stays a step (a float, or 2^-50 of the node
    step) inside its bracket; it is the midpoint if not strictly inside, or
    if the bracket did not halve over two rounds.  A bracket one step wide
    returns its end on the band's side of the level, so in the band."""
    ts, xq, R = rides.times, rides.xq, len(rides.times)
    levels = np.array([0.0, -0.5 * eps_q, -eps_q])
    ok = np.array([e is None for e in rides.errors])[:, None, None]
    z = xq[:, None, :] - levels[:, None]
    r, lv, k = np.nonzero(ok & (np.signbit(z[..., :-1]) != np.signbit(z[..., 1:])))
    lo, hi, side = ts[r, k], ts[r, k + 1], np.signbit(z[r, lv, k])
    z_lo, z_hi, tol = z[r, lv, k], z[r, lv, k + 1], 2.0 ** -50 * (hi - lo)
    kept = np.full(len(r), -1)          # 1 where the last round kept hi, 0 lo
    seen = np.full((2, len(r)), np.inf)     # bracket widths one and two rounds ago
    act = np.arange(len(r))
    while len(act):
        a, b, za, zb = lo[act], hi[act], z_lo[act], z_hi[act]
        w, step = b - a, np.maximum(tol[act], np.spacing(b))
        with np.errstate(all="ignore"):
            t = np.clip(a - za * (w / (zb - za)), a + step, b - step)
        t = np.where((a < t) & (t < b) & (w <= 0.5 * seen[1, act]), t, 0.5 * (a + b))
        seen[:, act] = w, seen[0, act]
        zt = rides.state_at_many(r[act], t)[1] - levels[lv[act]]
        below = np.signbit(zt) == side[act]         # t replaces lo
        half = np.where(kept[act] == below, 0.5, 1.0)   # Illinois: halve an end kept twice
        z_lo[act], z_hi[act] = np.where(below, zt, half * za), np.where(below, half * zb, zt)
        lo[act], hi[act], kept[act] = np.where(below, t, a), np.where(below, b, t), below
        act = act[hi[act] - lo[act] > np.maximum(tol[act], np.spacing(hi[act]))]
    band = (ok[:, 0] & (xq >= -eps_q) & (xq <= 0.0)
            & (np.arange(ts.shape[1]) <= rides.last[:, None]))
    end = np.where(side == (lv == 0), lo, hi)       # lo is below 0, above -eps_q
    return [np.sort(np.concatenate([end[r == q], ts[q][band[q]]])) for q in range(R)]


def check_assumptions(F: ParaboloidFamily, cfg: IntegratorConfig,
                      times=None, probe_grid=None,
                      max_rim_points: int = 8) -> AssumptionReport:
    """Diagnose the exactness hypotheses on the built family.

    (i) every member must stay defined (and below the escape norm) on [0, T];
    (ii) surface-riding trajectories of the intersection, located by tracing
    the active member back from sampled rim states, must have strictly
    falling budget whenever it lies in [-eps_q, 0].

    The rim points of all slice times are the rows of one stack: one
    stacked :func:`trace_back_to_seed` finds their seed states and one
    stacked :func:`touching_trajectory` rides them, each row on its active
    member.  A row whose trace or ride fails is left out and named in
    ``notes``, in rim order, as is a slice time past every member's domain.

    The default ``times`` are five from T/5 to min(T, t_max), or from
    t_max/5 to t_max when every member escapes before T/5.
    """
    max_rim_points = _count(max_rim_points, "max_rim_points")
    sys = F.system
    escaped = [(float(g), e) for g, e in zip(F.gammas, F.stack.escape) if e is not None]
    bounded_ok = (not escaped) and F.K_bound <= cfg.escape_norm

    if times is None:                   # five times inside the family's domain
        hi = min(F.T, F.t_max)
        times = np.linspace(F.T / 5.0 if F.T / 5.0 < hi else hi / 5.0, hi, 5)
    if probe_grid is None:
        probe_grid = _default_probe_grid(F)

    skipped_times, t_rows, x_rows, m_rows = [], [], [], []
    for t in times:
        try:
            slc = reach_slice(F, float(t), probe_grid)
        except OutOfDomain as e:
            skipped_times.append(f"t={float(t):g}: OutOfDomain: {e}")
            continue
        rims = _rim_points(slc)
        if len(rims) > max_rim_points:
            stride = max(1, len(rims) // max_rim_points)
            rims = rims[::stride][:max_rim_points]
        t_rows += [float(t)] * len(rims)
        x_rows += list(rims)
        m_rows += list(reach_slice(F, float(t), rims).member_argmin)

    violations = []
    n_points = 0
    seeds = (trace_back_to_seed([F.members[m] for m in m_rows], sys, cfg, t_rows, x_rows)
             if t_rows else [])
    skipped = {r: e for r, e in enumerate(seeds) if not isinstance(e, AugmentedState)}
    ok = [r for r in range(len(seeds)) if r not in skipped]
    if ok:
        members = [m_rows[r] for r in ok]
        # back-traces carry rounding error at the state's scale
        tols = [max(TOUCH_TOL_FACTOR * cfg.rel_tol, 1e-4 * (1.0 + abs(seeds[r].x_q)))
                for r in ok]
        rides = touching_trajectory([F.members[m] for m in members], [seeds[r] for r in ok],
                                    sys, cfg, touch_tol=tols)
        skipped.update((ok[q], e) for q, e in enumerate(rides.errors) if e is not None)
        tbs = _band_times(rides, F.eps_q)
        row = np.repeat(np.arange(len(ok)), [len(tb) for tb in tbs])
        tbs = np.concatenate(tbs)
        xs, xqs = rides.state_at_many(row, tbs)
        E, f, g, defined = F.params_at_many(tbs)
        worst = np.where(defined, rides.flow.value(E, f, g, xs), -np.inf).max(axis=0) + xqs
        # points on the intersection's surface, with the rate of the ride's member
        k = np.nonzero(worst <= _MEMBERSHIP_TOL * (1.0 + np.abs(xqs)))[0]
        own = np.asarray(members)[row[k]]
        t_k, x_k, xq_k = tbs[k], xs[k], xqs[k]
        rates = rides.flow.rate(rides.flow.piece_of(t_k), t_k, x_k, E[own, k], f[own, k])
        n_points = len(k)
        for q in rising_energy_violations(xq_k, rates, F.eps_q, _RATE_MARGIN):
            violations.append({"t": float(t_k[q]), "x": list(map(float, x_k[q])),
                               "x_q": float(xq_k[q]), "rate": float(rates[q]),
                               "gamma": float(F.gammas[own[q]])})

    notes = "diagnostic only; outer approximation holds regardless"
    if skipped_times:
        notes += (f"; {len(skipped_times)} slice time(s) skipped: "
                  + "; ".join(skipped_times))
    if skipped:
        errors = [skipped[r] for r in sorted(skipped)]        # in rim order
        notes += (f"; {len(errors)} boundary trace(s) not usable: "
                  + "; ".join(f"{type(e).__name__}: {e}" for e in errors))
    return AssumptionReport(
        k_bound=F.K_bound, escape_norm=cfg.escape_norm, bounded_ok=bounded_ok,
        escaped_members=escaped, falling_ok=not violations,
        violations=violations, n_boundary_points=n_points, notes=notes)


def _default_probe_grid(F: ParaboloidFamily):
    """Axis-aligned grid of 41 points per axis covering the seed footprint,
    inflated threefold."""
    lam, V, c, q_min, _ = _seed_center(F.seed)
    rho = max(-q_min, F.eps_q)
    half = 3.0 * np.sqrt(rho * np.sum(V ** 2 / lam, axis=1))
    return mesh_points([np.linspace(c[d] - half[d], c[d] + half[d], 41)
                        for d in range(F.seed.dim)])


def mesh_points(axes) -> np.ndarray:
    """The points of the row-major mesh of ``axes``, one per row, the last
    axis varying fastest: lexicographic order, as :func:`_rim_points` walks
    a grid."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
