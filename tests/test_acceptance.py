"""Acceptance gates.

One test per criterion; each prints a [gate N] PASS/FAIL line with the
measured quantities (run with ``pytest -s`` to see the lines on passing
gates) and asserts the stated tolerance and runtime budget.  Shared heavy
artifacts (family builds, the big Monte-Carlo run) are module fixtures; their
build time is charged to every gate that consumes them, conservatively.
"""

import time

import numpy as np
import pytest

import parareach as pr
import parareach.family as family_mod
from parareach.presets import load_preset

from conftest import (ROOT_HI, ROOT_LO, find_nonconvex_witness, paraboloid_rate,
                      random_boundary_states, random_iqc_system, riccati_rhs,
                      scalar_blowup_time, scalar_flow, value_derivative)

_fixture_cost = {}
CHECK_TIMES = np.linspace(0.1, 1.0, 10)


def _report(num, ok, budget_s, elapsed, detail):
    line = (f"[gate {num}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s / budget {budget_s:.0f}s): {detail}")
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget_s, line


def _timed(key, fn):
    t0 = time.perf_counter()
    out = fn()
    _fixture_cost[key] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def sec5():
    return load_preset("sec5")


@pytest.fixture(scope="module")
def sec5_cfg_acc(sec5):
    integ = sec5["integrator"]
    return pr.IntegratorConfig(rel_tol=integ["rel_tol"], abs_tol=integ["abs_tol"],
                               max_step=integ["max_step"], t_end=1.0)


@pytest.fixture(scope="module")
def sec5_fam64(sec5, sec5_cfg_acc):
    return _timed("fam64", lambda: pr.build_family(
        sec5["seed"], sec5["system"], sec5["eps_q"], 64, sec5_cfg_acc,
        spacing=sec5["gamma_spacing"], sampler_density=sec5["sampler_density"]))


@pytest.fixture(scope="module")
def sec5_big_oracle(sec5, sec5_fam64):
    def run():
        cfg = pr.OracleConfig(n_trajectories=60_000, segments=8, w_scale=1.0,
                              seed=42, t_end=1.0)
        times = sorted(set(CHECK_TIMES.tolist() + [0.794]))
        return pr.sample_admissible(sec5["system"], sec5["seed"], cfg,
                                    family=sec5_fam64, sample_times=times)
    return _timed("oracle", run)


def test_gate1_riccati_equilibria_and_convergence(ex1_system):
    # The flow from E(0)=1 approaches 2+sqrt2 like 16.5 exp(-sqrt2 t): at t=10
    # the exact solution is still 1.2e-5 away, at t=14 only 4.2e-8.  So the
    # propagation is checked against the closed form at t=10 and against the
    # equilibrium at t=14.
    t0 = time.perf_counter()
    resid = max(abs(riccati_rhs(np.array([[r]]), ex1_system)[0, 0])
                for r in (ROOT_LO, ROOT_HI))
    cfg = pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.025,
                              t_end=14.0)
    tvp = pr.propagate(pr.Paraboloid([[1.0]], [0.0], -0.06), ex1_system, cfg)
    err10 = abs(tvp.params_at(10.0)[0][0, 0] - scalar_flow(10.0, 1.0))
    gap14 = abs(tvp.params_at(14.0)[0][0, 0] - ROOT_HI)
    elapsed = time.perf_counter() - t0
    ok = resid <= 1e-9 and err10 <= 1e-6 and gap14 <= 1e-6
    _report(1, ok, 1.0, elapsed,
            f"equilibrium residual {resid:.2e} (tol 1e-9); "
            f"|E(10) - closed form| = {err10:.3e} (tol 1e-6); "
            f"|E(14) - (2+sqrt2)| = {gap14:.3e} (tol 1e-6; closed-form "
            f"distance {abs(scalar_flow(14.0, 1.0) - ROOT_HI):.3e})")


def test_gate2_finite_escape_time(ex1_system):
    t0 = time.perf_counter()
    cfg = pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.025,
                              t_end=10.0)
    tvp = pr.propagate(pr.Paraboloid([[0.5]], [0.0], -0.03), ex1_system, cfg)
    truth = scalar_blowup_time(0.5)
    err = abs(tvp.escape_time - truth) if tvp.escape_time is not None else np.inf
    elapsed = time.perf_counter() - t0
    _report(2, err <= 1e-4, 1.0, elapsed,
            f"detected escape {tvp.escape_time} vs closed form {truth:.7f}; "
            f"|diff| = {err:.2e} (tol 1e-4)")


def test_gate3_touching_invariant(ex1_system, sec5, sec5_cfg_acc):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    cfg1 = pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.025,
                               t_end=10.0)
    seed1 = pr.Paraboloid([[1.0]], [0.0], -0.06)
    tvp1 = pr.propagate(seed1, ex1_system, cfg1)
    for X0 in random_boundary_states(seed1, 20, rng):
        traj = pr.touching_trajectory(tvp1, X0, ex1_system, cfg1)
        worst = max(worst, float(np.max(np.abs(traj.h_samples))))
    tvp5 = pr.propagate(sec5["seed"], sec5["system"], sec5_cfg_acc)
    for X0 in random_boundary_states(sec5["seed"], 20, rng):
        traj = pr.touching_trajectory(tvp5, X0, sec5["system"], sec5_cfg_acc,
                                      touch_tol=1e-6)
        worst = max(worst, float(np.max(np.abs(traj.h_samples))))
    elapsed = time.perf_counter() - t0
    _report(3, worst <= 1e-6, 10.0, elapsed,
            f"max |h| over 20+20 surface rides = {worst:.3e} (tol 1e-6, "
            f"rel_tol 1e-9)")


def test_gate4_optimal_disturbance_maximality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_zero = worst_quad = 0.0
    for k in range(1000):
        sys_ = random_iqc_system(rng)
        E = rng.standard_normal((sys_.n, sys_.n))
        P = pr.Paraboloid(0.5 * (E + E.T), rng.standard_normal(sys_.n),
                          rng.standard_normal())
        x = rng.standard_normal(sys_.n)
        u_t = rng.standard_normal(sys_.p)
        rate = paraboloid_rate(P, sys_, u_t)
        w_star = pr.optimal_disturbance(P, x, u_t, sys_)
        v0 = value_derivative(P, x, u_t, w_star, sys_, rate)
        delta = rng.standard_normal(sys_.m)
        v1 = value_derivative(P, x, u_t, w_star + delta, sys_, rate)
        worst_zero = max(worst_zero, abs(v0))
        worst_quad = max(worst_quad, abs(v1 - v0 - float(delta @ sys_.Mw @ delta)))
    elapsed = time.perf_counter() - t0
    ok = worst_zero <= 1e-9 and worst_quad <= 1e-9
    _report(4, ok, 5.0, elapsed,
            f"1000 random systems/states: max |dh/dt(w*)| = {worst_zero:.2e}, "
            f"max quadratic-expansion residual = {worst_quad:.2e} (tol 1e-9)")


def test_gate5_soundness(sec5, sec5_fam64, sec5_big_oracle):
    t0 = time.perf_counter()
    samples = sec5_big_oracle
    n_adm = len(samples)
    worst = -np.inf
    violations = 0
    for t in CHECK_TIMES:
        k = int(np.argmin(np.abs(samples.times - t)))
        margins = pr.membership_margins(sec5_fam64, float(t), samples.x[k],
                                        samples.x_q[k])
        worst = max(worst, float(margins.max()))
        violations += int(np.count_nonzero(margins > 1e-8))
    elapsed = (time.perf_counter() - t0 + _fixture_cost.get("oracle", 0.0)
               + _fixture_cost.get("fam64", 0.0))
    ok = n_adm >= 10_000 and violations == 0
    _report(5, ok, 120.0, elapsed,
            f"{n_adm} admissible trajectories (>= 1e4), {violations} membership "
            f"violations at 10 times (margin tol 1e-8; worst {worst:.2e})")


def test_gate6_strict_tightening(ex1_system):
    t0 = time.perf_counter()
    seed = pr.Paraboloid([[0.5]], [0.0], -0.03)
    cfg = pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.025,
                              t_end=10.0)
    fam = pr.build_family(seed, ex1_system, 3e-5, 1, cfg,
                          gammas=[1.0, 1.6, 2.2, 2.7, 3.3])
    solo = pr.build_family(seed, ex1_system, 3e-5, 1, cfg, gammas=[1.0])
    grid = np.linspace(-1.2, 1.2, 97)[:, None]
    gap = (pr.reach_slice(solo, 1.62, grid).xq_max
           - pr.reach_slice(fam, 1.62, grid).xq_max)
    elapsed = time.perf_counter() - t0
    _report(6, float(gap.max()) > 1e-6, 30.0, elapsed,
            f"five-member intersection cuts below the unscaled bound by "
            f"{gap.max():.4f} at t=1.62 (needs > 1e-6)")


def test_gate7_nonconvexity_witness(sec5, sec5_fam64):
    t0 = time.perf_counter()
    lo, hi = sec5["grid_window"]
    axes = [np.linspace(lo[d], hi[d], sec5["grid_points"]) for d in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    slc = pr.reach_slice(sec5_fam64, 0.794, grid)
    wit = find_nonconvex_witness(sec5_fam64, slc)
    elapsed = time.perf_counter() - t0 + _fixture_cost.get("fam64", 0.0)
    if wit is None:
        _report(7, False, 60.0, elapsed, "no witness found")
    x1, x2, mid = wit
    vals = pr.xq_max_at(sec5_fam64, 0.794, np.stack([x1, x2, mid]))
    ok = vals[0] > 0 and vals[1] > 0 and vals[2] < 0
    _report(7, ok, 60.0, elapsed,
            f"inside points {x1.round(2).tolist()} / {x2.round(2).tolist()} "
            f"(headroom {vals[0]:.1f}, {vals[1]:.1f}); midpoint headroom "
            f"{vals[2]:.1f} < 0")


def test_gate8_coverage_at_desk_scale(sec5, sec5_cfg_acc, sec5_fam64,
                                      sec5_big_oracle):
    t0 = time.perf_counter()
    samples = sec5_big_oracle
    pts = samples.x[int(np.argmin(np.abs(samples.times - 0.794)))]
    fams = {64: sec5_fam64}
    for nm in (16, 32):
        fams[nm] = pr.build_family(sec5["seed"], sec5["system"], sec5["eps_q"],
                                   nm, sec5_cfg_acc,
                                   spacing=sec5["gamma_spacing"],
                                   sampler_density=sec5["sampler_density"])
    covs = {nm: pr.coverage(fams[nm], 0.794, pts, cells_per_dim=10).fraction
            for nm in (16, 32, 64)}
    elapsed = (time.perf_counter() - t0 + _fixture_cost.get("oracle", 0.0)
               + _fixture_cost.get("fam64", 0.0))
    monotone = covs[16] <= covs[32] + 1e-12 and covs[32] <= covs[64] + 1e-12
    ok = covs[64] >= 0.9 and monotone
    _report(8, ok, 300.0, elapsed,
            f"coverage 16/32/64 members = {covs[16]:.3f}/{covs[32]:.3f}/"
            f"{covs[64]:.3f} over {len(pts)} endpoints "
            f"(needs >= 0.9 at 64, nondecreasing)")


def test_gate9_assumption_diagnostics(sec5, sec5_cfg_acc, sec5_fam64, monkeypatch):
    t0 = time.perf_counter()
    lo, hi = sec5["grid_window"]
    axes = [np.linspace(lo[d], hi[d], 61) for d in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    report = pr.check_assumptions(sec5_fam64, sec5_cfg_acc, probe_grid=grid,
                                  max_rim_points=6)
    clean = (report.bounded_ok and report.falling_ok
             and report.n_boundary_points > 0)
    eps = sec5_fam64.eps_q
    # with no margin, every surface-band point of the real rides is rising
    monkeypatch.setattr(family_mod, "_RATE_MARGIN", np.inf)
    injected = pr.check_assumptions(sec5_fam64, sec5_cfg_acc, probe_grid=grid,
                                    times=[0.5], max_rim_points=2)
    detected = (not injected.falling_ok
                and len(injected.violations) == injected.n_boundary_points > 0
                and all(np.isfinite(v["t"]) and np.all(np.isfinite(v["x"]))
                        and -eps <= v["x_q"] <= 0.0 and v["gamma"] in sec5_fam64.gammas
                        for v in injected.violations))
    elapsed = time.perf_counter() - t0
    ok = clean and detected
    _report(9, ok, 30.0, elapsed,
            f"boundedness ok={report.bounded_ok} (K={report.k_bound:.3g}), "
            f"falling-budget ok={report.falling_ok} over "
            f"{report.n_boundary_points} surface-band points; injected "
            f"violation detected={detected}")
