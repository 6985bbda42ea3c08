"""End-to-end checks with a nonzero input signal.

The input path drives the linear coefficient and the offset quadrature, so
these tests pin the full (E, f, g) coupling: surface contact of optimal
rides and containment of arbitrary-disturbance trajectories both fail by
O(u^2 t) if any sign in the offset-rate matrix is off.
"""

import numpy as np

import parareach as pr

from conftest import energy_rate, reference_params


def test_input_drives_linear_and_offset_parts(driven_tvp):
    assert driven_tvp.escape_time is None
    assert np.ptp(driven_tvp.f_samples, axis=0).min() > 1.0
    assert np.ptp(driven_tvp.g_samples) > 0.1


def test_touching_contact_with_input(driven_system, driven_seed, driven_cfg,
                                     driven_tvp):
    lam, V = np.linalg.eigh(driven_seed.E)
    root = V @ np.diag(1.0 / np.sqrt(lam)) @ V.T
    c = V @ ((V.T @ driven_seed.f) / lam)
    q_min = driven_seed.g - float(c @ driven_seed.E @ c)
    rng = np.random.default_rng(6)
    for _ in range(5):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        level = rng.uniform(0.0, -q_min)
        x0 = c + np.sqrt(-q_min - level) * (root @ d)
        traj = pr.touching_trajectory(driven_tvp, pr.AugmentedState(x0, level),
                                      driven_system, driven_cfg)
        assert np.max(np.abs(traj.h_samples)) <= 1e-8


def test_ride_and_back_trace_round_trip_with_input(driven_system, driven_seed,
                                                  driven_cfg, driven_tvp):
    # the ride stays on the surface of an independent DOP853 solve of the
    # parameters, and tracing back from its end (and from between two nodes)
    # returns to its start
    ref = reference_params(driven_system, driven_seed, driven_tvp.t_end)
    lam, V = np.linalg.eigh(driven_seed.E)
    root = V @ np.diag(1.0 / np.sqrt(lam)) @ V.T
    c = V @ ((V.T @ driven_seed.f) / lam)
    q_min = driven_seed.g - float(c @ driven_seed.E @ c)
    rng = np.random.default_rng(11)
    for _ in range(4):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        level = rng.uniform(0.0, -q_min)
        X0 = pr.AugmentedState(c + np.sqrt(-q_min - level) * (root @ d), level)
        traj = pr.touching_trajectory(driven_tvp, X0, driven_system, driven_cfg)
        E, f, g = ref(traj.grid)
        X = traj.x_samples
        h = (np.einsum("ki,kij,kj->k", X, E, X) - 2.0 * np.sum(f * X, axis=1)
             + g + traj.xq_samples)
        assert np.max(np.abs(h)) <= 1e-8
        t_mid = 0.5 * (traj.grid[117] + traj.grid[118])
        for t_at, x_at in ((float(traj.grid[-1]), traj.x_samples[-1]),
                           (t_mid, traj.state_at(t_mid)[0])):
            back = pr.trace_back_to_seed(driven_tvp, driven_system, driven_cfg,
                                         t_at, x_at)
            assert np.max(np.abs(back.x - X0.x)) <= 1e-8
            assert abs(back.x_q - X0.x_q) <= 1e-8


def test_containment_for_arbitrary_disturbances(driven_system, driven_seed,
                                                driven_tvp):
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(15):
        x = rng.uniform(-0.5, 0.5, size=2)
        while driven_seed.quad(x) > 0:
            x = rng.uniform(-0.5, 0.5, size=2)
        xq = rng.uniform(0.0, -driven_seed.quad(x))
        state = np.concatenate([x, [xq]])
        levels = rng.normal(0.0, 0.6, size=(6, 2))
        n_steps = 600
        dt = 3.0 / n_steps
        for k in range(n_steps):
            t = k * dt
            w = levels[min(int(t // 0.5), 5)]

            def rhs(tt, y):
                ut = driven_system.u(tt)
                dx = (driven_system.A @ y[:2] + driven_system.B @ w
                      + driven_system.Bu @ ut)
                return np.concatenate(
                    [dx, [energy_rate(driven_system, y[:2], ut, w)]])

            k1 = rhs(t, state)
            k2 = rhs(t + dt / 2, state + dt / 2 * k1)
            k3 = rhs(t + dt / 2, state + dt / 2 * k2)
            k4 = rhs(t + dt, state + dt * k3)
            state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            E, f, g = driven_tvp.params_at((k + 1) * dt)
            h = state[:2] @ E @ state[:2] - 2 * f @ state[:2] + g + state[2]
            worst = max(worst, h)
    assert worst <= 1e-6


def test_oracle_bookkeeping_with_input(driven_system, driven_seed):
    from scipy.integrate import cumulative_simpson

    times = np.linspace(0.0, 2.0, 321)
    cfg = pr.OracleConfig(n_trajectories=10, segments=1, w_scale=0.4,
                          seed=3, t_end=2.0, boundary_fraction=0.0)
    samples = pr.sample_admissible(driven_system, driven_seed, cfg,
                                   sample_times=times)
    assert len(samples)
    for j in range(min(5, len(samples))):
        rates = np.array([
            energy_rate(driven_system, x, driven_system.u(t), w)
            for t, x, w in zip(samples.times, samples.x[:, j], samples.w[:, j])])
        recomputed = samples.x_q[0, j] + cumulative_simpson(
            rates, x=samples.times, initial=0.0)
        np.testing.assert_allclose(recomputed, samples.x_q[:, j], atol=1e-8)
