import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parareach as pr
from parareach import touching
from parareach.errors import (ConfigError, DimensionMismatch, NotOnBoundary, OutOfDomain,
                              StepSizeUnderflow)

from conftest import (boundary_state, energy_rate, paraboloid_rate, random_boundary_states,
                      random_iqc_system, reference_ride, reference_trace_back,
                      scale_paraboloid, value_derivative, xq_rate_at_zero)


class TestOptimalDisturbance:
    def test_worked_scalar(self, ex1_system):
        P = pr.Paraboloid([[1.0]], [0.0], 0.0)
        w = pr.optimal_disturbance(P, [2.0], [0.0], ex1_system)
        assert w[0] == pytest.approx(1.0)

    def test_vanishes_at_origin(self, ex1_system):
        P = pr.Paraboloid([[1.0]], [0.0], 0.0)
        assert pr.optimal_disturbance(P, [0.0], [0.0], ex1_system)[0] == 0.0

    def test_worked_planar(self, sec5_system):
        P = pr.Paraboloid(np.eye(2), np.zeros(2), 0.0)
        w = pr.optimal_disturbance(P, [1.0, 1.0], [0.0], sec5_system)
        np.testing.assert_allclose(w, [0.5, 0.5])


class TestValueDerivative:
    """dh/dt assembled from the parameter rates; its maximum over the
    disturbance must vanish, which also pins the sign of the u-block of the
    offset-rate matrix."""

    def _check(self, sys_, rng):
        n, m, p = sys_.n, sys_.m, sys_.p
        E = rng.standard_normal((n, n))
        P = pr.Paraboloid(0.5 * (E + E.T), rng.standard_normal(n),
                          rng.standard_normal())
        x = rng.standard_normal(n)
        u_t = rng.standard_normal(p)
        rate = paraboloid_rate(P, sys_, u_t)
        w_star = pr.optimal_disturbance(P, x, u_t, sys_)
        rng.standard_normal()   # a budget level, which dh/dt does not read
        v0 = value_derivative(P, x, u_t, w_star, sys_, rate)
        delta = rng.standard_normal(m)
        v1 = value_derivative(P, x, u_t, w_star + delta, sys_, rate)
        return v0, v1 - v0 - float(delta @ sys_.Mw @ delta), v1 - v0

    def test_zero_at_maximizer_and_quadratic_drop(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            sys_ = random_iqc_system(rng)
            v0, quad_residual, drop = self._check(sys_, rng)
            assert abs(v0) <= 1e-9
            assert abs(quad_residual) <= 1e-9
            assert drop <= 1e-12  # concavity

    def test_zero_input_systems(self, ex1_system, sec5_system):
        rng = np.random.default_rng(8)
        for sys_ in (ex1_system, sec5_system):
            for _ in range(50):
                v0, quad_residual, _ = self._check(sys_, rng)
                assert abs(v0) <= 1e-10
                assert abs(quad_residual) <= 1e-10


class TestTouchingTrajectory:
    def test_scalar_surface_contact(self, ex1_system, ex1_stable_tvp, ex1_cfg,
                                    ex1_stable_seed):
        X0 = pr.AugmentedState([0.0], -ex1_stable_seed.g)
        traj = pr.touching_trajectory(ex1_stable_tvp, X0, ex1_system, ex1_cfg)
        assert np.max(np.abs(traj.h_samples)) <= 1e-6
        assert traj.grid[-1] == pytest.approx(10.0)

    def test_interior_start_rejected(self, ex1_system, ex1_stable_tvp, ex1_cfg,
                                     ex1_stable_seed):
        X0 = pr.AugmentedState([0.0], -ex1_stable_seed.g - 0.01)
        with pytest.raises(NotOnBoundary):
            pr.touching_trajectory(ex1_stable_tvp, X0, ex1_system, ex1_cfg)

    def test_planar_surface_contact(self, sec5_system, sec5_tvp, sec5_cfg,
                                    sec5_seed):
        rng = np.random.default_rng(1)
        for X0 in random_boundary_states(sec5_seed, 5, rng):
            traj = pr.touching_trajectory(sec5_tvp, X0, sec5_system, sec5_cfg)
            assert np.max(np.abs(traj.h_samples)) <= 1e-6

    def test_maximality_along_trajectory(self, ex1_system, ex1_stable_tvp,
                                         ex1_cfg, ex1_stable_seed):
        rng = np.random.default_rng(4)
        X0 = boundary_state(ex1_stable_seed, [1.0], 0.02)
        traj = pr.touching_trajectory(ex1_stable_tvp, X0, ex1_system, ex1_cfg)
        for _ in range(100):
            t = rng.uniform(0.0, 10.0)
            x, _ = traj.state_at(t)
            P = ex1_stable_tvp(t)
            u_t = ex1_system.u(t)
            rate = paraboloid_rate(P, ex1_system, u_t)
            w_star = pr.optimal_disturbance(P, x, u_t, ex1_system)
            v_star = value_derivative(P, x, u_t, w_star, ex1_system, rate)
            w = rng.standard_normal(1) * 2.0
            v = value_derivative(P, x, u_t, w, ex1_system, rate)
            assert v <= v_star + 1e-9

    def test_overapproximation_for_arbitrary_disturbances(
            self, ex1_system, ex1_stable_tvp, ex1_stable_seed):
        # any admissible-dynamics trajectory started inside stays inside
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(-0.2, 0.2)
            xq = rng.uniform(0.0, max(0.0, -ex1_stable_seed.quad([x])))
            if ex1_stable_seed.quad([x]) + xq > 0:
                continue
            levels = rng.normal(0.0, 0.4, size=8)
            h_worst = -np.inf
            state = np.array([x, xq])
            n_steps = 400
            dt = 10.0 / n_steps
            for k in range(n_steps):
                t = k * dt
                w = np.array([levels[min(int(t // 1.25), 7)]])

                def rhs(tt, y):
                    dx = ex1_system.A @ y[:1] + ex1_system.B @ w
                    return np.concatenate([dx, [energy_rate(ex1_system, y[:1], [0.0], w)]])

                k1 = rhs(t, state)
                k2 = rhs(t + dt / 2, state + dt / 2 * k1)
                k3 = rhs(t + dt / 2, state + dt / 2 * k2)
                k4 = rhs(t + dt, state + dt * k3)
                state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                E, f, g = ex1_stable_tvp.params_at((k + 1) * dt)
                h = state[0] * E[0, 0] * state[0] - 2 * f[0] * state[0] + g + state[1]
                h_worst = max(h_worst, h)
            assert h_worst <= 1e-6


class TestTouchTolerance:
    @pytest.mark.parametrize("tol", [np.nan, -1.0, True])
    def test_must_be_nonnegative(self, ex1_system, ex1_stable_tvp, ex1_cfg,
                                 ex1_stable_seed, tol):
        # NaN let a start far off the surface ride, and -1 refused one on it
        X0 = boundary_state(ex1_stable_seed, [1.0], 0.0)
        with pytest.raises(ConfigError):
            pr.touching_trajectory(ex1_stable_tvp, X0, ex1_system, ex1_cfg, touch_tol=tol)

    def test_inf_turns_the_check_off(self, ex1_system, ex1_stable_tvp, ex1_cfg,
                                     ex1_stable_seed):
        off = pr.AugmentedState([0.0], -ex1_stable_seed.g - 0.01)
        with pytest.raises(NotOnBoundary):
            pr.touching_trajectory(ex1_stable_tvp, off, ex1_system, ex1_cfg)
        traj = pr.touching_trajectory(ex1_stable_tvp, off, ex1_system, ex1_cfg,
                                      touch_tol=np.inf)
        assert abs(traj.h_samples[0]) > 1e-3


class TestBacktrace:
    def test_round_trip(self, ex1_system, ex1_stable_tvp, ex1_cfg,
                        ex1_stable_seed):
        X0 = boundary_state(ex1_stable_seed, [-1.0], 0.03)
        traj = pr.touching_trajectory(ex1_stable_tvp, X0, ex1_system, ex1_cfg)
        t_mid = 3.0
        x_mid, _ = traj.state_at(t_mid)
        X0_back = pr.trace_back_to_seed(ex1_stable_tvp, ex1_system, ex1_cfg,
                                        t_mid, x_mid)
        np.testing.assert_allclose(X0_back.x, X0.x, atol=1e-7)
        assert X0_back.x_q == pytest.approx(X0.x_q, abs=1e-7)


class TestStackedRows:
    """Stacked rides and back-traces against the node-by-node reference
    (conftest), row by row.  The stack composes the affine step maps written
    out from Phi[:n] and the anchor by a scan, so it rounds differently from
    the reference.  Over 300 random cases built as below (numpy seeds 0-299),
    the gap reached 5.1e-14 of the ride's scale for rides and 1.3e-13 for
    back-traces (which step against the flow's contraction), against 4.2e-14
    and 9.9e-14 stepping one product per node; RTOL leaves room above both."""

    RTOL = 1e-10

    @staticmethod
    def gap(a, b):
        return float(np.max(np.abs(np.asarray(a) - b)) / (1.0 + np.max(np.abs(b))))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_gammas=st.integers(1, 6),
           n_rows=st.integers(1, 8))
    def test_rows_match_reference(self, seed, n_gammas, n_rows):
        rng = np.random.default_rng(seed)
        sys_ = random_iqc_system(rng, sampled_input=True)
        n = sys_.n
        L = rng.standard_normal((n, n))
        E0 = L @ L.T + 0.5 * np.eye(n)
        f0 = rng.standard_normal(n)
        c = np.linalg.solve(E0, f0)
        P0 = pr.Paraboloid(E0, f0, float(c @ E0 @ c) - 1.0)       # rim at q = -1
        # a low escape norm makes the larger scalings escape inside the horizon
        cfg = pr.IntegratorConfig(max_step=0.05, t_end=1.5, escape_norm=50.0)
        gs = np.geomspace(1.0, 30.0, 6)[np.sort(rng.choice(6, n_gammas, replace=False))]
        members = pr.propagate(P0, sys_, cfg, gamma=gs).members
        ride_cfg = pr.IntegratorConfig(max_step=0.05, t_end=float(rng.uniform(0.2, 1.5)))
        rows = rng.integers(0, len(members), n_rows)
        tvps = [members[r] for r in rows]
        X0 = []
        for r in rows:
            d = rng.standard_normal(n)
            X0.append(boundary_state(scale_paraboloid(P0, gs[r]), d / np.linalg.norm(d),
                                     rng.uniform(0.0, gs[r])))

        rides = pr.touching_trajectory(tvps, X0, sys_, ride_cfg, touch_tol=np.inf)
        assert rides.errors == [None] * n_rows
        for r, (tvp, X) in enumerate(zip(tvps, X0)):
            grid, xs, xqs = reference_ride(tvp, X, ride_cfg.t_end)
            traj = rides.row(r)
            np.testing.assert_array_equal(traj.grid, grid)
            assert self.gap(traj.x_samples, xs) <= self.RTOL
            assert self.gap(traj.xq_samples, xqs) <= self.RTOL
            # padded past its last node by repeating it
            assert np.all(rides.x[r, len(grid):] == rides.x[r, len(grid) - 1])
            assert np.all(rides.xq[r, len(grid):] == rides.xq[r, len(grid) - 1])
        one = pr.touching_trajectory(tvps[0], X0[0], sys_, ride_cfg, touch_tol=np.inf)
        grid, xs, xqs = reference_ride(tvps[0], X0[0], ride_cfg.t_end)
        assert self.gap(one.x_samples, xs) <= self.RTOL
        assert self.gap(one.xq_samples, xqs) <= self.RTOL

        # back-traces from random states, their budgets pinned to the
        # surface, at times between nodes, on a node, at the member's end and at 0
        t_at = []
        for tvp in tvps:
            kind = rng.integers(4)
            t_at.append([rng.uniform(0.0, tvp.t_end), tvp.grid[rng.integers(len(tvp.grid))],
                         tvp.t_end, 0.0][kind])
        x_at = rng.standard_normal((n_rows, n))
        backs = pr.trace_back_to_seed(tvps, sys_, cfg, t_at, x_at)
        for tvp, t, x, back in zip(tvps, t_at, x_at, backs):
            x0, xq0 = reference_trace_back(tvp, t, x)
            assert self.gap(back.x, x0) <= self.RTOL
            assert self.gap(back.x_q, xq0) <= self.RTOL
        one = pr.trace_back_to_seed(tvps[0], sys_, cfg, t_at[0], x_at[0])
        x0, xq0 = reference_trace_back(tvps[0], t_at[0], x_at[0])
        assert self.gap(one.x, x0) <= self.RTOL
        assert self.gap(one.x_q, xq0) <= self.RTOL

    @staticmethod
    def escaping_members(rng):
        """A random driven system, a seed, a config with a low escape norm,
        and the members of a stack of six scalings of the seed that are
        defined past t = 0: (system, seed, config, members).  Drawn again
        until a member escapes before another (a quarter of the draws)."""
        cfg = pr.IntegratorConfig(max_step=0.05, t_end=1.5, escape_norm=50.0)
        for _ in range(100):
            sys_ = random_iqc_system(rng, sampled_input=True)
            n = sys_.n
            L = rng.standard_normal((n, n))
            E0 = L @ L.T + 0.5 * np.eye(n)
            f0 = rng.standard_normal(n)
            c = np.linalg.solve(E0, f0)
            P0 = pr.Paraboloid(E0, f0, float(c @ E0 @ c) - 1.0)
            members = [m for m in pr.propagate(P0, sys_, cfg,
                                               gamma=np.geomspace(1.0, 30.0, 6)).members
                       if m.t_end > 0.0]
            ends = [m.t_end for m in members]
            if members and min(ends) < max(ends):
                return sys_, P0, cfg, members
        raise AssertionError("no member escaped in 100 draws")

    @staticmethod
    def starts(rng, P0, members):
        """One random start per member, on its scaled seed's surface."""
        out = []
        for m in members:
            d = rng.standard_normal(P0.dim)
            out.append(boundary_state(scale_paraboloid(P0, m.gamma), d / np.linalg.norm(d),
                                      rng.uniform(0.0, m.gamma)))
        return out

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_row_keeps_its_bits_in_any_stack(self, seed):
        # a row run alone, and the same row in a stack whose other rows run
        # longer, so that steps of 0 pad it: equal bit for bit
        rng = np.random.default_rng(seed)
        sys_, P0, cfg, members = self.escaping_members(rng)
        stack = [members[i] for i in rng.permutation(len(members))]
        short = min(stack, key=lambda m: m.t_end)
        r = stack.index(short)

        X0 = self.starts(rng, P0, stack)
        rides = pr.touching_trajectory(stack, X0, sys_, cfg, touch_tol=np.inf)
        alone = pr.touching_trajectory(short, X0[r], sys_, cfg, touch_tol=np.inf)
        np.testing.assert_array_equal(rides.row(r).x_samples, alone.x_samples)
        np.testing.assert_array_equal(rides.row(r).xq_samples, alone.xq_samples)

        # back-traces from a node (a first leg of length 0) and from between nodes
        for t in (short.grid[rng.integers(1, len(short.grid))], rng.uniform(0.0, short.t_end)):
            t_at = rng.uniform(0.0, [m.t_end for m in stack])
            t_at[r] = t
            x_at = rng.standard_normal((len(stack), sys_.n))
            backs = pr.trace_back_to_seed(stack, sys_, cfg, t_at, x_at)
            one = pr.trace_back_to_seed(short, sys_, cfg, t, x_at[r])
            np.testing.assert_array_equal(backs[r].x, one.x)
            # the budget starts from the value at t_at, which Flow.value rounds
            # otherwise at a single point than in a stack of them
            E, f, g = short.params_at(t)
            terms = abs(x_at[r] @ E @ x_at[r]) + 2.0 * abs(f @ x_at[r]) + abs(g)
            assert abs(backs[r].x_q - one.x_q) <= 8.0 * np.finfo(float).eps * terms

    # Over 1,500 random cases built as below (numpy seeds 0-1499) the gap
    # reached 1.9e-13 of the row's largest |x| for rides and 3.8e-15 for
    # back-traces; the bound leaves ten times the worst
    SCAN_RTOL = 2e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_sweep_against_extended_precision(self, seed):
        # the states of every ride and back-trace, composed by the scan,
        # against a node-by-node run of the same step maps in np.longdouble
        rng = np.random.default_rng(seed)
        sys_, P0, cfg, members = self.escaping_members(rng)
        sweeps = []
        sweep = touching._sweep

        def record(flow, j, t, E, f, dt, x0):
            out = sweep(flow, j, t, E, f, dt, x0)
            sweeps.append((flow.ride(j, t, E, f, dt)[:2], x0, out[0]))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(touching, "_sweep", record)
            pr.touching_trajectory(members, self.starts(rng, P0, members), sys_, cfg,
                                   touch_tol=np.inf)
            t_at = [m.grid[rng.integers(len(m.grid))] if rng.integers(2)
                    else rng.uniform(0.0, m.t_end) for m in members]
            pr.trace_back_to_seed(members, sys_, cfg, t_at,
                                  rng.standard_normal((len(members), sys_.n)))
        assert len(sweeps) == 2
        for (A, c), x0, x in sweeps:
            A, c = A.astype(np.longdouble), c.astype(np.longdouble)
            ref = np.empty(x.shape, dtype=np.longdouble)
            ref[:, 0] = x0
            for i in range(A.shape[1]):
                ref[:, i + 1] = (A[:, i] @ ref[:, i, :, None])[..., 0] + c[:, i]
            scale = np.max(np.abs(ref), axis=(1, 2))
            gap = np.max(np.abs(x - ref), axis=(1, 2)) / scale
            assert np.all(gap[np.isfinite(scale)] <= self.SCAN_RTOL)

    def test_row_failures_stay_in_their_row(self, ex1_system, ex1_escape_seed, ex1_cfg):
        stack = pr.propagate(ex1_escape_seed, ex1_system, ex1_cfg, gamma=[1.0, 2.0])
        tvps = list(stack.members)
        starts = [pr.AugmentedState([0.0], -ex1_escape_seed.g),
                  pr.AugmentedState([0.0], -2.0 * ex1_escape_seed.g)]
        off = pr.AugmentedState([0.0], -ex1_escape_seed.g - 0.01)
        rides = pr.touching_trajectory(tvps + tvps[:1], starts + [off], ex1_system, ex1_cfg)
        assert rides.errors[:2] == [None, None]
        assert isinstance(rides.errors[2], NotOnBoundary)
        for r in range(2):
            alone = pr.touching_trajectory(tvps[r], starts[r], ex1_system, ex1_cfg)
            np.testing.assert_array_equal(rides.row(r).grid, alone.grid)
        # the unscaled member escapes near t = 2.49, before the start time
        backs = pr.trace_back_to_seed(tvps, ex1_system, ex1_cfg, [5.0, 5.0], [[0.1], [0.1]])
        with pytest.raises(OutOfDomain) as alone:
            pr.trace_back_to_seed(tvps[0], ex1_system, ex1_cfg, 5.0, [0.1])
        assert isinstance(backs[0], OutOfDomain) and str(backs[0]) == str(alone.value)
        assert isinstance(backs[1], pr.AugmentedState)

    @pytest.mark.parametrize("call", ["tolerances", "starts", "times", "states"])
    def test_one_entry_per_row(self, ex1_system, ex1_stable_seed, ex1_cfg, call):
        # two entries for three rows ended in a numpy ValueError
        tvps = list(pr.propagate(ex1_stable_seed, ex1_system, ex1_cfg,
                                 gamma=[1.0, 1.5, 2.0]).members)
        X0 = pr.AugmentedState([0.0], -ex1_stable_seed.g)
        calls = {
            "tolerances": lambda: pr.touching_trajectory(tvps, [X0] * 3, ex1_system, ex1_cfg,
                                                         touch_tol=[1.0, 1.0]),
            "starts": lambda: pr.touching_trajectory(tvps, [X0] * 2, ex1_system, ex1_cfg),
            "times": lambda: pr.trace_back_to_seed(tvps, ex1_system, ex1_cfg, [1.0] * 2,
                                                   [[0.1]] * 3),
            "states": lambda: pr.trace_back_to_seed(tvps, ex1_system, ex1_cfg, [1.0] * 3,
                                                    [[0.1]] * 2),
        }
        with pytest.raises(DimensionMismatch):
            calls[call]()

    def test_non_finite_trace_stays_in_its_row(self, ex1_system, ex1_stable_seed, ex1_cfg):
        # a state far outside the set traces back to a budget that is not finite
        tvps = list(pr.propagate(ex1_stable_seed, ex1_system, ex1_cfg, gamma=[1.0, 1.5]).members)
        backs = pr.trace_back_to_seed(tvps, ex1_system, ex1_cfg, [1.0, 1.0], [[0.1], [1e300]])
        one = pr.trace_back_to_seed(tvps[0], ex1_system, ex1_cfg, 1.0, [0.1])
        np.testing.assert_array_equal(backs[0].x, one.x)
        assert backs[0].x_q == one.x_q
        assert isinstance(backs[1], StepSizeUnderflow)
        with pytest.raises(StepSizeUnderflow):
            pr.trace_back_to_seed(tvps[1], ex1_system, ex1_cfg, 1.0, [1e300])


class TestSystemCheck:
    def test_equal_copy_accepted(self, ex1_stable_tvp, ex1_cfg, ex1_stable_seed):
        copy = pr.system_from_json(ex1_stable_tvp.flow.system.to_json())
        X0 = pr.AugmentedState([0.0], -ex1_stable_seed.g)
        traj = pr.touching_trajectory(ex1_stable_tvp, X0, copy, ex1_cfg)
        pr.trace_back_to_seed(ex1_stable_tvp, copy, ex1_cfg, 1.0, traj.state_at(1.0)[0])

    def test_other_system_rejected(self, ex1_stable_tvp, ex1_cfg, ex1_stable_seed):
        other = pr.make_system([[-2.0]], [[1.0]], [[0.0]], np.diag([1.0, 1.0, -2.0]))
        X0 = pr.AugmentedState([0.0], -ex1_stable_seed.g)
        with pytest.raises(DimensionMismatch):
            pr.touching_trajectory(ex1_stable_tvp, X0, other, ex1_cfg)
        with pytest.raises(DimensionMismatch):
            pr.trace_back_to_seed(ex1_stable_tvp, other, ex1_cfg, 1.0, [0.1])

    def test_rows_on_different_flows_rejected(self, ex1_system, ex1_stable_tvp, ex1_cfg,
                                              ex1_stable_seed):
        again = pr.propagate(ex1_stable_seed, ex1_system, ex1_cfg)    # its own Flow
        X0 = pr.AugmentedState([0.0], -ex1_stable_seed.g)
        with pytest.raises(DimensionMismatch):
            pr.touching_trajectory([ex1_stable_tvp, again], [X0, X0], ex1_system, ex1_cfg)
        with pytest.raises(DimensionMismatch):
            pr.trace_back_to_seed([ex1_stable_tvp, again], ex1_system, ex1_cfg,
                                  [1.0, 1.0], [[0.1], [0.1]])


class TestBudgetRate:
    @settings(max_examples=40, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           sampled=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_engine_rate_matches_scalar(self, dims, sampled, seed):
        # Flow.rate, the quadratic form the rides integrate, against the
        # energy rate of the optimal disturbance, at nodes and between them.
        # The disturbance cancels terms of the size of E x - f, which grows
        # near a blow-up, so the two agree to 1e-12 of the magnitude of every
        # term summed: z' |M| z, z = [|x|; |u|; |w|] with |w| bounded termwise
        rng = np.random.default_rng(seed)
        sys_ = random_iqc_system(rng, *dims, sampled_input=sampled)
        E0 = rng.standard_normal((sys_.n, sys_.n))
        P0 = pr.Paraboloid(0.5 * (E0 + E0.T), rng.standard_normal(sys_.n),
                           rng.standard_normal())
        cfg = pr.IntegratorConfig(max_step=0.05, t_end=1.5)
        gammas = rng.uniform(0.5, 3.0, size=3)
        member = pr.propagate(P0, sys_, cfg, gamma=gammas).members[rng.integers(3)]
        ts = np.concatenate([rng.uniform(0.0, member.t_end, 6),
                             rng.choice(member.grid, 3)])
        xs = rng.standard_normal((len(ts), sys_.n))
        E, f, g = member.params_at_many(ts)
        flow = member.flow
        rates = flow.rate(flow.piece_of(ts), ts, xs, E, f)
        for t, x, Et, ft, gt, rate in zip(ts, xs, E, f, g, rates):
            u_t = sys_.u(t)
            w = pr.optimal_disturbance(pr.Paraboloid(Et, ft, gt), x, u_t, sys_)
            ref = energy_rate(sys_, x, u_t, w)
            ax, au = np.abs(x), np.abs(u_t)
            aw = np.abs(sys_.Mw_inv) @ (np.abs(sys_.B.T) @ (np.abs(Et) @ ax + np.abs(ft))
                                        + np.abs(sys_.Mxw.T) @ ax + np.abs(sys_.Muw.T) @ au)
            z = np.concatenate([ax, au, aw])
            assert abs(rate - ref) <= 1e-12 * (1.0 + z @ np.abs(sys_.M) @ z)

    def test_zero_state_zero_rate(self, ex1_system):
        P0 = pr.Paraboloid([[1.0]], [0.0], -0.06)
        X = pr.AugmentedState([0.0], 0.0)
        for g in (1.0, 2.0, 3.3):
            assert xq_rate_at_zero(P0, g, X, ex1_system) == 0.0

    def test_worked_scalar_quadratic(self, ex1_system):
        P0 = pr.Paraboloid([[1.0]], [0.0], -0.06)
        X = pr.AugmentedState([1.0], 0.0)
        for g in (0.5, 1.0, 2.0, 3.0):
            assert xq_rate_at_zero(P0, g, X, ex1_system) == pytest.approx(
                1.0 - g * g / 2.0)

    def test_quadratic_exactness(self, sec5_system, sec5_seed):
        rng = np.random.default_rng(12)
        for _ in range(10):
            X = pr.AugmentedState(rng.uniform(-50, 50, size=2), 0.0)
            r = [xq_rate_at_zero(sec5_seed, g, X, sec5_system)
                 for g in (1.0, 2.0, 3.0)]
            a = 0.5 * (r[2] - 2 * r[1] + r[0])
            b = r[1] - r[0] - 3 * a
            c = r[0] - a - b
            g4 = 4.0
            pred = a * g4 * g4 + b * g4 + c
            actual = xq_rate_at_zero(sec5_seed, g4, X, sec5_system)
            assert actual == pytest.approx(pred, rel=1e-10, abs=1e-12)

    def test_leading_coefficient_negative(self, sec5_system, sec5_seed):
        rng = np.random.default_rng(13)
        for _ in range(20):
            X = pr.AugmentedState(rng.uniform(-80, 80, size=2), 0.0)
            if np.linalg.norm(sec5_seed.E @ X.x) < 1e-12:
                continue
            r = [xq_rate_at_zero(sec5_seed, g, X, sec5_system)
                 for g in (1.0, 2.0, 3.0)]
            a = 0.5 * (r[2] - 2 * r[1] + r[0])
            assert a < 0.0
