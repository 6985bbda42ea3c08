import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parareach as pr
from parareach import riccati
from parareach.errors import ConfigError, DimensionMismatch, NonPositiveScale, OutOfDomain
from parareach.riccati import _VALUE_BLOCK, Flow

from conftest import (ROOT_HI, ROOT_LO, f_rhs, g_quadrature_matrix, g_rhs,
                      node_rates, random_iqc_system, reference_params,
                      reference_right_half_plane, reference_value, riccati_rhs,
                      scalar_blowup_time, scalar_flow, scale_paraboloid)


class TestRhs:
    def test_equilibria(self, ex1_system):
        for root in (ROOT_LO, ROOT_HI):
            val = riccati_rhs(np.array([[root]]), ex1_system)
            assert abs(val[0, 0]) <= 1e-9

    def test_constant_term(self, ex1_system):
        assert riccati_rhs(np.array([[0.0]]), ex1_system)[0, 0] == pytest.approx(-1.0)

    def test_at_two(self, ex1_system):
        # -0.5*4 + 4 - 1
        assert riccati_rhs(np.array([[2.0]]), ex1_system)[0, 0] == pytest.approx(1.0)

    def test_result_symmetric(self, sec5_system):
        rng = np.random.default_rng(2)
        E = rng.standard_normal((2, 2))
        E = 0.5 * (E + E.T)
        dE = riccati_rhs(E, sec5_system)
        np.testing.assert_array_equal(dE, dE.T)


class TestFRhs:
    def test_zero_fixed_point(self, ex1_system):
        assert f_rhs(np.array([[3.0]]), [0.0], ex1_system, [0.0])[0] == 0.0

    def test_worked_scalar(self, ex1_system):
        # 1 - 1/2 with E = f = 1 and zero input
        val = f_rhs(np.array([[1.0]]), [1.0], ex1_system, [0.0])
        assert val[0] == pytest.approx(0.5)

    def test_worked_planar(self, sec5_system):
        val = f_rhs(np.eye(2), [1.0, 0.0], sec5_system, [0.0])
        np.testing.assert_allclose(val, [0.5, 0.0])


class TestGMatrix:
    # The u-block sign is pinned by the maximality identity (dh/dt at the
    # optimal disturbance must vanish for every state and input); see
    # test_touching.TestValueDerivative for the numerical proof.
    def test_scalar_example(self, ex1_system):
        G = g_quadrature_matrix(ex1_system)
        np.testing.assert_allclose(G, [[-0.5, 0.0], [0.0, -1.0]])

    def test_planar_example(self, sec5_system):
        G = g_quadrature_matrix(sec5_system)
        expected = np.diag([-0.5, -0.5, -1.0])
        np.testing.assert_allclose(G, expected, atol=1e-15)

    def test_zero_gains(self):
        M = np.diag([1.0, 3.0, -2.0])
        sys0 = pr.make_system([[-1.0]], [[0.0]], [[0.0]], M)
        G = g_quadrature_matrix(sys0)
        np.testing.assert_allclose(G, [[0.0, 0.0], [0.0, -3.0]], atol=1e-15)


class TestPropagate:
    def test_stable_matches_closed_form(self, ex1_stable_tvp):
        E10 = ex1_stable_tvp.params_at(10.0)[0][0, 0]
        assert E10 == pytest.approx(scalar_flow(10.0, 1.0), abs=1e-9)
        assert ex1_stable_tvp.escape_time is None

    def test_scalar_oracle_equivalence_along_path(self, ex1_stable_tvp):
        for t in np.linspace(0.0, 10.0, 41):
            E = ex1_stable_tvp.params_at(float(t))[0][0, 0]
            assert E == pytest.approx(scalar_flow(t, 1.0), abs=1e-6)

    def test_escape_detected(self, ex1_system, ex1_escape_seed, ex1_cfg):
        tvp = pr.propagate(ex1_escape_seed, ex1_system, ex1_cfg)
        assert tvp.escape_time is not None
        assert abs(tvp.escape_time - scalar_blowup_time(0.5)) <= 1e-4
        assert tvp.grid[-1] < tvp.escape_time

    @pytest.mark.parametrize("E0", [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.9]]])
    def test_escape_detected_in_plane(self, sec5_system, E0):
        # sec5 is ex1 on each axis.  With E0 = 0.5 I both eigenvalues of E
        # blow up together, so det X keeps its sign across the pole.
        seed = pr.Paraboloid(E0, np.zeros(2), -0.015)
        tvp = pr.propagate(seed, sec5_system, pr.IntegratorConfig(t_end=5.0))
        assert tvp.escape_time is not None
        assert abs(tvp.escape_time - scalar_blowup_time(0.5)) <= 1e-4
        assert tvp.grid[-1] < tvp.escape_time

    def test_seed_dimension_must_match(self, ex1_system, sec5_seed, ex1_cfg):
        with pytest.raises(DimensionMismatch):
            pr.propagate(sec5_seed, ex1_system, ex1_cfg)

    def test_zero_linear_part_stays_zero(self, ex1_stable_tvp):
        assert np.max(np.abs(ex1_stable_tvp.f_samples)) == 0.0
        g = ex1_stable_tvp.g_samples
        np.testing.assert_array_equal(g, np.full_like(g, g[0]))

    def test_node_rates_match_rhs(self, ex1_system, ex1_stable_tvp):
        dE_ref, df_ref, dg_ref = node_rates(ex1_stable_tvp, ex1_system)
        G = g_quadrature_matrix(ex1_system)
        for k in range(0, len(ex1_stable_tvp.grid), 37):
            E = ex1_stable_tvp.E_samples[k]
            f = ex1_stable_tvp.f_samples[k]
            u_t = ex1_system.u(ex1_stable_tvp.grid[k])
            dE = riccati_rhs(E, ex1_system)
            scale = max(np.linalg.norm(dE), 1e-30)
            assert np.linalg.norm(dE_ref[k] - dE) <= 1e-12 * scale
            df = f_rhs(E, f, ex1_system, u_t)
            assert np.allclose(df_ref[k], df, atol=1e-15)
            assert dg_ref[k] == pytest.approx(g_rhs(f, u_t, G), abs=1e-15)

    def test_tolerance_halving_consistency(self, ex1_system, ex1_stable_seed):
        vals = []
        for rt in (1e-9, 5e-10):
            cfg = pr.IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-3,
                                      max_step=0.025, t_end=10.0)
            vals.append(pr.propagate(ex1_stable_seed, ex1_system, cfg)
                        .params_at(10.0)[0][0, 0])
        assert abs(vals[0] - vals[1]) < 10 * 1e-9

    def test_random_scalar_systems_match_closed_form(self):
        # generic scalar quadratic flow: de/dt = a2 e^2 + a1 e + a0 with
        # a2 < 0 and two real roots; solve by partial fractions
        rng = np.random.default_rng(31)
        built = 0
        while built < 5:
            A = rng.uniform(-2.0, 1.0)
            B = rng.uniform(0.3, 2.0)
            mx = rng.uniform(0.2, 2.0)
            mw = -rng.uniform(0.5, 3.0)
            mxw = rng.uniform(-0.5, 0.5)
            sys_ = pr.make_system([[A]], [[B]], [[0.0]],
                                  np.array([[mx, 0.0, mxw],
                                            [0.0, 1.0, 0.0],
                                            [mxw, 0.0, mw]]))
            a2 = B * B / mw
            a1 = -2.0 * A + 2.0 * B * mxw / mw
            a0 = -mx + mxw * mxw / mw
            disc = a1 * a1 - 4.0 * a2 * a0
            if disc <= 0.01:
                continue
            r_small = (-a1 + np.sqrt(disc)) / (2.0 * a2)
            r_big = (-a1 - np.sqrt(disc)) / (2.0 * a2)
            e0 = r_big + rng.uniform(-0.3, 0.5) * (r_big - r_small)
            if e0 < r_small + 0.05 * (r_big - r_small):
                continue
            built += 1
            cfg = pr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13,
                                      max_step=0.02, t_end=3.0)
            tvp = pr.propagate(pr.Paraboloid([[e0]], [0.0], 0.0), sys_, cfg)

            def closed(t):
                if np.isclose(e0, r_small):
                    return r_small
                rho0 = (e0 - r_big) / (e0 - r_small)
                rho = rho0 * np.exp(a2 * (r_big - r_small) * t)
                return (r_big - r_small * rho) / (1.0 - rho)

            for t in np.linspace(0.0, 3.0, 13):
                assert tvp.params_at(float(t))[0][0, 0] == pytest.approx(
                    closed(t), abs=1e-6)

    def test_planar_diagonalizes(self, sec5_tvp, sec5_seed):
        # A = -I and commuting blocks: eigenvalues follow the scalar flow
        lam0 = np.linalg.eigvalsh(sec5_seed.E)
        E = sec5_tvp.params_at(0.794)[0]
        lam = np.linalg.eigvalsh(E)
        expected = sorted(scalar_flow(0.794, l0) for l0 in lam0)
        np.testing.assert_allclose(lam, expected, atol=1e-8)


class TestDenseOutput:
    def test_seed_exact(self, ex1_stable_tvp, ex1_stable_seed):
        P = ex1_stable_tvp(0.0)
        np.testing.assert_array_equal(P.E, ex1_stable_seed.E)
        assert P.g == ex1_stable_seed.g

    def test_grid_point_exact(self, ex1_stable_tvp):
        k = len(ex1_stable_tvp.grid) // 2
        t = float(ex1_stable_tvp.grid[k])
        E, f, g = ex1_stable_tvp.params_at(t)
        np.testing.assert_array_equal(E, ex1_stable_tvp.E_samples[k])
        assert g == ex1_stable_tvp.g_samples[k]

    def test_between_grid_points_accurate(self, ex1_stable_tvp):
        ts = 0.5 * (ex1_stable_tvp.grid[:-1] + ex1_stable_tvp.grid[1:])
        for t in ts[::25]:
            E = ex1_stable_tvp.params_at(float(t))[0][0, 0]
            assert E == pytest.approx(scalar_flow(t, 1.0), abs=1e-7)

    def test_midpoints_match_reference_with_input(self, driven_system,
                                                  driven_seed, driven_tvp):
        # dense output between nodes must be as accurate as the nodes, here
        # against an independent DOP853 solve of the same (E, f, g) flow
        from scipy.integrate import solve_ivp

        G = g_quadrature_matrix(driven_system)

        def rhs(t, y):
            E, f, u_t = y[:4].reshape(2, 2), y[4:6], driven_system.u(t)
            z = np.concatenate([f, u_t])
            return np.concatenate([riccati_rhs(E, driven_system).ravel(),
                                   f_rhs(E, f, driven_system, u_t),
                                   [z @ G @ z]])

        y0 = np.concatenate([driven_seed.E.ravel(), driven_seed.f,
                             [driven_seed.g]])
        grid = driven_tvp.grid
        ref = solve_ivp(rhs, (0.0, grid[-1]), y0, method="DOP853",
                        rtol=1e-13, atol=1e-15, dense_output=True)
        mids = 0.5 * (grid[:-1] + grid[1:])
        E_ref = ref.sol(mids)[:4].T.reshape(-1, 2, 2)
        E_one = np.array([driven_tvp.params_at(float(t))[0] for t in mids])
        np.testing.assert_allclose(E_one, E_ref, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(driven_tvp.params_at_many(mids)[0], E_ref,
                                   rtol=0.0, atol=1e-8)

    def test_out_of_domain(self, ex1_stable_tvp, ex1_system, ex1_cfg):
        for t in (10.5, -0.5, np.nan):
            with pytest.raises(OutOfDomain):
                ex1_stable_tvp.params_at(t)
        with pytest.raises(OutOfDomain):
            pr.trace_back_to_seed(ex1_stable_tvp, ex1_system, ex1_cfg, np.nan, [0.1])

    def test_escape_domain_truncated(self, ex1_system, ex1_escape_seed, ex1_cfg):
        tvp = pr.propagate(ex1_escape_seed, ex1_system, ex1_cfg)
        with pytest.raises(OutOfDomain):
            tvp.params_at(tvp.escape_time + 0.1)
        # the last node ends the bracket, off the step grid, and answers there
        assert tvp.steps[-1] < tvp.steps[-2]
        E, f, g = tvp.params_at(tvp.t_end)
        np.testing.assert_array_equal(E, tvp.E_samples[-1])
        np.testing.assert_array_equal(f, tvp.f_samples[-1])
        assert g == tvp.g_samples[-1]

    def test_sample_invariants(self, sec5_tvp, sec5_seed):
        # packed storage keeps every stored coefficient exactly symmetric,
        # and the offset's first sample is the seed offset
        for k in range(len(sec5_tvp.grid)):
            np.testing.assert_array_equal(sec5_tvp.E_samples[k],
                                          sec5_tvp.E_samples[k].T)
        assert sec5_tvp.g_samples[0] == sec5_seed.g
        assert sec5_tvp.grid[0] == 0.0

    def test_empty_times(self, ex1_stable_tvp):
        E, f, g = ex1_stable_tvp.params_at_many(np.array([]))
        assert (E.shape, f.shape, g.shape) == ((0, 1, 1), (0, 1), (0,))


class TestEngineProperty:
    """The transition-matrix engine against an independent DOP853 solve, on
    random well-posed systems driven by a random sampled input (held constant
    outside its samples), at the nodes and between them."""

    @settings(max_examples=25, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           seed=st.integers(0, 2**32 - 1))
    def test_params_match_reference(self, dims, seed):
        rng = np.random.default_rng(seed)
        base = random_iqc_system(rng, *dims)
        k = int(rng.integers(2, 8))
        times = np.linspace(rng.uniform(-0.2, 0.1), rng.uniform(0.15, 0.7), k)
        u = pr.SampledSignal(times, rng.standard_normal((k, base.p)))
        sys_ = pr.make_system(base.A, base.B, base.Bu, base.M, u=u)
        E0 = rng.standard_normal((base.n, base.n))
        P0 = pr.Paraboloid(0.5 * (E0 + E0.T), rng.standard_normal(base.n),
                           rng.standard_normal())
        tvp = pr.propagate(P0, sys_, pr.IntegratorConfig(max_step=0.02, t_end=0.5))
        if tvp.escape_time is not None:
            return
        ts = np.sort(np.concatenate([tvp.grid, 0.5 * (tvp.grid[1:] + tvp.grid[:-1])]))
        ref = reference_params(sys_, P0, tvp.t_end)(ts)
        got = tvp.params_at_many(ts)
        for a, b in zip(got, ref):
            assert np.all(np.abs(a - b) <= 1e-8 * (1.0 + np.abs(b)))
        mid = 2 * (len(tvp.grid) // 2) - 1          # odd indices are midpoints
        E, f, g = tvp.params_at(float(ts[mid]))
        np.testing.assert_array_equal(E, got[0][mid])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStack:
    """Members stepped as one stack against each scaled seed propagated
    alone: the same grid, nodes, steps and escape time, bit for bit."""

    @staticmethod
    def check_members(P0, sys_, cfg, gammas):
        stack = pr.propagate(P0, sys_, cfg, gamma=gammas)
        assert len(stack.members) == len(gammas)
        for m, g in zip(stack.members, gammas):
            alone = pr.propagate(scale_paraboloid(P0, g), sys_, cfg)
            for a in ("grid", "E_samples", "f_samples", "g_samples", "steps"):
                assert same_bits(getattr(m, a), getattr(alone, a)), a
            assert m.escape_time == alone.escape_time and m.gamma == g
        last = [len(m.grid) - 1 for m in stack.members]
        assert len(stack.grid) == max(last) + 1 and list(stack.last) == last
        E, f, g = stack.nodes
        for r, m in enumerate(stack.members):     # rows padded past the last node
            k = last[r]
            assert m.stack is stack and m.row == r
            assert same_bits(stack.times[r, :k + 1], m.grid)
            assert np.all(stack.times[r, k:] == m.t_end) and stack.t_end[r] == m.t_end
            assert same_bits(stack.steps[r, :k], m.steps) and np.all(stack.steps[r, k:] == 0.0)
            for a, own in zip(stack.nodes, (m.E_samples, m.f_samples, m.g_samples)):
                assert np.all(a[r, k:] == own[-1])
            assert stack.escape[r] == m.escape_time
            for a, whole in ((m.grid, stack.times), (m.steps, stack.steps),
                             (m.E_samples, E), (m.f_samples, f), (m.g_samples, g)):
                assert a.size == 0 or np.shares_memory(a, whole)
        for a in stack.nodes + (stack.times, stack.steps, stack.t_end) + tuple(
                getattr(m, a) for m in stack.members for a in ("grid", "E_samples", "steps")):
            assert not a.flags.writeable
        return [m.escape_time for m in stack.members]

    @settings(max_examples=25, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           seed=st.integers(0, 2**32 - 1))
    def test_random_systems(self, dims, seed):
        rng = np.random.default_rng(seed)
        base = random_iqc_system(rng, *dims)
        k = int(rng.integers(2, 6))
        u = pr.SampledSignal(np.linspace(0.0, 0.6, k), rng.standard_normal((k, base.p)))
        sys_ = pr.make_system(base.A, base.B, base.Bu, base.M, u=u)
        E0 = rng.standard_normal((base.n, base.n))
        P0 = pr.Paraboloid(0.5 * (E0 + E0.T), rng.standard_normal(base.n),
                           rng.standard_normal())
        gammas = np.exp(rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 7))))
        self.check_members(P0, sys_, pr.IntegratorConfig(max_step=0.05, t_end=1.0),
                           gammas)

    def test_scalar_family_escapes(self, ex1_system, ex1_escape_seed, ex1_cfg):
        # only the unscaled member escapes; the stack steps on without it
        escapes = self.check_members(ex1_escape_seed, ex1_system, ex1_cfg,
                                     np.array([1.0, 1.6, 2.2, 2.7, 3.3]))
        assert escapes[0] is not None and escapes[1:] == [None] * 4

    def test_driven_family(self, driven_system, driven_seed, driven_cfg):
        escapes = self.check_members(driven_seed, driven_system, driven_cfg,
                                     np.array([0.3, 1.0, 2.0, 17.0]))
        assert escapes[0] is not None and escapes[1:] == [None] * 3

    def test_rejects_nonpositive_scaling(self, ex1_system, ex1_stable_seed, ex1_cfg):
        for gamma in (0.0, [1.0, -2.0], []):
            with pytest.raises(NonPositiveScale):
                pr.propagate(ex1_stable_seed, ex1_system, ex1_cfg, gamma=gamma)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, [1.0, np.inf]])
    def test_rejects_non_finite_scaling(self, ex1_system, ex1_stable_seed, ex1_cfg, gamma):
        # a finiteness fault, not a sign error
        with pytest.raises(ConfigError):
            pr.propagate(ex1_stable_seed, ex1_system, ex1_cfg, gamma=gamma)


class TestBlowUpTest:
    """The closed-form test that the eigenvalues of the x-block of X lie in
    the open right half-plane, against the eigenvalues themselves."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 2), sampled=st.booleans(),
           max_step=st.sampled_from([0.025, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
    def test_same_stack_as_eigenvalues(self, n, sampled, max_step, seed):
        # random seeds, indefinite ones too, so that some members escape
        rng = np.random.default_rng(seed)
        sys_ = random_iqc_system(rng, n=n, sampled_input=sampled)
        E0 = rng.standard_normal((n, n))
        P0 = pr.Paraboloid(0.5 * (E0 + E0.T), rng.standard_normal(n), rng.standard_normal())
        cfg = pr.IntegratorConfig(max_step=max_step, t_end=1.5)
        gammas = np.geomspace(1.0, 50.0, 6)
        stack = pr.propagate(P0, sys_, cfg, gamma=gammas)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(riccati, "_right_half_plane", reference_right_half_plane)
            ref = pr.propagate(P0, sys_, cfg, gamma=gammas)
        for a, b in zip((stack.times, stack.steps, stack.last) + stack.nodes,
                        (ref.times, ref.steps, ref.last) + ref.nodes):
            assert same_bits(a, b)
        assert stack.escape == ref.escape

    def test_flags_eigenvalues_off_the_right_half_plane(self):
        X = np.array([[[-1.0, 2.0], [-2.0, -1.0]],     # -1 +- 2i
                      [[-1.0, 0.3], [0.2, -2.0]],      # two negative, det > 0
                      [[1.0, 0.5], [0.5, -2.0]],       # one negative, det < 0
                      [[1.0, 2.0], [-2.0, 1.0]],       # 1 +- 2i
                      [[2.0, 0.3], [0.2, 1.0]]])       # two positive
        want = [False, False, False, True, True]
        assert riccati._right_half_plane(X).tolist() == want
        assert reference_right_half_plane(X).tolist() == want
        assert riccati._right_half_plane(np.array([[[0.5]], [[0.0]], [[-1.0]]])).tolist() == [
            True, False, False]


class TestValue:
    """Flow.value against the one-call einsum it replaced, bit for bit, on
    the shapes the library passes, with and without an input basis (which
    makes the embedded Q a strided block)."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           sampled=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bits_match_einsum(self, dims, sampled, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_iqc_system(rng, *dims, sampled_input=sampled)
        flow, n = Flow(sys_, 1.5, 0.1), sys_.n

        def params(*lead):
            E = rng.standard_normal(lead + (n, n))
            f, g = rng.standard_normal(lead + (n,)), rng.standard_normal(lead)
            return E + np.swapaxes(E, -1, -2), f, g

        M, G, K = (int(rng.integers(2, hi)) for hi in (9, 50, 9))
        B = _VALUE_BLOCK + 1        # past one scratch block, so the kernel runs
        # members x grid (a two-point grid trips einsum's per-row sums for n = 1)
        cases = ([(params(M, 1), (G,)), (params(3, 1), (B,)), (params(B, 1), (2,))]
                 + [(params(N), (N,)) for N in (1, 2, 5, 2 * B)]   # per-row stacks
                 + [(params(2, K), (2, K)), (params(2, B), (2, B))]  # rows x nodes
                 + [(params(M, K), (K,)), (params(2, B), (B,))]    # members x times
                 + [(params(), ())])                               # one point
        for (E, f, g), lead in cases:
            x = rng.standard_normal(lead + (n,))
            assert same_bits(flow.value(E, f, g, x), reference_value(flow, E, f, g, x)), lead


class TestConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            pr.IntegratorConfig(rel_tol=-1e-9)
        with pytest.raises(ConfigError):
            pr.IntegratorConfig(t_end=0.0)

    @pytest.mark.parametrize("bad", [{"max_step": True}, {"t_end": True}, {"rel_tol": np.nan},
                                     {"escape_norm": np.inf}, {"abs_tol": -1.0},
                                     {"max_step": "0.1"}])
    def test_fields_are_positive_finite_numbers(self, bad):
        # True was taken as 1, and a string passed to the engine
        with pytest.raises(ConfigError):
            pr.IntegratorConfig(**bad)

    @pytest.mark.parametrize("bad", [{"max_step": [0.1, 0.2]}, {"t_end": [1.0]}])
    def test_fields_are_numbers(self, bad):
        # an array passed construction and failed in the engine
        with pytest.raises(DimensionMismatch):
            pr.IntegratorConfig(**bad)

    def test_rejects_unresolvable_tolerance(self):
        with pytest.raises(ConfigError):
            pr.IntegratorConfig(rel_tol=1e-14)
