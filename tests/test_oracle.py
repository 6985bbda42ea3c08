import hashlib
import multiprocessing
import os
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

import parareach as pr
from parareach.errors import ConfigError, DimensionMismatch, RejectionStarvation
from parareach import oracle, riccati
from parareach.oracle import (_feedback, _form_terms, _integrate_batch, _map_step, _quad,
                              _rk4_step, _stage_forms, _steered_w, _step_maps, _times)
from parareach.presets import load_preset

from conftest import (energy_rate, random_iqc_system, reference_integrate_batch,
                      with_scipy_spline)


@pytest.fixture(scope="module")
def ex1_small_family(ex1_system, ex1_stable_seed, ex1_cfg):
    return pr.build_family(ex1_stable_seed, ex1_system, 6e-5, 4, ex1_cfg)


class TestSampling:
    def test_deterministic_under_fixed_seed(self, ex1_system, ex1_stable_seed,
                                            ex1_small_family):
        cfg = pr.OracleConfig(n_trajectories=200, segments=4, w_scale=0.5,
                              seed=123, t_end=2.0)
        a, b = (pr.sample_admissible(ex1_system, ex1_stable_seed, cfg,
                                     family=ex1_small_family)
                for _ in range(2))
        assert len(a) == len(b) > 0
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.x_q, b.x_q)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.h, b.h)

    def test_seed_changes_draws(self, ex1_system, ex1_stable_seed):
        outs = []
        for seed in (1, 2):
            cfg = pr.OracleConfig(n_trajectories=50, segments=4, w_scale=0.5,
                                  seed=seed, t_end=1.0)
            outs.append(pr.sample_admissible(ex1_system, ex1_stable_seed, cfg))
        assert not np.array_equal(outs[0].x[:, 0], outs[1].x[:, 0])

    def test_zero_disturbance_always_admissible(self, ex1_system,
                                                ex1_stable_seed):
        # nonnegative state weight: the budget can only grow without w
        cfg = pr.OracleConfig(n_trajectories=100, segments=2, w_scale=0.0,
                              seed=5, t_end=3.0, boundary_fraction=0.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg)
        assert len(samples) == 100
        assert np.all(np.diff(samples.x_q, axis=0) >= -1e-12)

    def test_hard_drain_rejected(self, ex1_system, ex1_stable_seed):
        # a first-segment kick this large must drain any seed budget
        cfg = pr.OracleConfig(n_trajectories=64, segments=2, w_scale=4000.0,
                              seed=5, t_end=3.0, boundary_fraction=0.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg)
        assert len(samples) < 64

    def test_starvation_raises(self):
        # state weight hugely negative: the budget drains immediately
        sys_ = pr.make_system([[-1.0]], [[1.0]], [[0.0]],
                              np.diag([-1e8, 1.0, -2.0]))
        P0 = pr.Paraboloid([[1.0]], [0.0], -1.0)
        cfg = pr.OracleConfig(n_trajectories=2000, segments=2, w_scale=0.1,
                              seed=3, t_end=5.0, boundary_fraction=0.0)
        with pytest.raises(RejectionStarvation):
            pr.sample_admissible(sys_, P0, cfg)

    def test_unsteered_family_rows_owned_by_member_zero(self, ex1_system, ex1_stable_seed,
                                                       ex1_small_family):
        # a family but no steered draws: every row is plain, and h is the
        # value function of the family's first member
        cfg = pr.OracleConfig(n_trajectories=60, segments=4, w_scale=0.5,
                              seed=9, t_end=1.0, boundary_fraction=0.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg,
                                       family=ex1_small_family)
        member = ex1_small_family.members[0]
        assert len(samples) > 0
        for t, xs, xqs, hs in zip(samples.times, samples.x, samples.x_q, samples.h):
            P = pr.Paraboloid(*member.params_at(t))
            want = [pr.value_function(P, pr.AugmentedState(x, xq)) for x, xq in zip(xs, xqs)]
            np.testing.assert_allclose(hs, want, rtol=0, atol=1e-12)

    def test_initial_states_inside_seed(self, ex1_system, ex1_stable_seed):
        cfg = pr.OracleConfig(n_trajectories=300, segments=2, w_scale=0.3,
                              seed=17, t_end=0.5, boundary_fraction=0.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg)
        for x, xq in zip(samples.x[0], samples.x_q[0]):
            X0 = pr.AugmentedState(x, xq)
            assert pr.value_function(ex1_stable_seed, X0) <= 1e-12
            assert X0.x_q >= 0.0


def random_seed_paraboloid(rng, dim, zero_f=False, g_sign=-1.0):
    """A random positive definite seed, its center and its budget cap
    c' E0 c - g, computed without the oracle's eigendecomposition."""
    L = rng.standard_normal((dim, dim))
    E = L @ L.T + 0.1 * np.eye(dim)
    f = np.zeros(dim) if zero_f else rng.standard_normal(dim)
    P0 = pr.Paraboloid(E, f, g_sign * rng.uniform(0.01, 2.0))
    c = np.linalg.solve(E, f)
    return P0, c, float(c @ E @ c) - P0.g


class TestSeedSampler:
    """Initial states are uniform in the solid seed set
    {(x, x_q): x_q >= 0, q(x) + x_q <= 0}: x_q / cap is Beta(1, dim/2 + 1),
    and the whitened radius of x over that of its slice, to the power dim,
    is U(0, 1)."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 3), n=st.integers(1, 400), zero_f=st.booleans(),
           g_sign=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_draws_lie_in_the_seed(self, dim, n, zero_f, g_sign, seed):
        rng = np.random.default_rng(seed)
        P0, c, cap = random_seed_paraboloid(rng, dim, zero_f, g_sign)
        tol = 1e-9 * (abs(P0.g) + float(c @ P0.E @ c))  # cap's rounding: either sign within
        try:
            x, xq = oracle._draw_initial_states(P0, n, rng)
        except RejectionStarvation:     # no state with a nonnegative budget
            assert cap <= tol
            return
        assert cap >= -tol and x.shape == (n, dim) and xq.shape == (n,)
        q = np.einsum("ni,ij,nj->n", x, P0.E, x) - 2.0 * x @ P0.f + P0.g
        assert np.all((xq >= 0.0) & (xq <= cap))
        assert np.all(q + xq <= 1e-12 * (1.0 + cap + np.abs(q)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_law(self, dim):
        rng = np.random.default_rng(dim)
        P0, c, cap = random_seed_paraboloid(rng, dim)
        x, xq = oracle._draw_initial_states(P0, 20_000, rng)
        s = xq / cap
        assert scipy.stats.kstest(s, scipy.stats.beta(1.0, dim / 2 + 1.0).cdf).pvalue > 1e-3
        d = x - c
        radius = (np.einsum("ni,ij,nj->n", d, P0.E, d) / (cap - xq)) ** (dim / 2)
        assert scipy.stats.kstest(radius, "uniform").pvalue > 1e-3


class TestEnergyBookkeeping:
    def test_budget_matches_quadrature(self, ex1_system, ex1_stable_seed):
        # single segment keeps the integrand smooth on the whole horizon
        times = np.linspace(0.0, 2.0, 321)
        cfg = pr.OracleConfig(n_trajectories=20, segments=1, w_scale=0.4,
                              seed=21, t_end=2.0, boundary_fraction=0.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg,
                                       sample_times=times)
        assert len(samples)
        for j in range(min(10, len(samples))):
            rates = np.array([
                energy_rate(ex1_system, x, [0.0], w)
                for x, w in zip(samples.x[:, j], samples.w[:, j])])
            recomputed = samples.x_q[0, j] + cumulative_simpson(
                rates, x=samples.times, initial=0.0)
            np.testing.assert_allclose(recomputed, samples.x_q[:, j], atol=1e-8)


class TestSoundness:
    def test_no_membership_violations(self, ex1_system, ex1_stable_seed,
                                      ex1_small_family):
        times = [0.91, 2.0, 5.0, 10.0]
        cfg = pr.OracleConfig(n_trajectories=800, segments=8, w_scale=1.0,
                              seed=33, t_end=10.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg,
                                       family=ex1_small_family,
                                       sample_times=times)
        for t in times:
            k = int(np.argmin(np.abs(samples.times - t)))
            margins = pr.membership_margins(ex1_small_family, t, samples.x[k],
                                            samples.x_q[k])
            assert margins.max() <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), driven=st.booleans())
    def test_random_systems(self, seed, driven):
        # a random positive definite seed whose center value is -1; every
        # admissible endpoint lies in the intersection at every saved time
        # inside its domain.  A starved sampler skips the example.
        rng = np.random.default_rng(seed)
        sys_ = random_iqc_system(rng, sampled_input=driven)
        L = rng.standard_normal((sys_.n, sys_.n))
        E0, f0 = L @ L.T + 0.1 * np.eye(sys_.n), rng.standard_normal(sys_.n)
        c = np.linalg.solve(E0, f0)
        P0 = pr.Paraboloid(E0, f0, float(c @ E0 @ c) - 1.0)
        icfg = pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.01, t_end=1.0)
        fam = pr.build_family(P0, sys_, 1e-3, 8, icfg)
        cfg = pr.OracleConfig(n_trajectories=1000, seed=seed % 2**31, t_end=1.0)
        try:
            samples = pr.sample_admissible(sys_, P0, cfg, family=fam)
        except RejectionStarvation:
            event("RejectionStarvation")
            return
        for k in np.flatnonzero(samples.times <= fam.t_max):
            xq, xq_max = samples.x_q[k], pr.xq_max_at(fam, samples.times[k], samples.x[k])
            assert np.all(xq - xq_max <= 1e-8 * (1.0 + np.abs(xq) + np.abs(xq_max)))

    def test_owner_diagnostic_nonpositive(self, ex1_system, ex1_stable_seed,
                                          ex1_small_family):
        cfg = pr.OracleConfig(n_trajectories=200, segments=4, w_scale=0.5,
                              seed=2, t_end=5.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg,
                                       family=ex1_small_family)
        assert np.nanmax(samples.h) <= 1e-7

    def test_owner_value_constant_while_riding(self, ex1_system, ex1_stable_seed,
                                               ex1_small_family):
        # every draw is steered without noise and none is released before
        # 0.25 t_end; until then h is the owner's value along the owner's
        # maximizing ride, which the flow keeps constant
        cfg = pr.OracleConfig(n_trajectories=200, segments=8, w_scale=0.5,
                              seed=2, t_end=2.0, boundary_fraction=1.0,
                              noise_rel=0.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg,
                                       family=ex1_small_family)
        riding = samples.times <= 0.25 * cfg.t_end
        assert len(samples) > 0 and np.count_nonzero(riding) >= 3
        assert np.ptp(samples.h[riding], axis=0).max() <= 1e-10


class TestEscapedMember:
    def test_rides_released_past_escape(self, ex1_system, ex1_escape_seed, ex1_cfg):
        # the unscaled member escapes near t = 2.49, inside the horizon; a ride
        # on it must be released there, not carried on its last node into
        # overflow, which would silently drop the draw
        fam = pr.build_family(ex1_escape_seed, ex1_system, 3e-5, 5, ex1_cfg,
                              gammas=[1.0, 1.6, 2.2, 2.7, 3.3])
        assert fam.members[0].escape_time < 10.0
        cfg = pr.OracleConfig(n_trajectories=2000, segments=8, w_scale=0.3,
                              seed=3, t_end=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            samples = pr.sample_admissible(ex1_system, ex1_escape_seed, cfg,
                                           family=fam, sample_times=[0.91, 1.62])
        assert np.all(np.isfinite(samples.x)) and np.all(samples.x_q >= 0.0)
        assert len(samples) == 1124


class TestCoverage:
    def test_single_endpoint_covers_one_cell(self, ex1_small_family):
        rep = pr.coverage(ex1_small_family, 1.0, np.array([[0.05]]),
                          cells_per_dim=10, window=([-0.5], [0.5]))
        assert rep.n_covered_cells <= 1
        assert rep.fraction <= 1.0 / max(rep.n_inside_cells, 1)

    def test_empty_endpoints_zero_coverage(self, ex1_small_family):
        rep = pr.coverage(ex1_small_family, 1.0, np.zeros((0, 1)),
                          cells_per_dim=10, window=([-0.5], [0.5]))
        assert rep.fraction == 0.0
        assert len(rep.gaps) == rep.n_inside_cells > 0

    def test_dense_oracle_covers_scalar_slice(self, ex1_system,
                                              ex1_stable_seed,
                                              ex1_small_family):
        cfg = pr.OracleConfig(n_trajectories=3000, segments=8, w_scale=1.0,
                              seed=7, t_end=1.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg,
                                       family=ex1_small_family,
                                       sample_times=[0.91])
        k = int(np.argmin(np.abs(samples.times - 0.91)))
        rep = pr.coverage(ex1_small_family, 0.91, samples.x[k], cells_per_dim=10)
        assert rep.fraction >= 0.9

    def test_no_endpoints_no_window_is_config_error(self, ex1_small_family):
        with pytest.raises(ConfigError):
            pr.coverage(ex1_small_family, 1.0, np.zeros((0, 1)))

    def test_bad_cells_or_window_is_config_error(self, ex1_small_family):
        pts = np.array([[0.05]])
        for cells in (0, -2):
            with pytest.raises(ConfigError):
                pr.coverage(ex1_small_family, 1.0, pts, cells_per_dim=cells)
        for window in (([0.5], [0.5]), ([0.5], [-0.5]), ([-np.inf], [0.5]),
                       ([-0.5], [np.nan])):
            with pytest.raises(ConfigError):
                pr.coverage(ex1_small_family, 1.0, pts, window=window)

    @pytest.mark.parametrize("cells", [3.0, 2.5, np.float64(4.0), True, False, "3", np.nan, -1])
    def test_cells_must_be_integers(self, ex1_small_family, cells):
        with pytest.raises(ConfigError):
            pr.coverage(ex1_small_family, 1.0, np.array([[0.05]]), cells_per_dim=cells,
                        window=([-0.5], [0.5]))

    @pytest.mark.parametrize("window", [([-0.5, -0.5], [0.5, 0.5]), ([], []), (-0.5, 0.5),
                                        ([-0.5], [0.5], [1.5])],
                             ids=["too-long", "too-short", "scalars", "three-rows"])
    def test_window_is_one_pair_of_rows(self, ex1_small_family, window):
        # a (lo, hi) pair of shape (2, n): a longer one lost its extra axes
        # silently, a shorter one ended in an IndexError
        with pytest.raises(DimensionMismatch):
            pr.coverage(ex1_small_family, 1.0, np.array([[0.05]]), window=window)

    @pytest.mark.parametrize("pts", [np.zeros(5), np.zeros((5, 2))])
    def test_endpoints_must_be_rows(self, ex1_small_family, pts):
        with pytest.raises(DimensionMismatch):
            pr.coverage(ex1_small_family, 1.0, pts, window=([-0.5], [0.5]))

    def test_report_json(self, ex1_small_family):
        rep = pr.coverage(ex1_small_family, 1.0, np.array([[0.05]]),
                          cells_per_dim=4, window=([-0.5], [0.5]))
        payload = rep.to_json()
        assert set(payload) >= {"fraction", "gaps", "n_inside_cells"}


class TestConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            pr.OracleConfig(n_trajectories=0)
        with pytest.raises(ConfigError):
            pr.OracleConfig(n_trajectories=10, segments=0)
        with pytest.raises(ConfigError):
            pr.OracleConfig(n_trajectories=10, boundary_fraction=1.5)
        for bad in ({"seed": -1}, {"t_end": np.nan}, {"t_end": np.inf},
                    {"w_scale": np.nan}, {"w_scale": np.inf}, {"noise_rel": np.nan},
                    {"noise_rel": -np.inf}):
            with pytest.raises(ConfigError):
                pr.OracleConfig(n_trajectories=10, **bad)

    @pytest.mark.parametrize("bad", [{"n_trajectories": 2.5}, {"n_trajectories": True},
                                     {"segments": 2.5}, {"segments": np.float64(3.0)},
                                     {"seed": 2.5}, {"seed": True}, {"noise_rel": -1.0},
                                     {"t_end": True}, {"w_scale": True}, {"noise_rel": np.nan},
                                     {"boundary_fraction": np.nan}, {"segments": -1},
                                     {"boundary_fraction": True}])
    def test_rejects_non_integers_and_negative_noise(self, bad):
        with pytest.raises(ConfigError):
            pr.OracleConfig(**{"n_trajectories": 10, **bad})

    def test_numpy_integer_counts(self, ex1_system, ex1_stable_seed):
        cfg = pr.OracleConfig(n_trajectories=np.int64(10), segments=np.int32(2),
                              seed=np.uint8(0))
        plain = pr.OracleConfig(n_trajectories=10, segments=2)
        assert samples_digest(pr.sample_admissible(ex1_system, ex1_stable_seed, cfg)) == (
            samples_digest(pr.sample_admissible(ex1_system, ex1_stable_seed, plain)))

    @pytest.mark.parametrize("bad", [{"t_end": [1.0, 2.0]}, {"w_scale": [1.0]},
                                     {"boundary_fraction": [0.5]}])
    def test_fields_are_numbers(self, bad):
        # an array passed construction and failed in the sampler
        with pytest.raises(DimensionMismatch):
            pr.OracleConfig(**{"n_trajectories": 10, **bad})

    def test_nan_sample_time(self, ex1_system, ex1_stable_seed):
        # NaN passed both bounds and was sampled nowhere: 0 of 50 draws, no error
        cfg = pr.OracleConfig(n_trajectories=50, t_end=1.0)
        with pytest.raises(ConfigError):
            pr.sample_admissible(ex1_system, ex1_stable_seed, cfg, sample_times=[0.5, np.nan])

    def test_sample_times_outside_horizon(self, ex1_system, ex1_stable_seed):
        cfg = pr.OracleConfig(n_trajectories=10, t_end=1.0)
        for bad in ([1.5], [-0.1]):
            with pytest.raises(ConfigError):
                pr.sample_admissible(ex1_system, ex1_stable_seed, cfg, sample_times=bad)


def quadratic_reference(X, M, Y):
    """Rowwise X[k] @ M @ Y[k], as one einsum."""
    return np.einsum("ki,ij,kj->k", X, M, Y)


def qform_reference(sys_, X, u_t, W):
    """The budget rate [x; u; w]' M [x; u; w] on row-layout batches, written
    with einsum: the reference for the stage forms' ``_quad``."""
    out = quadratic_reference(X, sys_.Mx, X)
    out += quadratic_reference(W, sys_.Mw, W)
    if sys_.p:
        out += (2.0 * X @ (sys_.Mxu @ u_t) + float(u_t @ sys_.Mu @ u_t)
                + 2.0 * W @ (sys_.Muw.T @ u_t))
    if sys_.Mxw.size:
        out += 2.0 * quadratic_reference(X, sys_.Mxw, W)
    return out


def steered_w_reference(sys_, E, f, X, u_t, noise):
    """The steered disturbance on row-layout batches from the parameters E
    and f, written with einsum: the reference for ``_steered_w`` of the
    feedback tables."""
    V = np.einsum("kij,kj->ki", E, X) - f
    V = V @ sys_.B + X @ sys_.Mxw
    if sys_.p:
        V = V + u_t @ sys_.Muw
    w = -(V @ sys_.Mw_inv)
    scale = np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-3)
    return w + scale * noise


class TestStageKernels:
    """The column-layout stage kernels round each column alone: the whole
    batch, the batch in shuffled order and each column on its own give the
    same bits.  The state rate and the budget rate of one stage form
    (``_times`` and ``_quad``), and the steered disturbance of the feedback
    tables (``_steered_w``), agree with the row-layout einsum references,
    the last written with E and f, to within c * eps times the same form on
    the operands' absolute values, with c = 4 (n + p + m)^2, which grows like
    the count of rounded operations per entry and leaves room: the largest
    error in 3000 random cases was 8% of the bound.  The kernels skip zero
    coefficients; the references compute all of them."""

    @settings(max_examples=80, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           rows=st.integers(1, 40), zero_mxw=st.booleans(), zeros=st.booleans(),
           zero_u=st.booleans(), contiguous=st.booleans(), seed=st.integers(0, 2**32 - 1),
           preset=st.none())
    @example(dims=(2, 2, 1), rows=7, zero_mxw=True, zeros=False, zero_u=False,
             contiguous=True, seed=0, preset=None)
    # a one-row batch, a product with one output column (n > 1, m = 1), and
    # the input terms' products with a vector
    @example(dims=(3, 3, 3), rows=1, zero_mxw=False, zeros=False, zero_u=False,
             contiguous=True, seed=1, preset=None)
    @example(dims=(2, 1, 1), rows=3, zero_mxw=False, zeros=False, zero_u=False,
             contiguous=True, seed=0, preset=None)
    @example(dims=(1, 3, 3), rows=5, zero_mxw=False, zeros=False, zero_u=False,
             contiguous=True, seed=3, preset=None)
    @example(dims=(2, 2, 1), rows=50, zero_mxw=False, zeros=False, zero_u=True,
             contiguous=True, seed=1, preset="sec5")
    @example(dims=(2, 2, 1), rows=50, zero_mxw=False, zeros=False, zero_u=False,
             contiguous=False, seed=2, preset="sec5")
    def test_kernels_match_einsum(self, dims, rows, zero_mxw, zeros, zero_u, contiguous,
                                  seed, preset):
        rng = np.random.default_rng(seed)
        sys_ = load_preset(preset)["system"] if preset else random_iqc_system(rng, *dims)
        n, m, p = sys_.n, sys_.m, sys_.p
        M = sys_.M.copy()
        if zero_mxw:
            M[:n, n + p:] = 0.0
            M[n + p:, :n] = 0.0
        if zeros:
            # a symmetric pattern of exact zeros, diagonal included; the
            # w-block's diagonal is then made dominant to stay negative definite
            Z = np.triu(rng.random(M.shape) < 0.5)
            M[Z | Z.T] = 0.0
            Mw = M[n + p:, n + p:]
            np.fill_diagonal(Mw, -1.0 - np.abs(Mw).sum(axis=1))
        sys_ = pr.make_system(sys_.A, sys_.B, sys_.Bu, M)

        def batch(*shape):
            # magnitudes over eight decades, and one all-zero row of several
            a = rng.standard_normal((rows,) + shape) * 10.0 ** rng.uniform(
                -4, 4, size=(rows,) + shape)
            if rows > 1:
                a[0] = 0.0
            return a

        def col(a):
            # the batch axis last
            a = np.moveaxis(a, 0, -1)
            return np.ascontiguousarray(a) if contiguous else a

        X, W, E, f, noise = batch(n), batch(m), batch(n, n), batch(n), batch(m)
        u_t = np.zeros(p) if zero_u else rng.standard_normal(p)
        R, Q = _stage_forms(sys_, u_t[None])
        (rate_terms, quad_terms), = _form_terms(R, Q)
        K, k = (a[0] for a in _feedback(sys_, E[:, None], f[:, None], u_t[None]))

        def v(sel):
            return [*col(X)[..., sel], *col(W)[..., sel], 1.0]

        def rate(sel):
            return _times(rate_terms, v(sel))

        def qform(sel):
            return _quad(quad_terms, v(sel))

        def steered(sel):
            return _steered_w(K[..., sel], k[..., sel], col(X)[..., sel], col(noise)[..., sel])

        shuffled = rng.permutation(rows)
        for kernel in (rate, qform, steered):
            whole = kernel(slice(None))
            assert np.array_equal(kernel(shuffled), whole[..., shuffled])
            for j in range(rows):
                assert np.array_equal(kernel([j]), whole[..., [j]])

        c_eps = 4 * (n + p + m) ** 2 * np.finfo(float).eps
        mag = SimpleNamespace(p=p, **{a: np.abs(getattr(sys_, a)) for a in (
            "A", "B", "Bu", "Mx", "Mxu", "Mxw", "Mu", "Muw", "Mw", "Mw_inv")})
        bound = c_eps * (np.abs(X) @ mag.A.T + np.abs(W) @ mag.B.T + np.abs(u_t) @ mag.Bu.T)
        want = X @ sys_.A.T + W @ sys_.B.T + u_t @ sys_.Bu.T
        assert np.all(np.abs(rate(slice(None)).T - want) <= bound)
        bound = c_eps * qform_reference(mag, np.abs(X), np.abs(u_t), np.abs(W))
        assert np.all(np.abs(qform(slice(None)) - qform_reference(sys_, X, u_t, W)) <= bound)
        w_mag = ((np.einsum("kij,kj->ki", np.abs(E), np.abs(X)) + np.abs(f)) @ mag.B
                 + np.abs(X) @ mag.Mxw + np.abs(u_t) @ mag.Muw) @ mag.Mw_inv
        bound = c_eps * (w_mag + np.abs(noise) * np.linalg.norm(w_mag, axis=1, keepdims=True))
        w = steered(slice(None)).T
        assert np.all(np.abs(w - steered_w_reference(sys_, E, f, X, u_t, noise)) <= bound)


# The constant of the step maps' bounds: in 2000 random cases of
# TestStepMaps, checked at every node, the largest state error was 10% of its
# bound and the largest budget error 1.3% of its bound.
MAP_C = 4.0


def map_tolerances(sys_, steps, ref_x, ref_xq, W, U):
    """Per column, the bounds on the state and budget differences of a
    map-stepped batch from the reference: MAP_C * eps * steps times the
    column's magnitude, the largest |x| at a node plus the largest |w| and
    |u|, and for the budgets, its largest |x_q| plus max |M| times the
    magnitude squared.  ``ref_x`` (S, N, n) and ``ref_xq`` (S, N) hold the
    reference at every node, W (steps, m, N) and U (stages, p)."""
    mag = (1.0 + np.abs(ref_x).max(axis=(0, 2)) + np.abs(W).max(axis=(0, 1), initial=0.0)
           + np.abs(U).max(initial=0.0))
    c = MAP_C * np.finfo(float).eps * steps
    return c * mag, c * (np.abs(ref_xq).max(axis=0) + np.abs(sys_.M).max() * mag ** 2)


class TestStepMaps:
    """A plain row's map step is the classical RK4 step rounded otherwise.
    On random systems (dims 1 to 3, m = 0 included, dense M with nonzero
    Mxw, with and without input at random stage times) over a grid of
    unequal steps, made by inserting save times, the map-stepped batch
    agrees with the stage-wise reference within the bounds of
    ``map_tolerances``: MAP_C * eps * steps times the magnitudes of the
    states and budgets.  The admitted masks agree wherever the reference's
    smallest budget lies farther than that bound from 0."""

    @settings(max_examples=80, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3)),
           rows=st.integers(1, 60), driven=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(dims=(1, 0, 1), rows=5, driven=True, seed=0)
    def test_maps_match_stagewise_rk4(self, dims, rows, driven, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_iqc_system(rng, *dims)
        n, m, p = sys_.n, sys_.m, sys_.p
        inserted = rng.uniform(0.0, 0.2, size=int(rng.integers(1, 8)))
        grid = np.unique(np.concatenate([np.linspace(0.0, 0.2, 17), inserted]))
        save_idx = np.unique(np.searchsorted(grid, np.concatenate([[0.0, 0.2], inserted])))
        steps = len(grid) - 1
        U = rng.standard_normal((2 * steps + 1, p))
        if driven:                              # zero at some stage times
            U[rng.random(len(U)) < 0.3] = 0.0
        else:
            U[:] = 0.0
        X0, XQ0 = rng.standard_normal((n, rows)), rng.uniform(-0.1, 1.0, rows)
        W = rng.standard_normal((steps, m, rows))

        def source(cols):
            return lambda i, ti, X, XQ: W[i][:, cols]

        R, Q = _stage_forms(sys_, U)
        *got, ok = _integrate_batch(sys_, X0, XQ0, grid, source, save_idx,
                                    _map_step(*_step_maps(R, Q, grid)))
        ref_x, ref_xq, ref_w, ref_ok = reference_integrate_batch(
            sys_, X0, XQ0, grid, source(np.arange(rows)), np.arange(len(grid)), U)
        tol_x, tol_q = map_tolerances(sys_, steps, ref_x, ref_xq, W, U)
        clear = np.abs(ref_xq.min(axis=0)) > tol_q
        assert np.array_equal(ok[clear], ref_ok[clear])
        x, xq, w = (a[:, ref_ok[ok]] for a in got)       # admitted by both
        cols = np.flatnonzero(ok & ref_ok)
        assert np.all(np.abs(x - ref_x[save_idx][:, cols]) <= tol_x[cols, None])
        assert np.all(np.abs(xq - ref_xq[save_idx][:, cols]) <= tol_q[cols])
        assert np.array_equal(w, ref_w[save_idx][:, cols])


class TestRowBlocks:
    """Trajectories never mix in the RK4: the whole batch, the batch in
    shuffled order, and interleaved blocks of any size, one row included,
    that drop their rejected rows at the saved nodes, give the bits of the
    whole batch integrated to the end, for plain rows (map steps) and
    steered rows (stage-wise steps, from random feedback tables), with and
    without input.  This is what lets a batch run in forked blocks, and a
    steered block hold its rows in release order."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3)),
           rows=st.integers(1, 300), steered=st.booleans(), driven=st.booleans(),
           budgets=st.sampled_from(["mixed", "one live", "none live"]),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_match_whole_batch(self, dims, rows, steered, driven, budgets, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_iqc_system(rng, *dims)
        n, m, p = sys_.n, sys_.m, sys_.p
        steered = steered and m > 0                 # no steering without w
        grid = np.linspace(0.0, 0.2, 17)
        # the first and last nodes and a random set between: the blocks drop
        # their rejected rows at random steps
        inner = rng.choice(np.arange(1, 16), size=int(rng.integers(0, 8)), replace=False)
        save_idx = np.sort(np.concatenate([[0, 16], inner]))
        n_stage = 2 * len(grid) - 1                 # nodes, then midpoints
        U = rng.standard_normal((n_stage, p)) * (driven & (rng.random((n_stage, 1)) < 0.8))
        # column layout: the batch axis last
        X0, XQ0 = rng.standard_normal((n, rows)), rng.uniform(-0.1, 0.5, rows)
        if budgets != "mixed":                      # rejected from the start
            XQ0 = -rng.uniform(0.0, 1.0, rows) - 1e-3
        if budgets == "one live":
            XQ0[rng.integers(rows)] = 1e6
        W = rng.standard_normal((len(grid) - 1, m, rows))
        K, k = rng.standard_normal((n_stage, m, n, rows)), rng.standard_normal((n_stage, m, rows))
        noise = 0.05 * rng.standard_normal((m, rows))
        R, Q = _stage_forms(sys_, U)
        step = _rk4_step(grid, R, Q) if steered else _map_step(*_step_maps(R, Q, grid))
        calls = []

        def source(sel):                            # the disturbance of rows ``sel``
            def w_of(i, ti, X, XQ):
                calls.append(ti)
                if steered:
                    return _steered_w(K[ti][..., sel], k[ti][:, sel], X, noise[:, sel])
                return W[i][:, sel]
            return w_of

        *want, want_ok = reference_integrate_batch(sys_, X0, XQ0, grid, source(np.arange(rows)),
                                                   save_idx, U, step)
        b = int(rng.integers(1, rows + 1))
        shuffled = rng.permutation(rows)            # a block in any row order
        for block in [np.arange(rows), shuffled] + [np.arange(j, rows, b) for j in range(b)]:
            calls.clear()
            *got, ok = _integrate_batch(sys_, X0[:, block], XQ0[block], grid,
                                        lambda cols: source(block[cols]), save_idx, step)
            assert np.array_equal(ok, want_ok[block])
            for g, w in zip(got, want):
                assert np.array_equal(g, w[:, block[ok]])
            if budgets == "none live":              # saves node 0, then stops
                assert calls == [0]


class BlockFailure(Exception):
    """Raised inside a forked block."""


class TableBuildFailure(Exception):
    """Raised by the stage-table build."""


def run_in_daemon(fn):
    """fn() in a forked daemonic process, as a pool worker is; returns its
    result, or fails with the child's error."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def target():
        try:
            send.send((True, fn()))
        except Exception as e:
            send.send((False, repr(e)))

    proc = ctx.Process(target=target, daemon=True)
    proc.start()
    assert recv.poll(300), "no result from the daemonic process"
    ok, value = recv.recv()
    proc.join(60)
    assert not proc.is_alive()
    assert ok, value
    return value


class TestWorkers:
    """Forked blocks and the cases that run inline."""

    @pytest.fixture
    def forkable(self, monkeypatch):
        # three usable CPUs and blocks of two rows: only the inline cases
        # keep a run from forking; returns the forks, counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(oracle, "_MIN_BLOCK_ROWS", 2)
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            return real_fork()
        monkeypatch.setattr(os, "fork", fork)
        return forks

    @staticmethod
    def sample(ex1_system, ex1_stable_seed, ex1_small_family):
        cfg = pr.OracleConfig(n_trajectories=40, segments=2, seed=1, t_end=0.5)
        return pr.sample_admissible(ex1_system, ex1_stable_seed, cfg, family=ex1_small_family)

    def test_block_exception_reaches_caller(self, forkable, monkeypatch, ex1_system,
                                            ex1_stable_seed, ex1_small_family):
        def fail(*args):
            raise BlockFailure("injected")

        monkeypatch.setattr(oracle, "_steered_w", fail)
        assert oracle._worker_count() == 3
        with pytest.raises(BlockFailure):
            self.sample(ex1_system, ex1_stable_seed, ex1_small_family)
        assert forkable and multiprocessing.active_children() == []

    def test_draw_error_reaches_caller(self, forkable, monkeypatch, ex1_system,
                                       ex1_stable_seed, ex1_small_family):
        def starve(*args):
            raise RejectionStarvation("injected")

        monkeypatch.setattr(oracle, "_draw_initial_states", starve)
        with pytest.raises(RejectionStarvation, match="injected"):
            self.sample(ex1_system, ex1_stable_seed, ex1_small_family)
        assert not forkable

    def test_table_error_reaches_caller(self, forkable, monkeypatch, ex1_system,
                                        ex1_stable_seed, ex1_small_family):
        def fail(self, tq):
            raise TableBuildFailure("injected")

        monkeypatch.setattr(pr.ParaboloidFamily, "params_at_many", fail)
        with pytest.raises(TableBuildFailure, match="injected"):
            self.sample(ex1_system, ex1_stable_seed, ex1_small_family)
        assert not forkable

    def test_daemonic_worker_runs_inline(self, forkable, driven_system, driven_seed):
        def pin():
            assert oracle._worker_count() == 0
            TestFixedSeedPins().test_driven_family(driven_system, driven_seed)

        run_in_daemon(pin)
        assert multiprocessing.active_children() == []

    def test_second_thread_runs_inline(self, forkable, monkeypatch, driven_system,
                                       driven_seed):
        def no_fork():
            raise AssertionError("forked beside a live thread")

        monkeypatch.setattr(os, "fork", no_fork)
        errors = []

        def pin():
            try:
                assert oracle._worker_count() == 0
                TestFixedSeedPins().test_driven_family(driven_system, driven_seed)
            except Exception as e:
                errors.append(e)

        thread = threading.Thread(target=pin)
        thread.start()
        thread.join(300)
        assert not thread.is_alive()
        assert not errors, errors


class TestReleaseOrder:
    """Each steered block holds its rows by descending ride count, so at
    every stage time the rows still riding, those before their switch time
    and within their member's interval of definition, lead the block."""

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda: 3)
        monkeypatch.setattr(oracle, "_MIN_BLOCK_ROWS", 2)
        monkeypatch.setattr(oracle, "_map_blocks",      # inline: the spies see the blocks
                            lambda run, n_blocks, workers: [run(b) for b in range(n_blocks)])

    @staticmethod
    def riding_lead(monkeypatch, pin):
        seen = {}

        def ride_stages(stage_t, switch_t, defined, member_of):
            seen.update(stage_t=stage_t, switch_t=switch_t, defined=defined,
                        member_of=member_of)
            return real_stages(stage_t, switch_t, defined, member_of)

        def row_blocks(rows, workers, key=None):
            blocks = real_blocks(rows, workers, key)
            if key is not None:
                seen["blocks"] = blocks
            return blocks
        real_stages, real_blocks = oracle._ride_stages, oracle._row_blocks
        monkeypatch.setattr(oracle, "_ride_stages", ride_stages)
        monkeypatch.setattr(oracle, "_row_blocks", row_blocks)
        pin()
        assert len(seen["blocks"]) == 3
        split = 0                   # block stages with riding and released rows
        for rows in seen["blocks"]:
            t, switch = seen["stage_t"], seen["switch_t"][rows]
            defined = seen["defined"][seen["member_of"][rows]]
            riding = (t[:, None] < switch) & defined.T           # (stages, rows)
            lead = np.arange(len(rows)) < riding.sum(axis=1, keepdims=True)
            assert np.array_equal(riding, lead)
            split += np.count_nonzero(riding.any(axis=1) & ~riding.all(axis=1))
        return split

    def test_sec5_family(self, monkeypatch, sec5_system, sec5_seed, sec5_cfg):
        assert self.riding_lead(monkeypatch, lambda: sec5_pin_samples(
            sec5_system, sec5_seed, sec5_cfg)) > 0

    def test_ex1_family_releases(self, monkeypatch, ex1_cfg):
        assert self.riding_lead(monkeypatch, lambda: ex1_pin_samples(ex1_cfg)) > 0


def samples_digest(samples):
    h = hashlib.sha256()
    for a in (samples.times, samples.x, samples.x_q, samples.w, samples.h):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def sec5_pin_samples(sec5_system, sec5_seed, sec5_cfg):
    sec5 = load_preset("sec5")
    fam = pr.build_family(sec5_seed, sec5_system, sec5["eps_q"], 64, sec5_cfg,
                          spacing=sec5["gamma_spacing"],
                          sampler_density=sec5["sampler_density"])
    cfg = pr.OracleConfig(n_trajectories=2000, segments=8, w_scale=1.0,
                          seed=42, t_end=1.0)
    return pr.sample_admissible(sec5_system, sec5_seed, cfg, family=fam,
                                sample_times=[0.794])


def ex1_pin_samples(ex1_cfg):
    # n = m = 1 with an escaping member: the release path is live
    ex1 = load_preset("ex1-family")
    fam = pr.build_family(ex1["seed"], ex1["system"], ex1["eps_q"], ex1["n_members"],
                          ex1_cfg, gammas=ex1["gammas"],
                          sampler_density=ex1["sampler_density"])
    cfg = pr.OracleConfig(n_trajectories=2000, segments=8, w_scale=0.3,
                          seed=3, t_end=10.0)
    return pr.sample_admissible(ex1["system"], ex1["seed"], cfg, family=fam,
                                sample_times=ex1["times"])


def driven_pin_samples(driven_system, driven_seed):
    # nonzero Mxw, input and f: every term of the stage kernels is live
    icfg = pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.01,
                               t_end=2.0)
    fam = pr.build_family(driven_seed, driven_system, 5e-4, 6, icfg)
    cfg = pr.OracleConfig(n_trajectories=3000, seed=7, t_end=2.0)
    return pr.sample_admissible(driven_system, driven_seed, cfg, family=fam,
                                sample_times=[0.7, 1.3])


class TestFixedSeedPins:
    """Fixed-seed samples pinned by length and a sha256 of their columns, as
    the oracle's step maps (plain rows) and coordinate-row stage kernels
    (steered rows) produced them on x86-64 (numpy 2.4), with the family's
    exponentials from parareach._expm and the driven input's spline from
    parareach.signals.  Any change to the step arithmetic, the draw order,
    the row order, the exponentials or the spline changes the digest."""

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        # inline: one block per batch
        monkeypatch.setattr(oracle, "_worker_count", lambda: 0)

    def test_sec5_family(self, sec5_system, sec5_seed, sec5_cfg):
        samples = sec5_pin_samples(sec5_system, sec5_seed, sec5_cfg)
        assert len(samples) == 1144
        assert samples_digest(samples) == (
            "dea58f7c97729c3529c04d589db0d595c8c5a7563318d79b9e4957d50f2ad990")

    def test_ex1_family_releases(self, ex1_cfg):
        samples = ex1_pin_samples(ex1_cfg)
        assert len(samples) == 1124
        assert samples_digest(samples) == (
            "41dc41c842c2c38b8dff61279ca8bd09fbe92a04385bd9385b7d847bbf98c71c")

    def test_driven_family(self, driven_system, driven_seed):
        samples = driven_pin_samples(driven_system, driven_seed)
        assert len(samples) == 2117
        assert samples_digest(samples) == (
            "8a7994d5705f260d09d061d8a5500304b2387e0e7f1da4ec69f7744c065170c4")


class TestTinyBatchPins:
    """Batches of one, two and three draws on the driven system, pinned as
    the oracle produced them inline: each has a one-row plain block and a
    live input."""

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda: 0)

    @pytest.fixture(scope="class")
    def driven_family(self, driven_system, driven_seed):
        icfg = pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.01,
                                   t_end=2.0)
        return pr.build_family(driven_seed, driven_system, 5e-4, 6, icfg)

    @pytest.mark.parametrize("draws, length, digest", [
        (1, 1, "8a824db0143c6b2e321c58f5e4baac07bd3d181254582c6f4c958f4070595005"),
        (2, 2, "fc3f1309cb9848a787256b0a5a8a50e43c311dada575801b5d10a1edfbac2d5f"),
        (3, 2, "783e177461cde15b915de45db1d98cb2b11dd3aa26d11ab008a9223e171cd92e"),
    ], ids=["1-draw", "2-draws", "3-draws"])
    def test_driven_family(self, driven_system, driven_seed, driven_family, draws, length,
                           digest):
        cfg = pr.OracleConfig(n_trajectories=draws, seed=7, t_end=2.0)
        samples = pr.sample_admissible(driven_system, driven_seed, cfg, family=driven_family,
                                       sample_times=[0.7, 1.3])
        assert len(samples) == length
        assert samples_digest(samples) == digest


class TestTinyBatchPinsForked(TestTinyBatchPins):
    """The same pins from three forked workers with blocks of one row: the
    2- and 3-draw batches run in one-row blocks."""

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda: 3)
        monkeypatch.setattr(oracle, "_MIN_BLOCK_ROWS", 1)


# Bound on the column differences between the two engines' pinned samples,
# relative to 1 + |value|; the largest seen is 1.5e-12 (sec5, w).
ENGINE_RTOL = 1e-10


class TestScipyEnginePins:
    """The same pins with the family's exponentials from scipy.linalg.expm
    and, for the driven input, the spline from scipy's CubicSpline (the
    engine before parareach had its own): the digests that engine pinned,
    bit for bit.  The samples of parareach's own engine agree with them in
    length and, column by column, within ENGINE_RTOL."""

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda: 0)

    @staticmethod
    def under_scipy_expm(monkeypatch, run):
        with monkeypatch.context() as m:
            m.setattr(riccati, "expm", scipy.linalg.expm)
            return run()

    @staticmethod
    def assert_close(ours, theirs):
        assert len(ours) == len(theirs)
        for name in ("times", "x", "x_q", "w", "h"):
            a, b = getattr(ours, name), getattr(theirs, name)
            assert np.array_equal(np.isnan(a), np.isnan(b)), name
            ok = ~np.isnan(b)
            assert np.all(np.abs(a[ok] - b[ok]) <= ENGINE_RTOL * (1.0 + np.abs(b[ok]))), name

    def test_sec5_family(self, monkeypatch, sec5_system, sec5_seed, sec5_cfg):
        def run():
            return sec5_pin_samples(sec5_system, sec5_seed, sec5_cfg)

        theirs = self.under_scipy_expm(monkeypatch, run)
        assert len(theirs) == 1144
        assert samples_digest(theirs) == (
            "fda729b483261616ede31adb92c455ed9b190ecd8c68273f415d5038376df6f9")
        self.assert_close(run(), theirs)

    def test_ex1_family_releases(self, monkeypatch, ex1_cfg):
        theirs = self.under_scipy_expm(monkeypatch, lambda: ex1_pin_samples(ex1_cfg))
        assert len(theirs) == 1124
        assert samples_digest(theirs) == (
            "198cc1faddd15893663eb528137ba5d2cc5703316ae4a2612a0cf718f5f65472")
        self.assert_close(ex1_pin_samples(ex1_cfg), theirs)

    def test_driven_family(self, monkeypatch, driven_system, driven_seed):
        theirs = self.under_scipy_expm(monkeypatch, lambda: driven_pin_samples(
            with_scipy_spline(driven_system), driven_seed))
        assert len(theirs) == 2117
        assert samples_digest(theirs) == (
            "5d4e7defd8da36c650b5d212377d83ad9df809af52d2281a6084502843a36ebd")
        self.assert_close(driven_pin_samples(driven_system, driven_seed), theirs)


class TestFixedSeedPinsForked(TestFixedSeedPins):
    """The same pins from three forked workers, each batch cut into three
    blocks."""

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda: 3)
        monkeypatch.setattr(oracle, "_MIN_BLOCK_ROWS", 2)
