import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

import parareach as pr
from parareach.errors import ConfigError, RejectionStarvation


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

    def test_min_admissible_collects(self, ex1_system, ex1_stable_seed):
        cfg = pr.OracleConfig(n_trajectories=50, segments=4, w_scale=0.5,
                              seed=9, t_end=1.0, boundary_fraction=0.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg,
                                       min_admissible=120)
        assert len(samples) == 120
        assert samples.x.shape == (len(samples.times), 120, 1)

    def test_initial_states_inside_seed(self, ex1_system, ex1_stable_seed):
        cfg = pr.OracleConfig(n_trajectories=300, segments=2, w_scale=0.3,
                              seed=17, t_end=0.5, boundary_fraction=0.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg)
        for x, xq in zip(samples.x[0], samples.x_q[0]):
            X0 = pr.AugmentedState(x, xq)
            assert pr.value_function(ex1_stable_seed, X0) <= 1e-12
            assert X0.x_q >= 0.0


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
                ex1_system.energy_rate(x, [0.0], w)
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
        assert len(samples) == 1137


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
