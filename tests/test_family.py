import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import parareach as pr
import parareach.family as family_mod
from parareach.errors import (ConfigError, DimensionMismatch, NotOnBoundary,
                              OutOfDomain, StepSizeUnderflow, UnboundedSlab)
from parareach.presets import load_preset
from parareach.riccati import DOMAIN_TOL
from parareach.touching import Rides

from conftest import (random_iqc_system, reference_band_times, reference_gamma_bar,
                      reference_rate_quadratic, reference_rate_root, sample_slab_states,
                      scalar_flow, xq_rate_at_zero)


@pytest.fixture(scope="module")
def ex1_family(ex1_system, ex1_escape_seed, ex1_cfg):
    """The five-scaling family of the divergent scalar example."""
    return pr.build_family(ex1_escape_seed, ex1_system, 3e-5, 5, ex1_cfg,
                           gammas=[1.0, 1.6, 2.2, 2.7, 3.3])


@pytest.fixture(scope="module")
def sec5_family(sec5_system, sec5_seed, sec5_cfg):
    """The 64-member family of the paper's Section 5 example."""
    sec5 = load_preset("sec5")
    return pr.build_family(sec5_seed, sec5_system, sec5["eps_q"], 64, sec5_cfg,
                           spacing=sec5["gamma_spacing"],
                           sampler_density=sec5["sampler_density"])


def cli_grid(name):
    """The evaluation grid the CLI builds from a preset's window, row-major."""
    preset = load_preset(name)
    lo, hi = preset["grid_window"]
    axes = [np.linspace(a, b, preset["grid_points"]) for a, b in zip(lo, hi)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def member_slice(F, t, xs):
    """Reference slice, member by member: the values -(x'Ex - 2f'x + g) of
    the members defined at t, each from its own dense output at
    min(t, t_end), and the magnitudes of the terms they sum;
    (member indices, values, magnitudes)."""
    idx, rows, sizes = [], [], []
    for i, m in enumerate(F.members):
        if t <= m.t_end * (1 + DOMAIN_TOL) + 1e-15:
            E, f, g = m.params_at(min(t, m.t_end))
            idx.append(i)
            rows.append(-(np.einsum("gi,ij,gj->g", xs, E, xs) - 2.0 * xs @ f + g))
            ax = np.abs(xs)
            sizes.append(np.einsum("gi,ij,gj->g", ax, np.abs(E), ax)
                         + 2.0 * ax @ np.abs(f) + abs(g))
    return np.array(idx, dtype=int), np.array(rows), np.array(sizes)


class TestGammaBar:
    def test_scalar_value_is_sqrt_two(self, ex1_system, ex1_stable_seed):
        gb = pr.gamma_bar(ex1_stable_seed, ex1_system, 6e-5, sampler_density=16)
        assert gb == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_brute_force_oracle_agreement(self, ex1_system, ex1_stable_seed):
        # independent route: dense rim scan plus sign bisection on the rate
        best = 1.0
        for x in np.linspace(-0.3, 0.3, 1201):
            if not (0.0 <= ex1_stable_seed.quad([x]) <= 6e-5):
                continue
            X = pr.AugmentedState([x], 0.0)

            def rate(g):
                return xq_rate_at_zero(ex1_stable_seed, g, X, ex1_system)

            if rate(1.0) < 0.0:
                continue
            lo, hi = 1.0, 8.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if rate(mid) >= 0.0 else (lo, mid)
            best = max(best, lo)
        gb = pr.gamma_bar(ex1_stable_seed, ex1_system, 6e-5, sampler_density=16)
        assert abs(gb - best) < 1e-9

    def test_clamped_when_no_rising_rate(self):
        # state weight negative: every surface ride loses budget immediately
        sys_ = pr.make_system([[-1.0]], [[1.0]], [[0.0]],
                              np.diag([-1.0, 1.0, -2.0]))
        P0 = pr.Paraboloid([[1.0]], [0.0], -0.05)
        assert pr.gamma_bar(P0, sys_, 5e-5, sampler_density=8) == 1.0

    @pytest.mark.parametrize("eps_q", [0.0, -1e-3, np.nan, np.inf])
    def test_eps_q_must_be_positive_and_finite(self, ex1_system, ex1_stable_seed,
                                              ex1_cfg, eps_q):
        with pytest.raises(ConfigError):
            pr.gamma_bar(ex1_stable_seed, ex1_system, eps_q)
        with pytest.raises(ConfigError):
            pr.build_family(ex1_stable_seed, ex1_system, eps_q, 1, ex1_cfg, gammas=[1.0])

    @pytest.mark.parametrize("density", [0, -1, 2.5, True])
    def test_sampler_density_below_one(self, sec5_system, sec5_seed, sec5_cfg, density):
        # density 0 once sampled no rim state and gave 1.0: a one-member family
        with pytest.raises(ConfigError):
            pr.gamma_bar(sec5_seed, sec5_system, 1.5e-5, sampler_density=density)
        with pytest.raises(ConfigError):
            pr.build_family(sec5_seed, sec5_system, 1.5e-5, 4, sec5_cfg,
                            sampler_density=density)

    def test_seed_dimension_must_match(self, sec5_system):
        with pytest.raises(DimensionMismatch):
            pr.gamma_bar(pr.Paraboloid([[1.0]], [0.0], -0.05), sec5_system, 5e-5)

    def test_unbounded_slab(self, ex1_system):
        P0 = pr.Paraboloid([[-1.0]], [0.0], -0.05)
        with pytest.raises(UnboundedSlab):
            pr.gamma_bar(P0, ex1_system, 5e-5)

    def test_planar_golden_value(self, sec5_system, sec5_seed):
        # the soft seed direction dominates: analytic bound sqrt(2)/lambda_min
        gb = pr.gamma_bar(sec5_seed, sec5_system, 1.5e-5, sampler_density=128)
        assert gb == pytest.approx(np.sqrt(2.0) / 1e-6, rel=1e-9)

    def test_consistency_beyond_bound(self, ex1_system, ex1_stable_seed):
        gb = pr.gamma_bar(ex1_stable_seed, ex1_system, 6e-5, sampler_density=16)
        for X in sample_slab_states(ex1_stable_seed, 6e-5, density=16, n_levels=2):
            for g in (gb + 1e-9, 2.0 * gb):
                assert xq_rate_at_zero(ex1_stable_seed, g, X, ex1_system) < 0.0


class TestRateArrays:
    """The batched rate quadratic and gamma_bar keep the bits of the state by
    state reference: every product is a stacked per-row product."""

    @pytest.mark.parametrize("name", ["sec5", "ex1-stable", "ex1-family", "ex1-escape"])
    def test_presets(self, name):
        p = load_preset(name)
        gb = pr.gamma_bar(p["seed"], p["system"], p["eps_q"], p["sampler_density"])
        assert gb == reference_gamma_bar(p["seed"], p["system"], p["eps_q"],
                                         p["sampler_density"])
        if name == "sec5":
            assert gb.hex() == "0x1.594458ff7cc0cp+20"

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           sampled=st.booleans(), density=st.integers(2, 24),
           log_eps=st.floats(-6.0, 0.0), seed=st.integers(0, 2**32 - 1))
    def test_bits_match_reference(self, dims, sampled, density, log_eps, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_iqc_system(rng, *dims, sampled_input=sampled)
        W = rng.standard_normal((sys_.n, sys_.n))
        P0 = pr.Paraboloid(W @ W.T + 0.1 * np.eye(sys_.n), rng.standard_normal(sys_.n),
                           rng.standard_normal())
        eps_q = 10.0 ** log_eps
        xs = family_mod._slab_points(P0, eps_q, density, 3)
        abc = family_mod._rate_quadratic(P0, xs, sys_)
        ref = np.array([reference_rate_quadratic(P0, x, sys_) for x in xs]).reshape(-1, 3)
        for got, want in zip(abc, ref.T):
            assert got.tobytes() == want.tobytes()
        roots = family_mod._rate_roots(P0, xs, sys_)
        assert roots.shape == (len(xs),)
        for root, x in zip(roots, xs):
            assert root.tobytes() == np.float64(reference_rate_root(P0, x, sys_)).tobytes()
        gb = pr.gamma_bar(P0, sys_, eps_q, sampler_density=density)
        assert np.float64(gb).tobytes() == np.float64(
            reference_gamma_bar(P0, sys_, eps_q, density)).tobytes()


class TestBuildFamily:
    def test_explicit_gammas(self, ex1_family):
        np.testing.assert_allclose(ex1_family.gammas, [1.0, 1.6, 2.2, 2.7, 3.3])
        for g, m in zip(ex1_family.gammas, ex1_family.members):
            assert m.gamma == g
            assert m.E_samples[0][0, 0] == pytest.approx(0.5 * g)

    def test_truncated_member_domains(self, ex1_family):
        # only the unscaled member diverges (its seed is below the lower
        # equilibrium); scaling by 1.6 lifts it into the stable region
        escapes = [m.escape_time for m in ex1_family.members]
        assert escapes[0] is not None and escapes[0] < 10.0
        assert all(e is None for e in escapes[1:])

    def test_escape_times_pinned(self, ex1_family, ex1_system, ex1_escape_seed,
                                 ex1_cfg):
        # the ends of the blow-up brackets of members propagated one by one
        escapes = [m.escape_time for m in ex1_family.members]
        assert escapes == [2.4929016113281253] + [None] * 4
        preset = load_preset("ex1-escape")
        fam = pr.build_family(ex1_escape_seed, ex1_system, preset["eps_q"], 16, ex1_cfg)
        assert ([m.escape_time for m in fam.members]
                == [2.4929016113281253, 3.3543823242187503] + [None] * 14)

    def test_singleton(self, ex1_system, ex1_stable_seed, ex1_cfg,
                       ex1_stable_tvp):
        fam = pr.build_family(ex1_stable_seed, ex1_system, 6e-5, 1, ex1_cfg)
        assert len(fam.members) == 1
        grid = np.linspace(-0.4, 0.4, 17)[:, None]
        slc = pr.reach_slice(fam, 5.0, grid)
        E, f, g = ex1_stable_tvp.params_at(5.0)
        expected = -(grid[:, 0] ** 2 * E[0, 0] - 2 * f[0] * grid[:, 0] + g)
        np.testing.assert_allclose(slc.xq_max, expected, atol=1e-12)

    def test_rejects_bad_config(self, ex1_system, ex1_stable_seed, ex1_cfg):
        for kwargs in ({"n_members": 0}, {"n_members": 4, "spacing": "cubic"},
                       {"n_members": 4, "gammas": []},
                       {"n_members": 4, "gammas": [1.0, -2.0]},
                       {"n_members": 4, "gammas": [1.0, np.nan]}):
            with pytest.raises(ConfigError):
                pr.build_family(ex1_stable_seed, ex1_system, 6e-5, cfg=ex1_cfg,
                                **kwargs)

    @pytest.mark.parametrize("n_members", [2.5, True, np.float64(4.0)])
    def test_member_count_is_whole(self, ex1_system, ex1_stable_seed, ex1_cfg, n_members):
        # 2.5 ended in a TypeError, and True was taken as one member
        with pytest.raises(ConfigError):
            pr.build_family(ex1_stable_seed, ex1_system, 6e-5, n_members, ex1_cfg)

    def test_spacing_checked_with_gammas(self, ex1_system, ex1_stable_seed, ex1_cfg):
        # explicit gammas once skipped the spacing check
        with pytest.raises(ConfigError):
            pr.build_family(ex1_stable_seed, ex1_system, 6e-5, 2, ex1_cfg,
                            gammas=[1.0, 2.0], spacing="logg")

    def test_k_bound_is_max_norm(self, ex1_family):
        direct = max(np.max(np.abs(m.E_samples)) for m in ex1_family.members)
        assert ex1_family.K_bound == pytest.approx(direct)


class TestFamilyTable:
    """The family's dense output against each member's own, bit for bit."""

    @staticmethod
    def check_against_members(F, tq):
        E, f, g, defined = F.params_at_many(tq)
        M, T = len(F.members), len(tq)
        assert E.shape[:2] == f.shape[:2] == g.shape == defined.shape == (M, T)
        for k, m in enumerate(F.members):
            ref = m.params_at_many(np.minimum(tq, m.t_end))
            for got, want in zip((E[k], f[k], g[k]), ref):
                np.testing.assert_array_equal(got, want)
        ends = np.array([m.t_end for m in F.members])
        np.testing.assert_array_equal(defined, tq[None, :] <= ends[:, None])
        return ends

    def test_sec5_at_oracle_stage_times(self, sec5_family):
        grid = np.linspace(0.0, 1.0, 401)          # the oracle's RK4 nodes on [0, 1]
        tq = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])
        assert np.all(self.check_against_members(sec5_family, tq) == 1.0)

    def test_escaped_member(self, ex1_family):
        end = ex1_family.members[0].t_end
        tq = np.sort(np.append(np.linspace(0.0, 10.5, 2101), end))
        ends = self.check_against_members(ex1_family, tq)
        assert ends[0] == end < 10.0 and np.all(ends[1:] == 10.0)

    def test_driven_input(self, driven_system, driven_seed, driven_cfg):
        # sampled input: several pieces, f and g move, the smallest scaling escapes
        fam = pr.build_family(driven_seed, driven_system, 1e-3, 1, driven_cfg,
                              gammas=[0.3, 1.0, 2.0])
        ends = self.check_against_members(fam, np.linspace(0.0, 3.0, 1777))
        assert ends[0] < 3.0 and np.all(ends[1:] == 3.0)

    def test_rejects_negative_time(self, ex1_family):
        with pytest.raises(OutOfDomain):
            ex1_family.params_at_many([-0.5, 1.0])


class TestFamilyProperty:
    """Random well-posed systems and seeds (some members escape): the slice
    equals the member-by-member reference and ignores the order in which
    explicit scalings are given.  The slice sums each value in another
    order, so values agree to 1e-13 of the terms' magnitude, and the active
    member wherever the reference's best two are further apart than that."""

    @settings(max_examples=25, deadline=None)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           seed=st.integers(0, 2**32 - 1))
    def test_slice_matches_members_and_order(self, dims, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_iqc_system(rng, *dims)
        E0 = rng.standard_normal((sys_.n, sys_.n))
        P0 = pr.Paraboloid(0.5 * (E0 + E0.T), rng.standard_normal(sys_.n),
                           rng.standard_normal())
        cfg = pr.IntegratorConfig(max_step=0.05, t_end=0.5)
        gammas = rng.uniform(0.5, 3.0, size=int(rng.integers(1, 6)))
        fam = pr.build_family(P0, sys_, 1e-3, 1, cfg, gammas=gammas)
        shuffled = pr.build_family(P0, sys_, 1e-3, 1, cfg,
                                   gammas=list(rng.permutation(gammas)))
        t = float(rng.uniform(0.0, 0.5))
        xs = rng.standard_normal((30, sys_.n))
        idx, vals, sizes = member_slice(fam, t, xs)
        if not len(idx):
            with pytest.raises(OutOfDomain):
                pr.reach_slice(fam, t, xs)
            return
        slc = pr.reach_slice(fam, t, xs)
        tol = 1e-13 * sizes.max(axis=0)
        assert np.all(np.abs(slc.xq_max - vals.min(axis=0)) <= tol)
        two = np.sort(vals, axis=0)[:2]
        clear = (two[-1] - two[0] > 2 * tol) if len(idx) > 1 else np.ones(len(xs), bool)
        np.testing.assert_array_equal(slc.member_argmin[clear],
                                      idx[vals.argmin(axis=0)][clear])
        other = pr.reach_slice(shuffled, t, xs)
        np.testing.assert_array_equal(other.xq_max, slc.xq_max)
        np.testing.assert_array_equal(other.argmin_gamma, slc.argmin_gamma)


def one_state_membership(F, t, x, x_q):
    """(inside, margin) of one state from :func:`membership_margins`: inside
    when its budget is nonnegative and its margin is <= 0."""
    margin = float(pr.membership_margins(F, t, [x], [x_q])[0])
    return (x_q >= 0.0 and margin <= 0.0), margin


class TestMembership:
    def test_negative_budget_outside(self, ex1_family):
        inside, _ = one_state_membership(ex1_family, 0.5, [0.0], -1e-9)
        assert not inside

    def test_seed_interior_inside_at_zero(self, ex1_family, ex1_escape_seed):
        inside, margin = one_state_membership(ex1_family, 0.0, [0.0],
                                              -ex1_escape_seed.g / 2)
        assert inside and margin <= 0.0

    def test_out_of_domain(self, ex1_family):
        with pytest.raises(OutOfDomain):
            pr.membership_margins(ex1_family, 10.5, [[0.0]], [0.0])

    @pytest.mark.parametrize("xs", [np.zeros(3), np.zeros((3, 2)), np.zeros((1, 3, 1)),
                                    [[0.0], [0.0, 0.0], [0.0]]])
    def test_points_must_be_rows(self, ex1_family, xs):
        # one rule for every point query: rows (G, n), else DimensionMismatch
        for query in (lambda: pr.reach_slice(ex1_family, 1.0, xs),
                      lambda: pr.xq_max_at(ex1_family, 1.0, xs),
                      lambda: pr.membership_margins(ex1_family, 1.0, xs, np.zeros(3))):
            with pytest.raises(DimensionMismatch):
                query()

    @pytest.mark.parametrize("xs", [[["a"]], [[0.0], ["a"]]])
    def test_points_must_be_numbers(self, ex1_family, xs):
        # a non-numeric entry was reported as ragged rows (DimensionMismatch)
        for query in (lambda: pr.reach_slice(ex1_family, 1.0, xs),
                      lambda: pr.xq_max_at(ex1_family, 1.0, xs),
                      lambda: pr.membership_margins(ex1_family, 1.0, xs, np.zeros(len(xs)))):
            with pytest.raises(ConfigError):
                query()

    @pytest.mark.parametrize("xqs", [np.zeros(1), np.zeros(4), np.zeros((3, 1)), 0.0])
    def test_one_budget_per_point(self, ex1_family, xqs):
        # one budget for three points was applied to each of them, and
        # four ended in a numpy ValueError
        with pytest.raises(DimensionMismatch):
            pr.membership_margins(ex1_family, 1.0, np.zeros((3, 1)), xqs)

    def test_batched_margins_match(self, ex1_family):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-0.5, 0.5, size=(40, 1))
        xqs = rng.uniform(-0.01, 0.05, size=40)
        margins = pr.membership_margins(ex1_family, 1.0, xs, xqs)
        for k in range(40):
            _, m = one_state_membership(ex1_family, 1.0, xs[k], xqs[k])
            assert margins[k] == pytest.approx(m, abs=1e-12)


class TestReachSlice:
    def test_strict_tightening_at_late_time(self, ex1_family, ex1_system,
                                            ex1_escape_seed, ex1_cfg):
        # past the time where the unscaled member's coefficient has gone
        # negative, a larger scaling cuts strictly deeper
        singleton = pr.build_family(ex1_escape_seed, ex1_system, 3e-5, 1,
                                    ex1_cfg, gammas=[1.0])
        grid = np.linspace(-1.0, 1.0, 81)[:, None]
        t = 1.62
        full = pr.reach_slice(ex1_family, t, grid)
        solo = pr.reach_slice(singleton, t, grid)
        gap = solo.xq_max - full.xq_max
        assert gap.max() > 1e-6
        assert np.all(gap >= -1e-12)
        # independent check of the expected magnitude from the scalar flow
        e1 = scalar_flow(t, 0.5)
        e16 = scalar_flow(t, 0.8)
        x = 0.3
        expected_gap = (-(e1 * x * x) + ex1_escape_seed.g * 1.0) - \
                       (-(e16 * x * x) + ex1_escape_seed.g * 1.6)
        k = np.argmin(np.abs(grid[:, 0] - x))
        assert gap[k] >= expected_gap - 1e-6

    def test_monotone_tightening_nested_grids(self, ex1_system,
                                              ex1_escape_seed, ex1_cfg):
        g1 = pr.build_family(ex1_escape_seed, ex1_system, 3e-5, 1, ex1_cfg,
                             gammas=[1.0, 2.2])
        g2 = pr.build_family(ex1_escape_seed, ex1_system, 3e-5, 1, ex1_cfg,
                             gammas=[1.0, 1.6, 2.2, 3.3])
        grid = np.linspace(-1.0, 1.0, 41)[:, None]
        for t in (0.5, 1.62, 2.2):
            s1 = pr.reach_slice(g1, t, grid)
            s2 = pr.reach_slice(g2, t, grid)
            assert np.all(s2.xq_max <= s1.xq_max + 1e-12)

    def test_argmin_order_invariance(self, ex1_system, ex1_escape_seed,
                                     ex1_cfg):
        fam_a = pr.build_family(ex1_escape_seed, ex1_system, 3e-5, 1, ex1_cfg,
                                gammas=[1.0, 1.6, 2.2, 2.7, 3.3])
        fam_b = pr.build_family(ex1_escape_seed, ex1_system, 3e-5, 1, ex1_cfg,
                                gammas=[3.3, 2.2, 1.0, 2.7, 1.6])
        grid = np.linspace(-1.2, 1.2, 61)[:, None]
        sa = pr.reach_slice(fam_a, 1.62, grid)
        sb = pr.reach_slice(fam_b, 1.62, grid)
        np.testing.assert_array_equal(sa.xq_max, sb.xq_max)
        np.testing.assert_array_equal(sa.argmin_gamma, sb.argmin_gamma)

    def test_out_of_domain(self, ex1_family):
        with pytest.raises(OutOfDomain):
            pr.reach_slice(ex1_family, 11.0, np.zeros((1, 1)))


class TestAssumptions:
    def test_escaped_member_flags_boundedness(self, ex1_family, ex1_cfg):
        report = pr.check_assumptions(
            ex1_family, ex1_cfg,
            probe_grid=np.linspace(-1.5, 1.5, 61)[:, None],
            times=[0.91, 1.62])
        assert not report.bounded_ok
        assert report.escaped_members[0][0] == 1.0

    def test_escape_at_the_horizon_is_listed(self, ex1_system, ex1_escape_seed, ex1_cfg):
        # the unscaled member's escape is bracketed up to the horizon itself
        cfg = pr.IntegratorConfig(max_step=ex1_cfg.max_step, t_end=2.4929012)
        fam = pr.build_family(ex1_escape_seed, ex1_system, 3e-5, 1, cfg, gammas=[1.0, 1.6])
        escape = fam.stack.escape
        assert escape[0] is not None and escape[1] is None
        report = pr.check_assumptions(fam, cfg, probe_grid=np.linspace(-1.5, 1.5, 31)[:, None],
                                      times=[0.91])
        assert report.escaped_members == [(1.0, escape[0])]
        assert not report.bounded_ok

    def test_synthetic_violation_detected(self, ex1_family, ex1_cfg, monkeypatch):
        # with no margin, every surface-band point of the real rides is rising
        # and reported through the detector
        monkeypatch.setattr(family_mod, "_RATE_MARGIN", np.inf)
        eps = ex1_family.eps_q
        report = pr.check_assumptions(
            ex1_family, ex1_cfg,
            probe_grid=np.linspace(-1.5, 1.5, 31)[:, None], times=[0.91])
        assert not report.falling_ok
        assert len(report.violations) == report.n_boundary_points > 0
        for v in report.violations:
            assert np.isfinite(v["t"]) and np.all(np.isfinite(v["x"]))
            assert -eps <= v["x_q"] <= 0.0
            assert v["gamma"] in ex1_family.gammas

    def test_skipped_trace_is_named_in_notes(self, ex1_family, ex1_cfg,
                                             monkeypatch):
        real = family_mod.trace_back_to_seed
        calls = []

        def first_fails(*args, **kwargs):
            seeds = real(*args, **kwargs)      # one stacked call, a row per rim point
            calls.extend(seeds)
            seeds[0] = NotOnBoundary("synthetic off-surface trace")
            return seeds

        monkeypatch.setattr(family_mod, "trace_back_to_seed", first_fails)
        report = pr.check_assumptions(
            ex1_family, ex1_cfg,
            probe_grid=np.linspace(-1.5, 1.5, 61)[:, None], times=[0.91])
        assert len(calls) > 1
        assert report.notes.endswith(
            "; 1 boundary trace(s) not usable: "
            "NotOnBoundary: synthetic off-surface trace")

    def test_foreign_error_propagates(self, ex1_family, ex1_cfg, monkeypatch):
        real = family_mod.trace_back_to_seed

        def broken(*args, **kwargs):
            real(*args, **kwargs)
            raise ZeroDivisionError("not a parareach error")

        monkeypatch.setattr(family_mod, "trace_back_to_seed", broken)
        with pytest.raises(ZeroDivisionError):
            pr.check_assumptions(
                ex1_family, ex1_cfg,
                probe_grid=np.linspace(-1.5, 1.5, 61)[:, None], times=[0.91])

    def test_ride_failure_drops_its_row_only(self, sec5_family, sec5_cfg, monkeypatch):
        # one row's touch tolerance sits between its start's |h| and the
        # drift it reaches later, so that ride fails mid-way; the rest finish
        real = family_mod.touching_trajectory
        seen = []

        def tight_one(tvps, starts, sys_, cfg, touch_tol):
            h = np.abs(real(tvps, starts, sys_, cfg, touch_tol=np.inf).h)
            q = int(np.nonzero(h[:, 1:].max(axis=1) > h[:, 0])[0][0])
            tols = list(touch_tol)
            tols[q] = 0.5 * (h[q, 0] + h[q, 1:].max())
            rides = real(tvps, starts, sys_, cfg, touch_tol=tols)
            seen.append((q, rides.errors))
            return rides

        monkeypatch.setattr(family_mod, "touching_trajectory", tight_one)
        report = pr.check_assumptions(sec5_family, sec5_cfg, times=[0.794],
                                      probe_grid=cli_grid("sec5"), max_rim_points=6)
        ((q, errors),) = seen
        assert isinstance(errors[q], StepSizeUnderflow)
        assert errors[:q] + errors[q + 1:] == [None] * (len(errors) - 1)
        assert report.notes.endswith(
            f"; 1 boundary trace(s) not usable: StepSizeUnderflow: {errors[q]}")
        assert report.n_boundary_points > 0

    def test_skipped_slice_time_is_named_in_notes(self, ex1_system, ex1_escape_seed,
                                                  ex1_cfg):
        fam = pr.build_family(ex1_escape_seed, ex1_system, 3e-5, 1, ex1_cfg,
                              gammas=[1.0])         # escapes near t = 2.49
        report = pr.check_assumptions(fam, ex1_cfg, times=[0.91, 3.0],
                                      probe_grid=np.linspace(-1.5, 1.5, 61)[:, None])
        assert report.n_boundary_points > 0
        assert report.notes.endswith(
            "; 1 slice time(s) skipped: t=3: OutOfDomain: t=3.0 beyond the family's "
            f"interval of definition [0, {fam.t_max}]")

    def test_default_times_stay_in_an_early_escaping_domain(self, ex1_system,
                                                            ex1_escape_seed):
        # every member escapes (near t = 2.49) before T/5 = 4: the default
        # times fall inside [0, t_max] instead of running backwards past it
        cfg = pr.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.025,
                                  t_end=20.0)
        fam = pr.build_family(ex1_escape_seed, ex1_system, 1e-3, 1, cfg, gammas=[1.0])
        assert fam.t_max < fam.T / 5.0
        report = pr.check_assumptions(fam, cfg)
        assert report.n_boundary_points > 0
        assert "skipped" not in report.notes

    def test_rides_are_stacked_per_call(self, sec5_family, sec5_cfg, monkeypatch):
        # what the traced benchmark counts: check_assumptions reaches the
        # rides and back-traces through family.py's names, with calls that do
        # not grow with the number of rim points (at most one per slice time)
        counts = {}
        for name in ("touching_trajectory", "trace_back_to_seed"):
            def counted(*args, _real=getattr(family_mod, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(family_mod, name, counted)
        seen = []
        for rims in (2, 6):
            counts.clear()
            report = pr.check_assumptions(sec5_family, sec5_cfg, probe_grid=cli_grid("sec5"),
                                          max_rim_points=rims)
            assert report.n_boundary_points > 0
            assert 1 <= counts["touching_trajectory"] <= 5
            assert 1 <= counts["trace_back_to_seed"] <= 5
            seen.append(dict(counts))
        assert seen[0] == seen[1]

    @staticmethod
    def band_rides(family, cfg, monkeypatch, **kwargs):
        """The ride stacks check_assumptions passes to _band_times on the
        CLI's sec5 grid."""
        stacks = []
        band_times = family_mod._band_times

        def record(rides, eps_q):
            stacks.append(rides)
            return band_times(rides, eps_q)

        with monkeypatch.context() as m:
            m.setattr(family_mod, "_band_times", record)
            pr.check_assumptions(family, cfg, probe_grid=cli_grid("sec5"),
                                 max_rim_points=6, **kwargs)
        return stacks

    def test_band_crossings_are_roots(self, sec5_family, sec5_cfg, monkeypatch):
        # rides from the rims of the CLI's sec5 slice, whose budgets pass the band
        eps = sec5_family.eps_q
        n_crossings = 0
        for rides in self.band_rides(sec5_family, sec5_cfg, monkeypatch, times=[0.794]):
            for r, tb in enumerate(family_mod._band_times(rides, eps)):
                traj = rides.row(r)
                xq_tb = traj.state_at_many(tb)[1]       # every time lies in the band
                assert np.all((xq_tb >= -eps) & (xq_tb <= 0.0))
                crossings = tb[~np.isin(tb, traj.grid)]
                # every crossing of a level seen on a scan four times finer than
                # the nodes is returned, within 1e-9 of its brentq root
                ts = np.linspace(traj.grid[0], traj.grid[-1], 4 * len(traj.grid))
                xq = traj.state_at_many(ts)[1]
                roots = []
                for level in (0.0, -0.5 * eps, -eps):
                    z = xq - level
                    for k in np.nonzero(np.signbit(z[:-1]) != np.signbit(z[1:]))[0]:
                        roots.append(brentq(lambda t: traj.state_at(t)[1] - level,
                                            ts[k], ts[k + 1], xtol=1e-14))
                assert len(crossings) == len(roots)
                for t in crossings:
                    assert np.min(np.abs(np.array(roots) - t)) <= 1e-9
                n_crossings += len(crossings)
        assert n_crossings > 0

    def test_band_search_against_bisection(self, sec5_family, sec5_cfg, monkeypatch):
        # the rides of `reach --example sec5`: the regula falsi against the
        # 50-round bisection it replaced, and the ride rows each evaluates
        (rides,) = self.band_rides(sec5_family, sec5_cfg, monkeypatch)
        eps, h = sec5_family.eps_q, rides.flow.h[0]
        rows = []
        state_at_many = Rides.state_at_many

        def counted(stack, r, tq):
            rows[-1] += len(r)
            return state_at_many(stack, r, tq)

        monkeypatch.setattr(Rides, "state_at_many", counted)
        found = []
        for search in (reference_band_times, family_mod._band_times):
            rows.append(0)
            found.append(search(rides, eps))
        monkeypatch.undo()
        assert 0 < rows[1] <= rows[0] // 2
        for r, (want, got) in enumerate(zip(*found)):
            assert len(got) == len(want)
            assert np.all(np.abs(got - want) <= np.maximum(4 * np.spacing(want), 2.0 ** -50 * h))
            xq = rides.row(r).state_at_many(got)[1]
            assert np.all((xq >= -eps) & (xq <= 0.0))
        assert sum(map(len, found[1])) > 0

    def test_sec5_boundary_points_pinned(self, sec5_family, sec5_cfg):
        # what `reach --example sec5` reports
        report = pr.check_assumptions(sec5_family, sec5_cfg,
                                      probe_grid=cli_grid("sec5"), max_rim_points=6)
        assert report.n_boundary_points == 66
        assert report.violations == []

    @pytest.mark.parametrize("max_rim_points", [0, -2, 2.5, True])
    def test_max_rim_points_below_one(self, ex1_family, ex1_cfg, max_rim_points):
        # 0 once divided by zero, and -2 trimmed the rim points silently
        with pytest.raises(ConfigError):
            pr.check_assumptions(ex1_family, ex1_cfg, times=[0.91],
                                 probe_grid=np.linspace(-1.5, 1.5, 31)[:, None],
                                 max_rim_points=max_rim_points)

    def test_default_probe_grid_needs_definite_seed(self, ex1_system):
        seed = pr.Paraboloid([[-1.0]], [0.0], -0.05)
        cfg = pr.IntegratorConfig(t_end=1.0)
        fam = pr.build_family(seed, ex1_system, 5e-5, 1, cfg, gammas=[1.0])
        with pytest.raises(UnboundedSlab):
            pr.check_assumptions(fam, cfg)

    def test_detector(self):
        idx = pr.rising_energy_violations(
            xq_values=[0.5, -1e-5, -3e-5, -1e-4],
            xq_rates=[1.0, 0.1, -1.0, 0.2], eps_q=5e-5)
        np.testing.assert_array_equal(idx, [1])


class TestRimPoints:
    @staticmethod
    def crossings(xs, values):
        xs = np.asarray(xs, dtype=float).reshape(len(values), -1)
        return family_mod._rim_points(
            pr.ReachSlice(0.0, xs, values, np.zeros(len(values), dtype=int)))

    def test_line_has_two(self):
        x = np.linspace(-2.0, 2.0, 40)            # no grid point on the rim
        rims = self.crossings(x, 1.0 - x ** 2)
        assert rims.shape == (2, 1)
        np.testing.assert_allclose(rims[:, 0], [-1.0, 1.0], rtol=0.0,
                                   atol=(x[1] - x[0]) ** 2)

    def test_circle_along_rows_only(self):
        # a unit circle centred at (0, 1.2): rows with |x0| < 0.6 end inside
        # it and the next row starts outside, so the headroom changes sign
        # across those row wraps.  Crossings are searched along the last
        # axis, so every point keeps its row's x0.
        ax = np.linspace(-2.0, 2.0, 41)
        xs = np.stack([m.ravel() for m in np.meshgrid(ax, ax, indexing="ij")], axis=1)
        centre = np.array([0.0, 1.2])
        rims = self.crossings(xs, 1.0 - np.sum((xs - centre) ** 2, axis=1))
        assert len(rims) > 0
        assert np.all(np.abs(np.linalg.norm(rims - centre, axis=1) - 1.0)
                      <= (ax[1] - ax[0]) ** 2)
        assert np.all(np.isin(rims[:, 0], ax))
