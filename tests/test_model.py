import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parareach as pr
from parareach.errors import (AsymmetricMatrix, ConfigError, DimensionMismatch,
                              NonPositiveScale, NotNegativeDefinite)

from conftest import scale_paraboloid


def _ex1_matrices():
    return dict(A=[[-1.0]], B=[[1.0]], B_u=[[0.0]],
                M=np.diag([1.0, 1.0, -2.0]))


class TestMakeSystem:
    def test_scalar_example(self):
        sys1 = pr.make_system(**_ex1_matrices())
        assert (sys1.n, sys1.m, sys1.p) == (1, 1, 1)
        assert sys1.Mw[0, 0] == -2.0

    def test_planar_example(self):
        I2 = np.eye(2)
        M = np.zeros((5, 5))
        M[:2, :2] = I2
        M[2, 2] = 1.0
        M[3:, 3:] = -2.0 * I2
        sys2 = pr.make_system(-I2, I2, np.zeros((2, 1)), M)
        assert (sys2.n, sys2.m, sys2.p) == (2, 2, 1)
        np.testing.assert_allclose(sys2.Mw, -2.0 * I2)

    def test_positive_w_block_rejected(self):
        bad = _ex1_matrices()
        bad["M"] = np.diag([1.0, 1.0, 1.0])
        with pytest.raises(NotNegativeDefinite):
            pr.make_system(**bad)

    def test_block_readback(self):
        rng = np.random.default_rng(5)
        n, p, m = 2, 1, 2
        M = rng.standard_normal((5, 5))
        M = 0.5 * (M + M.T)
        M[n + p:, n + p:] = -np.eye(m) * 3.0
        sys_ = pr.make_system(rng.standard_normal((n, n)),
                              rng.standard_normal((n, m)),
                              rng.standard_normal((n, p)), M)
        rebuilt = np.block([[sys_.Mx, sys_.Mxu, sys_.Mxw],
                            [sys_.Mxu.T, sys_.Mu, sys_.Muw],
                            [sys_.Mxw.T, sys_.Muw.T, sys_.Mw]])
        np.testing.assert_array_equal(rebuilt, sys_.M)
        np.testing.assert_allclose(sys_.M, 0.5 * (M + M.T))

    def test_asymmetric_m_rejected_above_tol(self):
        bad = _ex1_matrices()
        M = np.diag([1.0, 1.0, -2.0])
        M[0, 1] = 1e-3
        bad["M"] = M
        with pytest.raises(AsymmetricMatrix):
            pr.make_system(**bad)

    def test_rounding_noise_symmetrized(self):
        mats = _ex1_matrices()
        M = np.diag([1.0, 1.0, -2.0])
        M[0, 1] = 1e-12
        mats["M"] = M
        sys1 = pr.make_system(**mats)
        np.testing.assert_array_equal(sys1.M, sys1.M.T)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pr.make_system([[-1.0]], [[1.0]], [[0.0]], np.diag([1.0, -2.0]))

    @pytest.mark.parametrize("field", ["A", "B", "B_u", "M"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix_is_config_error(self, field, value):
        mats = {k: np.array(v, dtype=float) for k, v in _ex1_matrices().items()}
        mats[field][0, 0] = value
        with pytest.raises(ConfigError, match=f"{field} has non-finite entries"):
            pr.make_system(**mats)

    def test_signal_without_pieces_rejected(self):
        with pytest.raises(ConfigError):
            pr.make_system(**_ex1_matrices(), u=lambda t: np.zeros(1))

    def test_immutable(self):
        sys1 = pr.make_system(**_ex1_matrices())
        with pytest.raises(ValueError):
            sys1.A[0, 0] = 5.0


class TestValueFunction:
    def test_all_zero(self):
        P = pr.Paraboloid(np.eye(2), np.zeros(2), 0.0)
        assert pr.value_function(P, pr.AugmentedState(np.zeros(2), 0.0)) == 0.0

    def test_boundary_point(self):
        P = pr.Paraboloid([[1.0]], [0.0], 0.015)
        X = pr.AugmentedState([0.0], -0.015)
        assert pr.value_function(P, X) == pytest.approx(0.0, abs=1e-15)

    def test_worked_scalar(self):
        P = pr.Paraboloid([[2.0]], [1.0], 0.0)
        X = pr.AugmentedState([1.0], 3.0)
        # 2 - 2 + 0 + 3
        assert pr.value_function(P, X) == pytest.approx(3.0)

    def test_dim_mismatch(self):
        P = pr.Paraboloid(np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(DimensionMismatch):
            pr.value_function(P, pr.AugmentedState([1.0], 0.0))

    @pytest.mark.parametrize("x, x_q", [([np.nan], 0.0), ([0.0, np.inf], 0.0),
                                        ([0.0], -np.inf)])
    def test_non_finite_state_is_config_error(self, x, x_q):
        with pytest.raises(ConfigError, match="augmented state must be finite"):
            pr.AugmentedState(x, x_q)

    @given(xq=st.floats(-10, 10), delta=st.floats(-5, 5),
           x=st.floats(-3, 3))
    def test_affine_in_budget_with_unit_slope(self, xq, delta, x):
        P = pr.Paraboloid([[1.7]], [0.3], -0.2)
        h0 = pr.value_function(P, pr.AugmentedState([x], xq))
        h1 = pr.value_function(P, pr.AugmentedState([x], xq + delta))
        assert h1 - h0 == pytest.approx(delta, abs=1e-12)


class TestScaling:
    def test_identity(self):
        P = pr.Paraboloid([[1.0]], [0.0], 0.015)
        Q = scale_paraboloid(P, 1.0)
        np.testing.assert_array_equal(Q.E, P.E)
        assert Q.g == P.g

    def test_componentwise(self):
        P = pr.Paraboloid([[1.0]], [0.0], 0.015)
        Q = scale_paraboloid(P, 2.0)
        assert Q.E[0, 0] == 2.0 and Q.g == pytest.approx(0.03)

    def test_nonpositive_rejected(self):
        P = pr.Paraboloid([[1.0]], [0.0], 0.0)
        for g in (0.0, -1.0, np.nan):
            with pytest.raises(NonPositiveScale):
                scale_paraboloid(P, g)

    @settings(max_examples=200)
    @given(x=st.floats(-2, 2), xq=st.floats(0, 1), gamma=st.floats(1, 10))
    def test_nesting_in_nonnegative_budget_halfspace(self, x, xq, gamma):
        # members of P with x_q >= 0 stay members of every upscaled copy
        P = pr.Paraboloid([[1.0]], [0.1], -0.06)
        X = pr.AugmentedState([x], xq)
        if pr.value_function(P, X) <= 0.0:
            scaled = scale_paraboloid(P, gamma)
            assert pr.value_function(scaled, X) <= 1e-12

    def test_nesting_random_sampling_at_1p6(self):
        rng = np.random.default_rng(0)
        P = pr.Paraboloid(np.array([[1.0, 0.2], [0.2, 2.0]]),
                          np.array([0.1, -0.3]), -0.5)
        scaled = scale_paraboloid(P, 1.6)
        hits = 0
        for _ in range(2000):
            X = pr.AugmentedState(rng.uniform(-0.8, 0.8, size=2),
                                  rng.uniform(0, 0.5))
            if pr.value_function(P, X) <= 0.0:
                hits += 1
                assert pr.value_function(scaled, X) <= 1e-12
        assert hits > 50


class TestParaboloid:
    def test_symmetrizes_noise(self):
        E = np.array([[1.0, 1e-12], [0.0, 1.0]])
        P = pr.Paraboloid(E, np.zeros(2), 0.0)
        np.testing.assert_array_equal(P.E, P.E.T)

    def test_asymmetric_rejected(self):
        E = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(AsymmetricMatrix):
            pr.Paraboloid(E, np.zeros(2), 0.0)

    def test_indefinite_allowed(self):
        P = pr.Paraboloid(np.diag([1.0, -4.0]), np.zeros(2), 0.0)
        assert P.E[1, 1] == -4.0

    @pytest.mark.parametrize("E, f, g", [([[np.inf]], [0.0], 0.0), ([[1.0]], [np.nan], 0.0),
                                         ([[1.0]], [0.0], -np.inf)], ids=["E", "f", "g"])
    def test_nonfinite_rejected(self, E, f, g):
        with pytest.raises(ConfigError):
            pr.Paraboloid(E, f, g)


class TestSystemJson:
    def test_round_trip_bit_for_bit(self):
        import json
        rng = np.random.default_rng(11)
        sys1 = pr.make_system([[-1.0 / 3.0]], [[np.pi]], [[0.1]],
                              0.5 * (lambda M: M + M.T)(np.diag([1.0, 0.7, -2.3])))
        text = json.dumps(sys1.to_json())
        sys2 = pr.system_from_json(json.loads(text))
        np.testing.assert_array_equal(sys1.A, sys2.A)
        np.testing.assert_array_equal(sys1.M, sys2.M)
        text2 = json.dumps(sys2.to_json())
        assert text == text2

    def test_sampled_signal_round_trip(self):
        sig = pr.SampledSignal([0.0, 0.5, 1.0], [[0.0], [1.0], [0.5]])
        sys1 = pr.make_system([[-1.0]], [[1.0]], [[1.0]],
                              np.diag([1.0, 1.0, -2.0]), u=sig.to_json())
        assert sys1.u(0.5)[0] == pytest.approx(1.0)
        assert isinstance(sys1.u, pr.SampledSignal)
