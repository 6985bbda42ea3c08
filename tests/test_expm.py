"""The batched Padé matrix exponential against scipy.linalg.expm."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from parareach._expm import _select, expm

# 1-norm distance to scipy's exponential, relative to its 1-norm.  Both are
# backward stable; at degree 13 with squarings they differ by up to 9e-13 on
# the draws below, mostly scipy's own error (against 40-digit references ours
# stays within 3e-15 there).
RTOL = 1e-11


def norm1(X):
    return np.abs(X).sum(axis=-2).max(axis=-1)


def hamiltonian(rng, n):
    """[[A, -R], [-Q, -A']] with R, Q symmetric positive semidefinite."""
    A, R, Q = (rng.standard_normal((n, n)) for _ in range(3))
    return np.block([[A, -R @ R.T], [-Q @ Q.T, -A.T]])


def van_loan(rng, H):
    """[[-H', N], [0, H]] with N symmetric, the engine's budget block."""
    N = rng.standard_normal(H.shape)
    return np.block([[-H.T, N + N.T], [np.zeros_like(H), H]])


def ladder(rng):
    """Hamiltonians and Van Loan blocks scaled by dt = ±10^-4 .. ±2."""
    mats = []
    for dt in np.logspace(-4, np.log10(2.0), 12):
        for sign in (1.0, -1.0):
            H = hamiltonian(rng, int(rng.integers(1, 4)))
            mats += [sign * dt * H, sign * dt * van_loan(rng, H)]
    return mats


class TestAgainstScipy:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 3), block=st.booleans(),
           log_dt=st.floats(-4.0, np.log10(2.0)), sign=st.sampled_from([1.0, -1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_hamiltonians_and_blocks(self, n, block, log_dt, sign, seed):
        rng = np.random.default_rng(seed)
        M = hamiltonian(rng, n)
        if block:
            M = van_loan(rng, M)
        M = sign * 10.0 ** log_dt * M
        ref = scipy.linalg.expm(M)
        assert norm1(expm(M) - ref) <= RTOL * norm1(ref)

    def test_ladder_spans_every_degree_and_squarings(self):
        mats = ladder(np.random.default_rng(0))
        m, s = zip(*(tuple(int(v[0]) for v in _select(M[None])) for M in mats))
        assert set(m) == {3, 5, 7, 9, 13}
        assert max(s) >= 2
        for M in mats:
            ref = scipy.linalg.expm(M)
            assert norm1(expm(M) - ref) <= RTOL * norm1(ref)


class TestFixedCases:
    def test_zero_matrix_is_identity(self):
        for n in (1, 2, 12):
            np.testing.assert_array_equal(expm(np.zeros((n, n))), np.eye(n))

    def test_one_by_one(self):
        for a in (-30.0, -1.0, 1e-9, 0.5, 3.0, 40.0):
            assert expm(np.array([[a]]))[0, 0] == pytest.approx(np.exp(a), rel=1e-14)

    def test_ill_scaled_block(self):
        # a huge coupling between two small eigenvalues: exact closed form
        a, c, b = -0.5, 0.3, 1e8
        X = expm(np.array([[a, b], [0.0, c]]))
        exact = np.array([[np.exp(a), b * (np.exp(a) - np.exp(c)) / (a - c)],
                          [0.0, np.exp(c)]])
        np.testing.assert_allclose(X, exact, rtol=1e-13, atol=0.0)

    def test_leading_axes_and_errors(self):
        rng = np.random.default_rng(1)
        mats = np.array([dt * hamiltonian(rng, 2) for dt in (1e-3, 0.1, 1.0, -3.0)])
        mats = mats.reshape(2, 2, 4, 4)
        got = expm(mats)
        assert got.shape == mats.shape
        np.testing.assert_array_equal(got[1, 0], expm(mats[1, 0]))
        assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))


class TestStacking:
    def test_rows_equal_each_alone_bit_for_bit(self):
        rng = np.random.default_rng(2)
        H = hamiltonian(rng, 3)
        dts = np.logspace(-5, 0.5, 40) * rng.choice([-1.0, 1.0], 40)
        stack = np.array([dt * van_loan(rng, H) for dt in dts])
        stack[7] = 0.0
        m, s = _select(stack)
        assert set(m.tolist()) == {0, 3, 5, 7, 9, 13} and s.max() > 0   # every group
        got, flipped = expm(stack), expm(stack[::-1])[::-1]
        for i, M in enumerate(stack):
            alone = expm(M)
            assert got[i].tobytes() == alone.tobytes()
            assert flipped[i].tobytes() == alone.tobytes()
