"""The not-a-knot spline of SampledSignal against scipy's CubicSpline, and
the library's imports without scipy."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parareach as pr

from conftest import ScipySplineSignal

# Distance to scipy's spline, relative to 1 + |scipy's value|, for values and
# for each Taylor coefficient.
RTOL = 1e-12


def samples(rng, k, dim, uneven):
    times = np.linspace(-0.5, 4.5, k)
    if uneven:
        times = np.cumsum(np.r_[rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5, k - 1)])
    return times, rng.standard_normal((k, dim))


@pytest.mark.parametrize("k", [2, 3, 4, 11])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("uneven", [False, True])
def test_matches_scipy_cubic_spline(k, dim, uneven):
    rng = np.random.default_rng(100 * k + 10 * dim + uneven)
    times, values = samples(rng, k, dim, uneven)
    ours, ref = pr.SampledSignal(times, values), ScipySplineSignal(times, values)
    for t in np.concatenate([times, rng.uniform(times[0], times[-1], 40)]):
        want = ref(t)
        assert ours(t).shape == (dim,)
        assert np.all(np.abs(ours(t) - want) <= RTOL * (1.0 + np.abs(want)))
    for a in np.concatenate([times[:-1], [0.0]]):
        want = ref.taylor(a)
        assert ours.taylor(a).shape == (4, dim)
        assert np.all(np.abs(ours.taylor(a) - want) <= RTOL * (1.0 + np.abs(want)))


def test_knot_taylor_is_the_piece_row():
    times, values = samples(np.random.default_rng(4), 6, 2, True)
    sig = pr.SampledSignal(times, values)
    for i, a in enumerate(times[:-1]):
        np.testing.assert_array_equal(sig.taylor(a), sig.coef[i])
        np.testing.assert_array_equal(sig(a), values[i])


def test_line_and_parabola():
    line = pr.SampledSignal([0.0, 2.0], [[1.0], [5.0]])
    assert line(0.5)[0] == pytest.approx(2.0)
    np.testing.assert_array_equal(line.coef[:, 2:], 0.0)
    para = pr.SampledSignal([0.0, 1.0, 3.0], [[0.0], [1.0], [9.0]])     # t^2
    for t in (0.25, 2.0, 2.9):
        assert para(t)[0] == pytest.approx(t * t, rel=1e-14)


def test_held_constant_outside_the_samples():
    times, values = samples(np.random.default_rng(5), 5, 2, True)
    sig = pr.SampledSignal(times, values)
    for t in (times[0] - 3.0, times[0] - 1e-9):
        np.testing.assert_array_equal(sig(t), sig(times[0]))
        np.testing.assert_array_equal(sig.taylor(t), np.r_[[sig(times[0])], np.zeros((3, 2))])
    for t in (times[-1], times[-1] + 1e-9, times[-1] + 7.0):
        np.testing.assert_array_equal(sig(t), sig(times[-1]))
        np.testing.assert_array_equal(sig.taylor(t), np.r_[[sig(times[-1])], np.zeros((3, 2))])
    assert np.allclose(sig(times[-1]), values[-1], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("times, values", [
    ([0.0, 1.0, 2.0], [0.0, np.nan, 2.0]),
    ([0.0, 1.0, 2.0], [[0.0, 1.0], [np.inf, 1.0], [2.0, 1.0]]),
    ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0]),
    ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0]),
    ([-np.inf, 1.0, 2.0], [0.0, 1.0, 2.0]),
])
def test_rejects_non_finite_samples(times, values):
    with pytest.raises(pr.ConfigError):
        pr.SampledSignal(times, values)


@pytest.mark.parametrize("dim", [2.5, True, -1, np.float64(2.0)])
def test_zero_signal_dimension_is_a_count(dim):
    # 2.5 was cut to 2, True taken as 1, and -1 was a DimensionMismatch
    with pytest.raises(pr.ConfigError):
        pr.ZeroSignal(dim)


def test_library_imports_no_scipy():
    # the package, its CLI, a sampled input and one propagation
    code = """
import sys
import numpy as np
import parareach, parareach.cli
u = parareach.SampledSignal(np.linspace(0.0, 1.0, 5), np.arange(10.0).reshape(5, 2))
u(0.3), u.taylor(0.25)
system = parareach.make_system([[-1.0]], [[1.0]], [[1.0, 0.5]],
                               np.diag([1.0, 1.0, 1.0, -2.0]), u=u)
parareach.propagate(parareach.Paraboloid([[1.0]], [0.0], -0.5), system,
                    parareach.IntegratorConfig(t_end=1.0))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    src = Path(pr.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
