"""Machine-speed probe, for timings that hold steady on a shared host.

The host of a small virtual machine runs it at different speeds at different
times: the same round of parareach work can take 16 s or 28 s a few minutes
apart, and one solve can take 11 ms or 21 ms a second apart.  So the
untraced run measures the machine as it goes.  About every ``EVERY_S``
seconds of a round, and ``AFTER_ROUND`` times after it, it times ``probe``:
a fixed DOP853 solve of a small Riccati-and-state IVP with scipy, never
parareach, whose work is of the same kind as the program's (small numpy
arrays under a Python right-hand side).  A probe falls due in the next call
to an input signal (every right-hand-side evaluation makes one, and so does
each step of the oracle's batch) or the next return from
``riccati.propagate``, ``touching.touching_trajectory`` or
``touching.trace_back_to_seed``, wherever a parareach module binds them;
the returns keep probes coming where a version of the program evaluates no
input, as one with a fast path for zero input would.

The probes sample the machine evenly in time, so a round's time at the
reference speed is its wall time divided by the harmonic mean of the probes::

    round_ref_s = round_s * PROBE_REF_S * mean(1 / probe_s)

If the machine runs twice as fast for half of a round, half the probes take
half as long, and ``round_ref_s`` counts the work done in that half at the
reference speed.  ``PROBE_REF_S`` is a fixed scale, near the probe's time
on the reference machine (see the README).  Time spent in probes is left out of ``round_s``; the checks for
a due probe (one clock read per signal call) stay in, about 0.3% of it.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

import spans

PROBE_REF_S = 0.018
AFTER_ROUND = 3
EVERY_S = 0.25
HOOKED = ("riccati.propagate", "touching.touching_trajectory",
          "touching.trace_back_to_seed")

_A = np.array([[-0.8, 0.3], [-0.2, -1.1]])
_Y0 = np.array([1.0, 0.0, 0.0, 1.5, 0.1, -0.2])


def _rhs(t, y):
    E = y[:4].reshape(2, 2)
    return np.concatenate(((-0.5 * E @ E + _A.T @ E + E @ _A).ravel(),
                           _A @ y[4:] + np.sin(t)))


def probe() -> float:
    """Wall time of one fixed solve, in seconds."""
    t0 = time.perf_counter()
    solve_ivp(_rhs, (0.0, 0.6), _Y0, method="DOP853", rtol=1e-10, atol=1e-12,
              max_step=0.01)
    return time.perf_counter() - t0


class SpeedClock:
    """Probes the machine's speed during and after each round."""

    def __init__(self):
        self._probes = []
        self._next = 0.0          # when the next probe falls due
        self._paused = 0.0        # probe wall time within the round
        self._paused_cpu = 0.0    # and its CPU time

    def _probe_if_due(self):
        t0 = time.perf_counter()
        if t0 < self._next:
            return
        c0 = time.process_time()
        self._probes.append(probe())
        t1 = time.perf_counter()
        self._paused += t1 - t0
        self._paused_cpu += time.process_time() - c0
        self._next = t1 + EVERY_S

    def _after_call(self, fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self._probe_if_due()
        return hooked

    def _before_call(self, call):
        @functools.wraps(call)
        def hooked(signal, t):
            self._probe_if_due()
            return call(signal, t)
        return hooked

    def install(self):
        for name in HOOKED:
            spans.rebind(*spans.TRACED[name], self._after_call)
        from parareach.signals import SampledSignal, ZeroSignal
        for cls in (ZeroSignal, SampledSignal):
            cls.__call__ = self._before_call(cls.__call__)
        for _ in range(AFTER_ROUND):          # warm up scipy's solver
            probe()
        return self

    def time_round(self, work):
        """Run one round.  Returns its result, its wall and CPU time without
        the probes, its time at the reference speed and the probe times."""
        self._probes, self._paused, self._paused_cpu = [], 0.0, 0.0
        t0, c0 = time.perf_counter(), time.process_time()
        self._next = t0 + EVERY_S
        result = work()
        wall = time.perf_counter() - t0 - self._paused
        cpu = time.process_time() - c0 - self._paused_cpu
        probes = self._probes + [probe() for _ in range(AFTER_ROUND)]
        return result, wall, cpu, wall * PROBE_REF_S / statistics.harmonic_mean(probes), probes
