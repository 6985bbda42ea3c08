"""Embedded example systems.

``ex1-*`` is the scalar plant xdot = -x + w with unit state weight and
disturbance weight -2: its parameter flow has equilibria 2 +/- sqrt(2), a
stable seed above the lower root and finite escape below it.  ``sec5`` is a
two-dimensional contractive plant with a nearly singular seed; its reachable
set develops a non-convex waist once the quadratic coefficient turns
indefinite.  Seed offsets are negative: -g0 is the budget cap at the seed
center, matching the published energy levels (0.06 / 0.03 / 0.015).
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import ConfigError
from .model import Paraboloid, make_system

EX1_XQ_STABLE = 0.06
EX1_XQ_ESCAPE = 0.03
SEC5_A = 1e-2
SEC5_B = 1e-6
SEC5_CAP = 0.015


def _ex1_system():
    return make_system(A=[[-1.0]], B=[[1.0]], B_u=[[0.0]],
                       M=np.diag([1.0, 1.0, -2.0]), u="zero")


def _sec5_system():
    I2 = np.eye(2)
    M = np.zeros((5, 5))
    M[:2, :2] = I2
    M[2, 2] = 1.0
    M[3:, 3:] = -2.0 * I2
    return make_system(A=-I2, B=I2, B_u=np.zeros((2, 1)), M=M, u="zero")


def _sec5_seed():
    a, b = SEC5_A, SEC5_B
    E0 = np.array([[a + b, a], [a, a + b]])
    return Paraboloid(E0, np.zeros(2), -SEC5_CAP)


# ex1-escape is the base of the scalar presets; the others override it
_EX1_ESCAPE = {
    "system": _ex1_system,
    "seed": lambda: Paraboloid([[0.5]], [0.0], -EX1_XQ_ESCAPE),
    "t_end": 10.0,
    "times": [0.91, 1.62],
    "grid_window": ([-1.5], [1.5]),
    "grid_points": 201,
    "eps_q": 1e-3 * EX1_XQ_ESCAPE,
    "n_members": 16,
    "gamma_spacing": "uniform",
    "sampler_density": 64,
    "oracle": {"n_trajectories": 2000, "segments": 8, "w_scale": 0.3},
    "integrator": {"rel_tol": 1e-9, "abs_tol": 1e-12, "max_step": 0.025},
}

PRESETS = {
    "ex1-stable": {**_EX1_ESCAPE,
                   "seed": lambda: Paraboloid([[1.0]], [0.0], -EX1_XQ_STABLE),
                   "times": [0.91, 1.62, 10.0],
                   "eps_q": 1e-3 * EX1_XQ_STABLE},
    "ex1-escape": _EX1_ESCAPE,
    "ex1-family": {**_EX1_ESCAPE, "gammas": [1.0, 1.6, 2.2, 2.7, 3.3], "n_members": 5},
    "sec5": {
        "system": _sec5_system,
        "seed": _sec5_seed,
        "t_end": 1.0,
        "times": [0.794],
        "grid_window": ([-80.0, -80.0], [80.0, 80.0]),
        "grid_points": 61,
        "eps_q": 1e-3 * SEC5_CAP,
        "n_members": 64,
        # the scaling bound spans six decades here; a uniform grid would
        # leave the low scalings (which shape the waist) unsampled
        "gamma_spacing": "log",
        "sampler_density": 128,
        "oracle": {"n_trajectories": 10_000, "segments": 8, "w_scale": 1.0},
        # dense-output interpolation must stay accurate at state scale ~1e2,
        # where the value function sums terms of size ~1e4
        "integrator": {"rel_tol": 1e-9, "abs_tol": 1e-12, "max_step": 0.004},
    },
}


def preset_names():
    return sorted(PRESETS)


def load_preset(name: str):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    spec = copy.deepcopy(PRESETS[name])      # the presets share nested values
    spec["system"] = spec["system"]()
    spec["seed"] = spec["seed"]()
    return spec
