"""Workload inputs, made from the benchmark seed with numpy alone.

Nothing here imports parareach: the same raw arrays feed the program (in
worker.py) and the independent references (refs.py).
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("sec5-reach", "sec5-verify", "driven-rides")

# sec5: the slice time of the preset, and the oracle draws that make
# sample_admissible at least half of a verify run.
SEC5_TIME = 0.794
VERIFY_DRAWS = 20_000

# driven-rides: the planar plant with a sinusoidal input sampled at 11
# points; every block of M is nonzero, so the input moves f and g.
DRIVEN_RIDES = 20
DRIVEN_U_TIMES = np.linspace(0.0, 5.0, 11)
DRIVEN_U_VALUES = 0.7 * np.sin(DRIVEN_U_TIMES)[:, None]
DRIVEN_A = np.array([[-0.8, 0.3], [-0.2, -1.1]])
DRIVEN_B = np.array([[1.0, 0.0], [0.3, 0.8]])
DRIVEN_BU = np.array([[0.5], [-0.4]])
DRIVEN_M = np.array([          # (x, u, w) block order, n = 2, p = 1, m = 2
    [1.2, 0.1, 0.2, 0.1, 0.0],
    [0.1, 0.9, -0.1, 0.0, -0.2],
    [0.2, -0.1, 0.8, 0.1, -0.3],
    [0.1, 0.0, 0.1, -2.0, 0.3],
    [0.0, -0.2, -0.3, 0.3, -1.5],
])
DRIVEN_E0 = np.diag([1.0, 1.5])
DRIVEN_F0 = np.array([0.1, -0.2])
DRIVEN_G0 = -0.5
DRIVEN_T_END = 3.0
DRIVEN_TOLS = {"rel_tol": 1e-9, "abs_tol": 1e-12, "max_step": 0.01}


def sec5_argv(workload: str, seed: int, out_dir) -> list:
    """CLI arguments of one sec5 operation.  ``sec5-reach`` has no random
    input, so its arguments do not depend on the seed."""
    if workload == "sec5-reach":
        return ["reach", "--example", "sec5", "--out", str(out_dir)]
    return ["verify", "--example", "sec5", "--n", str(VERIFY_DRAWS),
            "--seed", str(seed), "--out", str(out_dir)]


def driven_starts(seed: int, count: int = DRIVEN_RIDES):
    """States on the seed surface: a uniform direction from the seed's
    center and a budget level uniform in [0, cap], as (x, x_q) pairs."""
    rng = np.random.default_rng(seed)
    lam, V = np.linalg.eigh(DRIVEN_E0)
    root = V @ np.diag(1.0 / np.sqrt(lam)) @ V.T
    center = V @ ((V.T @ DRIVEN_F0) / lam)
    cap = -(DRIVEN_G0 - center @ DRIVEN_E0 @ center)
    starts = []
    for _ in range(count):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        level = rng.uniform(0.0, cap)
        starts.append((center + np.sqrt(cap - level) * (root @ d), level))
    return starts
