"""Output checks, run after the clock stops.

Each check returns a list of problems; an empty list means the outputs are
correct.  The references are arguments, so a check can be run against a
deliberately wrong one to see it reject (README, "Each check can fail").
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import refs

SLICE_TOL = 1e-5          # absolute; the closed form agrees to 1e-6 at values up to 6e4
MARGIN_TOL = 1e-8         # the CLI's own soundness tolerance
PARAMS_RTOL = 1e-7        # (E, f, g) against DOP853, relative to 1 + |value|
TOUCH_TOL = 1e-7          # 100 * rel_tol, the default of touching_trajectory
BACKTRACE_TOL = 1e-8      # start state recovered by the back-trace


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def sec5_reach(out_dir: Path, exit_code: int, t: float,
               headroom=refs.sec5_headroom) -> list:
    """The written slice matches the closed form over the whole grid, and
    the assumption report holds."""
    if exit_code != 0:
        return [f"reach exited {exit_code}"]
    man = json.loads((out_dir / "family_manifest.json").read_text())
    gammas = np.array(man["gammas"])
    rep = man["assumptions"]
    problems = []
    if not (rep["bounded_ok"] and rep["falling_ok"]):
        problems.append(f"assumptions not met: bounded_ok={rep['bounded_ok']}, "
                        f"falling_ok={rep['falling_ok']}")
    if rep["n_boundary_points"] < 1:
        problems.append("assumption check found no boundary point")
    slc = _table(out_dir / (f"slice_t{t:g}".replace(".", "p") + ".csv"))
    ref = headroom(t, gammas, slc[:, :2])
    err = float(np.max(np.abs(slc[:, 2] - ref)))
    signs = int(np.count_nonzero((slc[:, 2] >= 0) != (ref >= 0)))
    if err > SLICE_TOL or signs:
        problems.append(f"slice differs from the closed form: max {err:.3e} "
                        f"(tol {SLICE_TOL:g}), {signs} sign mismatches")
    return problems


def sec5_verify(out_dir: Path, exit_code: int, t: float, family,
                margins, headroom=refs.sec5_headroom) -> list:
    """Exit 0, and every written endpoint lies in the intersection, judged
    by the program's family (``margins``, parareach's membership_margins)
    and by the closed form."""
    if exit_code != 0:
        return [f"verify exited {exit_code}"]
    report = json.loads((out_dir / "verify_report.json").read_text())
    ends = _table(out_dir / "endpoints.csv")
    problems = []
    if report["n_violations"] or report["n_admissible"] != len(ends) or not len(ends):
        problems.append(f"report: {report['n_violations']} violations, "
                        f"{report['n_admissible']} admissible, {len(ends)} endpoints")
    judged = (("program family", margins(family, t, ends[:, :2], ends[:, 2])),
              ("closed form", ends[:, 2] - headroom(t, family.gammas, ends[:, :2])))
    for what, m in judged:
        if m.max() > MARGIN_TOL:
            problems.append(f"endpoint outside the {what}: margin {m.max():.3e}")
    return problems


def driven_round(tvp, rides, solution) -> list:
    """(E, f, g) match the DOP853 reference at every node; each ride stays
    on the surface at every node; each back-trace returns to its start."""
    problems = []
    prog = np.concatenate([tvp.E_samples.reshape(len(tvp.grid), -1),
                           tvp.f_samples, tvp.g_samples[:, None]], axis=1)
    ref = solution(tvp.grid)
    err = float(np.max(np.abs(prog - ref) / (1.0 + np.abs(ref))))
    if tvp.escape_time is not None or err > PARAMS_RTOL:
        problems.append(f"(E, f, g) differ from DOP853 by {err:.3e} "
                        f"(escape {tvp.escape_time})")
    for k, (start, traj, back) in enumerate(rides):
        R = solution(traj.grid)
        E, f, g = R[:, :4].reshape(-1, 2, 2), R[:, 4:6], R[:, 6]
        X = traj.x_samples
        h = (np.einsum("ki,kij,kj->k", X, E, X) - 2.0 * np.sum(f * X, axis=1)
             + g + traj.xq_samples)
        worst = max(float(np.max(np.abs(h))), float(np.max(np.abs(traj.h_samples))))
        if worst > TOUCH_TOL:
            problems.append(f"ride {k}: |h| reaches {worst:.3e} (tol {TOUCH_TOL:g})")
        gap = max(float(np.max(np.abs(back.x - start.x))), abs(back.x_q - start.x_q))
        if gap > BACKTRACE_TOL:
            problems.append(f"ride {k}: back-trace misses its start by {gap:.3e}")
    return problems
