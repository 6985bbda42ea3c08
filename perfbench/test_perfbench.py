"""Quick checks of the benchmark's own parts: references, output checks,
span arithmetic and the speed scaling.  Run with the repository's tests (a second or two)."""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import calib
import checks
import inputs
import refs
import spans

SEC5_E0 = np.array([[refs.SEC5_A + refs.SEC5_B, refs.SEC5_A],
                    [refs.SEC5_A, refs.SEC5_A + refs.SEC5_B]])


@pytest.mark.parametrize("gamma", [1.0, 1e3, 1.4e6])
def test_sec5_closed_form_matches_integration(gamma):
    def rhs(t, y):
        E = y.reshape(2, 2)
        return (-0.5 * E @ E + 2.0 * E - np.eye(2)).ravel()

    sol = solve_ivp(rhs, (0.0, inputs.SEC5_TIME), (gamma * SEC5_E0).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    E = sol.y[:, -1].reshape(2, 2)
    np.testing.assert_allclose(refs.sec5_E(inputs.SEC5_TIME, [gamma])[0], E,
                               rtol=1e-9, atol=1e-12)


def _write_reach_outputs(out, gammas, t):
    grid = np.stack(np.meshgrid(np.linspace(-80, 80, 21), np.linspace(-80, 80, 21),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    head = refs.sec5_headroom(t, gammas, grid)
    rows = ["x_0,x_1,xq_max,argmin_gamma"]
    rows += [f"{x!r},{y!r},{v!r},1.0" for (x, y), v in zip(grid.tolist(), head.tolist())]
    (out / "slice_t0p794.csv").write_text("\n".join(rows) + "\n")
    report = {"bounded_ok": True, "falling_ok": True, "n_boundary_points": 3}
    (out / "family_manifest.json").write_text(
        json.dumps({"gammas": list(gammas), "assumptions": report}))


def test_reach_check_rejects_a_wrong_slice(tmp_path):
    gammas = np.geomspace(1.0, 1.4e6, 64)
    _write_reach_outputs(tmp_path, gammas, inputs.SEC5_TIME)
    assert checks.sec5_reach(tmp_path, 0, inputs.SEC5_TIME) == []
    assert checks.sec5_reach(tmp_path, 1, inputs.SEC5_TIME)
    wrong = {"slice at t=0.79": lambda t, g, xs: refs.sec5_headroom(0.79, g, xs),
             "one gamma dropped": lambda t, g, xs: refs.sec5_headroom(t, np.delete(g, 40), xs)}
    for headroom in wrong.values():
        assert checks.sec5_reach(tmp_path, 0, inputs.SEC5_TIME, headroom=headroom)


def test_driven_reference_and_ride_checks():
    import parareach as pr

    u = pr.SampledSignal(inputs.DRIVEN_U_TIMES, inputs.DRIVEN_U_VALUES)
    system = pr.make_system(inputs.DRIVEN_A, inputs.DRIVEN_B, inputs.DRIVEN_BU,
                            inputs.DRIVEN_M, u=u)
    cfg = pr.IntegratorConfig(t_end=inputs.DRIVEN_T_END, **inputs.DRIVEN_TOLS)
    tvp = pr.propagate(pr.Paraboloid(inputs.DRIVEN_E0, inputs.DRIVEN_F0,
                                     inputs.DRIVEN_G0), system, cfg)
    X0 = pr.AugmentedState(*inputs.driven_starts(1, count=1)[0])
    assert abs(pr.value_function(tvp(0.0), X0)) < 1e-12
    traj = pr.touching_trajectory(tvp, X0, system, cfg)
    back = pr.trace_back_to_seed(tvp, system, cfg, float(traj.grid[-1]),
                                 traj.x_samples[-1])
    solution = refs.driven_solution()
    assert checks.driven_round(tvp, [(X0, traj, back)], solution) == []
    moved = pr.AugmentedState(X0.x + 1e-6, X0.x_q)
    assert checks.driven_round(tvp, [(moved, traj, back)], solution)


def test_self_time_subtracts_children():
    def span(i, name, parent, start, end, **counts):
        return dict(id=i, name=name, parent=parent, start=start, end=end,
                    failed=False, u_evals=0, **counts)

    closed = [span(1, "riccati.propagate", 0, 1.0, 3.0, steps=5),
              span(2, "riccati.propagate", 0, 4.0, 8.0, steps=7),
              span(0, "family.build_family", None, 0.0, 10.0)]
    m = spans.layer_metrics(closed, rounds=2)
    assert m["family.build_family.self_s"] == (2.0, "s")
    assert m["riccati.propagate_s"] == (3.0, "s")
    assert m["riccati.steps"] == (6.0, "count")


def test_speed_clock_leaves_out_probes_and_scales_by_harmonic_mean(monkeypatch):
    import time

    def slow_probe():
        time.sleep(0.05)
        return calib.PROBE_REF_S

    monkeypatch.setattr(calib, "EVERY_S", 0.0)
    monkeypatch.setattr(calib, "probe", slow_probe)
    clock = calib.SpeedClock()

    def work():
        clock._probe_if_due()
        time.sleep(0.02)
        clock._probe_if_due()
        return "done"

    result, wall, _, ref, probes = clock.time_round(work)
    assert result == "done" and len(probes) == 2 + calib.AFTER_ROUND
    assert 0.02 <= wall < 0.05 and ref == pytest.approx(wall)

    fast = iter([calib.PROBE_REF_S / 2, calib.PROBE_REF_S, 2 * calib.PROBE_REF_S])
    monkeypatch.setattr(calib, "probe", lambda: next(fast))
    monkeypatch.setattr(calib, "AFTER_ROUND", 3)
    _, wall, _, ref, _ = clock.time_round(lambda: time.sleep(0.01))
    assert ref == pytest.approx(wall * (2 + 1 + 0.5) / 3)
