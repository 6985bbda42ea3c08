"""Reference solutions computed apart from parareach, with numpy and scipy.

sec5 (the paper's Section 5 example): A = -I, B = I, zero input and
M = diag(I, 1, -2I) give dE/dt = -E^2/2 + 2E - I, df/dt = f - E f / 2 and
dg/dt = 0.  The seed E0 = [[a+b, a], [a, a+b]] has eigenvectors (1, 1)/sqrt 2
and (1, -1)/sqrt 2, which the flow keeps, so a member scaled by gamma is
E(t) = V diag(phi(t; gamma(2a+b)), phi(t; gamma b)) V' with phi the
closed-form scalar flow; f0 = 0 keeps f = 0, and g = gamma g0.

driven-rides: the (E, f, g) initial value problem written out from the
condition that the best disturbance holds dh/dt at zero, integrated with
scipy's DOP853 at rtol 1e-12, the input interpolated by scipy's CubicSpline.
"""

from __future__ import annotations

import numpy as np

import inputs

SEC5_A, SEC5_B, SEC5_G0 = 1e-2, 1e-6, -0.015
_HI, _LO = 2.0 + np.sqrt(2.0), 2.0 - np.sqrt(2.0)
_V = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def scalar_flow(t, e0):
    """Solution of e' = -e^2/2 + 2e - 1 from e(0) = e0, for e0 > 2 - sqrt 2
    or t before the blow-up: with r = r0 exp(-sqrt(2) t) and
    r0 = (e0 - hi) / (e0 - lo), e = (hi - lo r) / (1 - r)."""
    e0 = np.asarray(e0, dtype=float)
    r = (e0 - _HI) / (e0 - _LO) * np.exp(-np.sqrt(2.0) * t)
    return (_HI - _LO * r) / (1.0 - r)


def sec5_E(t: float, gammas) -> np.ndarray:
    """E of each scaled member at time t, shape (G, 2, 2)."""
    g = np.asarray(gammas, dtype=float)
    lam = np.stack([scalar_flow(t, g * (2 * SEC5_A + SEC5_B)),
                    scalar_flow(t, g * SEC5_B)], axis=1)
    return np.einsum("ij,gj,kj->gik", _V, lam, _V)


def sec5_headroom(t: float, gammas, xs) -> np.ndarray:
    """Budget headroom of the family intersection, min over members of
    -(x'E x + gamma g0), at each row of xs."""
    g = np.asarray(gammas, dtype=float)
    xs = np.asarray(xs, dtype=float)
    quad = np.einsum("ni,gij,nj->gn", xs, sec5_E(t, g), xs)
    return np.min(-(quad + (g * SEC5_G0)[:, None]), axis=0)


def driven_solution():
    """Dense DOP853 solution of the driven (E, f, g) flow on [0, T]; call it
    with an array of times to get rows (E row-major, f, g)."""
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline

    n, p = 2, 1
    M = inputs.DRIVEN_M
    Mx, Mxu, Mxw = M[:n, :n], M[:n, n:n + p], M[:n, n + p:]
    Mu, Muw, Mw = M[n:n + p, n:n + p], M[n:n + p, n + p:], M[n + p:, n + p:]
    Mw_inv = np.linalg.inv(Mw)
    A, B, Bu = inputs.DRIVEN_A, inputs.DRIVEN_B, inputs.DRIVEN_BU
    ts = inputs.DRIVEN_U_TIMES
    spline = CubicSpline(ts, inputs.DRIVEN_U_VALUES, axis=0)

    def rhs(t, y):
        E, f = y[:4].reshape(2, 2), y[4:6]
        u = spline(min(max(t, ts[0]), ts[-1]))
        # w* = -Mw^-1 (S x + r) maximizes dh/dt; its value vanishing for
        # every x fixes the quadratic, linear and constant parts.
        S = B.T @ E + Mxw.T
        r = Muw.T @ u - B.T @ f
        dE = -E @ A - A.T @ E - Mx + S.T @ Mw_inv @ S
        df = -A.T @ f + (Mxu + E @ Bu) @ u - S.T @ Mw_inv @ r
        dg = 2.0 * f @ Bu @ u - u @ Mu @ u + r @ Mw_inv @ r
        return np.concatenate([dE.ravel(), df, [dg]])

    y0 = np.concatenate([inputs.DRIVEN_E0.ravel(), inputs.DRIVEN_F0,
                         [inputs.DRIVEN_G0]])
    sol = solve_ivp(rhs, (0.0, inputs.DRIVEN_T_END), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return lambda t: sol.sol(np.asarray(t, dtype=float)).T
