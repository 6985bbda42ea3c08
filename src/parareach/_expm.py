"""Matrix exponential of a stack of square matrices.

Scaling and squaring with a [m/m] Padé approximant, m in 3, 5, 7, 9, 13, as
in Al-Mohy & Higham, "A new scaling and squaring algorithm for the matrix
exponential", SIAM J. Matrix Anal. Appl. 31(3), 2009 (their Algorithm 5.1).
Each matrix picks its own (m, s) from bounds on d_p = ||A^p||_1^(1/p) and
the backward-error term ell(A, m): its 1-norm settles both up to degree 9,
and past that one chain of vector-matrix products e' |A|^p, whose maxima are
the 1-norms of |A|^p, upper bounds on those of A^p.  Matrices of one degree
share one Padé evaluation and one solve.  All numpy work is per matrix
(matmul, solve, elementwise), so a matrix's exponential is bit for bit the
same alone as in any stack.
"""

from __future__ import annotations

import numpy as np

_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 4.25}
_DEGREES = np.array([0] + list(_THETA))      # degree 0: the zero matrix, exp = I
_THETAS = np.array([0.0] + list(_THETA.values())[:-1])
# Padé coefficients b_0 .. b_m
_B = {3: (120.0, 60.0, 12.0, 1.0),
      5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
      7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
      9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
          2162160.0, 110880.0, 3960.0, 90.0, 1.0),
      13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)}
# log2 of u / |c_{2m+1}|, with c_{2m+1} = (m!)^2 / ((2m)! (2m+1)!) the leading
# backward-error coefficient and u the unit roundoff
_LOG2_UC = {m: np.log2(2.0 ** -53 * c) for m, c in
            ((3, 100800.0), (5, 10059033600.0), (7, 4487938430976000.0),
             (9, 5914384781877411840000.0), (13, 113250775606021113483283660800000000.0))}
_TINY = np.finfo(float).tiny      # a floor for log2 of a vanishing power


def _ell(lg, m, k):
    """ell(2^k B, m) = max(ceil(log2(alpha / u) / 2m), 0), alpha =
    |c_{2m+1}| ||B|^(2m+1)||_1 / ||B||_1, from the log-norms lg of |B|: the
    squarings beyond the norm bound that keep the backward error at u."""
    a = np.ceil((lg[:, 2 * m + 1] - lg[:, 1] - _LOG2_UC[m]) / (2 * m)) + k
    return np.maximum(a, 0.0).astype(int)


def _select(A):
    """Padé degree m and squarings s of each matrix of the (N, n, n) stack A.

    A zero matrix takes m = 0 (its exponential is I).  A matrix with
    ||A||_1 <= theta_m for m <= 9 takes the least such m and s = 0: ||A||_1
    bounds every d_p, and alpha <= |c_{2m+1}| ||A||_1^2m <= u there, so
    ell(A, m) = 0.  The others take sharper bounds from the chain e' |B|^p,
    p <= 27, of |B| = 2^-s0 |A| with ||B||_1 <= theta_13, so no power
    overflows: log2 d_p(A) = log2 d_p(B) + s0, and ell(2^k A, m) =
    ell(2^(k + s0) B, m)."""
    norm1 = np.abs(A).sum(axis=-2).max(axis=-1)
    m = _DEGREES[np.searchsorted(_THETAS, norm1)]
    s = np.zeros(len(A), dtype=int)
    todo = np.nonzero((m == 13) & np.isfinite(norm1))[0]     # inf, nan: s = 0
    if not len(todo):
        return m, s
    s0 = np.maximum(np.ceil(np.log2(norm1[todo] / _THETA[13])), 0.0).astype(int)
    absB = np.abs(A[todo]) * 0.5 ** s0[:, None, None]
    V = np.empty((len(todo), 28, A.shape[-1]))           # e' |B|^p, p = 0 .. 27
    V[:, 0] = 1.0
    for p in range(1, 28):
        V[:, p] = (V[:, p - 1:p] @ absB)[:, 0]
    lg = np.log2(np.maximum(V.max(axis=-1), _TINY))
    d = lg / np.maximum(np.arange(28), 1) + s0[:, None]   # log2 d_p(A)
    for deg in (3, 5, 7, 9):
        q = (4, 6) if deg <= 5 else (6, 8)
        ok = ((np.maximum(d[:, q[0]], d[:, q[1]]) <= np.log2(_THETA[deg]))
              & (_ell(lg, deg, s0) == 0))
        m[todo[ok]] = deg
        todo, s0, lg, d = todo[~ok], s0[~ok], lg[~ok], d[~ok]
    eta = np.minimum(np.maximum(d[:, 6], d[:, 8]), np.maximum(d[:, 8], d[:, 10]))
    sd = np.maximum(np.ceil(eta - np.log2(_THETA[13])), 0.0).astype(int)
    s[todo] = sd + _ell(lg, 13, s0 - sd)
    return m, s


def _pade(A, m):
    """The [m/m] Padé approximant of exp at each matrix of an (N, n, n)
    stack, r_m(A) = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U with U odd and
    V even in A: the identity added last keeps the diagonal of a small A's
    exponential correctly rounded."""
    b = _B[m]
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    else:
        U, V, P = b[1] * eye, b[0] * eye, A2
        for k in range(2, m + 1, 2):
            if k > 2:
                P = P @ A2
            U = U + b[k + 1] * P
            V = V + b[k] * P
        U = A @ U
    X = 2.0 * np.linalg.solve(V - U, U)
    X += eye
    return X


def expm(A):
    """exp(A) of each square matrix of an (..., n, n) array."""
    A = np.asarray(A, dtype=float)
    shape = A.shape
    if A.ndim < 2 or shape[-1] != shape[-2]:
        raise ValueError(f"expm needs (..., n, n) square matrices, got shape {shape}")
    A = A.reshape((-1,) + shape[-2:])
    out = np.empty_like(A)
    if not A.size:
        return out.reshape(shape)
    m, s = _select(A)
    degrees = np.unique(m)
    for deg in degrees:
        rows = slice(None) if len(degrees) == 1 else np.nonzero(m == deg)[0]
        if deg == 0:
            out[rows] = np.eye(shape[-1])
            continue
        sr = s[rows]
        X = _pade(A[rows] * (0.5 ** sr)[:, None, None] if sr.any() else A[rows], deg)
        for i in range(sr.max()):
            sq = sr > i
            X[sq] = X[sq] @ X[sq]
        out[rows] = X
    return out.reshape(shape)
