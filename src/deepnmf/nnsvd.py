"""Nonnegative double-SVD initialization for factor pairs.

Deterministic SVD-based seeding in the style of Boutsidis & Gallopoulos
(2008): the leading singular triplet of a nonnegative matrix is nonnegative
up to sign and is used as-is; every later triplet is split into its positive
and negated-negative parts and the dominant pair is kept.
"""

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, check_nonneg


def nnsvd_init(x, k):
    """Seed a rank-k nonnegative factor pair (w, h) with w @ h close to x.

    Plain NNSVD: zeros produced by the positive/negative split stay zero (the
    projection-based solvers downstream have no multiplicative lock-in). The
    only exception is a column of w that comes out entirely zero, which can
    happen when k exceeds the numerical rank; such a column of w and the
    matching row of h are filled with the constant mean(x)/k so no factor
    starts degenerate.

    Args:
        x: nonnegative matrix, m x n.
        k: target rank, 1 <= k <= min(m, n).

    Returns:
        (w, h), m x k and k x n, with w >= 0, h >= 0, bit-reproducible for
        fixed input.
    """
    x = as_matrix(x, "x")
    check_nonneg(x, "x")
    m, n = x.shape
    k = int(k)
    if not 1 <= k <= min(m, n):
        raise InvalidInputError(f"k must be in [1, {min(m, n)}], got {k}")

    u, s, vt = np.linalg.svd(x, full_matrices=False)

    w = np.zeros((m, k))
    h = np.zeros((k, n))

    # Leading triplet: nonnegative by Perron-Frobenius, modulo a global sign.
    u0, v0 = u[:, 0], vt[0, :]
    if u0.sum() < 0:
        u0, v0 = -u0, -v0
    w[:, 0] = np.sqrt(s[0]) * np.maximum(u0, 0.0)
    h[0, :] = np.sqrt(s[0]) * np.maximum(v0, 0.0)

    for j in range(1, k):
        uj, vj = u[:, j], vt[j, :]
        up, un = np.maximum(uj, 0.0), np.maximum(-uj, 0.0)
        vp, vn = np.maximum(vj, 0.0), np.maximum(-vj, 0.0)
        up_n, un_n = np.linalg.norm(up), np.linalg.norm(un)
        vp_n, vn_n = np.linalg.norm(vp), np.linalg.norm(vn)
        m_pos = up_n * vp_n
        m_neg = un_n * vn_n
        # Ties break toward the positive part.
        if m_pos >= m_neg:
            if m_pos == 0.0:
                continue
            scale = np.sqrt(s[j] * m_pos)
            w[:, j] = scale * (up / up_n)
            h[j, :] = scale * (vp / vp_n)
        else:
            scale = np.sqrt(s[j] * m_neg)
            w[:, j] = scale * (un / un_n)
            h[j, :] = scale * (vn / vn_n)

    # Columns sitting at roundoff scale carry no information (k beyond the
    # numerical rank); fill them so no factor starts degenerate.
    fill = float(np.mean(x)) / k
    tiny = 1e-6 * np.sqrt(s[0]) if s[0] > 0 else 0.0
    for j in range(k):
        if np.linalg.norm(w[:, j]) <= tiny or np.linalg.norm(h[j, :]) <= tiny:
            w[:, j] = fill
            h[j, :] = fill

    return w, h
