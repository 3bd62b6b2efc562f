"""Hot numeric kernels, compiled with numba when available.

Two execution paths share this module:

* with numba installed (the optional ``numba`` extra, ``pip install -e
  .[numba]``) each kernel is JIT-compiled with ``@njit(cache=True,
  nogil=True)``;
* without numba, or with the environment variable ``DEEPNMF_NO_NUMBA=1``,
  the same functions run as plain numpy.

The quadratic operator, the accelerated solver loop and the eigenvalue
kernel are single-source (a numba-compatible numpy subset, no
``fastmath``), so both paths run the same arithmetic. The k-means
assignment has one implementation per path - explicit loops compiled,
vectorized otherwise - whose results agree except at exact distance ties.
"""

import os

import numpy as np

_flag = os.environ.get("DEEPNMF_NO_NUMBA", "").strip().lower()
_DISABLED = _flag not in ("", "0", "false", "no")

try:
    if _DISABLED:
        raise ImportError
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False

# Solve status codes shared by kernels and their callers.
CONVERGED = 0
MAXITER = 1
DIVERGED = 2
NONFINITE = 3


def _quad_apply(v, left, use_left, right, use_right, colsum_w, ridge):
    """Apply the quadratic operator: left @ v @ right + colsum/ridge terms.

    The all-ones gram term is applied as a column-sum broadcast, never as a
    materialized ones matrix.
    """
    a = v
    if use_left:
        a = np.dot(left, a)
    if use_right:
        a = np.dot(a, right)
    if not use_left and not use_right:
        a = a.copy()
    if ridge != 0.0:
        a = a + ridge * v
    if colsum_w != 0.0:
        a = a + colsum_w * np.sum(v, axis=0)
    return a


def _kkt_norm(v, g):
    """Frobenius norm of the projected gradient.

    Gradient entries that are nonnegative at zero-valued variables do not
    count: they satisfy the first-order conditions of the nonneg constraint.
    """
    r = g * ((v > 0.0) | (g < 0.0))
    return np.sqrt(np.sum(r * r))


def _apg_quad(v0, left, use_left, right, use_right, lin, colsum_w, ridge,
              obj_const, lipschitz, rel_tol, max_iters):
    """Accelerated projected gradient on a nonneg-constrained quadratic block.

    Iterates x_{k} = P(y_k - grad(y_k)/LC) with the Nesterov extrapolation
    y_{k+1} = x_k + ((a_k - 1)/a_{k+1})(x_k - x_{k-1}) and the momentum
    recursion a_{k+1} = (1 + sqrt(4 a_k^2 + 1))/2, stopping when the projected
    gradient norm at x_k falls below ``rel_tol`` times its value at ``v0``.

    Because the accelerated iteration is not monotone, the best iterate seen
    (by block objective) is tracked and returned if the final iterate is
    worse, so the returned objective never exceeds the starting one.

    Returns (solution, iterations, status, relative_residual, objective).
    """
    g0 = _quad_apply(v0, left, use_left, right, use_right, colsum_w, ridge) + lin
    if not np.all(np.isfinite(g0)):
        return v0.copy(), 0, NONFINITE, np.inf, np.inf
    r0 = _kkt_norm(v0, g0)
    f0 = 0.5 * np.sum(v0 * (g0 + lin)) + obj_const
    # Objectives this close to zero are roundoff of the constant term; the
    # divergence test must not fire on their noise.
    div_floor = 2.5e-14 * (1.0 + abs(obj_const))
    if r0 == 0.0:
        return v0.copy(), 0, CONVERGED, 0.0, f0

    best_f = f0
    best_v = v0.copy()
    cur = v0.copy()
    y = v0.copy()
    alpha = 1.0
    status = MAXITER
    rel = 1.0
    f_cur = f0
    iters = 0
    for k in range(max_iters):
        gy = _quad_apply(y, left, use_left, right, use_right, colsum_w, ridge) + lin
        if not np.all(np.isfinite(gy)):
            status = NONFINITE
            break
        new = np.maximum(y - gy / lipschitz, 0.0)
        alpha_next = 0.5 * (1.0 + np.sqrt(4.0 * alpha * alpha + 1.0))
        y = new + ((alpha - 1.0) / alpha_next) * (new - cur)
        cur = new
        alpha = alpha_next
        iters = k + 1

        gc = _quad_apply(cur, left, use_left, right, use_right, colsum_w, ridge) + lin
        f_cur = 0.5 * np.sum(cur * (gc + lin)) + obj_const
        if f_cur < best_f:
            best_f = f_cur
            best_v = cur.copy()
        if f_cur > 10.0 * max(f0, 0.0) + div_floor:
            status = DIVERGED
            break
        rel = _kkt_norm(cur, gc) / r0
        if rel <= rel_tol:
            status = CONVERGED
            break

    # Acceleration is not monotone: fall back to the best iterate seen only
    # when the final one ended up above the starting objective, and report
    # the residual of whatever is actually returned.
    if f_cur > f0:
        gb = _quad_apply(best_v, left, use_left, right, use_right,
                         colsum_w, ridge) + lin
        rel = _kkt_norm(best_v, gb) / r0
        if status == CONVERGED and rel > rel_tol:
            status = MAXITER
        return best_v, iters, status, rel, best_f
    return cur, iters, status, rel, f_cur


def _sym_top_eig(gram, v0, rel_tol, max_iters):
    """Power iteration for the top eigenvalue of a symmetric PSD matrix.

    Convergence is linear with some ratio r, so the remaining error is about
    r/(1-r) times the last change; the stop threshold scales the requested
    tolerance by the estimated (1-r)/r to actually deliver it.

    Returns (eigenvalue, iterations, status). A zero eigenvalue estimate with
    a nonzero matrix signals a start vector orthogonal to the top eigenspace;
    the caller restarts with a different vector in that case.
    """
    v = v0.copy()
    lam = 0.0
    d_prev = np.inf
    status = MAXITER
    iters = 0
    for k in range(max_iters):
        w = np.dot(gram, v)
        lam_new = np.sum(v * w)
        nrm = np.sqrt(np.sum(w * w))
        iters = k + 1
        if nrm == 0.0:
            return 0.0, iters, CONVERGED
        v = w / nrm
        d = abs(lam_new - lam)
        if k > 0:
            if d_prev > 0.0 and np.isfinite(d_prev):
                ratio = min(max(d / d_prev, 1e-3), 0.999)
            else:
                ratio = 1e-3
            if d <= rel_tol * abs(lam_new) * (1.0 - ratio) / ratio:
                lam = lam_new
                status = CONVERGED
                break
        d_prev = d
        lam = lam_new
    return lam, iters, status


def _kmeans_assign_vectorized(points, centers):
    """Nearest-center assignment, one vectorized pass per center.

    Ties break toward the lowest center index. Returns (labels, sq_dists).
    """
    n = points.shape[0]
    k = centers.shape[0]
    best = np.full(n, np.inf)
    labels = np.zeros(n, dtype=np.int64)
    for c in range(k):
        diff = points - centers[c]
        d2 = np.sum(diff * diff, axis=1)
        better = d2 < best
        labels = np.where(better, c, labels)
        best = np.where(better, d2, best)
    return labels, best


def _kmeans_assign_loops(points, centers):
    """Nearest-center assignment as explicit loops; only used compiled."""
    n, d = points.shape
    k = centers.shape[0]
    best = np.full(n, np.inf)
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        bd = np.inf
        bc = 0
        for c in range(k):
            acc = 0.0
            for j in range(d):
                diff = points[i, j] - centers[c, j]
                acc += diff * diff
            if acc < bd:
                bd = acc
                bc = c
        labels[i] = bc
        best[i] = bd
    return labels, best


if NUMBA_ENABLED:
    _quad_apply = njit(cache=True, nogil=True)(_quad_apply)
    _kkt_norm = njit(cache=True, nogil=True)(_kkt_norm)
    _apg_quad = njit(cache=True, nogil=True)(_apg_quad)
    _sym_top_eig = njit(cache=True, nogil=True)(_sym_top_eig)
    _kmeans_assign = njit(cache=True, nogil=True)(_kmeans_assign_loops)
else:
    _kmeans_assign = _kmeans_assign_vectorized

_DUMMY = np.zeros((1, 1))


def _operand(m):
    """(present, array) for an optional operator factor; None is an identity."""
    if m is None:
        return False, _DUMMY
    return True, np.ascontiguousarray(m)


def quad_apply(v, left, right, colsum_w, ridge):
    """Apply the quadratic operator kernel; ``left``/``right`` may be None."""
    use_left, left_arr = _operand(left)
    use_right, right_arr = _operand(right)
    return _quad_apply(np.ascontiguousarray(v, dtype=np.float64), left_arr,
                       use_left, right_arr, use_right, float(colsum_w),
                       float(ridge))


def apg_quad_solve(v0, left, right, lin, colsum_w, ridge, obj_const,
                   lipschitz, rel_tol, max_iters):
    """Driver for the quadratic APG kernel; ``left``/``right`` may be None."""
    use_left, left_arr = _operand(left)
    use_right, right_arr = _operand(right)
    return _apg_quad(
        np.ascontiguousarray(v0), left_arr, use_left, right_arr, use_right,
        np.ascontiguousarray(lin), float(colsum_w), float(ridge),
        float(obj_const), float(lipschitz), float(rel_tol), int(max_iters),
    )


def sym_top_eig(gram, v0, rel_tol, max_iters):
    return _sym_top_eig(np.ascontiguousarray(gram), np.ascontiguousarray(v0),
                        float(rel_tol), int(max_iters))


def kmeans_assign(points, centers):
    return _kmeans_assign(np.ascontiguousarray(points),
                          np.ascontiguousarray(centers))


def kkt_norm(v, g):
    return float(_kkt_norm(np.ascontiguousarray(v), np.ascontiguousarray(g)))
