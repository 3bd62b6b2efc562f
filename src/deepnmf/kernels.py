"""Hot numeric kernels in plain numpy.

The quadratic operator, the KKT residual, the accelerated solver loop and
the k-means assignment each have one implementation. ``left``/``right``
operator factors of None stand for identities.

The solver loop applies the quadratic operator once per iteration, to the
new iterate. Because the block gradient is affine, the gradient at the
Nesterov search point is a combination of the two latest iterate gradients
and is never evaluated on its own. Every block-sized array of the loop is a
buffer allocated once per call and written in place through ``out``
arguments; nothing is shared between calls, so concurrent solves in threads
stay independent. ``_quad_apply_into`` and ``_kkt_norm_into`` are the single
definitions of the operator and the KKT residual; the loop calls them on its
buffers, and ``quad_apply``/``kkt_norm`` on fresh ones.
"""

import numpy as np

# Read by perfbench/worker.py's provenance record; numpy is the only path.
NUMBA_ENABLED = False

# Solve status codes shared by kernels and their callers.
CONVERGED = 0
MAXITER = 1
DIVERGED = 2
NONFINITE = 3


def _contiguous_or_none(m):
    """Operator factor as a C-contiguous array; None (an identity) stays."""
    return None if m is None else np.ascontiguousarray(m)


def _quad_apply_into(v, left, right, colsum_w, ridge, out, tmp):
    """Write left @ v @ right + colsum/ridge terms into ``out``.

    ``tmp`` is scratch of v's shape. The all-ones gram term is applied as a
    broadcast of v's weighted column sums (one matrix-vector product), never
    as a materialized ones matrix.
    """
    if left is not None and right is not None:
        np.dot(left, v, tmp)
        np.dot(tmp, right, out)
    elif left is not None:
        np.dot(left, v, out)
    elif right is not None:
        np.dot(v, right, out)
    else:
        out[:, :] = v
    if ridge != 0.0:
        np.multiply(v, ridge, tmp)
        np.add(out, tmp, out)
    if colsum_w != 0.0:
        np.add(out, np.dot(np.full(v.shape[0], colsum_w), v), out)


def quad_apply(v, left, right, colsum_w, ridge):
    """Apply the quadratic operator: left @ v @ right + colsum/ridge terms."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    out = np.empty(v.shape)
    _quad_apply_into(v, _contiguous_or_none(left), _contiguous_or_none(right),
                     colsum_w, ridge, out, np.empty(v.shape))
    return out


def _inner(a, b):
    """Frobenius inner product of two contiguous arrays of one shape."""
    return np.dot(a.ravel(), b.ravel())


def _kkt_norm_into(v, g, mask, mask2, tmp):
    """Frobenius norm of the projected gradient, using the given scratch.

    Gradient entries that are nonnegative at zero-valued variables do not
    count: they satisfy the first-order conditions of the nonneg constraint.
    ``mask``/``mask2`` are boolean and ``tmp`` float scratch of v's shape.
    """
    np.greater(v, 0.0, mask)
    np.less(g, 0.0, mask2)
    np.logical_or(mask, mask2, tmp)
    np.multiply(g, tmp, tmp)
    return np.sqrt(_inner(tmp, tmp))


def kkt_norm(v, g):
    """Frobenius norm of the projected gradient (see ``_kkt_norm_into``)."""
    v = np.ascontiguousarray(v)
    return float(_kkt_norm_into(v, np.ascontiguousarray(g),
                                np.empty(v.shape, dtype=np.bool_),
                                np.empty(v.shape, dtype=np.bool_),
                                np.empty(v.shape)))


def apg_quad_solve(v0, left, right, lin, colsum_w, ridge, obj_const,
                   lipschitz, rel_tol, max_iters):
    """Accelerated projected gradient on a nonneg-constrained quadratic block.

    Iterates x_{k+1} = P(y_k - grad(y_k)/LC) with the Nesterov extrapolation
    y_{k+1} = x_{k+1} + beta_k (x_{k+1} - x_k), beta_k = (a_k - 1)/a_{k+1},
    the momentum recursion a_{k+1} = (1 + sqrt(4 a_k^2 + 1))/2 from a_0 = 1
    and y_0 = x_0 = ``v0``, stopping when the projected gradient norm at the
    iterate falls below ``rel_tol`` times its value at ``v0``.

    The gradient is affine, so the search point needs no operator application
    of its own: with g_k = grad(x_k) and u_k = x_k - g_k/LC, the step target
    y_k - grad(y_k)/LC equals u_k + beta_{k-1} (u_k - u_{k-1}). Each
    iteration applies the operator once, to the new iterate, and the target
    is built from the two latest exact iterate gradients, so no error
    accumulates. Block-sized arrays are buffers allocated once per call and
    written in place.

    Because the accelerated iteration is not monotone, the best iterate seen
    (by block objective) is tracked and returned if the final iterate is
    worse, so the returned objective never exceeds the starting one.

    Returns (solution, iterations, status, relative_residual, objective).
    """
    v0 = np.ascontiguousarray(v0)
    lin = np.ascontiguousarray(lin)
    left = _contiguous_or_none(left)
    right = _contiguous_or_none(right)
    shape = v0.shape
    g = np.empty(shape)
    u = np.empty(shape)
    # u_prev holds u_{k-1} only until the step target is formed; for the
    # rest of each iteration, and outside the loop, it is scratch.
    u_prev = np.empty(shape)
    mask = np.empty(shape, dtype=np.bool_)
    mask2 = np.empty(shape, dtype=np.bool_)
    _quad_apply_into(v0, left, right, colsum_w, ridge, g, u_prev)
    np.add(g, lin, g)
    np.isfinite(g, mask)
    if not np.all(mask):
        return v0.copy(), 0, NONFINITE, np.inf, np.inf
    r0 = _kkt_norm_into(v0, g, mask, mask2, u_prev)
    f0 = 0.5 * (_inner(v0, g) + _inner(v0, lin)) + obj_const
    # Objectives this close to zero are roundoff of the constant term; the
    # divergence test must not fire on their noise.
    div_floor = 2.5e-14 * (1.0 + abs(obj_const))
    if r0 == 0.0:
        return v0.copy(), 0, CONVERGED, 0.0, f0

    step = 1.0 / lipschitz
    np.multiply(g, -step, u)
    np.add(u, v0, u)
    u_prev[:, :] = u
    best_v = v0.copy()
    # The next iterate is written into ``spare``; the current one is ``cur``.
    # An improving iterate becomes ``best_v`` by swapping buffers, not by
    # copying, and the old best buffer becomes the spare.
    spare = np.empty(shape)
    cur = best_v
    best_f = f0
    alpha = 1.0
    beta = 0.0
    status = MAXITER
    rel = 1.0
    f_cur = f0
    iters = 0
    for k in range(max_iters):
        # A non-finite entry of g = grad(x_k) makes f_cur non-finite, so this
        # stands in for checking the search-point gradient.
        if not np.isfinite(f_cur):
            status = NONFINITE
            break
        cur = spare
        np.subtract(u, u_prev, cur)
        np.multiply(cur, beta, cur)
        np.add(cur, u, cur)
        np.clip(cur, 0.0, np.inf, cur)
        alpha_next = 0.5 * (1.0 + np.sqrt(4.0 * alpha * alpha + 1.0))
        beta = (alpha - 1.0) / alpha_next
        alpha = alpha_next
        iters = k + 1

        _quad_apply_into(cur, left, right, colsum_w, ridge, g, u_prev)
        np.add(g, lin, g)
        f_cur = 0.5 * (_inner(cur, g) + _inner(cur, lin)) + obj_const
        if f_cur < best_f:
            best_f = f_cur
            spare = best_v
            best_v = cur
        if f_cur > 10.0 * max(f0, 0.0) + div_floor:
            status = DIVERGED
            break
        rel = _kkt_norm_into(cur, g, mask, mask2, u_prev) / r0
        if rel <= rel_tol:
            status = CONVERGED
            break
        np.multiply(g, -step, u_prev)
        np.add(u_prev, cur, u_prev)
        u, u_prev = u_prev, u

    # Acceleration is not monotone: fall back to the best iterate seen only
    # when the final one ended up above the starting objective, and report
    # the residual of whatever is actually returned.
    if f_cur > f0:
        _quad_apply_into(best_v, left, right, colsum_w, ridge, g, u_prev)
        np.add(g, lin, g)
        rel = _kkt_norm_into(best_v, g, mask, mask2, u_prev) / r0
        if status == CONVERGED and rel > rel_tol:
            status = MAXITER
        return best_v, iters, status, rel, best_f
    return cur, iters, status, rel, f_cur


# Timed by the kernels.eig_us_per_iter.60x60 case of perfbench/worker.py.
def sym_top_eig(gram, v0, rel_tol, max_iters):
    """Power iteration for the top eigenvalue of a symmetric PSD matrix.

    Convergence is linear with some ratio r, so the remaining error is about
    r/(1-r) times the last change; the stop threshold scales the requested
    tolerance by the estimated (1-r)/r to actually deliver it.

    Returns (eigenvalue, iterations, status). A zero eigenvalue estimate with
    a nonzero matrix signals a start vector orthogonal to the top eigenspace.
    """
    gram = np.ascontiguousarray(gram)
    v = np.ascontiguousarray(v0).copy()
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


def kmeans_assign(points, centers):
    """Nearest-center assignment, one vectorized pass per center.

    Ties break toward the lowest center index. Returns (labels, sq_dists).
    """
    points = np.ascontiguousarray(points)
    centers = np.ascontiguousarray(centers)
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

