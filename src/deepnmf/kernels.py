"""Hot numeric kernels in plain numpy.

The quadratic operator (``left @ V @ right`` plus a basis block's
``colsum`` term), the KKT residual and the accelerated solver loop each
have one implementation; ``left``/``right`` of None stand for identities.

The solver loop applies the quadratic operator once per iteration, to the
candidate iterate, and discards a momentum step that raises the objective.
Because the block gradient is affine, the gradient at the Nesterov search
point is a combination of the two latest iterate gradients and is never
evaluated on its own. Every block-sized array of the loop is a
buffer allocated once per call and written in place through ``out``
arguments; nothing is shared between calls, so concurrent solves in threads
stay independent. ``_quad_apply_into`` and ``_kkt_norm_into`` are the single
definitions of the operator and the KKT residual; the loop calls them on its
buffers, and ``quad_apply``/``kkt_norm`` on fresh ones.

k-means works on samples as the columns of a (d, n) array, the layout of
the representations it clusters. ``sq_dists`` is its one distance, added
coordinate by coordinate over contiguous rows, and the assignment is
defined by a per-center loop over that distance. ``assign_labels`` returns
that loop's labels bit for bit at a fraction of its cost: one matrix
product screens every center, a rounding bound proves which points have a
single nearest center, and only the rest go through the loop. Distances to
each point's own center are a separate step (``own_sq_dists``), taken only
where they are read. ``kmeans_assign`` is the same path for callers with
one sample per row.
"""

import math

import numpy as np

from .errors import InvalidInputError, NumericalError

# Read by perfbench/worker.py's provenance record; numpy is the only path.
NUMBA_ENABLED = False


def roundoff_slack(const):
    """Absolute change of a block objective that carries the constant
    ``const`` (half the squared norm of its fit target) and is still
    roundoff: the objective is a difference of terms of that size, so
    values this close together are indistinguishable."""
    return 2.5e-14 * abs(const)


def _contiguous_or_none(m):
    """Operator factor as a C-contiguous array; None (an identity) stays."""
    return None if m is None else np.ascontiguousarray(m)


def _quad_apply_into(v, left, right, colsum_vec, out, tmp):
    """Write left @ v @ right + the colsum term into ``out``.

    ``tmp`` is scratch of v's shape. The all-ones gram term of a basis block
    is applied as a broadcast of v's column sums weighted by ``colsum_vec``,
    one entry per row (one matrix-vector product, skipped for None), never
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
    if colsum_vec is not None:
        np.add(out, np.dot(colsum_vec, v), out)


def quad_apply(v, left, right, colsum_w):
    """Apply the quadratic operator: left @ v @ right + the colsum term."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    out = np.empty(v.shape)
    colsum_vec = None if colsum_w == 0.0 else np.full(v.shape[0], colsum_w)
    _quad_apply_into(v, _contiguous_or_none(left), _contiguous_or_none(right),
                     colsum_vec, out, np.empty(v.shape))
    return out


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
    return math.sqrt(float(np.vdot(tmp, tmp)))


def kkt_norm(v, g):
    """Frobenius norm of the projected gradient (see ``_kkt_norm_into``)."""
    v = np.ascontiguousarray(v)
    return _kkt_norm_into(v, np.ascontiguousarray(g),
                          np.empty(v.shape, dtype=np.bool_),
                          np.empty(v.shape, dtype=np.bool_), np.empty(v.shape))


def apg_quad_solve(v0, left, right, lin, colsum_w, ridge, obj_const,
                   lipschitz, rel_tol, max_iters):
    """Accelerated projected gradient on a nonneg-constrained quadratic
    block, with function-value restart.

    The gradient is the quadratic operator plus ``lin``; a representation
    block carries its whole penalty in ``left``. ``ridge`` is a reserved
    positional slot: anything but 0 raises InvalidInputError at once.

    Iterates x_{k+1} = P(y_k - grad(y_k)/LC) with the Nesterov extrapolation
    y_{k+1} = x_{k+1} + beta_k (x_{k+1} - x_k), beta_k = (a_k - 1)/a_{k+1},
    the momentum recursion a_{k+1} = (1 + sqrt(4 a_k^2 + 1))/2 from a_0 = 1
    and y_0 = x_0 = ``v0``. A momentum step (beta > 0) whose block objective
    is above the last accepted iterate's is discarded, and the recursion
    restarts from that iterate at a = 1 (O'Donoghue & Candes 2015). Plain
    steps are always accepted, so accepted iterates never raise the
    objective beyond roundoff. Every 8th accepted iterate is tested for the
    stop: a projected-gradient norm at most ``rel_tol`` times the one at
    ``v0``.

    The gradient is affine, so the search point needs no operator application
    of its own: with g_k = grad(x_k) and u_k = x_k - g_k/LC, the step target
    y_k - grad(y_k)/LC equals u_k + beta_{k-1} (u_k - u_{k-1}). Each
    iteration applies the operator once, to the candidate; a rejected one
    costs nothing else. Block-sized arrays are buffers allocated once per
    call and written in place, and the scalars of the loop are Python
    floats.

    Raises NumericalError on a non-finite gradient or objective, and on a
    candidate objective past 10x the starting one, which almost always
    means ``lipschitz`` is too small.

    Returns (solution, iterations, converged, relative_residual, objective).
    The iterations count every operator application, rejected ones
    included; the residual and ``converged`` (residual at most ``rel_tol``)
    are those of the returned solution, which is ``v0`` if roundoff left
    the accepted objective above it.
    """
    if ridge != 0.0:
        raise InvalidInputError(f"ridge must be 0, got {ridge}")
    v0 = np.ascontiguousarray(v0)
    lin = np.ascontiguousarray(lin)
    left = _contiguous_or_none(left)
    right = _contiguous_or_none(right)
    shape = v0.shape
    colsum_vec = None if colsum_w == 0.0 else np.full(shape[0], colsum_w)
    obj_const = float(obj_const)
    g = np.empty(shape)
    u = np.empty(shape)
    # u_prev holds u_{k-1} only until the step target is formed; for the
    # rest of each iteration, and outside the loop, it is scratch.
    u_prev = np.empty(shape)
    mask = np.empty(shape, dtype=np.bool_)
    mask2 = np.empty(shape, dtype=np.bool_)
    _quad_apply_into(v0, left, right, colsum_vec, g, u_prev)
    np.add(g, lin, g)
    np.isfinite(g, mask)
    if not np.all(mask):
        raise NumericalError("gradient produced non-finite entries")
    r0 = _kkt_norm_into(v0, g, mask, mask2, u_prev)
    f0 = 0.5 * (float(np.vdot(v0, g)) + float(np.vdot(v0, lin))) + obj_const
    # Objectives this close to zero are roundoff of the constant term; the
    # divergence test must not fire on their noise.
    div_limit = 10.0 * max(f0, 0.0) + roundoff_slack(obj_const)
    if r0 == 0.0:
        return v0.copy(), 0, True, 0.0, f0

    step = 1.0 / float(lipschitz)
    np.multiply(g, -step, u)
    np.add(u, v0, u)
    # x, g and f_x are the accepted iterate, its gradient and objective; the
    # candidate is built in y and g_y, and takes their place by a swap.
    x = v0.copy()
    y = np.empty(shape)
    g_y = np.empty(shape)
    f_x = f0
    alpha = 1.0
    beta = 0.0
    accepted = 0
    iters = 0
    rel = 1.0
    for iters in range(1, max_iters + 1):
        if beta > 0.0:
            np.subtract(u, u_prev, y)
            np.multiply(y, beta, y)
            np.add(y, u, y)
            np.maximum(y, 0.0, out=y)
        else:
            np.maximum(u, 0.0, out=y)
        _quad_apply_into(y, left, right, colsum_vec, g_y, u_prev)
        np.add(g_y, lin, g_y)
        f_y = (0.5 * (float(np.vdot(y, g_y)) + float(np.vdot(y, lin)))
               + obj_const)
        # A non-finite entry of g_y makes f_y non-finite.
        if not math.isfinite(f_y):
            raise NumericalError("gradient produced non-finite entries")
        if f_y > div_limit:
            raise NumericalError(
                f"objective grew past 10x its starting value at iteration "
                f"{iters}; the Lipschitz constant is likely wrong")
        if beta > 0.0 and f_y > f_x:
            alpha, beta = 1.0, 0.0
            continue
        x, y, g, g_y, f_x = y, x, g_y, g, f_y
        accepted += 1
        alpha_next = 0.5 * (1.0 + math.sqrt(4.0 * alpha * alpha + 1.0))
        beta = (alpha - 1.0) / alpha_next
        alpha = alpha_next
        if accepted % 8 == 0:
            rel = _kkt_norm_into(x, g, mask, mask2, u_prev) / r0
            if rel <= rel_tol:
                break
        np.multiply(g, -step, u_prev)
        np.add(u_prev, x, u_prev)
        u, u_prev = u_prev, u

    if f_x > f0:
        x, f_x, rel = v0.copy(), f0, 1.0
    elif accepted % 8:
        rel = _kkt_norm_into(x, g, mask, mask2, u_prev) / r0
    return x, iters, bool(rel <= rel_tol), rel, f_x


# Timed by the kernels.eig_us_per_iter.60x60 case of perfbench/worker.py.
def sym_top_eig(gram, v0, rel_tol, max_iters):
    """Power iteration for the top eigenvalue of a symmetric PSD matrix.

    Convergence is linear with some ratio r, so the remaining error is about
    r/(1-r) times the last change; the stop threshold scales the requested
    tolerance by the estimated (1-r)/r to actually deliver it.

    Returns (eigenvalue, iterations, converged). A zero eigenvalue estimate with
    a nonzero matrix signals a start vector orthogonal to the top eigenspace.
    """
    gram = np.ascontiguousarray(gram)
    v = np.ascontiguousarray(v0).copy()
    lam = 0.0
    d_prev = np.inf
    converged = False
    iters = 0
    for k in range(max_iters):
        w = np.dot(gram, v)
        lam_new = np.sum(v * w)
        nrm = np.sqrt(np.sum(w * w))
        iters = k + 1
        if nrm == 0.0:
            return 0.0, iters, True
        v = w / nrm
        d = abs(lam_new - lam)
        if k > 0:
            if d_prev > 0.0 and np.isfinite(d_prev):
                ratio = min(max(d / d_prev, 1e-3), 0.999)
            else:
                ratio = 1e-3
            if d <= rel_tol * abs(lam_new) * (1.0 - ratio) / ratio:
                lam = lam_new
                converged = True
                break
        d_prev = d
        lam = lam_new
    return lam, iters, converged


def sq_dists(data, centers):
    """Squared distance of each column of ``data`` (d, n) to ``centers``:
    one center (d,) for every column, or one per column (d, n). The one
    definition k-means uses, summed coordinate by coordinate over contiguous
    rows: acc = (x_0 - c_0)^2, then acc += (x_j - c_j)^2 for j = 1..d-1."""
    diff = data - np.reshape(centers, (data.shape[0], -1))
    diff *= diff
    acc = diff[0].copy()
    for row in diff[1:]:
        acc += row
    return acc


def own_sq_dists(data, centers, labels):
    """Squared distance of each column of ``data`` (d, n) to its own center,
    row ``labels[i]`` of ``centers`` (k, d): :func:`sq_dists` against the
    gathered (d, n) centers."""
    return sq_dists(data, centers.T.take(labels, axis=1))


def _assign_loop(data, centers):
    """Nearest-center assignment of the columns of ``data``, one vectorized
    pass per center.

    The definition that :func:`assign_labels` reproduces bit for bit: the
    distance is :func:`sq_dists` and the first center with the smallest one
    wins (strict ``<``). Returns (labels, distances); a column none of whose
    distances is below inf keeps label 0 and distance inf.
    """
    n = data.shape[1]
    best = np.full(n, np.inf)
    labels = np.zeros(n, dtype=np.int64)
    for c in range(centers.shape[0]):
        d2 = sq_dists(data, centers[c])
        better = d2 < best
        labels = np.where(better, c, labels)
        best = np.where(better, d2, best)
    return labels, best


_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
# Above this, a squared distance or a screen entry could overflow.
_PSI_MAX = np.finfo(np.float64).max / 4


def assign_labels(data, centers, sq_norms):
    """Nearest-center labels of the columns of ``data`` (d, n): one GEMM
    screens, exact arithmetic settles.

    ``centers`` is (k, d) and ``sq_norms`` holds each column's squared norm
    (any summation order). The labels equal :func:`_assign_loop`'s bit for
    bit: ties break toward the lowest center index, and a column whose
    distances are all NaN or infinite gets label 0.

    The screen is s_ic = |c|^2 - 2 c.p_i, all centers at once as
    ``centers @ data``; |p_i|^2, the same for every center of a point, is
    left out. Bound its rounding with u = eps/2, g_m = m u/(1 - m u),
    psi_i = |p_i|^2 + max_c |c|^2 and the exact D_ic = |p_i - c|^2
    = |p_i|^2 + t_ic:

    * In any summation order c.p is within g_d sum_j |c_j p_j|
      <= g_d psi/2 of its value and |c|^2 within g_d psi, and the final
      subtraction adds at most 2u(1 + g_d) psi, so
      |s_ic - t_ic| <= ((d + 1) eps + O(eps^2)) psi_i.
    * :func:`sq_dists` carries three relative roundings into each term
      (x_j - c_j)^2, the difference's twice as it enters squared and the
      product's once, and its sequential sum passes a term through at most
      d - 1 additions, so its value q_ic obeys |q_ic - D_ic| <= g_(d+2) D_ic
      <= ((d + 2) eps + O(eps^2)) psi_i, as D_ic <= 2 psi_i.
    * The loop picks r with q_ir <= q_ic for every c. For the screen's
      minimizer m, s_ir - s_im <= (D_ir - D_im) + 2 (d + 1) eps psi_i
      <= (4d + 6) eps psi_i to first order.

    The threshold tau_i = (6d + 20)(eps psi_i + tiny) covers that, the
    second-order terms and the rounding of psi_i and tau_i themselves; the
    tiny term (the smallest normal number) covers underflow, which moves
    each of the 6d products involved by at most tiny, even when flushed to
    zero. So r is always within tau_i of the screened minimum, and a point
    with exactly one center there takes it. Points with two or more
    candidates, or with psi_i not finite or above max/4 (where a sum could
    overflow), go through the loop, restricted to those columns.
    """
    k = centers.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = np.einsum("ij,ij->i", centers, centers)
        screen = np.dot(-2.0 * centers, data)
        screen += c2[:, None]
        psi = sq_norms + c2.max()
        cand = screen <= (screen.min(axis=0)
                          + (6 * data.shape[0] + 20) * (_EPS * psi + _TINY))
        # Per point, the candidate count and the sum of candidate indices:
        # small integers, exact in float64 in any summation order. Where
        # the count is 1 the sum is the one candidate's index; elsewhere it
        # is meaningless, and the loop overwrites it.
        count, index = np.dot(np.vstack([np.ones(k), np.arange(k)]),
                              cand.astype(np.float64))
        settled = (count == 1.0) & (psi <= _PSI_MAX)
        labels = index.astype(np.int64)
        rest = np.flatnonzero(~settled)
        if rest.size:
            labels[rest] = _assign_loop(data[:, rest], centers)[0]
    return labels


def kmeans_assign(points, centers):
    """Nearest-center assignment of the rows of ``points`` (n, d): the
    labels of :func:`assign_labels` and each point's :func:`sq_dists` to its
    center, bit-identical to :func:`_assign_loop` on the transposed points.

    An adapter for callers with one sample per row; k-means itself works on
    the (d, n) layout. Where every distance of a point is NaN or infinite,
    the loop keeps distance inf, while the gathered distance to its label 0
    is NaN or inf; NaN is therefore reported as inf.
    """
    data = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    if centers.shape[0] == 0:
        return _assign_loop(data, centers)
    with np.errstate(over="ignore", invalid="ignore"):
        labels = assign_labels(data, centers,
                               np.einsum("ij,ij->j", data, data))
        d2 = own_sq_dists(data, centers, labels)
    d2[np.isnan(d2)] = np.inf
    return labels, d2
