"""Independent reference implementations used only to check the library.

Everything here but three is written from the definitions, sharing no code
with the package: a plain projected-gradient solver for quadratic blocks,
NNSVD seeding from the full thin SVD,
the accelerated solver written with two gradient evaluations per iteration,
the misfit summed over one residual of the target's size,
the per-center k-means assignment loop with its coordinate-order distance,
sample-order cluster means,
brute-force partition scores, finite differences, and small-case partition
enumeration. The exceptions use package code so that their output can be
compared bit for bit. Two are fine-tuning loops built from the package's
block problems, solver, steps and sweep loop:
:func:`every_hidden_finetune`, linear fine-tuning with a
hidden-representation solve in every sweep, and
:func:`two_loop_nonlinear_finetune`, the nonlinear sweep as a loop of its
own. The third, :func:`per_column_planted`, draws a planted dataset sample
by sample and forms its data with the package's chain.
"""

import math
from itertools import product

import numpy as np


def plain_pg_quad(v0, gram, lin, lipschitz, max_iters):
    """Plain projected gradient x <- max(x - (gram @ x + lin)/LC, 0).

    Runs the full iteration budget, with one shortcut that cannot change the
    answer: an iterate that reproduces itself exactly is a fixed point in
    float64, so all remaining iterations would be no-ops.
    """
    x = v0.copy()
    for _ in range(max_iters):
        g = np.dot(gram, x) + lin
        new = np.maximum(x - g / lipschitz, 0.0)
        if np.all(new == x):
            return new
        x = new
    return x


def plain_pg_iters_to_tol(v0, gram, lin, lipschitz, rel_tol, max_iters):
    """Iterations plain PG needs before its projected-gradient norm drops
    below rel_tol times the starting one."""
    x = v0.copy()
    g = np.dot(gram, x) + lin
    r = g * ((x > 0.0) | (g < 0.0))
    r0 = np.sqrt(np.sum(r * r))
    if r0 == 0.0:
        return 0
    for k in range(max_iters):
        x = np.maximum(x - g / lipschitz, 0.0)
        g = np.dot(gram, x) + lin
        r = g * ((x > 0.0) | (g < 0.0))
        if np.sqrt(np.sum(r * r)) <= rel_tol * r0:
            return k + 1
    return max_iters


def quad_objective(v, gram, lin, const):
    return 0.5 * float(np.sum(v * (gram @ v))) + float(np.sum(lin * v)) + const


def two_application_apg(v0, left, right, lin, colsum, ridge, const,
                        lipschitz, rel_tol, max_iters, restart=True):
    """Nesterov's accelerated projected gradient on the quadratic block with
    gradient left @ V @ right + colsum * 1 1^T V + lin, written the direct
    way: the gradient is evaluated at the search point y and again at the
    new iterate, every iteration. ``left``/``right`` of None are identities;
    ``ridge`` mirrors the kernel's reserved slot and must be 0. With
    ``restart``, a momentum step whose objective is above the last accepted
    iterate's is discarded and the momentum starts over from that iterate;
    without it, every step is accepted. The stop rule is tested on every 8th
    accepted iterate, and an accepted objective left above the start returns
    the start.

    Raises ValueError on a nonzero ``ridge``. Raises FloatingPointError on a
    non-finite gradient or objective, and on an objective above 10x the
    starting one plus 2.5e-14 * |const|, naming the iteration. Returns
    (solution, iters, converged, relative_residual, objective), where
    converged means the residual is at most ``rel_tol``.
    """
    if ridge != 0.0:
        raise ValueError(f"ridge must be 0, got {ridge}")

    def grad(v):
        a = v if left is None else left @ v
        a = a if right is None else a @ right
        return a + colsum * v.sum(axis=0) + lin

    def kkt(v, g):
        r = np.where((v > 0.0) | (g < 0.0), g, 0.0)
        return math.sqrt(float(np.sum(r * r)))

    def obj(v, g):
        return 0.5 * float(np.sum(v * (g + lin))) + const

    g0 = grad(v0)
    if not np.all(np.isfinite(g0)):
        raise FloatingPointError("non-finite gradient at iteration 0")
    r0 = kkt(v0, g0)
    f0 = obj(v0, g0)
    if r0 == 0.0:
        return v0.copy(), 0, True, 0.0, f0
    div_floor = 2.5e-14 * abs(const)
    cur, y, f_cur = v0.copy(), v0.copy(), f0
    a, beta = 1.0, 0.0
    iters, accepted = 0, 0
    for k in range(max_iters):
        new = np.maximum(y - grad(y) / lipschitz, 0.0)
        gn = grad(new)
        f_new = obj(new, gn)
        iters = k + 1
        if not math.isfinite(f_new):
            raise FloatingPointError(
                f"non-finite objective at iteration {iters}")
        if f_new > 10.0 * max(f0, 0.0) + div_floor:
            raise FloatingPointError(f"objective diverged at iteration {iters}")
        if restart and beta > 0.0 and f_new > f_cur:
            a, beta, y = 1.0, 0.0, cur
            continue
        a_next = 0.5 * (1.0 + math.sqrt(4.0 * a * a + 1.0))
        beta = (a - 1.0) / a_next
        y = new + beta * (new - cur)
        cur, f_cur, a = new, f_new, a_next
        accepted += 1
        if accepted % 8 == 0 and kkt(cur, gn) / r0 <= rel_tol:
            break
    if f_cur > f0:
        cur, f_cur = v0.copy(), f0
    rel = kkt(cur, grad(cur)) / r0
    return cur, iters, rel <= rel_tol, rel, f_cur


def every_hidden_finetune(spec, x, stack, cfg):
    """Linear fine-tuning that visits the layers bottom-up in every sweep
    and solves W_l, then H_l, so every hidden H_l is re-solved in every
    sweep and the last sweep's solve is the one stored. Returns
    (stack, report) like :func:`deepnmf.train.finetune`."""
    from deepnmf.apg import apg_solve
    from deepnmf.models import finetune_objective, finetune_problem
    from deepnmf.train import _sweeps

    stack = stack.copy()

    def sweep():
        for layer in range(1, spec.depth + 1):
            for role, factors in (("w", stack.w), ("h", stack.h)):
                problem = finetune_problem(spec, layer, role, x, stack)
                factors[layer - 1] = apg_solve(factors[layer - 1], problem,
                                               cfg.inner_stop)
        return finetune_objective(spec, x, stack)

    return stack, _sweeps(x, cfg, finetune_objective(spec, x, stack), sweep)


def two_loop_nonlinear_finetune(spec, x, stack, cfg):
    """Nonlinear fine-tuning as its own loop: each sweep takes one
    backtracked step on H_L, one on each of W_2..W_L bottom-up, then solves
    W_1's block against the chain's first representation; a stalled sweep
    is undone, and the hidden factors are then the final chain's, clipped
    at zero. Returns (stack, report) like :func:`deepnmf.train.finetune`."""
    from deepnmf.apg import apg_solve
    from deepnmf.models import chain_objective, pretrain_problem, unroll
    from deepnmf.nonlinear import (_armijo_step, basis_gradient,
                                   representation_gradient)
    from deepnmf.train import _sweeps

    stack = stack.copy()
    steps = [None] * spec.depth  # index 0 is H_L, index l-1 is W_l
    obj = chain_objective(spec, x, stack.w, stack.h[-1])

    def sweep():
        nonlocal obj
        start = stack.copy()
        out = _armijo_step(
            stack.h[-1], obj, representation_gradient(spec, x, stack),
            lambda v: chain_objective(spec, x, stack.w, v), steps[0])
        if out is None:
            return None
        stack.h[-1], obj, steps[0] = out
        for l in range(2, spec.depth + 1):
            w = stack.w
            out = _armijo_step(
                w[l - 1], obj, basis_gradient(spec, x, stack, l),
                lambda v: chain_objective(spec, x, w[:l - 1] + [v] + w[l:],
                                          stack.h[-1]), steps[l - 1])
            if out is None:
                stack.w, stack.h = start.w, start.h
                return None
            stack.w[l - 1], obj, steps[l - 1] = out
        fresh = unroll(spec.activation, stack.w, stack.h[-1], stop=1)[1]
        problem = pretrain_problem(spec, 1, "w", x, stack.w[0], fresh[0])
        stack.w[0] = apg_solve(stack.w[0], problem, cfg.inner_stop)
        obj = chain_objective(spec, x, stack.w, stack.h[-1])
        return obj

    report = _sweeps(x, cfg, obj, sweep)
    fresh = unroll(spec.activation, stack.w, stack.h[-1], stop=1)[1]
    stack.h[:-1] = [np.maximum(f, 0.0) for f in fresh[:-1]]
    return stack, report


def per_column_planted(kind, seed, rows, cols, layer_sizes, classes,
                       noise=0.0, activation="root"):
    """The planted bundle of ``synth_generate(kind, seed, ...)`` as (x,
    labels), with each sample's class block of H_L drawn by its own
    ``uniform`` call. The generator's stream runs through each W_l's values
    and sparsity mask, then H_L column by column, then the noise."""
    from deepnmf.models import unroll

    rng = np.random.default_rng(abs(int(seed)))
    sizes = (rows,) + tuple(layer_sizes)
    ws = []
    for a, b in zip(sizes, sizes[1:]):
        w = rng.uniform(0.0, 1.0, size=(a, b))
        w *= rng.random(size=(a, b)) < 0.6
        w /= np.maximum(np.linalg.norm(w, axis=0, keepdims=True), 1e-12)
        ws.append(w)
    k_last = layer_sizes[-1]
    labels = np.arange(cols) * classes // cols
    h_last = np.zeros((k_last, cols))
    for j, cls in enumerate(labels):
        lo = cls * k_last // classes
        hi = max((cls + 1) * k_last // classes, lo + 1)
        h_last[lo:hi, j] = rng.uniform(0.5, 1.5, size=hi - lo)
    tag = "linear" if kind == "planted_linear" else activation
    x = unroll(tag, ws, h_last)[0][0]
    if noise > 0:
        x = x + np.abs(rng.normal(0.0, noise, size=x.shape))
    return np.maximum(x, 0.0), labels


def one_shot_misfit(target, w, rep):
    """Half the squared Frobenius norm of ``target - w @ rep``, formed as one
    residual of ``target``'s size and summed in one dot product."""
    r = (target - w @ rep).ravel()
    return 0.5 * float(np.dot(r, r))


def full_svd_nnsvd(x, k):
    """NNSVD (Boutsidis & Gallopoulos 2008) seeded from numpy's full thin
    SVD, the reference for the package's top-k seed: the leading triplet, sign-fixed to a nonnegative column sum, and for each
    later triplet the dominant one of its positive and negated-negative
    parts, ties to the positive; columns at roundoff scale are filled with
    mean(x)/k. Returns (w, h)."""
    m, n = x.shape
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    w = np.zeros((m, k))
    h = np.zeros((k, n))
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
    fill = float(np.mean(x)) / k
    tiny = 1e-6 * np.sqrt(s[0]) if s[0] > 0 else 0.0
    for j in range(k):
        if np.linalg.norm(w[:, j]) <= tiny or np.linalg.norm(h[j, :]) <= tiny:
            w[:, j] = fill
            h[j, :] = fill
    return w, h


def coordinate_sq_dists(points, center):
    """Squared distance of each row of ``points`` (n, d) to ``center``,
    added coordinate by coordinate: (x_0 - c_0)^2 + (x_1 - c_1)^2 + ...,
    left to right."""
    diff = points - center
    d2 = diff[:, 0] * diff[:, 0]
    for j in range(1, points.shape[1]):
        d2 = d2 + diff[:, j] * diff[:, j]
    return d2


def kmeans_assign_oracle(points, centers):
    """Nearest-center assignment of the rows of ``points``, one pass over
    all points per center.

    The squared distance is :func:`coordinate_sq_dists`, and a center
    replaces the best so far only when strictly nearer, so ties go to the
    lowest index and NaN distances never win. Returns (labels, sq_dists).
    """
    n = points.shape[0]
    best = np.full(n, np.inf)
    labels = np.zeros(n, dtype=np.int64)
    for c in range(centers.shape[0]):
        d2 = coordinate_sq_dists(points, centers[c])
        better = d2 < best
        labels = np.where(better, c, labels)
        best = np.where(better, d2, best)
    return labels, best


def sample_order_centers(points, labels, k):
    """The k cluster means of the rows of ``points``: each cluster's rows
    added one sample at a time in index order, then divided by its size."""
    sums = np.zeros((k, points.shape[1]))
    sizes = np.zeros(k, dtype=np.int64)
    for row, c in zip(points, labels):
        sums[c] += row
        sizes[c] += 1
    return sums / sizes[:, None]


def central_diff(f, v, eps=1e-6):
    """Dense central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(v)
    for idx in np.ndindex(v.shape):
        hi = v.copy()
        hi[idx] += eps
        lo = v.copy()
        lo[idx] -= eps
        g[idx] = (f(hi) - f(lo)) / (2.0 * eps)
    return g


def nmi_oracle(labels_a, labels_b, log=math.log):
    """Direct evaluation of the mutual-information ratio from the counts."""
    labels_a = list(labels_a)
    labels_b = list(labels_b)
    n = len(labels_a)
    cls_b = sorted(set(labels_b))
    cls_a = sorted(set(labels_a))
    counts = {(i, j): 0 for i in cls_b for j in cls_a}
    for a, b in zip(labels_a, labels_b):
        counts[(b, a)] += 1
    rows = {i: sum(counts[(i, j)] for j in cls_a) for i in cls_b}
    cols = {j: sum(counts[(i, j)] for i in cls_b) for j in cls_a}
    num = -2.0 * sum(c * log(c * n / (rows[i] * cols[j]))
                     for (i, j), c in counts.items() if c)
    den = (sum(r * log(r / n) for r in rows.values() if r)
           + sum(c * log(c / n) for c in cols.values() if c))
    if den == 0.0:
        return 1.0 if len(cls_a) == len(cls_b) == 1 else 0.0
    return num / den


def er_oracle(labels_a, labels_b):
    """Pairwise co-membership disagreement: the Frobenius norm of the
    co-membership difference, with the literal outer root."""
    labels_a = list(labels_a)
    labels_b = list(labels_b)
    n = len(labels_a)
    sq = 0.0
    for i in range(n):
        for j in range(n):
            za = 1.0 if labels_a[i] == labels_a[j] else 0.0
            zb = 1.0 if labels_b[i] == labels_b[j] else 0.0
            sq += (zb - za) ** 2
    return math.sqrt(math.sqrt(sq))


def np_oracle(labels_a, labels_b):
    """Per reference class, best overlap fraction; averaged over classes."""
    labels_a = list(labels_a)
    labels_b = list(labels_b)
    total = 0.0
    classes = sorted(set(labels_b))
    for cls in classes:
        members = [i for i, b in enumerate(labels_b) if b == cls]
        best = max(sum(1 for i in members if labels_a[i] == a)
                   for a in set(labels_a))
        total += best / len(members)
    return total / len(classes)


def canonical_partitions(n, max_classes):
    """All distinct partitions of n samples into at most max_classes blocks,
    as canonical label tuples (first occurrence gets the lowest id)."""
    seen = set()
    for raw in product(range(max_classes), repeat=n):
        relabel = {}
        canon = tuple(relabel.setdefault(v, len(relabel)) for v in raw)
        if max(canon) < max_classes:
            seen.add(canon)
    return sorted(seen)

