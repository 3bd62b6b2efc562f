"""Independent reference implementations used only to check the library.

Everything here is written from the definitions, sharing no code with the
package: a plain projected-gradient solver for quadratic blocks, the
accelerated solver written with two gradient evaluations per iteration,
brute-force partition scores, finite differences, and small-case partition
enumeration.
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
                        lipschitz, rel_tol, max_iters):
    """Nesterov's accelerated projected gradient on the quadratic block with
    gradient left @ V @ right + colsum * 1 1^T V + ridge * V + lin, written
    the direct way: the gradient is evaluated at the search point y and again
    at the new iterate, every iteration. ``left``/``right`` of None are
    identities. Status codes: 0 converged, 1 cap, 2 diverged, 3 non-finite.

    Returns (solution, iters, status, relative_residual, objective).
    """
    def grad(v):
        a = v if left is None else left @ v
        a = a if right is None else a @ right
        return a + ridge * v + colsum * v.sum(axis=0) + lin

    def kkt(v, g):
        r = np.where((v > 0.0) | (g < 0.0), g, 0.0)
        return math.sqrt(float(np.sum(r * r)))

    def obj(v, g):
        return 0.5 * float(np.sum(v * (g + lin))) + const

    g0 = grad(v0)
    if not np.all(np.isfinite(g0)):
        return v0.copy(), 0, 3, math.inf, math.inf
    r0 = kkt(v0, g0)
    f0 = obj(v0, g0)
    if r0 == 0.0:
        return v0.copy(), 0, 0, 0.0, f0
    div_floor = 2.5e-14 * (1.0 + abs(const))
    best_f, best_v = f0, v0.copy()
    cur, y = v0.copy(), v0.copy()
    a = 1.0
    status, rel, f_cur, iters = 1, 1.0, f0, 0
    for k in range(max_iters):
        gy = grad(y)
        if not np.all(np.isfinite(gy)):
            status = 3
            break
        new = np.maximum(y - gy / lipschitz, 0.0)
        a_next = 0.5 * (1.0 + math.sqrt(4.0 * a * a + 1.0))
        y = new + ((a - 1.0) / a_next) * (new - cur)
        cur, a, iters = new, a_next, k + 1
        gc = grad(cur)
        f_cur = obj(cur, gc)
        if f_cur < best_f:
            best_f, best_v = f_cur, cur.copy()
        if f_cur > 10.0 * max(f0, 0.0) + div_floor:
            status = 2
            break
        rel = kkt(cur, gc) / r0
        if rel <= rel_tol:
            status = 0
            break
    if f_cur > f0:
        rel = kkt(best_v, grad(best_v)) / r0
        if status == 0 and rel > rel_tol:
            status = 1
        return best_v, iters, status, rel, best_f
    return cur, iters, status, rel, f_cur


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


def er_oracle(labels_a, labels_b, literal_root=True):
    """Pairwise co-membership disagreement: the Frobenius norm of the
    co-membership difference, with the literal outer root unless
    ``literal_root`` is False."""
    labels_a = list(labels_a)
    labels_b = list(labels_b)
    n = len(labels_a)
    sq = 0.0
    for i in range(n):
        for j in range(n):
            za = 1.0 if labels_a[i] == labels_a[j] else 0.0
            zb = 1.0 if labels_b[i] == labels_b[j] else 0.0
            sq += (zb - za) ** 2
    frob = math.sqrt(sq)
    return math.sqrt(frob) if literal_root else frob


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

