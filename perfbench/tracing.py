"""Outside-in layer trace of deepnmf.

The tracer replaces module attributes of the package (``train.apg_solve``,
``train.finetune_problem``, ``models.sym_spectral_norm``,
``experiment.kmeans``, ``nonlinear.nonlinear_objective`` and so on) with
wrappers that record one span per call: name, layer, start, end, parent
span, thread and run id. The package itself is not modified; every wrapper
calls the original and returns its result unchanged. Block solves are
recorded by calling ``apg_solve(..., full_output=True)``, which returns the
same block as the plain call plus the iteration count and stop status.

Spans stay in memory and are written out by :meth:`Tracer.dump` when the run
ends. :func:`op_metrics` reduces the spans and counters of one operation to
the per-layer metrics named in ``spec.PER_LAYER``.
"""

import json
import threading
import time
from collections import defaultdict, namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import count

import spec

Span = namedtuple("Span", "id parent name layer start end thread run")


class Tracer:
    """Span recorder plus the per-operation counters the wrappers fill."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- spans -------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    @contextmanager
    def adopt(self, parent):
        """Parent spans opened on this thread under ``parent`` (a span
        opened on the thread that submitted the work)."""
        self._local.adopted = parent
        try:
            yield
        finally:
            self._local.adopted = None

    @contextmanager
    def span(self, name, layer):
        parent = self.current()
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, layer, start, end,
                                   threading.get_ident(), self.run_id))

    @property
    def phase(self):
        return getattr(self._local, "phase", None)

    @contextmanager
    def in_phase(self, phase):
        prev = self.phase
        self._local.phase = phase
        try:
            yield
        finally:
            self._local.phase = prev

    def add(self, key, value=1.0):
        with self._lock:
            self.counts[key] += value

    # -- patching ----------------------------------------------------------
    def patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _wrap(tracer, fn, name, layer, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name, layer):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _phase_wrap(tracer, fn, name, layer, phase, after=None):
    inner = _wrap(tracer, fn, name, layer, after)

    def wrapper(*args, **kwargs):
        with tracer.in_phase(phase):
            return inner(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def instrument(tracer, dn):
    """Patch the package modules in ``dn`` (a namespace with ``train``,
    ``models``, ``nonlinear``, ``experiment``, ``metrics`` attributes).
    Undo with ``tracer.unpatch()``."""
    train, models, nonlinear = dn.train, dn.models, dn.nonlinear
    experiment, metrics = dn.experiment, dn.metrics
    problems = {}  # id(problem) -> (layer, role), consumed by the solve

    def problem_wrap(fn, name):
        def wrapper(spec_, layer, role, *args, **kwargs):
            with tracer.span(name, "models"):
                problem = fn(spec_, layer, role, *args, **kwargs)
            problems[id(problem)] = (layer, role)
            return problem
        wrapper.__wrapped__ = fn
        return wrapper

    def solve_wrap(fn):
        def wrapper(*args, **kwargs):
            want_full = kwargs.pop("full_output", False)
            if len(args) > 3:
                want_full, args = args[3], args[:3]
            with tracer.span("apg.apg_solve", "apg"):
                start = time.perf_counter()
                v, info = fn(*args, full_output=True, **kwargs)
                elapsed = time.perf_counter() - start
            layer, role = problems.pop(id(args[1]), (0, "x"))
            key = f"apg.{tracer.phase}.{role}{layer}"
            tracer.add(key + ".solves")
            tracer.add(key + ".iters", info["iters"])
            tracer.add(key + ".cap_hits", 0.0 if info["converged"] else 1.0)
            tracer.add(key + ".solve_s", elapsed)
            tracer.add("apg.converged", 1.0 if info["converged"] else 0.0)
            return (v, info) if want_full else v
        wrapper.__wrapped__ = fn
        return wrapper

    def count_sweeps(result):
        tracer.add("train.sweeps", result[1].sweeps_used)

    def count_stall(result):
        tracer.add("nonlinear.stalled", 1.0 if result[1].stalled else 0.0)

    def count_units(result):
        tracer.add("experiment.units")
        if any(row.get("error") for row in result):
            tracer.add("experiment.unit_errors")

    def record_er(result):
        tracer.add("metrics.er_sum", result)
        tracer.add("metrics.er_n")

    tracer.patch(train, "fit", _wrap(tracer, train.fit, "train.fit", "train",
                                     count_sweeps))
    tracer.patch(experiment, "fit", _wrap(tracer, experiment.fit, "train.fit",
                                          "train", count_sweeps))
    for module in (train, nonlinear):
        tracer.patch(module, "pretrain", _phase_wrap(
            tracer, module.pretrain, "train.pretrain", "train", "pretrain"))
        tracer.patch(module, "apg_solve", solve_wrap(module.apg_solve))
        tracer.patch(module, "pretrain_problem", problem_wrap(
            module.pretrain_problem, "models.pretrain_problem"))
    tracer.patch(train, "finetune", _phase_wrap(
        tracer, train.finetune, "train.finetune", "train", "finetune"))
    tracer.patch(train, "finetune_problem", problem_wrap(
        train.finetune_problem, "models.finetune_problem"))
    tracer.patch(train, "finetune_objective", _wrap(
        tracer, train.finetune_objective, "models.finetune_objective", "models"))
    tracer.patch(train, "nnsvd_init", _wrap(
        tracer, train.nnsvd_init, "nnsvd.nnsvd_init", "nnsvd"))
    tracer.patch(models, "sym_spectral_norm", _wrap(
        tracer, models.sym_spectral_norm, "linalg.sym_spectral_norm", "linalg"))

    tracer.patch(nonlinear, "nonlinear_finetune", _phase_wrap(
        tracer, nonlinear.nonlinear_finetune, "nonlinear.nonlinear_finetune",
        "nonlinear", "finetune", count_stall))
    tracer.patch(nonlinear, "nonlinear_objective", _wrap(
        tracer, nonlinear.nonlinear_objective, "nonlinear.nonlinear_objective",
        "nonlinear"))
    for attr in ("representation_gradient", "basis_gradient"):
        tracer.patch(nonlinear, attr, _wrap(
            tracer, getattr(nonlinear, attr), f"nonlinear.{attr}", "nonlinear"))

    for module in (metrics, experiment):
        tracer.patch(module, "kmeans", _wrap(
            tracer, module.kmeans, "metrics.kmeans", "metrics"))
        tracer.patch(module, "nmi", _wrap(
            tracer, module.nmi, "metrics.nmi", "metrics"))
        tracer.patch(module, "error_rate", _wrap(
            tracer, module.error_rate, "metrics.error_rate", "metrics",
            record_er))
        tracer.patch(module, "naive_precision", _wrap(
            tracer, module.naive_precision, "metrics.naive_precision",
            "metrics"))

    tracer.patch(experiment, "run_experiment", _wrap(
        tracer, experiment.run_experiment, "experiment.run_experiment",
        "experiment"))
    tracer.patch(experiment, "_run_unit", _wrap(
        tracer, experiment._run_unit, "experiment.unit", "experiment",
        count_units))
    tracer.patch(experiment, "load_bundle", _wrap(
        tracer, experiment.load_bundle, "dataio.load_bundle", "dataio"))
    tracer.patch(experiment, "ThreadPoolExecutor", _pool_class(tracer))


def _pool_class(tracer):
    """Thread pool that records each unit's queue wait and the pool's
    open-to-shutdown wall time, and parents worker spans under the span
    that submitted them."""

    class TracedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._opened = time.perf_counter()

        def submit(self, fn, /, *args, **kwargs):
            submitted = time.perf_counter()
            parent = tracer.current()

            def run():
                tracer.add("experiment.queue_wait_s",
                           time.perf_counter() - submitted)
                with tracer.adopt(parent):
                    return fn(*args, **kwargs)
            return super().submit(run)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tracer.add("experiment.pool_wall_s",
                       time.perf_counter() - self._opened)
            tracer.add("experiment.pool_workers", self._max_workers)

    return TracedPool


def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-layer self time: each span's duration minus the part of it that
    its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = defaultdict(float)
    for s in spans:
        covered = _union_length(children.get(s.id, ()), s.start, s.end)
        out[s.layer] += (s.end - s.start) - covered
    return out


def op_metrics(spans, counts, op_span):
    """Per-layer metrics of one traced operation (kernel cases and the
    traced/untraced ratio are added by the caller)."""
    m = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    for key, value in counts.items():
        if key in m:
            m[key] = float(value)
    solves = 0.0
    for phase in spec.PHASES:
        for role in spec.ROLES:
            for layer in range(1, spec.DEPTH + 1):
                key = f"apg.{phase}.{role}{layer}"
                iters = counts.get(key + ".iters", 0.0)
                if iters:
                    m[key + ".us_per_iter"] = (
                        1e6 * counts[key + ".solve_s"] / iters)
                solves += counts.get(key + ".solves", 0.0)
    converged = counts.get("apg.converged", 0.0)
    m["apg.converged_ratio"] = converged / solves if solves else 0.0

    def total(*names):
        return sum(s.end - s.start for s in spans if s.name in names)

    def calls(*names):
        return float(sum(1 for s in spans if s.name in names))

    m["train.pretrain_s"] = total("train.pretrain")
    m["train.finetune_s"] = total("train.finetune")
    m["nnsvd.init_s"] = total("nnsvd.nnsvd_init")
    m["models.problem_s"] = total("models.pretrain_problem",
                                  "models.finetune_problem")
    m["models.problems"] = calls("models.pretrain_problem",
                                 "models.finetune_problem")
    m["linalg.lipschitz_s"] = total("linalg.sym_spectral_norm")
    m["linalg.lipschitz_calls"] = calls("linalg.sym_spectral_norm")
    m["nonlinear.finetune_s"] = total("nonlinear.nonlinear_finetune")
    m["nonlinear.objective_evals"] = calls("nonlinear.nonlinear_objective")
    m["nonlinear.gradient_s"] = total("nonlinear.representation_gradient",
                                      "nonlinear.basis_gradient")
    m["metrics.kmeans_s"] = total("metrics.kmeans")
    m["metrics.kmeans_calls"] = calls("metrics.kmeans")
    m["metrics.error_rate_s"] = total("metrics.error_rate")
    m["metrics.nmi_s"] = total("metrics.nmi")
    m["metrics.np_s"] = total("metrics.naive_precision")
    if counts.get("metrics.er_n"):
        m["metrics.er"] = counts["metrics.er_sum"] / counts["metrics.er_n"]
    m["experiment.busy_s"] = total("experiment.unit")
    pool_capacity = (counts.get("experiment.pool_workers", 0.0)
                     * counts.get("experiment.pool_wall_s", 0.0))
    if pool_capacity:
        m["experiment.pool_efficiency"] = m["experiment.busy_s"] / pool_capacity
    m["dataio.load_s"] = total("dataio.load_bundle")

    layer_self = self_times([s for s in spans if s.id != op_span.id])
    for layer in spec.LAYERS:
        m[f"self_s.{layer}"] = layer_self.get(layer, 0.0)
    op_len = op_span.end - op_span.start
    top = [(s.start, s.end) for s in spans if s.parent == op_span.id]
    m["trace.uncovered_ratio"] = 1.0 - _union_length(
        top, op_span.start, op_span.end) / op_len
    return m
