"""Where the traced run records spans, and the per-layer metrics it yields.

Every probe wraps one public function of a layer *where its caller looks
it up*: ``assign_labels`` inside ``repro.mapreduce.jobs.lloyd_job``, a
method on its class, and so on.  Layer names are the repository's
package names.  A span's layer is the layer of the function it wraps,
so a layer's self time is the time spent in its own code, with the
calls it makes into other layers taken out.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench.spans import Span, Tracer, self_times

__all__ = ["PER_LAYER", "install", "TraceSummary", "summarize", "layer_metrics"]

#: Per-layer metrics of the traced run: (name, unit).  Counts and times
#: are per op unless the name says otherwise (see README.md).
PER_LAYER: list[tuple[str, str]] = [
    ("linalg.calls", "count"),
    ("linalg.busy_ms", "ms"),
    ("linalg.dist_evals", "count"),
    ("linalg.ns_per_eval", "ns"),
    ("linalg.bytes_computed", "B"),
    ("linalg.share", "frac"),
    ("core.recluster_ms", "ms"),
    ("core.recluster_iters", "count"),
    ("core.candidates", "count"),
    ("core.self_ms", "ms"),
    ("mapreduce.jobs", "count"),
    ("mapreduce.tasks", "count"),
    ("mapreduce.self_ms", "ms"),
    ("mapreduce.job_ms.uniform", "ms"),
    ("mapreduce.job_ms.cost", "ms"),
    ("mapreduce.job_ms.sample", "ms"),
    ("mapreduce.job_ms.weight", "ms"),
    ("mapreduce.job_ms.lloyd", "ms"),
    ("mapreduce.shuffle_records", "count"),
    ("mapreduce.shuffle_bytes", "B"),
    ("exec.regions", "count"),
    ("exec.tasks", "count"),
    ("exec.region_ms", "ms"),
    ("exec.retries", "count"),
    ("exec.self_ms", "ms"),
    ("shuffle.nbytes_calls", "count"),
    ("shuffle.nbytes_ms", "ms"),
    ("shuffle.peak_bytes", "B"),
    ("shuffle.spill_bytes", "B"),
    ("plane.broadcast_bytes", "B"),
    ("plane.state_bytes_shipped", "B"),
    ("plane.state_bytes_resident", "B"),
    ("plane.self_ms", "ms"),
    ("serve.assign_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_points_mean", "count"),
    ("serve.fast_path_frac", "frac"),
    ("serve.prune_frac", "frac"),
    ("serve.eval_frac", "frac"),
    ("serve.self_ms", "ms"),
    ("serve.observe_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.index_builds", "count"),
    ("serve.index_build_ms", "ms"),
    ("data.gen_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.other_ms", "ms"),
    ("trace.op_ms", "ms"),
]

#: MapReduce job names -> the ``mapreduce.job_ms.<kind>`` they add to.
JOB_KINDS = {
    "random/uniform-sample": "uniform",
    "kmeans||/update-cost": "cost",
    "kmeans||/sample-round": "sample",
    "kmeans||/weights": "weight",
    "kmeans||/weights-cached": "weight",
    "lloyd/iteration": "lloyd",
}

#: Span names of the distance kernels ``linalg.ns_per_eval`` is taken over.
DIST_KERNELS = {
    "assign_labels", "block_sq_dists", "min_sq_dists", "sq_dists_to_point",
    "update_min_sq_dists", "update_min_sq_dists_argmin",
}


def _arg(args: tuple, kwargs: dict, i: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[i]


def _dist(xi: int, xname: str, ci: int | None, cname: str):
    """Work of a distance kernel: n*k evaluations; operand + block bytes."""
    def after(args, kwargs, result, start, end):
        X = _arg(args, kwargs, xi, xname)
        n, d = X.shape
        k = 1 if ci is None else _arg(args, kwargs, ci, cname).shape[0]
        return n * k, X.dtype.itemsize * (n * d + k * d + n * k)
    return after


def _rows(xi: int, xname: str):
    """Work of a fold or norm pass: the bytes of the array it reads."""
    def after(args, kwargs, result, start, end):
        return 0, _arg(args, kwargs, xi, xname).nbytes
    return after


_ASSIGN = _dist(0, "X", 1, "C")
_READS_X = _rows(0, "X")
_READS_LABELS = _rows(0, "labels")

#: module -> {function: work hook} for every linalg entry point a
#: benchmarked path calls, keyed by the module that looks it up.
LINALG_SITES: dict[str, dict[str, Any]] = {
    "repro.mapreduce.jobs.cost_job": {
        "update_min_sq_dists_argmin": _dist(0, "X", 1, "new_centers"),
    },
    "repro.mapreduce.jobs.lloyd_job": {
        "assign_labels": _ASSIGN, "cluster_sums": _READS_X,
        "cluster_sizes": _READS_LABELS, "row_norms_sq": _READS_X,
    },
    "repro.mapreduce.jobs.weight_job": {
        "assign_labels": _ASSIGN, "cluster_sizes": _READS_LABELS,
    },
    "repro.mapreduce.kmeans_mr": {"min_sq_dists": _ASSIGN},
    "repro.core.init_kmeanspp": {
        "row_norms_sq": _READS_X,
        "sq_dists_to_point": _dist(0, "X", None, "c"),
        "update_min_sq_dists": _dist(0, "X", 1, "new_centers"),
    },
    "repro.core.lloyd": {
        "assign_labels": _ASSIGN, "weighted_centroids": _READS_X,
        "row_norms_sq": _READS_X,
    },
    "repro.serve.assign": {
        "assign_labels": _ASSIGN, "row_norms_sq": _READS_X,
        "block_sq_dists": _dist(0, "block", 1, "C"),
    },
    "repro.serve.model": {
        "row_norms_sq": _READS_X, "block_sq_dists": _dist(0, "block", 1, "C"),
    },
    "repro.serve.refresh": {"cluster_sums": _READS_X, "cluster_sizes": _READS_LABELS},
}


def _run_job_after(tracer: Tracer):
    def after(args, kwargs, result, start, end):
        stats = result.stats
        tracer.count("mapreduce.jobs")
        tracer.count("mapreduce.tasks", stats.n_splits)
        tracer.count("mapreduce.shuffle_records", stats.shuffle_records)
        tracer.count("mapreduce.shuffle_bytes", stats.shuffle_bytes)
        kind = JOB_KINDS.get(stats.name, "other")
        tracer.count(f"mapreduce.job_ns.{kind}", end - start)
    return after


def _recluster_after(tracer: Tracer):
    def after(args, kwargs, result, start, end):
        tracer.count("core.recluster_iters", result.n_iter)
        tracer.count("core.candidates", _arg(args, kwargs, 0, "X").shape[0])
    return after


def _run_calls_after(tracer: Tracer):
    def after(args, kwargs, result, start, end):
        tracer.count("exec.tasks", len(_arg(args, kwargs, 2, "calls")))
    return after


def _batch_after(tracer: Tracer):
    def after(args, kwargs, result, start, end):
        for request in _arg(args, kwargs, 1, "batch"):
            enqueued = getattr(request, "t_enq", None)
            if enqueued is not None:
                tracer.count("serve.queue_wait_ns", start - enqueued)
                tracer.count("serve.queue_waits")
    return after


def _timed_request(base: type) -> type:
    """``base`` plus the time the request was enqueued."""
    class TimedRequest(base):
        __slots__ = ("t_enq",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.t_enq = time.perf_counter_ns()

    return TimedRequest


def install(tracer: Tracer) -> None:
    """Patch every probe into the running program (undo: ``unpatch_all``)."""
    mod = importlib.import_module
    for module, functions in LINALG_SITES.items():
        owner = mod(module)
        for fn, hook in functions.items():
            tracer.patch(owner, fn, "linalg", fn, hook)

    kmeans_mr = mod("repro.mapreduce.kmeans_mr")
    tracer.patch(mod("repro.core.init_kmeanspp").KMeansPlusPlus, "run",
                 "core", "kmeanspp")
    tracer.patch(kmeans_mr, "sequential_lloyd", "core", "recluster_lloyd",
                 _recluster_after(tracer))
    tracer.patch(kmeans_mr, "apply_top_up", "core", "top_up")

    runtime = mod("repro.mapreduce.runtime")
    LocalMapReduceRuntime = runtime.LocalMapReduceRuntime
    tracer.patch(LocalMapReduceRuntime, "run_job", "mapreduce", "run_job",
                 _run_job_after(tracer))
    tracer.patch(LocalMapReduceRuntime, "__init__", "mapreduce", "runtime_init")
    tracer.patch(LocalMapReduceRuntime, "shutdown", "mapreduce", "runtime_shutdown")

    tracer.patch(mod("repro.exec.backends").SerialBackend, "run_calls", "exec",
                 "run_calls", _run_calls_after(tracer))

    tracer.patch(runtime, "estimate_nbytes", "shuffle", "estimate_nbytes")
    for module in ("repro.shuffle.store", "repro.plane.state", "repro.shuffle.spill"):
        tracer.patch(mod(module), "record_nbytes", "shuffle", "record_nbytes")

    tracer.patch(runtime, "publish_broadcast", "plane", "publish_broadcast")
    tracer.patch(mod("repro.serve.registry"), "publish_broadcast", "plane",
                 "publish_broadcast")
    state_manager = mod("repro.plane.state").SplitStateManager
    for method in ("spec", "apply", "install", "release"):
        tracer.patch(state_manager, method, "plane", f"state_{method}")

    service = mod("repro.serve.service")
    tracer.patch(service.AssignmentService, "assign", "serve", "request")
    tracer.patch(service.AssignmentService, "_serve_batch", "serve", "batch",
                 _batch_after(tracer))
    tracer.replace(service, "_Request", _timed_request(service._Request))
    tracer.patch(service, "assign_serve", "serve", "assign")
    refresh = mod("repro.serve.refresh")
    tracer.patch(refresh, "assign_serve", "serve", "assign_refresh")
    tracer.patch(refresh.StreamingRefresher, "observe", "serve", "observe")
    tracer.patch(mod("repro.serve.registry").ModelRegistry, "publish", "serve",
                 "publish")
    tracer.patch(mod("repro.serve.model").PruneIndex, "build", "serve",
                 "index_build")


@dataclass
class TraceSummary:
    """Per-name totals over every span, plus the per-root wall check."""

    count: dict[tuple[str, str], int] = field(default_factory=dict)
    incl_ns: dict[tuple[str, str], int] = field(default_factory=dict)
    self_ns: dict[tuple[str, str], int] = field(default_factory=dict)
    evals: dict[tuple[str, str], int] = field(default_factory=dict)
    nbytes: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Root spans named ``op``: how many, and their summed wall.
    ops: int = 0
    op_ns: int = 0
    #: Summed wall of every root span (ops plus roots outside ops).
    root_ns: int = 0
    #: Roots whose subtree self times do not add up to their wall.
    unbalanced: int = 0

    def layer_self_ns(self, layer: str) -> int:
        return sum(v for (lay, _), v in self.self_ns.items() if lay == layer)

    def get(self, table: str, layer: str, *names: str) -> int:
        values = getattr(self, table)
        return sum(values.get((layer, n), 0) for n in names)


def summarize(threads: list[list[Span]]) -> TraceSummary:
    """Aggregate spans by (layer, name) and check each root's arithmetic.

    For every root span, the self times of all spans in its subtree must
    add up to the root's duration: that holds exactly when children lie
    inside their parents and siblings do not overlap.
    """
    out = TraceSummary()
    for spans in threads:
        selfs = self_times(spans)
        subtree = list(selfs)
        for s in reversed(spans):  # children open after their parents
            if s.parent >= 0:
                subtree[s.parent] += subtree[s.index]
        for s, own in zip(spans, selfs):
            key = (s.layer, s.name)
            out.count[key] = out.count.get(key, 0) + 1
            out.incl_ns[key] = out.incl_ns.get(key, 0) + s.duration
            out.self_ns[key] = out.self_ns.get(key, 0) + own
            out.evals[key] = out.evals.get(key, 0) + s.evals
            out.nbytes[key] = out.nbytes.get(key, 0) + s.nbytes
            if s.parent < 0:
                out.root_ns += s.duration
                if subtree[s.index] != s.duration:
                    out.unbalanced += 1
                if s.name == "op":
                    out.ops += 1
                    out.op_ns += s.duration
    return out


def layer_metrics(
    summary: TraceSummary,
    counters: dict[str, float],
    *,
    reports: list[Any],
    serve_stats: Any = None,
    k: int = 0,
    gen_s: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``reports`` are the traced fit ops' ``MRKMeansReport`` objects (their
    plane, shuffle and fault telemetry); ``serve_stats`` is the service's
    ``ServeStats`` over the run.  A layer that did not run reads 0.
    """
    ops = max(summary.ops, 1)
    ms = 1e-6
    dist_self = sum(summary.self_ns.get(("linalg", n), 0) for n in DIST_KERNELS)
    evals = sum(v for (lay, _), v in summary.evals.items() if lay == "linalg")
    m: dict[str, float] = {
        "linalg.calls": sum(v for (lay, _), v in summary.count.items()
                            if lay == "linalg") / ops,
        "linalg.busy_ms": summary.layer_self_ns("linalg") * ms / ops,
        "linalg.dist_evals": evals / ops,
        "linalg.ns_per_eval": dist_self / evals if evals else 0.0,
        "linalg.bytes_computed": sum(v for (lay, _), v in summary.nbytes.items()
                                     if lay == "linalg") / ops,
        "linalg.share": (summary.layer_self_ns("linalg") / summary.root_ns
                         if summary.root_ns else 0.0),
        "core.recluster_ms": summary.get(
            "incl_ns", "core", "kmeanspp", "recluster_lloyd", "top_up") * ms / ops,
        "core.recluster_iters": counters.get("core.recluster_iters", 0) / ops,
        "core.candidates": counters.get("core.candidates", 0) / ops,
        "mapreduce.jobs": counters.get("mapreduce.jobs", 0) / ops,
        "mapreduce.tasks": counters.get("mapreduce.tasks", 0) / ops,
        "mapreduce.shuffle_records": counters.get("mapreduce.shuffle_records", 0) / ops,
        "mapreduce.shuffle_bytes": counters.get("mapreduce.shuffle_bytes", 0) / ops,
        "exec.regions": summary.get("count", "exec", "run_calls") / ops,
        "exec.tasks": counters.get("exec.tasks", 0) / ops,
        "exec.region_ms": summary.get("incl_ns", "exec", "run_calls") * ms / ops,
        "shuffle.nbytes_calls": sum(v for (lay, _), v in summary.count.items()
                                    if lay == "shuffle") / ops,
        "shuffle.nbytes_ms": summary.layer_self_ns("shuffle") * ms / ops,
        "serve.assign_ms": summary.get("incl_ns", "serve", "assign") * ms / ops,
        "serve.queue_wait_ms": (
            counters.get("serve.queue_wait_ns", 0) * ms
            / counters["serve.queue_waits"]
            if counters.get("serve.queue_waits") else 0.0
        ),
        "serve.index_builds": summary.get("count", "serve", "index_build") / ops,
        "data.gen_s": gen_s,
        "trace.overhead_frac": overhead_frac,
        "trace.other_ms": summary.self_ns.get(("other", "op"), 0) * ms / ops,
        "trace.op_ms": summary.op_ns * ms / ops,
    }
    for kind in ("uniform", "cost", "sample", "weight", "lloyd"):
        m[f"mapreduce.job_ms.{kind}"] = counters.get(f"mapreduce.job_ns.{kind}", 0) * ms / ops
    for layer in ("core", "mapreduce", "exec", "plane", "serve"):
        m[f"{layer}.self_ms"] = summary.layer_self_ns(layer) * ms / ops
    for name, event in (("serve.observe_ms", "observe"),
                        ("serve.publish_ms", "publish"),
                        ("serve.index_build_ms", "index_build")):
        n = summary.get("count", "serve", event)
        m[name] = summary.get("incl_ns", "serve", event) * ms / n if n else 0.0

    n_rep = max(len(reports), 1)

    def per_report(section: str, *keys: str) -> float:
        return sum(getattr(r, section).get(key, 0) for r in reports for key in keys) / n_rep

    m["exec.retries"] = per_report("faults", "retries")
    m["shuffle.peak_bytes"] = per_report("shuffle", "peak_bytes")
    m["shuffle.spill_bytes"] = per_report("shuffle", "spill_bytes")
    m["plane.broadcast_bytes"] = per_report(
        "plane", "broadcast_bytes_published", "broadcast_bytes_per_task")
    m["plane.state_bytes_shipped"] = per_report("plane", "state_bytes_shipped")
    m["plane.state_bytes_resident"] = per_report("plane", "state_bytes_resident")

    st = serve_stats
    m["serve.batch_points_mean"] = st.mean_batch_points if st else 0.0
    m["serve.fast_path_frac"] = st.n_fast_path / st.n_batches if st and st.n_batches else 0.0
    m["serve.prune_frac"] = st.n_pruned / st.n_points if st and st.n_points else 0.0
    m["serve.eval_frac"] = (st.n_dist_evals / (st.n_points * k)
                            if st and st.n_points and k else 0.0)
    missing = {name for name, _ in PER_LAYER} - set(m)
    if missing:
        raise KeyError(f"per-layer metrics not derived: {sorted(missing)}")
    return m
