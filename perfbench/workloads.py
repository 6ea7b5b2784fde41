"""The benchmark's workloads: inputs, set-up, the timed loop and its gate.

Each workload states why it exists next to its definition.  Inputs and
the algorithm seeds both come from the run's ``--seed``; within one run
they are fixed, so an op repeats the work of an earlier op exactly and a
fit's centers must be bitwise equal to those of its seed's warm fit.

Long-lived objects — the backend, the model registry, the service — are
built in set-up and reused by every op.  Set-up runs
:data:`SETUP_REPEATS` times (all but the last are torn down again) so
``setup_s`` is a median, not one sample.  The warm ops run once, after
the timed set-ups, so ``setup_s`` measures data generation and object
building only.
"""

from __future__ import annotations

import gc
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench import probes
from perfbench.gate import FitGate, labels_ok
from perfbench.spans import Tracer

__all__ = ["WORKLOADS", "FitWorkload", "ServeWorkload", "RunRecord", "run_workload"]

SETUP_REPEATS = 5

_ns = time.perf_counter_ns


def derive_seeds(name: str, seed: int) -> tuple[int, int]:
    """(data seed, algorithm seed) for ``name`` under the run's ``seed``."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])
    data_seed, alg_seed = ss.generate_state(2)
    return int(data_seed), int(alg_seed)


@dataclass(frozen=True)
class FitWorkload:
    """One op = one full ``mr_scalable_kmeans`` fit.

    Ops cycle through ``alg_seeds`` fixed algorithm seeds, so the run's
    timing and its ``cost_ratio`` average over that many fits rather
    than resting on one seed's local optimum.
    """

    name: str
    why: str
    n: int
    d: int
    R: float
    components: int
    k: int
    l: float
    r: int
    n_splits: int
    lloyd_max_iter: int
    alg_seeds: int


@dataclass(frozen=True)
class ServeWorkload:
    """One op = one 64-row ``AssignmentService.assign`` request."""

    name: str
    why: str
    n: int
    k: int
    clients: int
    request_rows: int
    observe_every: int
    publish_every: int
    sample_every: int


WORKLOADS: dict[str, FitWorkload | ServeWorkload] = {
    w.name: w
    for w in (
        FitWorkload(
            name="fit-gauss",
            why="kernel-heavy fit (GaussMixture, serial): most time is in "
                "linalg distance kernels, so linalg/core changes show and "
                "framework changes barely move it",
            n=60_000, d=15, R=10.0, components=50,
            k=50, l=100.0, r=5, n_splits=8, lloyd_max_iter=10, alg_seeds=8,
        ),
        ServeWorkload(
            name="serve-kdd",
            why="closed-loop serving (KDDCup, k=128, 2 clients) with refresh "
                "writes: pruned assignment, micro-batching, publishes and "
                "index builds beside reads",
            n=50_000, k=128, clients=2, request_rows=64, observe_every=8,
            publish_every=4, sample_every=16,
        ),
    )
}


@dataclass
class RunRecord:
    """What one run measured, before it becomes metrics."""

    latencies_ns: list[int] = field(default_factory=list)
    traced_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    gen_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    cost_ratio: float = float("nan")
    reports: list[Any] = field(default_factory=list)
    serve_stats: Any = None
    extra: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def _set_up(make, rec: RunRecord):
    """Build the run's state :data:`SETUP_REPEATS` times; keep and warm the last."""
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            state.close()
            state = None
            gc.collect()  # the next set-up starts without the last one's arrays
        t0 = time.perf_counter()
        state = make()
        rec.setup_s.append(time.perf_counter() - t0)
        rec.gen_s.append(state.gen_s)
    try:
        state.warm()
    except BaseException:
        state.close()
        raise
    return state


# ----------------------------------------------------------------------
# fits


class _FitState:
    """Dataset and serial backend; :meth:`warm` sets each seed's gate."""

    def __init__(self, wl: FitWorkload, data_seed: int, alg_seed: int):
        from repro.data.gauss_mixture import make_gauss_mixture
        from repro.exec import SerialBackend

        self.wl = wl
        self.alg_seeds = [alg_seed + j for j in range(wl.alg_seeds)]
        t0 = time.perf_counter()
        self.data = make_gauss_mixture(seed=data_seed, n=wl.n, d=wl.d, R=wl.R,
                                       k=wl.components)
        self.gen_s = time.perf_counter() - t0
        self.backend = SerialBackend()

    def warm(self) -> None:
        """Fit once per seed: the centers that seed's ops must match, and the cost."""
        self.gates = [FitGate() for _ in self.alg_seeds]
        self.warm_reports = []
        for j, gate in enumerate(self.gates):
            report = self.fit(j)
            gate.check(report.centers)
            self.warm_reports.append(report)
        # The generating means' cost stands in for the optimum (the paper's
        # GaussMixture ratio), so this figure hardly moves with the seed.
        mean_cost = np.mean([r.final_cost for r in self.warm_reports])
        self.cost_ratio = float(mean_cost / self.data.reference_cost())

    def fit(self, j: int):
        from repro.mapreduce.kmeans_mr import mr_scalable_kmeans

        wl = self.wl
        return mr_scalable_kmeans(
            self.data.X, wl.k, l=wl.l, r=wl.r, n_splits=wl.n_splits,
            seed=self.alg_seeds[j], lloyd_max_iter=wl.lloyd_max_iter,
            backend=self.backend, workers=1,
        )

    def close(self) -> None:
        self.backend.shutdown()


def _run_fit(wl: FitWorkload, seed: int, seconds: float, tracer: Tracer | None,
             rec: RunRecord) -> None:
    from repro.exec import resolve_async_scheduler
    from repro.linalg.engine import get_engine

    from perfbench.meta import peak_rss_mb

    data_seed, alg_seed = derive_seeds(wl.name, seed)
    state = None
    try:
        state = _set_up(lambda: _FitState(wl, data_seed, alg_seed), rec)
        rec.config = {
            **state.warm_reports[0].params,
            "alg_seeds": state.alg_seeds,
            "chunk_bytes": get_engine().chunk_bytes,
            "async_scheduler": resolve_async_scheduler(None),
            "budget_limit": state.backend.budget.limit,
        }
        rec.cost_ratio = state.cost_ratio
        rec.extra["lloyd_iters"] = [r.lloyd_iters for r in state.warm_reports]

        t_start = time.perf_counter()
        deadline = t_start + seconds
        i = 0
        while True:
            # A traced run alternates untraced and traced ops, two per seed,
            # so machine drift and the seed's work hit both halves alike.
            traced = tracer is not None and i % 2 == 1
            j = (i // 2 if tracer is not None else i) % wl.alg_seeds
            i += 1
            rec.attempted += 1
            report = None
            if traced:
                probes.install(tracer)
            t0 = _ns()
            try:
                if traced:
                    with tracer.span("other", "op"):
                        report = state.fit(j)
                else:
                    report = state.fit(j)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                rec.extra.setdefault("errors", []).append(repr(exc))
            finally:
                t1 = _ns()
                if traced:
                    tracer.unpatch_all()
            if report is None or not state.gates[j].check(report.centers):
                rec.failed += 1
            else:
                (rec.traced_ns if traced else rec.latencies_ns).append(t1 - t0)
                if traced:
                    rec.reports.append(report)
            if time.perf_counter() >= deadline and i >= (2 if tracer else 1):
                break
        rec.wall_s = time.perf_counter() - t_start
        rec.peak_rss_mb = peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.unpatch_all()
        if state is not None:
            state.close()


# ----------------------------------------------------------------------
# serving


class _ServeState:
    """KDD twin, a fitted k=128 model in a shared registry, service, refresher."""

    def __init__(self, wl: ServeWorkload, data_seed: int, alg_seed: int):
        from repro import lloyd, scalable_init
        from repro.data.kddcup import make_kddcup
        from repro.serve import AssignmentService, ModelRegistry, StreamingRefresher

        self.wl = wl
        t0 = time.perf_counter()
        self.X = make_kddcup(seed=data_seed, n=wl.n).X
        self.gen_s = time.perf_counter() - t0
        centers = scalable_init(self.X, wl.k, oversampling_factor=2.0, seed=alg_seed)
        centers = lloyd(self.X, centers, max_iter=5, seed=alg_seed).centers
        self.registry = ModelRegistry(shared=True, keep_versions=2)
        try:
            model = self.registry.publish(centers)
            self.first_centers = np.array(model.centers)
            self.versions = {model.version: self.first_centers}
            self.service = AssignmentService(self.registry)
            self.refresher = StreamingRefresher(
                self.registry, publish_every=wl.publish_every)
        except BaseException:
            self.registry.close()
            raise

    def warm(self) -> None:
        """32 requests: the first builds the pruning index of version 1."""
        rows = self.wl.request_rows
        for i in range(32):
            self.service.assign(self.X[i * rows:(i + 1) * rows])
        self.warm_stats = self.service.stats()

    def centers_of(self, version: int) -> np.ndarray | None:
        centers = self.versions.get(version)
        if centers is None:
            try:
                centers = np.array(self.registry.get(version).centers)
            except KeyError:
                return None
        return centers

    def close(self) -> None:
        self.service.close()
        self.registry.close()


#: Published versions the gate keeps centers for (older ones are dropped
#: so memory does not grow with throughput).
_KEEP_VERSIONS = 64
#: Gate samples per client that also feed ``cost_ratio``: a fixed set of
#: points, so the figure does not depend on how many requests a run made.
_COST_SAMPLES = 64
#: Traced and untraced phases alternate this often in a traced serve run.
_PHASE_S = 0.25


def _run_serve(wl: ServeWorkload, seed: int, seconds: float, tracer: Tracer | None,
               rec: RunRecord) -> None:
    from repro.core.costs import potential
    from repro.linalg.engine import get_engine
    from repro.plane.shm import active_owned_segments

    from perfbench.meta import peak_rss_mb

    data_seed, alg_seed = derive_seeds(wl.name, seed)
    state = None
    lock = threading.Lock()
    phase = [0]  # odd = traced
    publish_ns: list[int] = []
    costs: list[tuple[float, float]] = []
    stop = threading.Event()
    errors: list[str] = []

    def client(c: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([alg_seed, c]))
        n, rows = state.X.shape[0], wl.request_rows
        lat, traced_lat, pubs = [], [], []
        attempted = failed = j = samples = 0
        cost = first_cost = 0.0
        while not stop.is_set():
            points = state.X[rng.integers(0, n, size=rows)]
            p0 = phase[0]
            traced = p0 % 2 == 1
            attempted += 1
            t0 = _ns()
            try:
                if traced:
                    with tracer.span("other", "op"):
                        response = state.service.assign(points)
                else:
                    response = state.service.assign(points)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                failed += 1
                errors.append(repr(exc))
                continue
            t1 = _ns()
            j += 1
            if phase[0] == p0:  # ops straddling a phase flip count in neither
                (traced_lat if traced else lat).append(t1 - t0)
            if j % wl.sample_every == 1:
                centers = state.centers_of(response.version)
                if centers is None or not labels_ok(points, response.labels, centers):
                    failed += 1
                elif samples < _COST_SAMPLES:
                    samples += 1
                    cost += float(((points - centers[response.labels]) ** 2).sum())
                    first_cost += potential(points, state.first_centers)
            if j % wl.observe_every == 0:
                try:
                    o0 = _ns()
                    model = state.refresher.observe(points)
                    o1 = _ns()
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    failed += 1
                    errors.append(repr(exc))
                    continue
                if model is not None:
                    pubs.append(o1 - o0)
                    state.versions[model.version] = np.array(model.centers)
                    state.versions.pop(model.version - _KEEP_VERSIONS, None)
        with lock:
            rec.latencies_ns.extend(lat)
            rec.traced_ns.extend(traced_lat)
            publish_ns.extend(pubs)
            costs.append((cost, first_cost))
            rec.attempted += attempted
            rec.failed += failed

    threads: list[threading.Thread] = []
    try:
        state = _set_up(lambda: _ServeState(wl, data_seed, alg_seed), rec)
        rec.config = {
            "registry_shared": state.registry.shared,
            "chunk_bytes": get_engine().chunk_bytes,
            "clients": wl.clients,
            "request_rows": wl.request_rows,
            "k": wl.k,
        }
        threads += [threading.Thread(target=client, args=(c,), daemon=True)
                    for c in range(wl.clients)]
        t_start = time.perf_counter()
        deadline = t_start + seconds
        for t in threads:
            t.start()
        while (now := time.perf_counter()) < deadline:
            time.sleep(min(_PHASE_S, deadline - now))
            if tracer is not None and time.perf_counter() < deadline:
                if phase[0] % 2 == 0:
                    probes.install(tracer)
                else:
                    tracer.unpatch_all()
                phase[0] += 1
        stop.set()
        for t in threads:
            t.join(timeout=60.0)
            if t.is_alive():
                rec.failed += 1
                errors.append("client thread did not stop")
        rec.wall_s = time.perf_counter() - t_start
        if tracer is not None:
            tracer.unpatch_all()
        rec.peak_rss_mb = peak_rss_mb()
        stats = state.service.stats()
        warm = state.warm_stats
        rec.serve_stats = type(stats)(**{
            key: (value - getattr(warm, key) if key != "max_batch_points" else value)
            for key, value in vars(stats).items()
        })
        first_cost = sum(c for _, c in costs)
        rec.cost_ratio = (sum(c for c, _ in costs) / first_cost
                          if first_cost else float("nan"))
        if publish_ns:
            rec.extra["publish_p50_ms"] = float(np.median(publish_ns)) * 1e-6
        rec.extra["publishes"] = len(publish_ns)
        if errors:
            rec.extra["errors"] = errors[:5]
    finally:
        if tracer is not None:
            tracer.unpatch_all()
        stop.set()
        for t in threads:
            t.join(timeout=60.0)
        if state is not None:
            state.close()
    leaked = active_owned_segments()
    if leaked:
        rec.attempted += 1
        rec.failed += 1
        rec.extra["leaked_segments"] = leaked


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer | None) -> RunRecord:
    wl = WORKLOADS[name]
    rec = RunRecord()
    if isinstance(wl, FitWorkload):
        _run_fit(wl, seed, seconds, tracer, rec)
    else:
        _run_serve(wl, seed, seconds, tracer, rec)
    return rec
