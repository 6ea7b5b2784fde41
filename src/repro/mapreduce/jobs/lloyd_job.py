"""One Lloyd round as a MapReduce job.

The classic parallel k-means pattern the paper's introduction mentions as
"readily available": mappers assign points to the broadcast centers and
emit per-cluster (coordinate-sum, count) partials; the reducer folds
partials and produces new centroids. Mappers also emit the split's partial
potential so the driver can track convergence for free.

Two granularities are supported:

* ``"split"`` (default) — the mapper pre-aggregates one ``(k, d+1)``
  block per split (how Spark/combiner-enabled Hadoop behaves); shuffle
  volume is ``O(splits * k * d)``;
* ``"point"`` — the mapper emits one record *per point* and correctness
  relies on the combiner, as in textbook Hadoop; shuffle volume without a
  combiner is ``O(n * d)``. The combiner-ablation bench uses this mode to
  measure exactly how many bytes the combiner saves.

Dense splits keep Hamerly bounds (:mod:`repro.linalg.bounds`) in their
resident state between rounds, so after the first round a mapper computes
full ``k``-wide distance rows only for the points the bounds cannot
decide.  Labels — and therefore centers — are bitwise those of a full
``assign_labels`` pass; the partial potential is always summed from the
distance to the assigned center, so it is the same whether the bounds
were used, rebuilt, or lost.
"""

from __future__ import annotations

import functools
from typing import Any, Hashable, Iterable

import numpy as np

from repro.exceptions import JobSpecError
from repro.linalg import sparse as _sparse
from repro.linalg.bounds import (
    assign_bounds,
    center_drift,
    d2_to_assigned,
    expansion_slack,
    refresh_bounds,
)
from repro.linalg.centroids import cluster_sizes, cluster_sums
from repro.linalg.distances import _as_working, assign_labels, row_norms_sq
from repro.mapreduce.job import BlockMapper, KeyValue, MapReduceJob, Reducer
from repro.mapreduce.jobs.common import FLOPS_PER_DIST, STATE_NORMS, ScalarSumReducer

__all__ = [
    "LloydMapper",
    "SumCountReducer",
    "make_lloyd_job",
    "AGG_KEY",
    "PHI_KEY",
    "STATE_NORMS",
    "STATE_LABELS",
    "STATE_UB",
    "STATE_LB",
    "STATE_CENTERS",
]

#: Split-state keys of the Hamerly bound state (dense splits): per-row
#: label, upper bound and lower bound, and the centers they refer to.
STATE_LABELS = "lloyd-labels"
STATE_UB = "lloyd-ub"
STATE_LB = "lloyd-lb"
STATE_CENTERS = "lloyd-centers"

#: Output key prefix of per-cluster aggregates.
AGG_KEY = "agg"
#: Output key of the partial potential.
PHI_KEY = "lloyd-phi"

GRANULARITIES = ("split", "point")


class LloydMapper(BlockMapper):
    """Assignment + partial aggregation for one split.

    The split's ``||x||^2`` rows are cached in the per-split state (the
    runtime's RDD-caching model, same mechanism the cost job uses for its
    ``d^2`` profile), so the driver's one-job-per-Lloyd-round loop pays
    the O(nd) norm pass once per split, not once per round.  Dense
    splits also keep their Hamerly bound state there (see
    :meth:`_assign_dense`).

    ``work`` charges the paper's nominal ``n * k * d`` distance work
    whatever the bounds skipped, so the simulated clock is unchanged;
    the ``("lloyd", "dist_evals")`` counter reports the point-center
    distance evaluations actually performed.
    """

    def __init__(self, centers: np.ndarray | None = None, granularity: str = "split"):
        super().__init__()
        if granularity not in GRANULARITIES:
            raise JobSpecError(
                f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
            )
        # ``centers=None`` defers to the job broadcast at setup time —
        # the factory then pickles without the array, so task pickles
        # stay O(1) and the payload travels through the data plane.
        self.centers = (
            None
            if centers is None
            else np.atleast_2d(np.asarray(centers, dtype=np.float64))
        )
        self.granularity = granularity

    def setup(self, ctx) -> None:
        super().setup(ctx)
        if self.centers is None:
            if ctx.broadcast is None:
                raise JobSpecError(
                    "LloydMapper needs centers: pass them to the constructor "
                    "or run it through a job whose broadcast carries them"
                )
            self.centers = np.atleast_2d(np.asarray(ctx.broadcast, dtype=np.float64))

    def map_block(self, block: np.ndarray) -> Iterable[KeyValue]:
        k = self.centers.shape[0]
        state = {} if self.ctx is None else self.ctx.state
        norms = state.get(STATE_NORMS)
        if norms is None or norms.shape[0] != block.shape[0]:
            norms = row_norms_sq(block)
            state[STATE_NORMS] = norms
        if _sparse.is_sparse(block):
            labels, d2 = assign_labels(
                block, self.centers, x_norms_sq=norms, return_sq_dists=True
            )
            n_dist = block.shape[0] * k
        else:
            labels, d2, n_dist = self._assign_dense(block, norms, state)
        self.work += block.shape[0] * k * block.shape[1] * FLOPS_PER_DIST
        if self.ctx is not None:
            self.ctx.counters.increment("lloyd", "dist_evals", n_dist)
        yield PHI_KEY, float(d2.sum())
        if self.granularity == "split":
            sums = cluster_sums(block, labels, k)
            counts = cluster_sizes(labels, k)
            # One (sum, count) record per non-empty cluster in this split.
            for j in np.flatnonzero(counts):
                yield (AGG_KEY, int(j)), np.concatenate([sums[j], counts[j : j + 1]])
        else:
            # Point granularity ships one dense (d+1,) record per point by
            # construction (the combiner ablation measures exactly that),
            # so CSR rows densify at emit.
            for i, j in enumerate(labels):
                x = _sparse.densify_rows(block[i : i + 1])[0]
                yield (AGG_KEY, int(j)), np.concatenate([x, [1.0]])

    def _assign_dense(self, block, norms, state):
        """Labels, distance to the assigned center, evaluations performed.

        With a bound state for this split's rows and the same number of
        centers, drift it by the center shift and refresh it
        (:func:`~repro.linalg.bounds.refresh_bounds`); otherwise (first
        round, lost state, changed shapes) fill it with one full
        assignment.  The labels are bitwise those of ``assign_labels``
        either way.

        Twin attempts of a task (speculation) share resident state
        segments, so the state is copied in, computed on privately and
        written back in place at the end, the stored centers poisoned
        with NaN meanwhile.  A reader whose centers read changes while
        it copies has overlapped a write-back and starts cold.
        """
        n = block.shape[0]
        Xw, Cw = _as_working(block, self.centers)
        c_norms = row_norms_sq(Cw)
        # Norms cached from a narrower float block carry its round-off.
        eps_dt = Xw.dtype
        if norms.dtype.kind == "f" and np.finfo(norms.dtype).eps > np.finfo(eps_dt).eps:
            eps_dt = norms.dtype
        slack = expansion_slack(norms, c_norms, Xw.shape[1], eps_dt)
        prev = state.get(STATE_CENTERS)
        rows = [state.get(key) for key in (STATE_LABELS, STATE_UB, STATE_LB)]
        warm = (
            isinstance(prev, np.ndarray)
            and prev.shape == Cw.shape
            and prev.dtype == Cw.dtype
            and all(isinstance(a, np.ndarray) and a.shape == (n,) for a in rows)
        )
        if warm:
            seen = prev.copy()
            labels, ub, lb = (a.copy() for a in rows)
            warm = np.array_equal(seen, prev)  # False on NaN poison, too
        if warm:
            n_dist = refresh_bounds(
                Xw, Cw, norms, c_norms, labels, ub, lb, center_drift(Cw, seen), slack
            )
            prev[...] = np.nan
            for target, value in zip(rows, (labels, ub, lb)):
                target[...] = value
            prev[...] = Cw
        else:
            labels = np.empty(n, dtype=np.int64)
            ub = np.empty(n, dtype=np.float64)
            lb = np.empty(n, dtype=np.float64)
            n_dist = assign_bounds(Xw, Cw, norms, c_norms, labels, ub, lb, slack)
            state.update({
                STATE_LABELS: labels, STATE_UB: ub, STATE_LB: lb,
                STATE_CENTERS: Cw.copy(),
            })
        d2 = d2_to_assigned(Xw, Cw, labels, norms, c_norms)
        return labels, d2, n_dist + n


class SumCountReducer(Reducer):
    """Fold (sum, count) partials; emit the new centroid of the cluster.

    Associative/commutative over the partial representation, so it doubles
    as the combiner (where it emits folded partials, which this reducer
    folds again — the output is a centroid only at the final reduce; the
    runtime calls combiners and reducers through different paths, so the
    combiner variant is :class:`SumCountCombiner` below).
    """

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        total = values[0].astype(np.float64, copy=True)
        for v in values[1:]:
            total += v
        self.work += float(total.size * max(0, len(values) - 1))
        count = total[-1]
        centroid = total[:-1] / count if count > 0 else total[:-1]
        yield key, (centroid, float(count))


class SumCountCombiner(Reducer):
    """Pre-fold (sum, count) partials without dividing (stay mergeable).

    ``fold_safe``: one same-key record per fold, work per addition — so
    the spilling shuffle store may keep a running accumulator per key
    instead of buffering the partials (see :mod:`repro.shuffle.store`).
    """

    fold_safe = True

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        if key == PHI_KEY:
            self.work += max(0, len(values) - 1)
            yield key, float(sum(values))
            return
        total = values[0].astype(np.float64, copy=True)
        for v in values[1:]:
            total += v
        self.work += float(total.size * max(0, len(values) - 1))
        yield key, total


class _LloydReducer(Reducer):
    """Dispatch: phi key -> scalar sum; agg keys -> centroid computation."""

    def __init__(self) -> None:
        super().__init__()
        self._scalar = ScalarSumReducer()
        self._sumcount = SumCountReducer()

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        inner = self._scalar if key == PHI_KEY else self._sumcount
        yield from inner.reduce(key, values)
        self.work += inner.work
        inner.work = 0.0


def make_lloyd_job(
    centers: np.ndarray,
    *,
    granularity: str = "split",
    use_combiner: bool = True,
) -> MapReduceJob:
    """Build one Lloyd-round job for the broadcast ``centers``."""
    # functools.partial (not a lambda) keeps the job picklable for the
    # process execution backend; the centers ride only in ``broadcast``
    # (resolved into the mapper at setup), never in the factory, so the
    # data plane can ship them as a shared-memory descriptor.
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    return MapReduceJob(
        name="lloyd/iteration",
        mapper_factory=functools.partial(LloydMapper, granularity=granularity),
        reducer_factory=_LloydReducer,
        combiner_factory=SumCountCombiner if use_combiner else None,
        broadcast=centers,
    )


def collect_new_centers(
    output: dict[Hashable, list[Any]],
    previous: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Assemble the reducer output into a center array plus the potential.

    Clusters that received no points keep their previous center (the
    ``"keep"`` empty policy — the only choice expressible without another
    pass, and what production MapReduce implementations do).
    """
    k = previous.shape[0]
    centers = previous.copy()
    for key, values in output.items():
        if key == PHI_KEY:
            continue
        _, j = key
        centroid, count = values[0]
        if count > 0:
            centers[j] = centroid
    phi = float(output[PHI_KEY][0])
    return centers, phi
