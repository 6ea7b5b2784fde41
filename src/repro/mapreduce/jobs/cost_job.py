"""The cost/update job: maintain per-split ``d^2`` caches, emit partial phi.

One invocation per ``k-means||`` round boundary: the driver broadcasts the
centers *added* since the previous invocation; each mapper folds them into
its cached ``d^2(x, C)`` profile (the incremental update every serious
implementation uses — Spark MLlib keeps exactly this per-partition state)
and emits its split's partial potential. The reducer sums partials into
``phi_X(C)`` (Section 3.5).

The mapper also maintains the *argmin* (index of the nearest candidate)
alongside the minimum. That costs nothing extra during the fold and makes
Step 7 (candidate weighting) a zero-distance-work bincount pass — see
:class:`repro.mapreduce.jobs.weight_job.CachedWeightMapper`.

Dense float64 splits also keep their ``||x||^2`` rows (shared with the
Lloyd mapper) and every candidate folded so far.  With that table a
round forms only the distances the cached nearest candidate cannot rule
out by the triangle inequality (see :func:`~repro.linalg.distances.
update_min_sq_dists_argmin`); the profile stays bitwise the dense one.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from repro.exceptions import JobSpecError
from repro.linalg import sparse as _sparse
from repro.linalg.distances import row_norms_sq, update_min_sq_dists_argmin
from repro.mapreduce.job import BlockMapper, KeyValue, MapReduceJob
from repro.mapreduce.jobs.common import (
    FLOPS_PER_DIST,
    STATE_D2,
    STATE_NEAREST,
    STATE_NORMS,
    ScalarSumReducer,
)

__all__ = ["UpdateCostMapper", "make_cost_job", "PHI_KEY", "STATE_SEEN"]

#: Output key of the summed potential.
PHI_KEY = "phi"
#: Split-state key of the candidates folded so far, in global order
#: (dense float64 splits).
STATE_SEEN = "cost-seen"


class UpdateCostMapper(BlockMapper):
    """Fold ``new_centers`` into the split's cached profile; emit partial phi.

    Parameters
    ----------
    new_centers:
        Centers added since the last cost job, shape ``(c, d)``.
    offset:
        Global candidate index of ``new_centers[0]`` (candidates are
        numbered in the order the driver collected them); required to keep
        the cached argmin globally consistent.
    reset:
        Discard any cached profile and recompute from scratch (used when a
        driver re-runs a pipeline on the same runtime).

    ``work`` charges the nominal ``n * c * d`` whatever the pruning
    skipped, so the simulated clock is unchanged; the ``("cost",
    "dist_evals")`` counter reports the point-candidate distances
    actually formed.
    """

    def __init__(
        self,
        new_centers: np.ndarray | None = None,
        *,
        offset: int = 0,
        reset: bool = False,
    ):
        super().__init__()
        # ``None`` defers to the job broadcast at setup time, keeping the
        # center block out of the pickled mapper factory (data plane).
        self.new_centers = (
            None
            if new_centers is None
            else np.atleast_2d(np.asarray(new_centers, dtype=np.float64))
        )
        self.offset = int(offset)
        self.reset = bool(reset)

    def setup(self, ctx) -> None:
        super().setup(ctx)
        if self.new_centers is None:
            if ctx.broadcast is None:
                raise JobSpecError(
                    "UpdateCostMapper needs centers: pass them to the "
                    "constructor or run it through a job whose broadcast "
                    "carries them"
                )
            self.new_centers = np.atleast_2d(
                np.asarray(ctx.broadcast, dtype=np.float64)
            )

    def map_block(self, block: np.ndarray) -> Iterable[KeyValue]:
        state = self.ctx.state
        d2 = None if self.reset else state.get(STATE_D2)
        nearest = None if self.reset else state.get(STATE_NEAREST)
        fresh = d2 is None or nearest is None
        if fresh:
            d2 = np.full(block.shape[0], np.inf)
            nearest = np.full(block.shape[0], -1, dtype=np.int64)
        # Norms and the candidate table serve dense float64 splits, the
        # only ones whose working arrays are the split's own rows.
        dense = not _sparse.is_sparse(block) and block.dtype == np.float64
        norms = seen = None
        if dense:
            norms = state.get(STATE_NORMS)
            if norms is None or norms.shape != (block.shape[0],):
                norms = row_norms_sq(block)
                state[STATE_NORMS] = norms
            seen = None if self.reset else state.get(STATE_SEEN)
            if seen is not None and seen.shape[0] != self.offset:
                seen = None
        stats = {"dist_evals": 0}
        if self.new_centers.shape[0]:
            d2, nearest = update_min_sq_dists_argmin(
                block, self.new_centers, d2, nearest, offset=self.offset,
                x_norms_sq=norms, seen=seen, stats=stats,
            )
        state[STATE_D2] = d2
        state[STATE_NEAREST] = nearest
        # The table must list every candidate a cached nearest can name:
        # start it with a fresh profile, extend it while it is whole.
        if dense and (seen is not None or (fresh and self.offset == 0)):
            # A copy: the broadcast may be a view of a released segment.
            state[STATE_SEEN] = (
                self.new_centers.copy() if seen is None
                else np.concatenate([seen, self.new_centers])
            )
        else:
            state.pop(STATE_SEEN, None)
        self.work += (
            block.shape[0] * self.new_centers.shape[0] * block.shape[1] * FLOPS_PER_DIST
        )
        self.ctx.counters.increment("cost", "points", block.shape[0])
        self.ctx.counters.increment("cost", "dist_evals", stats["dist_evals"])
        yield PHI_KEY, float(d2.sum())


def make_cost_job(
    new_centers: np.ndarray, *, offset: int = 0, reset: bool = False
) -> MapReduceJob:
    """Build the cost job for one round boundary."""
    # functools.partial (not a lambda) keeps the job picklable for the
    # process execution backend; the new centers ride only in
    # ``broadcast`` so the data plane can ship a descriptor per task.
    new_centers = np.atleast_2d(np.asarray(new_centers, dtype=np.float64))
    return MapReduceJob(
        name="kmeans||/update-cost",
        mapper_factory=functools.partial(
            UpdateCostMapper, offset=offset, reset=reset
        ),
        reducer_factory=ScalarSumReducer,
        combiner_factory=ScalarSumReducer,
        broadcast=new_centers,
    )
