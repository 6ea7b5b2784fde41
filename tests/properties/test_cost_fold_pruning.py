"""The triangle-pruned k-means|| cost fold is bitwise the dense fold.

Dense float64 splits keep every candidate folded so far, and each round
forms only the distances the cached nearest candidate cannot rule out.
Whether the candidate table is kept, dropped every round, or dropped in
rounds picked by a hash (the same rounds on every backend), the cached
``d2``/``nearest`` profile after each round and the pipeline's centers,
``lloyd_iters`` and ``final_cost`` must not move a bit — on serial,
thread and process backends, and on data built to break a careless
bound: a 1e6 offset (cancellation-bound expansions), duplicated points
(exact ties between candidates) and an exactly equidistant grid.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import zlib

import numpy as np
import pytest

import repro.mapreduce.kmeans_mr as kmeans_mr
from repro.exec import ProcessBackend, SerialBackend, ThreadBackend, WorkerBudget
from repro.linalg import native
from repro.mapreduce.jobs.common import STATE_D2, STATE_NEAREST
from repro.mapreduce.jobs.cost_job import STATE_SEEN, UpdateCostMapper, make_cost_job
from repro.mapreduce.kmeans_mr import mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime


class ForgetfulCostMapper(UpdateCostMapper):
    """Drops the candidate table before every round: the dense fold."""

    def map_block(self, block):
        self.ctx.state.pop(STATE_SEEN, None)
        return super().map_block(block)


class FlakyCostMapper(UpdateCostMapper):
    """Drops the candidate table in about half of the rounds, chosen by a
    hash of the broadcast candidates so every backend drops in the same
    rounds (the table then stays gone: it cannot be rebuilt)."""

    def map_block(self, block):
        if zlib.crc32(self.new_centers.tobytes()) % 2:
            self.ctx.state.pop(STATE_SEEN, None)
        return super().map_block(block)


MAPPERS = (UpdateCostMapper, ForgetfulCostMapper, FlakyCostMapper)


def cost_job(mapper_cls, new_centers, *, offset=0, reset=False):
    return dataclasses.replace(
        make_cost_job(new_centers, offset=offset, reset=reset),
        mapper_factory=functools.partial(mapper_cls, offset=offset, reset=reset),
    )


def dataset(name: str) -> tuple[np.ndarray, int]:
    gen = np.random.default_rng(zlib.crc32(name.encode()))
    means = gen.normal(size=(8, 4)) * 12.0
    blobs = means[gen.integers(0, 8, size=400)] + gen.normal(size=(400, 4))
    if name == "blobs":
        return blobs, 8
    if name == "offset":
        return blobs + 1e6, 8
    if name == "duplicates":
        return np.repeat(blobs[:50], 8, axis=0), 8
    if name == "equidistant":
        g = np.arange(12.0) * 3.0
        return np.array([(x, y) for x in g for y in g]), 6
    raise ValueError(name)


DATASETS = ["blobs", "offset", "duplicates", "equidistant"]


@pytest.fixture(scope="module")
def backends():
    serial = SerialBackend(budget=WorkerBudget(2))
    thread = ThreadBackend(budget=WorkerBudget(2))
    process = ProcessBackend(budget=WorkerBudget(2))
    yield {"serial": serial, "thread": thread, "process": process}
    thread.shutdown()
    process.shutdown()


def candidate_rounds(X, seed=3):
    """Candidate blocks of a k-means||-like run: one point, then growing
    samples of the data (duplicates of earlier candidates included)."""
    gen = np.random.default_rng(seed)
    sizes = (1, 6, 12, 20, 20)
    return [X[gen.integers(0, X.shape[0], size=s)] for s in sizes]


def profiles(X, mapper_cls, backend):
    """Per round: every split's (d2, nearest) bytes and the formed pairs."""
    out = []
    with LocalMapReduceRuntime(X, n_splits=3, seed=0, workers=2,
                               backend=backend) as rt:
        offset = 0
        for block in candidate_rounds(X):
            result = rt.run_job(cost_job(mapper_cls, block, offset=offset))
            offset += block.shape[0]
            states = [
                (s[STATE_D2].tobytes(), s[STATE_NEAREST].tobytes())
                for s in rt.split_states
            ]
            out.append((states, result.counters.value("cost", "dist_evals")))
    return out


@pytest.mark.parametrize("name", DATASETS)
def test_every_round_profile_equals_the_dense_fold(backends, name):
    X, _ = dataset(name)
    want = profiles(X, ForgetfulCostMapper, backends["serial"])
    nominal = [X.shape[0] * b.shape[0] for b in candidate_rounds(X)]
    assert [formed for _, formed in want] == nominal
    for backend, mapper_cls in itertools.product(
        ("serial", "thread", "process"), MAPPERS
    ):
        got = profiles(X, mapper_cls, backends[backend])
        assert [s for s, _ in got] == [s for s, _ in want], (backend, mapper_cls)
        if mapper_cls is UpdateCostMapper and name != "equidistant" and native.lib():
            # The table is whole, so the last round prunes.
            assert got[-1][1] < nominal[-1], (backend, name)


def fit(monkeypatch, X, k, mapper_cls, backend, shared):
    monkeypatch.setattr(kmeans_mr, "make_cost_job",
                        functools.partial(cost_job, mapper_cls))
    return mr_scalable_kmeans(
        X, k, l=2.0 * k, r=4, n_splits=3, seed=11, lloyd_max_iter=4,
        workers=2, backend=backend, shared_broadcast=shared,
    )


def fingerprint(report):
    return (report.centers.tobytes(), report.lloyd_iters, report.final_cost,
            report.seed_cost)


@pytest.mark.parametrize("name", DATASETS)
def test_pipeline_bitwise_equal_with_or_without_the_table(monkeypatch, backends, name):
    X, k = dataset(name)
    want = fingerprint(
        fit(monkeypatch, X, k, ForgetfulCostMapper, backends["serial"], False)
    )
    for backend, shared, mapper_cls in itertools.product(
        ("serial", "thread", "process"), (False, True), MAPPERS
    ):
        got = fingerprint(fit(monkeypatch, X, k, mapper_cls, backends[backend], shared))
        assert got == want, (backend, shared, mapper_cls.__name__)


def test_reset_and_replay_start_the_table_over(backends):
    X, _ = dataset("blobs")
    blocks = candidate_rounds(X)
    with LocalMapReduceRuntime(X, n_splits=2, seed=0, backend=backends["serial"]) as rt:
        offset = 0
        for block in blocks[:3]:
            rt.run_job(make_cost_job(block, offset=offset))
            offset += block.shape[0]
        assert all(s[STATE_SEEN].shape[0] == offset for s in rt.split_states)
        # A reset re-runs the pipeline from candidate 0: the table restarts.
        rt.run_job(make_cost_job(blocks[0], offset=0, reset=True))
        assert all(s[STATE_SEEN].shape[0] == 1 for s in rt.split_states)
        # A profile that outlived its table (lost state, different
        # offset) folds densely and keeps no table.
        for s in rt.split_states:
            s.pop(STATE_SEEN)
        rt.run_job(make_cost_job(blocks[1], offset=1))
        assert all(STATE_SEEN not in s for s in rt.split_states)
