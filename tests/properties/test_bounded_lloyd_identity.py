"""Identity suite: Hamerly bounds in the MapReduce Lloyd mapper.

The bound state a dense split keeps between Lloyd rounds may only change
how many distances the mapper evaluates — never a bit of the output.
Centers, ``lloyd_iters`` and ``final_cost`` of ``mr_scalable_kmeans``
must be bitwise equal whether the state survives every round, is dropped
before every round, or is dropped in some rounds; on serial, thread and
process backends; with the shared-memory data plane on and off.  Labels
and centers must also equal those of the pre-bounds mapper, which ran a
full ``assign_labels`` every round.  The data includes the cases where
the bounds must fall through to a full row: duplicated centers, points
exactly equidistant from two centers, and a 1e6 common offset that
makes the expansion cancellation-bound.
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
from repro.linalg.distances import assign_labels, row_norms_sq
from repro.mapreduce.jobs.lloyd_job import (
    PHI_KEY,
    STATE_CENTERS,
    STATE_LABELS,
    STATE_LB,
    STATE_UB,
    LloydMapper,
    collect_new_centers,
    make_lloyd_job,
)
from repro.mapreduce.kmeans_mr import mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime
from tests.properties.strategies import cost_atol

BOUND_KEYS = (STATE_LABELS, STATE_UB, STATE_LB, STATE_CENTERS)


class ForgetfulLloydMapper(LloydMapper):
    """Drops the bound state before every round: every round starts cold."""

    def map_block(self, block):
        for key in BOUND_KEYS:
            self.ctx.state.pop(key, None)
        return super().map_block(block)


class FlakyLloydMapper(LloydMapper):
    """Drops the bound state in about half of the rounds, chosen by a hash
    of the broadcast centers so every backend drops in the same rounds."""

    def map_block(self, block):
        if zlib.crc32(self.centers.tobytes()) % 2:
            for key in BOUND_KEYS:
                self.ctx.state.pop(key, None)
        return super().map_block(block)


class FullAssignLloydMapper(LloydMapper):
    """The mapper before bounds: a full ``assign_labels`` every round, the
    potential summed from its best distances."""

    def _assign_dense(self, block, norms, state):
        labels, d2 = assign_labels(
            block, self.centers, x_norms_sq=norms, return_sq_dists=True
        )
        return labels, d2, block.shape[0] * self.centers.shape[0]


def lloyd_job(mapper_cls, centers):
    return dataclasses.replace(
        make_lloyd_job(centers),
        mapper_factory=functools.partial(mapper_cls, granularity="split"),
    )


# ----------------------------------------------------------------------
# data


def _blobs(gen, n=240, d=3, k=5, spread=0.6):
    means = gen.normal(size=(k, d)) * 6.0
    return means[gen.integers(0, k, size=n)] + gen.normal(size=(n, d)) * spread


def dataset(name: str) -> tuple[np.ndarray, int]:
    gen = np.random.default_rng(zlib.crc32(name.encode()))
    if name == "blobs":
        return _blobs(gen), 5
    if name == "duplicates":
        # Six distinct points, k=8: seeding must repeat centers, and
        # duplicated centers tie on every point near them.
        return np.repeat(gen.normal(size=(6, 3)) * 4.0, 40, axis=0), 8
    if name == "equidistant":
        # An integer grid: many points sit exactly between two centers.
        g = np.arange(11.0)
        return np.array([(x, y) for x in g for y in g]), 4
    if name == "offset":
        return _blobs(gen) + 1e6, 5
    if name == "float32":
        # Row norms cached from a float32 block carry float32 round-off
        # into the float64 expansion.
        return (_blobs(gen) + 300.0).astype(np.float32), 5
    if name == "offset-wide":
        # KDDCup's d=42 at a 1e6 offset: subset GEMMs round differently
        # from the full pass, so near-ties must come from the reference.
        return _blobs(gen, n=300, d=42, k=8, spread=1.0) + 1e6, 8
    raise ValueError(name)


DATASETS = ["blobs", "duplicates", "equidistant", "offset", "offset-wide", "float32"]
#: Data whose potential carries more than float64 round-off: cancellation
#: at a large offset, or float32 row norms.
LOOSE_COST = {"offset", "offset-wide", "float32"}


# ----------------------------------------------------------------------
# the full pipeline


@pytest.fixture(scope="module")
def backends():
    serial = SerialBackend(budget=WorkerBudget(2))
    thread = ThreadBackend(budget=WorkerBudget(2))
    process = ProcessBackend(budget=WorkerBudget(2))
    yield {"serial": serial, "thread": thread, "process": process}
    thread.shutdown()
    process.shutdown()


def fit(monkeypatch, X, k, mapper_cls, backend, shared):
    monkeypatch.setattr(
        kmeans_mr, "make_lloyd_job", functools.partial(lloyd_job, mapper_cls)
    )
    return mr_scalable_kmeans(
        X, k, l=2.0 * k, r=3, n_splits=3, seed=11, lloyd_max_iter=6,
        workers=2, backend=backend, shared_broadcast=shared,
    )


def fingerprint(report):
    return (report.centers.tobytes(), report.lloyd_iters, report.final_cost)


@pytest.mark.parametrize("name", DATASETS)
def test_pipeline_bitwise_equal_with_or_without_bound_state(
    monkeypatch, backends, name
):
    X, k = dataset(name)
    want = fingerprint(fit(monkeypatch, X, k, LloydMapper, backends["serial"], False))
    for backend, shared, mapper_cls in itertools.product(
        ("serial", "thread", "process"),
        (False, True),
        (LloydMapper, ForgetfulLloydMapper, FlakyLloydMapper),
    ):
        got = fingerprint(
            fit(monkeypatch, X, k, mapper_cls, backends[backend], shared)
        )
        assert got == want, (backend, shared, mapper_cls.__name__)


@pytest.mark.parametrize("name", DATASETS)
def test_pipeline_matches_full_assignment_mapper(monkeypatch, backends, name):
    X, k = dataset(name)
    bounded = fit(monkeypatch, X, k, LloydMapper, backends["serial"], False)
    full = fit(monkeypatch, X, k, FullAssignLloydMapper, backends["serial"], False)
    assert bounded.centers.tobytes() == full.centers.tobytes()
    assert bounded.lloyd_iters == full.lloyd_iters
    # The potential is summed from the distance to the assigned center
    # instead of the block's best entry: equal up to expansion round-off.
    tol = cost_atol(X) if name in LOOSE_COST else 1e-12 * full.final_cost
    assert abs(bounded.final_cost - full.final_cost) <= tol


# ----------------------------------------------------------------------
# round by round, with center moves chosen to provoke fall-throughs


def center_walk(name: str, X: np.ndarray, k: int) -> list[np.ndarray]:
    gen = np.random.default_rng(5)
    if name == "equidistant":
        # Integer centers symmetric about x=5: the x=5 column ties in
        # every round, including a round where nothing moves.
        return [
            np.array([[2.0, 5.0], [8.0, 5.0], [5.0, 1.0], [5.0, 9.0]]),
            np.array([[3.0, 5.0], [7.0, 5.0], [5.0, 2.0], [5.0, 8.0]]),
            np.array([[3.0, 5.0], [7.0, 5.0], [5.0, 2.0], [5.0, 8.0]]),
            np.array([[4.0, 5.0], [6.0, 5.0], [5.0, 0.0], [5.0, 10.0]]),
        ]
    C = X[gen.choice(X.shape[0], k, replace=False)].astype(np.float64)
    if name == "duplicates":
        C[1] = C[0]  # an exact duplicate pair that moves together
    walk = [C]
    for step in (1e-3, 0.3, 0.0, 2.0, 1e-6, 1e-7, 3e-2):
        C = C + gen.normal(size=C.shape) * step
        if name == "duplicates":
            C[1] = C[0]
        walk.append(C)
    return walk


@pytest.mark.parametrize("name", DATASETS)
@pytest.mark.parametrize("shared", [False, True])
def test_every_round_equals_full_assignment(name, shared):
    X, k = dataset(name)
    kwargs = dict(n_splits=3, seed=0, shared_broadcast=shared)
    with LocalMapReduceRuntime(X, **kwargs) as rt, LocalMapReduceRuntime(
        X, **kwargs
    ) as ref:
        full_evals = X.shape[0] * (k + 1)
        evals = []
        for C in center_walk(name, X, k):
            out = rt.run_job(make_lloyd_job(C))
            want = ref.run_job(lloyd_job(FullAssignLloydMapper, C))
            got_centers, got_phi = collect_new_centers(out.output, C)
            want_centers, want_phi = collect_new_centers(want.output, C)
            assert got_centers.tobytes() == want_centers.tobytes()
            tol = cost_atol(X) if name in LOOSE_COST else 1e-12 * want_phi
            assert abs(got_phi - want_phi) <= tol
            for block, state in zip(rt.splits, rt.split_states):
                # The mapper's reference: norms cached from the raw block.
                want_labels = assign_labels(block, C, x_norms_sq=row_norms_sq(block))
                np.testing.assert_array_equal(state[STATE_LABELS], want_labels)
            evals.append(out.counters.as_dict()["lloyd"]["dist_evals"])
        assert evals[0] == full_evals
        # Worst case of a warm round: every row tightened and given a
        # full row, every chunk re-run by the reference pass, plus each
        # split's center-center pass.
        assert max(evals[1:]) <= 2 * full_evals + rt.n_splits * k * k


def test_phi_is_the_same_on_cold_and_warm_paths():
    X, k = dataset("blobs")
    walk = center_walk("blobs", X, k)
    phis = {}
    for mapper_cls in (LloydMapper, ForgetfulLloydMapper):
        with LocalMapReduceRuntime(X, n_splits=3, seed=0) as rt:
            phis[mapper_cls] = [
                rt.run_job(lloyd_job(mapper_cls, C)).output[PHI_KEY][0] for C in walk
            ]
    assert phis[LloydMapper] == phis[ForgetfulLloydMapper]
