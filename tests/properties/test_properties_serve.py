"""Property tests: the serving path is indistinguishable from the oracle.

Two contracts under arbitrary adversarial instances:

* **Assignment identity** — pruned, micro-batched assignment returns
  labels bit-identical to ``assign_labels`` (lowest-index ties and all)
  for any batch split, any engine worker count, and both working
  dtypes.  This is the guarantee the whole serving path leans on.
* **Refresh identity** — folding a stream of mini-batches through
  :class:`StreamingRefresher` publishes exactly the center matrices of
  the :func:`offline_fold` reference replay (which assigns with the
  naive kernel), so the streaming path adds nothing but scheduling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.distances import _as_working, assign_labels
from repro.linalg.engine import Engine, use_engine
from repro.serve import (
    ModelRegistry,
    ServedModel,
    StreamingRefresher,
    assign_serve,
    offline_fold,
)
from tests.properties.strategies import points_and_k

SETTINGS = dict(max_examples=40, deadline=None)


def naive_labels(X, centers):
    return assign_labels(*_as_working(np.asarray(X), np.asarray(centers)))


class TestAssignIdentity:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_labels_match_naive_across_splits_workers_dtypes(self, data):
        X, k = data.draw(points_and_k(min_rows=4))
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        workers = data.draw(st.sampled_from([1, 3]))
        pieces = data.draw(st.integers(1, min(5, X.shape[0])))
        X = X.astype(dtype)
        centers = X[:k].copy()
        model = ServedModel.freeze(1, centers)
        expected = naive_labels(X, centers)
        with use_engine(Engine(workers=workers, chunk_bytes=1 << 14)):
            got = np.concatenate(
                [
                    assign_serve(part, model).labels
                    for part in np.array_split(X, pieces)
                ]
            )
        np.testing.assert_array_equal(got, expected)

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_telemetry_never_exceeds_naive_work(self, data):
        X, k = data.draw(points_and_k(min_rows=4))
        model = ServedModel.freeze(1, X[:k].copy())
        result = assign_serve(X, model)
        assert 0 <= result.n_pruned <= X.shape[0]
        if model.index_for(np.float64) is None:
            assert result.n_dist_evals == X.shape[0] * k
        # (With an index, overhead can exceed naive on tiny adversarial
        # instances; the bench asserts the savings on realistic ones.)

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_sq_dists_match_reference_rounding(self, data):
        X, k = data.draw(points_and_k(min_rows=4))
        centers = X[:k].copy()
        model = ServedModel.freeze(1, centers)
        result = assign_serve(X, model, return_sq_dists=True)
        _, d2 = assign_labels(
            *_as_working(X, centers), return_sq_dists=True
        )
        scale = float(max(1.0, np.abs(X).max()) ** 2) * X.shape[1]
        np.testing.assert_allclose(
            result.sq_dists, d2, rtol=1e-9, atol=1e-9 * scale
        )


class TestNearTieIdentity:
    """A row at the exact midpoint of two centers, among easy rows.

    Its two distances tie up to round-off, so its label is whatever the
    reference kernel's own GEMM says — a GEMM over a row subset rounds
    differently and may pick the other center.  The served label must
    still be the reference's.
    """

    @pytest.mark.parametrize("d", [15, 42, 58])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_midpoint_row_among_easy_rows(self, d, offset):
        for seed in range(12):
            gen = np.random.default_rng([seed, d, int(offset)])
            C = gen.normal(size=(64, d)) * 3.0 + offset
            X = C[gen.integers(0, 64, size=64)] + gen.normal(size=(64, d)) * 0.05
            a, b = gen.choice(64, 2, replace=False)
            X[gen.integers(64)] = (C[a] + C[b]) / 2.0
            got = assign_serve(X, ServedModel.freeze(1, C)).labels
            np.testing.assert_array_equal(got, naive_labels(X, C), err_msg=str(seed))


class TestRefreshIdentity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_streaming_equals_offline_fold(self, data):
        X, k = data.draw(points_and_k(min_rows=6, max_rows=30))
        centers = X[:k].copy()
        n_batches = data.draw(st.integers(1, 4))
        publish_every = data.draw(st.sampled_from([1, 2, None]))
        prior = data.draw(st.sampled_from([0.0, 2.5]))
        drift = None if publish_every is not None else 0.0
        batches = [
            np.asarray(part)
            for part in np.array_split(X, n_batches)
            if part.shape[0]
        ]
        with ModelRegistry(shared=False, keep_versions=50) as registry:
            registry.publish(centers)
            refresher = StreamingRefresher(
                registry,
                publish_every=publish_every,
                drift_threshold=drift,
                prior_weight=prior,
            )
            published = []
            for batch in batches:
                model = refresher.observe(batch)
                if model is not None:
                    published.append(np.asarray(model.centers))
            model = refresher.flush()
            if model is not None:
                published.append(np.asarray(model.centers))
        reference = offline_fold(
            centers,
            batches,
            publish_every=publish_every,
            drift_threshold=drift,
            prior_weight=prior,
        )
        assert len(published) == len(reference)
        for got, want in zip(published, reference):
            np.testing.assert_array_equal(got, want)
