"""Tests for repro.linalg.bounds: the one copy of the Hamerly arithmetic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg import bounds
from repro.linalg.distances import assign_labels, pairwise_sq_dists, row_norms_sq
from repro.linalg.sparse import sparse_d2_slack


def fill(X, C):
    """Cold bound fill: (labels, ub, lb, slack, n_dist)."""
    n = X.shape[0]
    xn, cn = row_norms_sq(X), row_norms_sq(C)
    slack = bounds.expansion_slack(xn, cn, X.shape[1], X.dtype)
    labels = np.empty(n, dtype=np.int64)
    ub, lb = np.empty(n), np.empty(n)
    n_dist = bounds.assign_bounds(X, C, xn, cn, labels, ub, lb, slack)
    return labels, ub, lb, slack, n_dist


def walk(X, C, steps, step_size, gen):
    """Move the centers ``steps`` times; after each move refresh the
    bounds and yield (labels, centers, n_dist)."""
    labels, ub, lb, _, _ = fill(X, C)
    xn = row_norms_sq(X)
    for _ in range(steps):
        new = C + gen.normal(size=C.shape) * step_size
        cn = row_norms_sq(new)
        slack = bounds.expansion_slack(xn, cn, X.shape[1], X.dtype)
        n_dist = bounds.refresh_bounds(
            X, new, xn, cn, labels, ub, lb, bounds.center_drift(new, C), slack
        )
        C = new
        yield labels, C, n_dist


class TestAssignBounds:
    def test_labels_and_bounds_match_reference(self, rng):
        X = rng.normal(size=(300, 6))
        C = rng.normal(size=(9, 6))
        labels, ub, lb, slack, n_dist = fill(X, C)
        ref_labels, ref_best = assign_labels(X, C, return_sq_dists=True)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(ub, np.sqrt(ref_best + slack))
        runner_up = np.partition(pairwise_sq_dists(X, C), 1, axis=1)[:, 1]
        np.testing.assert_array_equal(lb, np.sqrt(np.maximum(runner_up - slack, 0.0)))
        assert n_dist == 300 * 9

    def test_duplicate_minimum_is_its_own_runner_up(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0]])
        C = np.array([[1.0, 0.0], [0.0, 1.0], [9.0, 9.0]])  # row 0 ties
        labels, ub, lb, slack, _ = fill(X, C)
        assert labels[0] == 0
        assert lb[0] <= ub[0]  # a tie can never pass the skip test

    def test_single_center_has_no_lower_bound(self, rng):
        labels, _, lb, _, _ = fill(rng.normal(size=(10, 3)), np.zeros((1, 3)))
        assert (labels == 0).all() and np.isinf(lb).all()

    def test_row_subset(self, rng):
        X = rng.normal(size=(50, 4))
        C = rng.normal(size=(5, 4))
        xn, cn = row_norms_sq(X), row_norms_sq(C)
        rows = np.array([3, 7, 41])
        labels = np.full(50, -1)
        ub, lb = np.zeros(50), np.zeros(50)
        assert bounds.assign_bounds(X, C, xn, cn, labels, ub, lb, 0.0, rows=rows) == 15
        np.testing.assert_array_equal(labels[rows], assign_labels(X[rows], C))
        assert (np.delete(labels, rows) == -1).all()


class TestRefreshBounds:
    @pytest.mark.parametrize("step_size", [1e-3, 0.05, 0.5])
    def test_labels_equal_reference_every_step(self, rng, step_size):
        gen = np.random.default_rng(5)
        X = rng.normal(size=(400, 5)) + 4.0 * gen.integers(0, 3, size=(400, 1))
        C = X[gen.choice(400, 8, replace=False)]
        for labels, centers, n_dist in walk(X, C, 6, step_size, gen):
            np.testing.assert_array_equal(labels, assign_labels(X, centers))
            assert n_dist <= 8 * 8 + 400 + 400 * 8

    def test_small_moves_skip_most_rows(self, rng):
        gen = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        X = centers[gen.integers(0, 3, size=600)] + gen.normal(size=(600, 2))
        for _, _, n_dist in walk(X, centers, 3, 1e-3, gen):
            assert n_dist == 3 * 3  # the center-center pass, nothing else

    def test_cancellation_dominated_offset(self, rng):
        gen = np.random.default_rng(7)
        X = rng.normal(size=(300, 4)) + 1e6
        C = X[:6].copy()
        for labels, centers, _ in walk(X, C, 4, 0.1, gen):
            np.testing.assert_array_equal(labels, assign_labels(X, centers))

    @pytest.mark.parametrize("d", [2, 15, 42])
    def test_cancellation_random_walks(self, d):
        """At a 1e6 offset the expansion's round-off is as large as the
        gaps between distances, and a GEMM over a row subset may round
        differently from the full pass: labels must still be the
        reference's, tie-breaks included."""
        for seed in range(40):
            gen = np.random.default_rng(seed)
            X = 1e6 + gen.normal(size=(300, d)) * 3.0
            C = 1e6 + gen.normal(size=(8, d)) * 3.0
            if seed % 3 == 0:
                C[1] = C[0]
            labels, ub, lb, _, _ = fill(X, C)
            xn = row_norms_sq(X)
            for _ in range(8):
                new = C + gen.normal(size=C.shape) * 10 ** gen.uniform(-7, 0)
                if seed % 3 == 0:
                    new[1] = new[0]
                cn = row_norms_sq(new)
                slack = bounds.expansion_slack(xn, cn, d, X.dtype)
                bounds.refresh_bounds(
                    X, new, xn, cn, labels, ub, lb, bounds.center_drift(new, C), slack
                )
                C = new
                np.testing.assert_array_equal(
                    labels, assign_labels(X, C), err_msg=f"seed {seed}"
                )

    def test_duplicated_centers_keep_lowest_index(self, rng):
        X = rng.normal(size=(200, 3))
        C = np.repeat(rng.normal(size=(3, 3)), 2, axis=0)  # pairs coincide
        labels, ub, lb, _, _ = fill(X, C)
        xn, cn = row_norms_sq(X), row_norms_sq(C)
        slack = bounds.expansion_slack(xn, cn, 3, X.dtype)
        bounds.refresh_bounds(X, C, xn, cn, labels, ub, lb, np.zeros(6), slack)
        np.testing.assert_array_equal(labels, assign_labels(X, C))
        assert (labels % 2 == 0).all()


class TestHelpers:
    def test_expansion_slack_has_one_definition(self):
        assert bounds.expansion_slack is sparse_d2_slack

    def test_center_drift_never_understates(self, rng):
        old = rng.normal(size=(20, 7))
        new = old + rng.normal(size=(20, 7)) * 1e-3
        exact = np.sqrt(((new - old) ** 2).sum(axis=1))
        assert (bounds.center_drift(new, old) >= exact).all()

    def test_half_min_center_dist(self):
        C = np.array([[0.0, 0.0], [4.0, 0.0], [10.0, 0.0]])
        s = bounds.half_min_center_dist(C, row_norms_sq(C), 0.0)
        np.testing.assert_allclose(s, [2.0, 2.0, 3.0])
        one = bounds.half_min_center_dist(C[:1], row_norms_sq(C[:1]), 0.0)
        assert np.isinf(one).all()

    def test_d2_to_assigned(self, rng):
        X = rng.normal(size=(30, 4))
        C = rng.normal(size=(5, 4))
        labels = assign_labels(X, C)
        got = bounds.d2_to_assigned(X, C, labels, row_norms_sq(X), row_norms_sq(C))
        np.testing.assert_allclose(got, ((X - C[labels]) ** 2).sum(axis=1), atol=1e-12)

    def test_tighten_upper_bounds(self, rng):
        X = rng.normal(size=(30, 4))
        C = rng.normal(size=(5, 4))
        labels = assign_labels(X, C)
        ub = np.full(30, np.inf)
        cand = np.array([0, 4, 9])
        n = bounds.tighten_upper_bounds(
            cand, X, C, row_norms_sq(X), row_norms_sq(C), labels, ub, 0.0
        )
        assert n == 3
        exact = np.sqrt(((X[cand] - C[labels[cand]]) ** 2).sum(axis=1))
        np.testing.assert_allclose(ub[cand], exact, rtol=1e-12)
        assert np.isinf(np.delete(ub, cand)).all()
