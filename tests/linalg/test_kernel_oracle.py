"""The in-place distance expansion is bitwise the textbook expression.

``block_sq_dists`` builds ``||x||^2 - 2<x,c> + ||c||^2`` on the GEMM
output in place.  The oracle below is the expression it replaced; every
identity suite in the repository leans on the two agreeing bit for bit,
so they are compared as raw bit patterns, not with a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.distances import (
    assign_labels,
    block_sq_dists,
    row_norms_sq,
    update_min_sq_dists_argmin,
)


def oracle_block(B, C, xn, cn):
    """The allocate-four-temporaries expansion ``block_sq_dists`` replaced."""
    d2 = xn[:, None] - 2.0 * (B @ C.T) + cn[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def bits(a: np.ndarray) -> np.ndarray:
    """Raw bit patterns of a float array (uint32/uint64 view)."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


def operands(dtype, n, d, k, *, seed=0, offset=0.0):
    gen = np.random.default_rng([seed, d, k])
    B = (gen.normal(size=(n, d)) * 3.0 + offset).astype(dtype)
    C = (gen.normal(size=(k, d)) * 3.0 + offset).astype(dtype)
    return B, C


DTYPES = [np.float32, np.float64]
DIMS = [1, 15, 42, 58, 1000]
KS = [1, 50, 128]


class TestBlockSqDistsOracle:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("k", KS)
    def test_bitwise_equal_to_oracle(self, dtype, d, k):
        B, C = operands(dtype, 97, d, k)
        xn, cn = row_norms_sq(B), row_norms_sq(C)
        assert_bitwise(block_sq_dists(B, C, xn, cn), oracle_block(B, C, xn, cn))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_cancellation_and_clamp(self, dtype):
        # A large common offset makes the expansion cancellation-bound,
        # so many entries round negative and hit the clamp.
        B, C = operands(dtype, 64, 15, 50, offset=1e6)
        xn, cn = row_norms_sq(B), row_norms_sq(C)
        want = oracle_block(B, C, xn, cn)
        assert_bitwise(block_sq_dists(B, C, xn, cn), want)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_non_contiguous_centers(self, dtype):
        B, wide = operands(dtype, 50, 42, 128)
        C = wide[::2, ::3]  # strided in both axes
        B = np.ascontiguousarray(B[:, ::3])
        assert not C.flags.c_contiguous
        xn, cn = row_norms_sq(B), row_norms_sq(C)
        assert_bitwise(block_sq_dists(B, C, xn, cn), oracle_block(B, C, xn, cn))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_zero_row_block(self, dtype):
        B, C = operands(dtype, 0, 15, 50)
        xn, cn = row_norms_sq(B), row_norms_sq(C)
        out = block_sq_dists(B, C, xn, cn)
        assert_bitwise(out, oracle_block(B, C, xn, cn))
        assert out.shape == (0, 50)

    def test_narrow_operands_wide_norms(self):
        # float32 operands with float64 norms: the expression widens to
        # float64, and so must the in-place build.
        B, C = operands(np.float32, 40, 15, 50)
        xn = row_norms_sq(B).astype(np.float64)
        cn = row_norms_sq(C).astype(np.float64)
        assert_bitwise(block_sq_dists(B, C, xn, cn), oracle_block(B, C, xn, cn))


def oracle_assign(X, C):
    """Labels and best distances through the oracle expansion."""
    d2 = oracle_block(X, C, row_norms_sq(X), row_norms_sq(C))
    labels = d2.argmin(axis=1)
    return labels, np.take_along_axis(d2, labels[:, None], axis=1).ravel()


class TestReductionsMatchOracle:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("k", KS)
    def test_assign_labels(self, dtype, d, k):
        X, C = operands(dtype, 120, d, k, seed=1)
        want_labels, want_best = oracle_assign(X, C)
        labels, best = assign_labels(X, C, return_sq_dists=True)
        np.testing.assert_array_equal(labels, want_labels)
        assert_bitwise(best, want_best.astype(np.float64))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", [1, 15, 58])
    def test_update_min_sq_dists_argmin(self, dtype, d):
        X, C = operands(dtype, 120, d, 50, seed=2)
        current = np.full(120, np.inf)
        nearest = np.full(120, -1, dtype=np.int64)
        # Two rounds: the second only improves some rows.
        for lo, hi in ((0, 20), (20, 50)):
            update_min_sq_dists_argmin(X, C[lo:hi], current, nearest, offset=lo)
        labels, best = oracle_assign(X, C)
        np.testing.assert_array_equal(nearest, labels)
        assert_bitwise(current, best.astype(np.float64))

    def test_ties_break_to_lowest_index(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels, best = assign_labels(X, C, return_sq_dists=True)
        want_labels, want_best = oracle_assign(X, C)
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(labels, [0, 0])
        assert_bitwise(best, want_best)
