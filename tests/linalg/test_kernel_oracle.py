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


# ----------------------------------------------------------------------
# native reductions vs the numpy code they replace
#
# Each case runs the public kernel twice — once with the compiled library
# and once with the loader reporting it unavailable, which leaves only the
# numpy code — and compares the outputs bit for bit.  One exception:
# numpy's min reduction returns a NaN whose sign depends on the array
# length and the NaN's position (measured: both signs occur for the same
# values), so a NaN runner-up bound is compared as "NaN on both sides".

from repro.linalg import bounds as _bounds  # noqa: E402
from repro.linalg import native  # noqa: E402
from repro.linalg.centroids import cluster_sums  # noqa: E402

needs_native = pytest.mark.skipif(native.lib() is None, reason="no native library")


def both_paths(monkeypatch, fn):
    """``fn()`` with the native library, then with only the numpy code."""
    with np.errstate(invalid="ignore"):
        got = fn()
        with monkeypatch.context() as m:
            m.setattr(native, "lib", lambda: None)
            want = fn()
    return got, want


def assert_same(got, want, *, nan_sign_free=False):
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        if nan_sign_free and g.dtype.kind == "f":
            nan = np.isnan(w)
            np.testing.assert_array_equal(np.isnan(g), nan)
            g, w = g[~nan], w[~nan]
        np.testing.assert_array_equal(bits(g) if g.dtype.kind == "f" else g,
                                      bits(w) if w.dtype.kind == "f" else w)


SPECIALS = ["plain", "nan", "inf", "negzero", "negative", "duplicates"]


def special_operands(dtype, n, d, k, special, seed=0):
    """Operands and ``||x||^2`` rows exercising one edge of the arithmetic."""
    B, C = operands(dtype, n, d, k, seed=seed,
                    offset=1e6 if special == "negative" else 0.0)
    if special == "nan" and n:
        B[n // 3, 0] = np.nan
        C[k - 1, 0] = np.nan
    if special == "inf" and n:
        B[n // 2, 0] = np.inf
    if special == "duplicates" and n:
        C[k // 2:] = C[: k - k // 2]
        B[: min(n, k)] = C[: min(n, k)]
    xn = row_norms_sq(B)
    if special == "negzero" and n:
        # Zero rows with -0.0 norms: the expansion meets -0.0 + -0.0.
        B[: n // 4] = 0.0
        xn[: n // 4] = -0.0
    return B, C, xn


def fold_rounds(B, C, xn, *, seen=False):
    """Two cost-fold rounds; the second starts from a partial profile."""
    n, k = B.shape[0], C.shape[0]
    cur = np.full(n, np.inf)
    cur[::3] = 5.0
    near = np.full(n, -1, dtype=np.int64)
    split = k // 2 + 1 if k > 1 else k
    update_min_sq_dists_argmin(B, C[:split], cur, near, offset=0, x_norms_sq=xn)
    update_min_sq_dists_argmin(B, C, cur, near, offset=split, x_norms_sq=xn,
                               seen=C[:split] if seen else None)
    return cur, near


@needs_native
class TestNativeCostFold:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("special", SPECIALS)
    def test_matches_numpy(self, monkeypatch, dtype, d, k, special):
        B, C, xn = special_operands(dtype, 97, d, k, special)
        assert_same(*both_paths(monkeypatch, lambda: fold_rounds(B, C, xn)))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("norm_dtype", [np.float32, np.float64])
    def test_mixed_width_norms(self, monkeypatch, dtype, norm_dtype):
        B, C, xn = special_operands(dtype, 97, 42, 50, "plain")
        xn = xn.astype(norm_dtype)
        assert_same(*both_paths(monkeypatch, lambda: fold_rounds(B, C, xn)))

    def test_non_contiguous_inputs(self, monkeypatch):
        B, C, _ = special_operands(np.float64, 97, 58, 128, "plain")
        B, C = B[:, ::2], C[::2, ::2]
        xn = row_norms_sq(B)
        assert not B.flags.c_contiguous and not C.flags.c_contiguous
        assert_same(*both_paths(monkeypatch, lambda: fold_rounds(B, C, xn)))

    def test_zero_row_block(self, monkeypatch):
        B, C, xn = special_operands(np.float64, 0, 15, 50, "plain")
        assert_same(*both_paths(monkeypatch, lambda: fold_rounds(B, C, xn)))

    @pytest.mark.parametrize("special", SPECIALS)
    def test_pruned_fold_matches_dense(self, monkeypatch, special):
        # Clustered data, so the triangle bound rules most pairs out; the
        # pruning must not move a bit of the dense fold, and non-finite
        # data must fall back to it.
        gen = np.random.default_rng(10)
        means = gen.normal(size=(20, 15)) * 20.0
        B = means[gen.integers(0, 20, size=300)] + gen.normal(size=(300, 15))
        B += 1e6 if special == "negative" else 0.0
        if special == "negzero":
            B[:5] = 0.0
        C = B[gen.choice(300, 128, replace=False)]
        if special == "duplicates":
            C[64:] = C[:64]
        if special == "nan":
            B[7, 0] = np.nan
        if special == "inf":
            B[7, 0] = np.inf
        xn = row_norms_sq(B)
        if special == "negzero":
            xn[:5] = -0.0

        def rounds(seen):
            n = B.shape[0]
            cur, near = np.full(n, np.inf), np.full(n, -1, dtype=np.int64)
            stats: dict = {}
            for lo, hi in ((0, 8), (8, 40), (40, 128)):
                update_min_sq_dists_argmin(
                    B, C[lo:hi], cur, near, offset=lo, x_norms_sq=xn,
                    seen=C[:lo] if seen else None, stats=stats)
            return cur, near, stats["dist_evals"]

        with np.errstate(invalid="ignore"):
            *got, formed = rounds(True)
            *want, nominal = rounds(False)
        assert_same(got, want)
        assert nominal == 300 * 128
        if special in ("nan", "inf"):
            assert formed == nominal
        else:
            assert formed < nominal / 2
        with monkeypatch.context() as m, np.errstate(invalid="ignore"):
            m.setattr(native, "lib", lambda: None)
            assert_same(got, rounds(True)[:2])

    def test_declines_what_it_does_not_cover(self):
        G = np.ones((4, 3))
        cur, near = np.full(4, np.inf), np.full(4, -1, dtype=np.int64)
        norms = np.ones(4)
        assert not native.fold_min(G[:, ::2], norms, np.ones(2), cur, near, 0)
        assert not native.fold_min(G, norms, np.ones(3), cur[::1].astype(np.float32),
                                   near, 0)
        assert not native.fold_min(G, norms.astype(np.longdouble), np.ones(3),
                                   cur, near, 0)
        assert native.fold_min(G, norms, np.ones(3), cur, near, 0)


def fill_bounds(B, C, xn, rows=None):
    cn = row_norms_sq(C)
    slack = _bounds.expansion_slack(xn, cn, B.shape[1], B.dtype)
    n = B.shape[0]
    labels = np.full(n, -7, dtype=np.int64)
    ub = np.full(n, -1.0)
    lb = np.full(n, -1.0)
    evals = _bounds.assign_bounds(B, C, xn, cn, labels, ub, lb, slack, rows=rows)
    return labels, ub, lb, np.array(evals)


@needs_native
class TestNativeTop2:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("special", SPECIALS)
    def test_assign_bounds_matches_numpy(self, monkeypatch, dtype, d, k, special):
        B, C, xn = special_operands(dtype, 97, d, k, special, seed=3)
        rows = np.arange(0, 97, 3)
        for r in (None, rows):
            assert_same(*both_paths(monkeypatch, lambda: fill_bounds(B, C, xn, r)),
                        nan_sign_free=True)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("norm_dtype", [np.float32, np.float64])
    def test_mixed_width_norms(self, monkeypatch, dtype, norm_dtype):
        B, C, xn = special_operands(dtype, 97, 42, 50, "negative", seed=4)
        xn = xn.astype(norm_dtype)
        rows = np.arange(1, 97, 2)
        for r in (None, rows):
            assert_same(*both_paths(monkeypatch, lambda: fill_bounds(B, C, xn, r)))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", KS)
    def test_fill_rows_on_crafted_rows(self, monkeypatch, dtype, k):
        # Distance rows with NaN, inf, -0.0, exact duplicates of the
        # minimum and a row of equal values.
        gen = np.random.default_rng([5, k])
        d2 = gen.integers(0, 4, size=(40, k)).astype(dtype)
        d2[1, :] = 2.0
        d2[2, k // 2] = np.nan
        d2[3, :] = np.inf
        d2[4, 0] = -0.0
        d2[5, ::2] = np.nan

        def fill():
            labels = np.empty(40, dtype=np.int64)
            ub, lb = np.empty(40), np.empty(40)
            _bounds._fill_rows(d2.copy(), slice(None), labels, ub, lb, 0.25)
            return labels, ub, lb

        assert_same(*both_paths(monkeypatch, fill), nan_sign_free=True)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", [1, 15, 42])
    def test_near_tie_flags(self, monkeypatch, dtype, d):
        B, C, xn = special_operands(dtype, 97, d, 50, "duplicates", seed=6)
        B[10:20] = (C[0] + C[1]) / 2  # exact midpoints
        xn = row_norms_sq(B)
        cn = row_norms_sq(C)
        unit = 4.0 * float(np.finfo(dtype).eps) * (d + 4.0)

        def flags():
            labels = np.empty(97, dtype=np.int64)
            ub, lb = np.empty(97), np.empty(97)
            close = _bounds._fill_gemm(B @ C.T, xn, cn, slice(None), labels, ub,
                                       lb, 0.5, unit)
            return labels, ub, lb, close

        got, want = both_paths(monkeypatch, flags)
        assert_same(got, want)
        assert want[3].any()

    def test_zero_row_block(self, monkeypatch):
        B, C, xn = special_operands(np.float64, 0, 15, 50, "plain")
        assert_same(*both_paths(monkeypatch, lambda: fill_bounds(B, C, xn)))

    @pytest.mark.parametrize("dtype, offset", [
        (np.float32, 0.0), (np.float64, 0.0), (np.float64, 1e6),
    ])
    def test_serving_group_pass(self, monkeypatch, dtype, offset):
        # Serving's best-group evaluation: winner, its distance and the
        # runner-up bound feed the accept test and the served distances.
        from repro.serve import ServedModel, assign_serve

        gen = np.random.default_rng([11, int(offset)])
        C = gen.normal(size=(128, 42)) * 3.0 + offset
        X = C[gen.integers(0, 128, size=300)] + gen.normal(size=(300, 42)) * 0.5
        X, C = X.astype(dtype), C.astype(dtype)
        model = ServedModel.freeze(1, C)

        def serve():
            result = assign_serve(X, model, return_sq_dists=True)
            return result.labels, result.sq_dists, np.array(result.n_pruned)

        got, want = both_paths(monkeypatch, serve)
        assert_same(got, want)
        assert want[2] > 0  # the group pass ran and decided rows


@needs_native
class TestNativeClusterSums:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("weights", [None, np.float32, np.float64, np.int64])
    def test_matches_numpy(self, monkeypatch, dtype, d, k, weights):
        gen = np.random.default_rng([7, d, k])
        X = (gen.normal(size=(500, d)) * 1e3).astype(dtype)
        labels = gen.integers(0, k, size=500)
        w = None if weights is None else (gen.random(500) * 5 + 1).astype(weights)
        assert_same(*both_paths(monkeypatch,
                                lambda: [cluster_sums(X, labels, k, weights=w)]))

    @pytest.mark.parametrize("special", ["nan", "inf", "negzero"])
    def test_special_values(self, monkeypatch, special):
        X = np.random.default_rng(8).normal(size=(200, 15))
        X[5, 3] = {"nan": np.nan, "inf": np.inf, "negzero": -0.0}[special]
        X[6:9] = -0.0
        labels = np.arange(200) % 7
        assert_same(*both_paths(monkeypatch, lambda: [cluster_sums(X, labels, 7)]))

    def test_non_contiguous_and_chunked(self, monkeypatch):
        X = np.random.default_rng(9).normal(size=(3000, 30))[:, ::2]
        labels = np.arange(3000) % 50
        assert_same(*both_paths(monkeypatch, lambda: [
            cluster_sums(X, labels, 50, chunk_bytes=4096),
            cluster_sums(X[:0], labels[:0], 50),
        ]))
