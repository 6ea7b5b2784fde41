"""Squared Euclidean distance kernels.

All distances in the paper are squared Euclidean (the k-means potential
``phi`` sums ``d^2``). We use the expansion

    ||x - c||^2 = ||x||^2 - 2 <x, c> + ||c||^2

so the inner loop is a single GEMM, and we clamp tiny negative values that
round-off can produce (they would otherwise poison ``sqrt`` and the D^2
sampling distribution).

Memory discipline: the full ``(n, k)`` matrix is only materialized by
:func:`pairwise_sq_dists`; the reduction kernels (:func:`min_sq_dists`,
:func:`assign_labels`) walk the rows in chunks so peak scratch stays at
``O(chunk_rows * k)`` regardless of ``n``.  Chunk scheduling — block size
and (optional) thread fan-out — is owned by :mod:`repro.linalg.engine`;
every kernel here routes its row blocks through the current engine, so
``set_engine(Engine(workers=4))`` parallelizes all of them at once.

Hot callers (Lloyd, the seeding loops) evaluate distances against the
same ``X`` many times; each kernel therefore accepts a precomputed
``x_norms_sq`` so the O(nd) row-norm pass is paid once per dataset, not
once per call.

Dtype policy: when ``X`` and the centers share a float dtype (float32 or
float64) the GEMM runs in that dtype — this is what makes the optional
float32 working mode ~2x faster — otherwise both operands are upcast to
float64 so mixed-precision inputs cannot silently poison the expansion.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import native as _native
from repro.linalg import sparse as _sparse
from repro.linalg.engine import get_engine
from repro.utils.validation import check_matching_dims

__all__ = [
    "pairwise_sq_dists",
    "sq_dists_to_point",
    "min_sq_dists",
    "update_min_sq_dists",
    "update_min_sq_dists_argmin",
    "assign_labels",
    "block_sq_dists",
    "expand_gemm",
    "row_norms_sq",
]

#: Float dtypes the kernels will compute in natively.
_WORKING_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def row_norms_sq(X: np.ndarray) -> np.ndarray:
    """``||x_i||^2`` for each row, via einsum (no intermediate square array).

    Public so hot loops can compute the norms once and pass them back in
    through the ``x_norms_sq`` argument of every kernel below.

    A scipy CSR input folds only its stored entries (see
    :func:`repro.linalg.sparse.sparse_row_norms_sq`); every kernel below
    likewise dispatches to its CSR sibling when handed sparse data, so
    call sites stay representation-agnostic.
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_row_norms_sq(X)
    return np.einsum("ij,ij->i", X, X)


def _common_dtype(X: np.ndarray, C: np.ndarray) -> np.dtype:
    """The dtype a kernel should compute in for operands ``X`` and ``C``.

    Matching float32/float64 operands keep their precision; anything else
    (mixed precision, integers, float16) is normalized to float64.
    """
    if X.dtype == C.dtype and X.dtype in _WORKING_DTYPES:
        return X.dtype
    return np.dtype(np.float64)


def _as_working(X: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dt = _common_dtype(X, C)
    if X.dtype != dt:
        X = np.ascontiguousarray(X, dtype=dt)
    if C.dtype != dt:
        C = np.ascontiguousarray(C, dtype=dt)
    return X, C


def _check_norms(x_norms_sq: np.ndarray | None, n: int) -> np.ndarray | None:
    if x_norms_sq is not None and x_norms_sq.shape[0] != n:
        raise ValueError(
            f"x_norms_sq has length {x_norms_sq.shape[0]}, expected {n}"
        )
    return x_norms_sq


#: Scratch bytes per row of a (chunk, k) float64 distance block.
def _row_scratch(k: int) -> int:
    return 8 * max(1, k)


def block_sq_dists(
    block: np.ndarray,
    C: np.ndarray,
    x_norms_sq: np.ndarray,
    c_norms_sq: np.ndarray,
) -> np.ndarray:
    """One clamped GEMM-expansion block: ``||x - c||^2`` for a row block.

    The single expression every chunked kernel in this module evaluates —
    shared so callers outside the module (the bounds-accelerated Lloyd,
    the serving path) produce *byte-identical* squared distances to the
    reference kernels for the same operands.  ``block`` and ``C`` must
    already be in a common working dtype (see :func:`_as_working`);
    ``x_norms_sq`` / ``c_norms_sq`` are the precomputed row norms of the
    block and of ``C``.  A CSR ``block`` routes through the SpMM sibling
    (same expansion, same clamp; see the tolerance contract in
    :mod:`repro.linalg.sparse`).
    """
    if _sparse.is_sparse(block):
        return _sparse.sparse_block_sq_dists(block, C, x_norms_sq, c_norms_sq)
    return expand_gemm(block @ C.T, x_norms_sq, c_norms_sq)


def expand_gemm(
    G: np.ndarray, x_norms_sq: np.ndarray, c_norms_sq: np.ndarray
) -> np.ndarray:
    """``x_norms_sq[:, None] - 2 G + c_norms_sq``, clamped at 0, built in
    place on the GEMM output ``G`` (which the caller gives up).

    One ``(n, k)`` allocation instead of the four temporaries the
    expression makes, and bitwise equal to it: doubling is exact,
    negation is exact, and IEEE addition is commutative, so
    ``(-2G + xn) + cn`` rounds exactly like ``(xn - 2G) + cn``.  Every
    entry depends only on its own ``G`` entry and norms, so expanding a
    row subset of ``G`` gives those rows' bits of the full expansion.
    """
    dt = np.result_type(G, x_norms_sq, c_norms_sq)
    if G.dtype != dt:  # wider norms than operands: widen like the expression
        G = G.astype(dt)
    G *= -2.0
    G += x_norms_sq[:, None]
    G += c_norms_sq
    np.maximum(G, 0.0, out=G)
    return G


def pairwise_sq_dists(
    X: np.ndarray,
    C: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Full ``(n, k)`` matrix of squared distances between rows of X and C.

    Parameters
    ----------
    X:
        Points, shape ``(n, d)``.
    C:
        Centers, shape ``(k, d)``.
    x_norms_sq:
        Optional precomputed ``||x||^2`` row norms (shape ``(n,)``); pass
        this when calling repeatedly with the same ``X`` (Lloyd's iteration
        does) to skip an O(nd) pass.

    Returns
    -------
    numpy.ndarray
        ``D`` with ``D[i, j] = ||X[i] - C[j]||^2 >= 0``.
    """
    if _sparse.is_sparse(X):
        X = _sparse.to_csr(X)
        C = np.atleast_2d(np.asarray(C))
        _sparse._check_dims(X, C)
        X, C = _sparse._as_working_sparse(X, C)
        if x_norms_sq is None:
            x_norms_sq = _sparse.sparse_row_norms_sq(X)
        return _sparse.sparse_block_sq_dists(X, C, x_norms_sq, row_norms_sq(C))
    check_matching_dims(X, C)
    X, C = _as_working(X, C)
    _check_norms(x_norms_sq, X.shape[0])
    if x_norms_sq is None:
        x_norms_sq = row_norms_sq(X)
    c_norms_sq = row_norms_sq(C)
    # GEMM dominates; the rank-1 corrections broadcast.
    return block_sq_dists(X, C, x_norms_sq, c_norms_sq)


def sq_dists_to_point(
    X: np.ndarray,
    c: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Squared distances from every row of ``X`` to the single point ``c``.

    Cheaper than :func:`pairwise_sq_dists` with a 1-row center matrix
    because it avoids materializing an ``(n, 1)`` result.  ``X`` and ``c``
    are normalized to a common dtype (see the module dtype policy) so a
    float32 ``X`` against a float64 ``c`` — or vice versa — cannot run the
    GEMM expansion in silently mismatched precision.
    """
    if _sparse.is_sparse(X):
        X = _sparse.to_csr(X)
        c = np.asarray(c).reshape(1, -1)
        _sparse._check_dims(X, c)
        X, c = _sparse._as_working_sparse(X, c)
        norms = _check_norms(x_norms_sq, X.shape[0])
        if norms is None:
            norms = _sparse.sparse_row_norms_sq(X)
        return _sparse.sparse_block_sq_dists(X, c, norms, row_norms_sq(c)).ravel()
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    c = np.asarray(c).reshape(1, -1)
    if X.shape[1] != c.shape[1]:
        raise ValueError(
            f"dimension mismatch: points have d={X.shape[1]}, point has d={c.shape[1]}"
        )
    X, c = _as_working(X, c)
    _check_norms(x_norms_sq, X.shape[0])
    if x_norms_sq is None:
        x_norms_sq = row_norms_sq(X)
    c = c.ravel()
    d2 = x_norms_sq - 2.0 * (X @ c) + c @ c
    np.maximum(d2, 0.0, out=d2)
    return d2


def min_sq_dists(
    X: np.ndarray,
    C: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """``d^2(x, C) = min_j ||x - c_j||^2`` for every point, chunked.

    This is the quantity the paper calls ``d^2(x, C)`` (Section 3.1) and is
    the workhorse of both ``k-means++`` and ``k-means||`` sampling.
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_min_sq_dists(
            X, C, x_norms_sq=x_norms_sq, chunk_bytes=chunk_bytes
        )
    check_matching_dims(X, C)
    X, C = _as_working(X, C)
    norms = _check_norms(x_norms_sq, X.shape[0])
    n, k = X.shape[0], C.shape[0]
    out = np.empty(n, dtype=np.float64)
    c_norms_sq = row_norms_sq(C)

    def work(sl: slice) -> None:
        block = X[sl]
        xn = row_norms_sq(block) if norms is None else norms[sl]
        d2 = block_sq_dists(block, C, xn, c_norms_sq)
        out[sl] = d2.min(axis=1)

    get_engine().run_chunks(n, _row_scratch(k), work, chunk_bytes=chunk_bytes)
    return out


def update_min_sq_dists(
    X: np.ndarray,
    new_centers: np.ndarray,
    current: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """Refresh ``d^2(x, C)`` after ``new_centers`` joined ``C`` — in place.

    The sequential ``k-means++`` inner loop and every ``k-means||`` round
    only *add* centers, so the min can be maintained incrementally:
    ``O(n * |new|)`` per round instead of ``O(n * |C|)`` from scratch. This
    is the optimization that makes the oversampled rounds affordable.

    ``current`` is modified in place and also returned for chaining.
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_update_min_sq_dists(
            X, new_centers, current,
            x_norms_sq=x_norms_sq, chunk_bytes=chunk_bytes,
        )
    if new_centers.ndim == 1:
        new_centers = new_centers.reshape(1, -1)
    if new_centers.shape[0] == 0:
        return current
    check_matching_dims(X, new_centers)
    if current.shape[0] != X.shape[0]:
        raise ValueError(
            f"current has length {current.shape[0]}, expected {X.shape[0]}"
        )
    X, new_centers = _as_working(X, new_centers)
    norms = _check_norms(x_norms_sq, X.shape[0])
    k_new = new_centers.shape[0]
    c_norms_sq = row_norms_sq(new_centers)

    def work(sl: slice) -> None:
        block = X[sl]
        xn = row_norms_sq(block) if norms is None else norms[sl]
        d2 = block_sq_dists(block, new_centers, xn, c_norms_sq)
        np.minimum(current[sl], d2.min(axis=1), out=current[sl])

    get_engine().run_chunks(X.shape[0], _row_scratch(k_new), work, chunk_bytes=chunk_bytes)
    return current


def update_min_sq_dists_argmin(
    X: np.ndarray,
    new_centers: np.ndarray,
    current: np.ndarray,
    nearest: np.ndarray,
    *,
    offset: int,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
    seen: np.ndarray | None = None,
    stats: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`update_min_sq_dists` but also maintains the argmin.

    ``nearest[i]`` holds the global index of the center currently closest
    to point ``i``; ``offset`` is the global index of ``new_centers[0]``.
    Maintaining the argmin incrementally is what lets the MapReduce
    weighting job (Step 7 of ``k-means||``) run without any distance work
    — each mapper just bin-counts its cached ``nearest`` column.

    ``seen`` — the ``offset`` centers folded before, in global order,
    with ``current``/``nearest`` holding this function's float64 folds of
    them — enables triangle pruning (:func:`_pruning`): a row only forms
    the distances to new centers its cached nearest center cannot rule
    out.
    The GEMM still covers every pair, so each distance formed has the
    dense fold's bits and the result is bitwise the dense fold's.
    ``stats``, when given, gains ``"dist_evals"``: the point-center
    distances formed.

    Both ``current`` and ``nearest`` are updated in place and returned.
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_update_min_sq_dists_argmin(
            X, new_centers, current, nearest, offset=offset,
            x_norms_sq=x_norms_sq, chunk_bytes=chunk_bytes,
        )
    if new_centers.ndim == 1:
        new_centers = new_centers.reshape(1, -1)
    if new_centers.shape[0] == 0:
        return current, nearest
    check_matching_dims(X, new_centers)
    if current.shape[0] != X.shape[0] or nearest.shape[0] != X.shape[0]:
        raise ValueError("current/nearest must have one entry per point")
    X, new_centers = _as_working(X, new_centers)
    norms = _check_norms(x_norms_sq, X.shape[0])
    k_new = new_centers.shape[0]
    c_norms_sq = row_norms_sq(new_centers)
    pruned = None
    if seen is not None:
        pruned = _pruning(X, new_centers, c_norms_sq, seen, current, nearest,
                          norms, offset)
    formed: list[int] = []

    def work(sl: slice) -> None:
        block = X[sl]
        xn = row_norms_sq(block) if norms is None else norms[sl]
        # Slices are views: writing through `cur`/`near` updates the
        # caller's arrays directly.
        cur = current[sl]
        near = nearest[sl]
        G = block @ new_centers.T
        if pruned is not None:
            formed.append(pruned(G, xn, cur, near))
            return
        formed.append(G.size)
        if _native.fold_min(G, xn, c_norms_sq, cur, near, offset):
            return
        d2 = expand_gemm(G, xn, c_norms_sq)
        idx = d2.argmin(axis=1)
        best_new = d2[np.arange(idx.shape[0]), idx]
        improved = best_new < cur
        cur[improved] = best_new[improved]
        near[improved] = idx[improved] + offset

    get_engine().run_chunks(X.shape[0], _row_scratch(k_new), work, chunk_bytes=chunk_bytes)
    if stats is not None:
        stats["dist_evals"] = stats.get("dist_evals", 0) + sum(formed)
    return current, nearest


#: Relative pad of the pruning test against the rounding of the test's
#: own few operations (each within 1.2e-16 of exact).
_PRUNE_HAIR = 1e-12


def _pruning(X, C, c_norms, seen, current, nearest, norms, offset):
    """The triangle-pruned chunk fold for one call, or ``None`` when the
    dense fold should run.

    Row ``i``'s stored ``current[i]`` is a computed distance to center
    ``a = nearest[i]`` (``seen[a]``), so ``d(x, a) <= sqrt(current[i] +
    slack)``.  A new center ``c`` with ``d(a, c) >= 2 sqrt(current[i] +
    slack)`` then has ``d(x, c)^2 >= current[i] + slack`` by the triangle
    inequality, and any evaluation of its expansion is ``>= current[i]``:
    it can neither improve the row nor be its first minimum.  In squared
    form the test is ``lower(a, c) >= 4 (current[i] + slack)``, with
    ``lower`` the center-center expansion padded down by one slack and
    both sides padded by :data:`_PRUNE_HAIR`; ``slack`` is taken over the
    split's and all centers' norms, so it covers every distance involved.

    Dense instead when the kernel cannot apply (no library, not float64,
    ``seen`` not the ``offset`` earlier centers, a row without a nearest
    center, non-finite values) or when the per-center candidate lists
    cover more than half the pairs, where the dense pass is as fast.
    """
    n, d = X.shape
    k = C.shape[0]
    if (
        offset == 0 or n == 0 or norms is None or _native.lib() is None
        or X.dtype != np.float64 or seen.shape != (offset, d)
        or not all(a.dtype == np.float64 and a.flags.c_contiguous
                   for a in (current, norms, seen))
        or nearest.dtype != np.int64 or not nearest.flags.c_contiguous
    ):
        return None
    if nearest.min() < 0 or nearest.max() >= offset or not np.isfinite(current).all():
        return None
    seen_norms = row_norms_sq(seen)
    top = max(float(norms.max()), float(seen_norms.max()), float(c_norms.max()))
    if not top < 1e300:  # also False for NaN
        return None
    slack = _sparse.sparse_d2_slack(top, top, d, np.float64)
    lower = seen_norms[:, None] - 2.0 * (seen @ C.T) + c_norms
    lower -= slack
    lower *= 1.0 - _PRUNE_HAIR
    tables, listed = _native.prune_prepare(current, nearest, lower, slack, _PRUNE_HAIR)
    if 2 * listed > n * k:
        return None

    def fold(G, xn, cur, near) -> int:
        return _native.fold_pruned(G, xn, c_norms, cur, near, offset, tables,
                                   slack, _PRUNE_HAIR)

    return fold


def assign_labels(
    X: np.ndarray,
    C: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
    return_sq_dists: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Nearest-center index for every point (ties -> lowest index).

    Parameters
    ----------
    return_sq_dists:
        When true, also return the squared distance to that nearest center
        (what Lloyd's iteration needs to track the potential for free).
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_assign_labels(
            X, C, x_norms_sq=x_norms_sq, chunk_bytes=chunk_bytes,
            return_sq_dists=return_sq_dists,
        )
    check_matching_dims(X, C)
    X, C = _as_working(X, C)
    norms = _check_norms(x_norms_sq, X.shape[0])
    n, k = X.shape[0], C.shape[0]
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64) if return_sq_dists else None
    c_norms_sq = row_norms_sq(C)

    def work(sl: slice) -> None:
        block = X[sl]
        xn = row_norms_sq(block) if norms is None else norms[sl]
        d2 = block_sq_dists(block, C, xn, c_norms_sq)
        idx = d2.argmin(axis=1)
        labels[sl] = idx
        if best is not None:
            best[sl] = d2[np.arange(idx.shape[0]), idx]

    get_engine().run_chunks(n, _row_scratch(k), work, chunk_bytes=chunk_bytes)
    if best is not None:
        return labels, best
    return labels
