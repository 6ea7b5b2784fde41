"""Hamerly bounds: exact nearest-center labels with fewer distance rows.

One copy of the bound arithmetic shared by every bounded assignment in
the library — the in-memory accelerated Lloyd
(:mod:`repro.core.lloyd_fast`), the MapReduce Lloyd mapper
(:mod:`repro.mapreduce.jobs.lloyd_job`) and the serving path
(:mod:`repro.serve.assign`, :mod:`repro.serve.model`).

Per point the state is

* ``labels[i]`` — the assigned center,
* ``ub[i]`` — an upper bound on the distance to that center, and
* ``lb[i]`` — a lower bound on the distance to every *other* center.

After the centers move by ``drift`` (:func:`center_drift`),
``ub += drift[label]`` and ``lb -= max(drift)`` keep both bounds valid
without touching the data.  A point whose ``ub < max(lb, s/2)`` (``s``
the distance from its center to the nearest other one) cannot switch
clusters; :func:`refresh_bounds` computes full ``k``-wide rows only for
the points that fail that test.

Bit-identity with :func:`~repro.linalg.distances.assign_labels`: any
evaluation of the expansion, in any summation order, is within
:data:`expansion_slack` of the exact squared distance.  Stored bounds
are padded by one slack (upper bounds up, lower bounds down); a point
keeps its label only when the bounds leave a squared gap of more than
three slacks, so the reference kernel's own distances rank that label
strictly first.  Rows the bounds cannot decide get a full distance row
from a GEMM over just those rows; where round-off could change that
row's argmin, the label is taken from the reference pass's own GEMM
(same chunks), so ties break exactly as the reference breaks them.  The
labels equal the reference labels for every input.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import native as _native
from repro.linalg import sparse as _sparse
from repro.linalg.distances import _row_scratch, block_sq_dists, expand_gemm
from repro.linalg.engine import get_engine

__all__ = [
    "expansion_slack",
    "half_min_center_dist",
    "center_drift",
    "assign_bounds",
    "tighten_upper_bounds",
    "refresh_bounds",
    "d2_to_assigned",
]


#: Round-off allowance for one GEMM-expansion squared distance:
#: ``||x||^2 - 2<x,c> + ||c||^2`` loses up to ``O(d * eps * scale^2)`` to
#: cancellation.  The bounds are *padded* by this slack (upper bounds up,
#: lower bounds down) so a skip decision is never taken on a margin
#: smaller than what round-off could fake; points inside the slack band
#: fall through to the exact argmin.  The same bound is the sparse
#: kernels' tolerance contract, so it has one definition.
expansion_slack = _sparse.sparse_d2_slack


def half_min_center_dist(Cw, c_norms, slack) -> np.ndarray:
    """``0.5 * min_{j' != j} ||c_j - c_j'||`` per center, padded down (inf for k=1)."""
    k = Cw.shape[0]
    if k < 2:
        return np.full(k, np.inf)
    d2 = c_norms[:, None] - 2.0 * (Cw @ Cw.T) + c_norms[None, :]
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    return 0.5 * np.sqrt(np.maximum(d2.min(axis=1) - slack, 0.0))


def center_drift(new_w: np.ndarray, old_w: np.ndarray) -> np.ndarray:
    """Distance each center moved, padded up a hair.

    Measured between the center sets the kernels actually evaluate
    (working dtype), in float64: drift must never under-state a center's
    movement or the drifted bounds stop being bounds.
    """
    diff = new_w.astype(np.float64) - old_w.astype(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)) * (1.0 + 1e-12)


def _fill_rows(d2, idxs, labels, ub, lb, slack) -> None:
    """Labels and bounds of rows ``idxs`` from their distance rows ``d2``
    (consumed)."""
    top = _native.top2(d2, slack)
    if top is not None:
        labels[idxs], ub[idxs], lb[idxs], _, _ = top
        return
    idx = d2.argmin(axis=1)
    at = np.arange(idx.shape[0])
    labels[idxs] = idx
    ub[idxs] = np.sqrt(d2[at, idx] + slack)
    if d2.shape[1] < 2:
        lb[idxs] = np.inf
        return
    # Runner-up: mask the winner, take the min of the rest (the
    # second-smallest value, duplicates of the min included).
    d2[at, idx] = np.inf
    lb[idxs] = np.sqrt(np.maximum(d2.min(axis=1) - slack, 0.0))


def _fill_gemm(G, xn, c_norms, idxs, labels, ub, lb, slack, unit=None):
    """:func:`_fill_rows` on the expansion of the GEMM block ``G`` (rows
    ``idxs``, norms ``xn``; consumed), plus the :func:`_near_ties` flags
    of those rows when ``unit`` is given — one native pass when the
    library loaded."""
    top = _native.top2(G, slack, xn=xn, cn=c_norms, unit=unit)
    if top is not None:
        labels[idxs], ub[idxs], lb[idxs], _, close = top
        return close
    d2 = expand_gemm(G, xn, c_norms)
    close = None if unit is None else _near_ties(d2, xn, c_norms, unit)
    _fill_rows(d2, idxs, labels, ub, lb, slack)
    return close


def _near_ties(d2, xn, c_norms, unit) -> np.ndarray:
    """Rows of ``d2`` whose argmin another summation order could change.

    Entry ``(i, j)`` of any evaluation of the expansion is within
    ``unit * (xn[i] + c_norms[j])`` of the exact value, so two
    evaluations differ by at most twice that.  A row is safe when every
    other entry exceeds the winner by more than both entries' allowance.
    """
    idx = d2.argmin(axis=1)
    at = np.arange(idx.shape[0])
    gap = d2 - d2[at, idx][:, None]
    allowance = 2.0 * unit * (2.0 * xn[:, None] + c_norms[idx][:, None] + c_norms)
    gap[at, idx] = np.inf
    return (gap <= allowance).any(axis=1)


def assign_bounds(Xw, Cw, x_norms, c_norms, labels, ub, lb, slack, rows=None) -> int:
    """Exact assignment of all rows (``rows=None``) or of a sorted index
    subset, filling the bounds.

    Labels are bitwise those of :func:`~repro.linalg.distances.
    assign_labels` on all of ``Xw``.  ``ub`` is the distance to the
    winner padded up by ``slack``, ``lb`` the distance to the runner-up
    padded down.  Returns the distance evaluations performed.

    All rows run the reference pass itself: same chunks, same kernel.  A
    subset runs a GEMM over its own rows, whose summation order BLAS may
    choose differently from the reference pass (a one-row product, for
    one, is a GEMV).  Its labels stand except on rows where round-off
    could decide the argmin (:func:`_near_ties`); those are relabelled
    from the reference pass's GEMM over just the chunks that hold them.
    """
    k = Cw.shape[0]
    sparse = _sparse.is_sparse(Xw)
    if rows is None:
        def work(sl: slice) -> None:
            if sparse:
                d2 = block_sq_dists(Xw[sl], Cw, x_norms[sl], c_norms)
                _fill_rows(d2, sl, labels, ub, lb, slack)
            else:
                _fill_gemm(Xw[sl] @ Cw.T, x_norms[sl], c_norms, sl,
                           labels, ub, lb, slack)

        get_engine().run_chunks(Xw.shape[0], _row_scratch(k), work)
        return Xw.shape[0] * k

    # ``slack`` is this unit times (max ||x||^2 + max ||c||^2).
    scale = float(x_norms.max(initial=0.0)) + float(c_norms.max(initial=0.0))
    unit = slack / scale if scale > 0.0 else 0.0
    close = np.empty(rows.shape[0], dtype=bool)

    def subset_work(sl: slice) -> None:
        idxs = rows[sl]
        xn = x_norms[idxs]
        if sparse:
            d2 = block_sq_dists(Xw[idxs], Cw, xn, c_norms)
            close[sl] = _near_ties(d2, xn, c_norms, unit)
            _fill_rows(d2, idxs, labels, ub, lb, slack)
        else:
            close[sl] = _fill_gemm(Xw[idxs] @ Cw.T, xn, c_norms, idxs,
                                   labels, ub, lb, slack, unit)

    get_engine().run_chunks(rows.shape[0], _row_scratch(k), subset_work)
    n_dist = rows.shape[0] * k
    if close.any():
        n_dist += _reference_rows(
            Xw, Cw, x_norms, c_norms, labels, ub, lb, slack, rows[close]
        )
    return n_dist


def _reference_rows(Xw, Cw, x_norms, c_norms, labels, ub, lb, slack, rows) -> int:
    """Relabel sorted ``rows`` from the reference pass: the GEMM of each
    chunk that holds them, expanded for just those rows.  Returns the
    distance evaluations (the GEMM rows)."""
    k = Cw.shape[0]
    chunk_rows: list[int] = []

    def work(sl: slice) -> None:
        lo, hi = np.searchsorted(rows, (sl.start, sl.stop))
        if lo == hi:
            return
        sub = rows[lo:hi]
        G = (Xw[sl] @ Cw.T)[sub - sl.start]
        _fill_gemm(G, x_norms[sub], c_norms, sub, labels, ub, lb, slack)
        chunk_rows.append(sl.stop - sl.start)

    get_engine().run_chunks(Xw.shape[0], _row_scratch(k), work)
    return sum(chunk_rows) * k


def tighten_upper_bounds(cand, Xw, Cw, x_norms, c_norms, labels, ub, slack) -> int:
    """Replace the drifted ``ub`` of rows ``cand`` with the exact current
    distance, chunked.  Returns the distance evaluations performed."""
    d = Xw.shape[1]

    def work(sl: slice) -> None:
        idxs = cand[sl]
        lab = labels[idxs]
        d2c = (
            x_norms[idxs]
            - 2.0 * np.einsum("ij,ij->i", Xw[idxs], Cw[lab])
            + c_norms[lab]
        )
        np.maximum(d2c, 0.0, out=d2c)
        ub[idxs] = np.sqrt(d2c + slack)

    # Scratch per row: the gathered center row + the point row copy.
    get_engine().run_chunks(cand.shape[0], 16 * max(1, d), work)
    return cand.shape[0]


def _decided(ub, lb, s_half, slack) -> np.ndarray:
    """Rows whose label the bounds prove to be the reference's.

    ``max(lb, 2 * s_half - ub)`` lower-bounds the distance to every
    other center (``d(x, j) >= d(c, j) - d(x, c)``).  A row is decided
    when its squared gap to ``ub`` exceeds ``3 * slack``: two slacks for
    the reference kernel's round-off on the two distances, one for the
    rounding of the bounds themselves.  So the reference's own
    distances order the label strictly first.
    """
    other = np.maximum(lb, 2.0 * s_half - ub)
    return (other > ub) & ((other - ub) * (other + ub) > 3.0 * slack)


def refresh_bounds(Xw, Cw, x_norms, c_norms, labels, ub, lb, drift, slack) -> int:
    """One Hamerly step: re-establish exact labels after the centers moved.

    ``labels``/``ub``/``lb`` hold a valid bound state for the previous
    centers, which moved by ``drift`` to ``Cw``; all three are updated in
    place to a valid state for ``Cw``, with labels bitwise those of
    :func:`~repro.linalg.distances.assign_labels`.  Returns the distance
    evaluations performed (center-center distances included).
    """
    k = Cw.shape[0]
    ub += drift[labels]
    lb -= drift.max(initial=0.0)
    s_half = half_min_center_dist(Cw, c_norms, slack)
    n_dist = k * k
    cand = np.flatnonzero(~_decided(ub, lb, s_half[labels], slack))
    if cand.size:
        # First tighten ub to the exact current distance — that alone
        # clears most candidates for one distance each.
        n_dist += tighten_upper_bounds(
            cand, Xw, Cw, x_norms, c_norms, labels, ub, slack
        )
        lab = labels[cand]
        still = cand[~_decided(ub[cand], lb[cand], s_half[lab], slack)]
        if still.size:
            n_dist += assign_bounds(
                Xw, Cw, x_norms, c_norms, labels, ub, lb, slack, rows=still
            )
    return n_dist


def d2_to_assigned(Xw, Cw, labels, x_norms, c_norms) -> np.ndarray:
    """Exact squared distance of every point to its *assigned* center.

    O(nd) — one gathered row-dot per point instead of the O(nkd) block.
    A function of (points, labels, centers) only, so a potential summed
    from it does not depend on which path produced the labels.
    """
    n, d = Xw.shape
    out = np.empty(n, dtype=np.float64)

    def work(sl: slice) -> None:
        lab = labels[sl]
        v = x_norms[sl] - 2.0 * np.einsum("ij,ij->i", Xw[sl], Cw[lab]) + c_norms[lab]
        out[sl] = np.maximum(v, 0.0)

    # Scratch per row: the gathered center row + the einsum accumulator.
    get_engine().run_chunks(n, 16 * max(1, d), work)
    return out
