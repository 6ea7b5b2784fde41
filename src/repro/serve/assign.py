"""Bounds-pruned nearest-center assignment for the serving path.

The naive answer to "which cluster is this point in?" is one full
``(n, k)`` distance block — exactly what :func:`~repro.linalg.distances.
assign_labels` computes.  At serving rates most of that block is wasted:
a point deep inside a cluster is provably closest to its center long
before all ``k`` distances are known.  This module prunes that work
while staying **bit-identical** to the naive argmin:

1. one GEMM against ~sqrt(k) group *representatives* ranks candidate
   groups (triangle inequality: ``d(x, c) >= d(x, rep) - radius``);
2. the point's best group is evaluated exactly, yielding a candidate
   center plus in-group runner-up;
3. the candidate is *accepted* only when provably the strict unique
   nearest under round-off padding — via the in-group gap, the
   cross-group triangle bound, and Hamerly's center-separation test
   (``d(x, c) < s/2``) reused from :mod:`repro.linalg.bounds`;
4. every point the bounds cannot decide falls through to
   :func:`~repro.linalg.bounds.assign_bounds` on those rows: a full
   ``k``-wide row over the subset, and — where round-off could decide
   the argmin — the reference pass's own chunk GEMM, so its label, ties
   and all, matches the reference.  (A GEMM over a row subset is not
   bitwise the full-block GEMM, so the subset row alone cannot promise
   that.)  CSR rows fall through to the sparse kernel on the subset,
   which is bitwise the reference's per row.

Accepted points are strict unique minima (no tie possible inside the
padding), so the combined label vector equals ``assign_labels(X, C)``
exactly for every input; only the *work* changes.  ``n_dist_evals``
makes the saving observable, mirroring ``LloydResult.n_dist_evals``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg import native as _native
from repro.linalg import sparse as _sparse
from repro.linalg.bounds import assign_bounds, d2_to_assigned, expansion_slack
from repro.linalg.distances import (
    _as_working,
    _row_scratch,
    assign_labels,
    block_sq_dists,
    row_norms_sq,
)
from repro.linalg.engine import get_engine
from repro.serve.model import ServedModel
from repro.types import FloatArray, IntArray

__all__ = ["AssignResult", "assign_serve"]


@dataclass
class AssignResult:
    """Outcome + work telemetry of one (micro-batched) assignment call."""

    labels: IntArray
    sq_dists: FloatArray | None
    version: int | None
    n_points: int
    #: Point-center distance evaluations actually performed; the naive
    #: path pays ``n_points * k``.
    n_dist_evals: int
    #: Points decided by the bounds without a full k-wide distance row.
    n_pruned: int

    @property
    def prune_fraction(self) -> float:
        """Share of points that skipped the full distance row."""
        return self.n_pruned / self.n_points if self.n_points else 0.0


def assign_serve(
    X: FloatArray,
    model: ServedModel,
    *,
    prune: bool = True,
    return_sq_dists: bool = False,
) -> AssignResult:
    """Nearest-center assignment against a :class:`ServedModel`.

    Labels are bit-identical to ``assign_labels(X, model.centers)`` —
    including lowest-index tie-breaking — whether or not pruning is on,
    for any micro-batch split of ``X`` and any engine worker count.
    ``sq_dists`` (when requested) agrees with the naive kernel to
    round-off.

    ``X`` may be a scipy CSR matrix; the bound arithmetic stays dense
    (norms, rep distances) while every distance block runs through the
    sparse SpMM kernel, and the identity above holds against
    ``assign_labels`` *on the same CSR input* (row subsetting preserves
    per-row stored-entry order, so fallback rows are bitwise equal to
    the reference sparse kernel's).
    """
    if _sparse.is_sparse(X):
        X = _sparse.to_csr(X)
    else:
        X = np.asarray(X)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-dimensional, got shape {X.shape}")
    if X.shape[1] != model.d:
        raise ValidationError(
            f"dimension mismatch: points have d={X.shape[1]}, "
            f"model has d={model.d}"
        )
    n = X.shape[0]
    centers = model.centers
    if n == 0:
        return AssignResult(
            labels=np.empty(0, dtype=np.int64),
            sq_dists=np.empty(0, dtype=np.float64) if return_sq_dists else None,
            version=model.version,
            n_points=0,
            n_dist_evals=0,
            n_pruned=0,
        )

    if _sparse.is_sparse(X):
        Xw, Cw = _sparse._as_working_sparse(X, centers)
    else:
        Xw, Cw = _as_working(X, centers)
    index = model.index_for(Xw.dtype) if prune else None
    if index is None:
        labels, best = assign_labels(Xw, Cw, return_sq_dists=True)
        return AssignResult(
            labels=labels,
            sq_dists=best if return_sq_dists else None,
            version=model.version,
            n_points=n,
            n_dist_evals=n * model.k,
            n_pruned=0,
        )

    labels = np.empty(n, dtype=np.int64)
    best_d2 = np.empty(n, dtype=np.float64)
    decided = np.zeros(n, dtype=bool)
    best_group = np.empty(n, dtype=np.int64)
    x_norms = row_norms_sq(Xw)
    # Query-side round-off allowance, exactly as the accelerated Lloyd
    # computes it: covers one GEMM-expansion squared distance on
    # operands of this scale in this dtype.  Accept/skip margins below
    # use 2x the slack so they cover *both* this path's arithmetic and
    # the reference kernel's.
    slack = expansion_slack(x_norms, index.c_norms, Xw.shape[1], Xw.dtype)
    k, g = index.k, index.n_groups
    sparse = _sparse.is_sparse(Xw)

    def work(sl: slice) -> None:
        block = Xw[sl]
        xn = x_norms[sl]
        m = block.shape[0]

        # (1) rank groups by representative distance.
        d2_rep = block_sq_dists(block, index.reps_w, xn, index.rep_norms)
        b = d2_rep.argmin(axis=1)
        best_group[sl] = b

        # (2) evaluate each point's best group exactly.
        cand = np.empty(m, dtype=np.int64)
        cand_d2 = np.empty(m, dtype=np.float64)
        lb_in = np.empty(m, dtype=np.float64)
        order = np.argsort(b, kind="stable")
        bounds = np.searchsorted(b[order], np.arange(g + 1))
        for gi in range(g):
            rows = order[bounds[gi]:bounds[gi + 1]]
            if rows.size == 0:
                continue
            lo, hi = index.starts[gi], index.starts[gi + 1]
            if not sparse:
                # One native pass: winner, its distance, and the padded
                # runner-up bound, bitwise the numpy lines below.
                top = _native.top2(
                    block[rows] @ index.Cg[lo:hi].T, 2.0 * slack,
                    xn=xn[rows], cn=index.cg_norms[lo:hi],
                )
                if top is not None:
                    loc, _, lb_in[rows], cand_d2[rows], _ = top
                    cand[rows] = index.perm[lo:hi][loc]
                    continue
            d2g = block_sq_dists(
                block[rows], index.Cg[lo:hi], xn[rows], index.cg_norms[lo:hi]
            )
            loc = d2g.argmin(axis=1)
            cand[rows] = index.perm[lo:hi][loc]
            cand_d2[rows] = np.take_along_axis(d2g, loc[:, None], axis=1).ravel()
            if hi - lo >= 2:
                lb_in[rows] = np.sqrt(
                    np.maximum(np.partition(d2g, 1, axis=1)[:, 1] - 2.0 * slack, 0.0)
                )
            else:
                lb_in[rows] = np.inf

        # (3) can the candidate be proven the strict unique nearest?
        d_up = np.sqrt(cand_d2 + 2.0 * slack)  # >= true and >= reference
        # Cross-group triangle bound, padded down twice: once for this
        # path's rep distances, once for the reference's row arithmetic.
        d_rep_lo = np.sqrt(np.maximum(d2_rep - slack, 0.0))
        lb_groups = d_rep_lo - index.radius_hi[None, :]
        lb_groups[np.arange(m), b] = np.inf  # own group handled exactly
        lb_lin = np.maximum(lb_groups.min(axis=1), 0.0)
        lb_cross = np.sqrt(np.maximum(lb_lin * lb_lin - slack, 0.0))
        ok = (d_up < lb_in) & (d_up < lb_cross)
        # Hamerly separation accept: d(x, c) < s/2 proves c is the strict
        # nearest among *all* centers; the extra product term guarantees
        # the squared-distance gap exceeds the reference's round-off too.
        s_lo = index.s_half_lo[cand]
        gap = s_lo - d_up
        ok |= (gap > 0.0) & (4.0 * s_lo * gap > 2.0 * slack)

        und = np.flatnonzero(~ok)
        if sparse and und.size:
            # (4, CSR) the sparse kernel's row is the reference's row.
            d2f = block_sq_dists(block[und], index.Cw, xn[und], index.c_norms)
            idx = d2f.argmin(axis=1)
            cand[und] = idx
            cand_d2[und] = np.take_along_axis(d2f, idx[:, None], axis=1).ravel()
        labels[sl] = cand
        best_d2[sl] = cand_d2
        decided[sl] = ok

    # Scratch per row: the (g,) rep block, the (<=max group) group block,
    # and the worst-case (k,) fallback row, all float64.
    get_engine().run_chunks(n, _row_scratch(k + g) * 2, work)

    n_pruned = int(decided.sum())
    und = np.flatnonzero(~decided)
    n_fallback = und.size * k
    if und.size and not sparse:
        # (4) undecided rows: exact labels from the bounded assignment.
        ub = np.empty(n, dtype=np.float64)
        lb = np.empty(n, dtype=np.float64)
        n_fallback = assign_bounds(
            Xw, index.Cw, x_norms, index.c_norms, labels, ub, lb, slack, rows=und
        )
        if return_sq_dists:
            best_d2[und] = d2_to_assigned(
                Xw[und], index.Cw, labels[und], x_norms[und], index.c_norms
            )
    n_dist_evals = int(n * g + index.group_sizes[best_group].sum() + n_fallback)
    return AssignResult(
        labels=labels,
        sq_dists=best_d2 if return_sq_dists else None,
        version=model.version,
        n_points=n,
        n_dist_evals=n_dist_evals,
        n_pruned=n_pruned,
    )
