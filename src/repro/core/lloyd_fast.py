"""Bounds-accelerated Lloyd assignment (Hamerly's algorithm).

The reference Lloyd loop recomputes all ``n * k`` point-center distances
every iteration, yet after the first few iterations almost no point
changes its cluster.  This loop keeps Hamerly's per-point bounds
(:mod:`repro.linalg.bounds`, shared with the MapReduce Lloyd mapper and
the serving path) and computes the full ``k``-wide distance row only for
the points the bounds cannot decide — typically a tiny, shrinking
fraction.

Contract with the reference path (:func:`repro.core.lloyd._lloyd_reference`):

* identical label trajectory, iteration count, convergence flag and
  final centers (the bound test uses strict inequality, so any tie falls
  through to an exact argmin with the reference tie-breaking);
* byte-identical final cost — on exit the final ``d^2`` profile is
  produced by the same :func:`~repro.linalg.distances.assign_labels`
  kernel the reference uses;
* per-iteration ``cost_history`` entries agree to floating-point
  round-off (they are accumulated from exact distances to the *assigned*
  center, evaluated point-wise rather than via the ``(n, k)`` block);
  with ``rel_tol`` set — where the loop is *gated* on those entries —
  the path instead buys the reference profile every iteration, making
  the whole run bit-identical (and forfeiting the skip savings: a
  cost-gated stopping rule needs the exact potential by definition);
* empty-cluster repairs replay the reference code path exactly (the
  repair needs the full ``d^2`` profile anyway, so the accelerated path
  buys the profile with one reference assignment and resets its bounds).

``LloydResult.n_dist_evals`` counts the point-center distance evaluations
actually performed, so the saving is observable: the reference pays
``n * k`` per iteration, this path pays ``n * k`` once plus a small
remainder.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.lloyd import LloydResult, _repair_empties
from repro.exceptions import ConvergenceWarning
from repro.linalg.bounds import (
    assign_bounds,
    center_drift,
    d2_to_assigned,
    expansion_slack,
    refresh_bounds,
)
from repro.linalg.centroids import weighted_centroids
from repro.linalg.distances import assign_labels, row_norms_sq
from repro.types import FloatArray

__all__ = ["lloyd_hamerly"]


def lloyd_hamerly(
    X: FloatArray,
    Xw: FloatArray,
    centers: FloatArray,
    w: FloatArray,
    *,
    max_iter: int,
    tol: float,
    rel_tol: float | None,
    empty_policy: str,
    rng: np.random.Generator,
    warn_on_max_iter: bool,
) -> LloydResult:
    """Hamerly-accelerated Lloyd loop; inputs pre-validated by ``lloyd``.

    ``X`` is the canonical float64 data (centroid updates, repairs);
    ``Xw`` is the working-dtype view the distance kernels run on (equal to
    ``X`` unless ``working_dtype`` was requested).
    """
    n = X.shape[0]
    x_norms = row_norms_sq(Xw)
    wdt = Xw.dtype
    n_dist = 0

    def assign(C: FloatArray) -> tuple[np.ndarray, np.ndarray]:
        """Reference-kernel assignment (byte-identical d2 profile)."""
        nonlocal n_dist
        n_dist += n * C.shape[0]
        return assign_labels(
            Xw,
            np.ascontiguousarray(C, dtype=wdt),
            x_norms_sq=x_norms,
            return_sq_dists=True,
        )

    labels = np.empty(n, dtype=np.int64)
    ub = np.empty(n, dtype=np.float64)
    lb = np.empty(n, dtype=np.float64)
    bounds_valid = False
    drift: np.ndarray | None = None

    # rel_tol gates the *loop* on the potential, so its per-iteration
    # entries must be bit-identical to the reference's — which only the
    # reference assignment kernel can provide. In that mode we buy the
    # exact profile every iteration (no skip savings; rel_tol is a
    # cost-gated rule, not a label-gated one) and keep everything else
    # identical.
    exact_profile = rel_tol is not None

    cost_history: list[float] = []
    prev_labels: np.ndarray | None = None
    n_iter = 0
    converged = False
    assign_centers = centers  # centers the current labels were computed against
    final_d2: np.ndarray | None = None
    repaired_d2: np.ndarray | None = None  # reference d2 after an in-loop repair
    d2a: np.ndarray | None = None

    for _ in range(max_iter):
        Cw = np.ascontiguousarray(centers, dtype=wdt)
        c_norms = row_norms_sq(Cw)
        slack = expansion_slack(x_norms, c_norms, Xw.shape[1], wdt)
        if exact_profile:
            labels, d2a = assign(centers)
        elif not bounds_valid:
            n_dist += assign_bounds(Xw, Cw, x_norms, c_norms, labels, ub, lb, slack)
            bounds_valid = True
        else:
            # Drift the bounds instead of touching the data.
            n_dist += refresh_bounds(
                Xw, Cw, x_norms, c_norms, labels, ub, lb, drift, slack
            )
        assign_centers = centers
        repaired_d2 = None

        if not exact_profile:
            d2a = d2_to_assigned(Xw, Cw, labels, x_norms, c_norms)
            n_dist += n
        cost_history.append(float(np.dot(d2a, w)))
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged = True
            break
        if (
            rel_tol is not None
            and len(cost_history) >= 2
            and cost_history[-2] > 0
            and (cost_history[-2] - cost_history[-1]) / cost_history[-2] <= rel_tol
        ):
            converged = True
            break
        n_iter += 1
        new_centers, mass = weighted_centroids(
            X, labels, centers.shape[0], weights=w, empty="nan"
        )
        empties = np.flatnonzero(mass == 0)
        if empties.size:
            # The repair orders points by their exact d2 profile; buy the
            # byte-identical profile with one reference assignment (unless
            # this iteration already holds it), replay the reference
            # repair, and rebuild the bounds next iteration.
            if exact_profile:
                ref_labels, ref_d2 = labels, d2a
            else:
                ref_labels, ref_d2 = assign(centers)
            new_centers, ref_labels, ref_d2 = _repair_empties(
                X, new_centers, ref_labels, ref_d2, w, empties, empty_policy, rng, assign
            )
            labels = ref_labels
            repaired_d2 = ref_d2
            bounds_valid = False
        if new_centers.shape[0] == centers.shape[0]:
            move_sq = np.einsum(
                "ij,ij->i", new_centers - centers, new_centers - centers
            )
            shift_sq = float(np.max(move_sq))
            # In a narrower working dtype the float64 movement can
            # under-state the movement of the *cast* centers the kernels
            # measure distances to, so drift is taken between those.
            drift = center_drift(np.ascontiguousarray(new_centers, dtype=wdt), Cw)
        else:  # "drop" changed k; cannot compare shapes
            shift_sq = np.inf
            drift = None
            bounds_valid = False
        centers = new_centers
        # The bounds path mutates `labels` in place next iteration, so the
        # repeat check needs a snapshot, not an alias.
        prev_labels = labels.copy()
        if shift_sq <= tol:
            converged = True
            # Refresh the assignment so the reported labels/cost match the
            # final centers (same refresh the reference path performs).
            labels, final_d2 = assign(centers)
            assign_centers = centers
            break

    if final_d2 is None:
        if repaired_d2 is not None:
            # max_iter exhausted right after a repair: the reference's
            # final profile is the repaired one.
            final_d2 = repaired_d2
        elif exact_profile:
            # This mode already holds the reference profile.
            final_d2 = d2a
        else:
            # Recover the reference's final d2 profile (and labels) with
            # one exact pass against the centers the labels refer to.
            labels, final_d2 = assign(assign_centers)

    final_cost = float(np.dot(final_d2, w))
    cost_history.append(final_cost)
    if not converged and warn_on_max_iter:
        warnings.warn(
            f"Lloyd's iteration did not converge in {max_iter} iterations",
            ConvergenceWarning,
            stacklevel=3,
        )
    return LloydResult(
        centers=centers,
        labels=labels,
        cost=final_cost,
        n_iter=n_iter,
        converged=converged,
        cost_history=cost_history,
        n_dist_evals=n_dist,
        accelerated="hamerly",
    )
