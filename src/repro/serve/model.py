"""Frozen, versioned served models.

A :class:`ServedModel` is one immutable snapshot of a trained center set,
ready to answer "which cluster is this point in?" at serving rates:

* the **centers** travel behind a :class:`~repro.plane.broadcast.BroadcastRef`
  — published once (to a shared-memory segment when the registry runs in
  shared mode) so the handle pickles as a few dozen bytes and a worker
  process materializes the matrix once per version, not once per task.
  Resolution copies out of the segment (see :attr:`ServedModel.centers`):
  the segment is transport, so the registry can retire old versions
  without coordinating with readers;
* the **pruning geometry** — center norms, center-to-center
  half-distances (the Hamerly separation bound from
  :mod:`repro.linalg.bounds`), and a two-level group index over the
  centers (representatives + radii for triangle-inequality pruning) — is
  precomputed per working dtype so the per-query cost is one small GEMM
  against ~sqrt(k) representatives plus the few full rows the bounds
  cannot prove.

Models are value objects: every mutable field is a lazily-built cache,
so handing the same ``ServedModel`` to many threads is safe and a reader
can never observe a half-updated model (the registry swaps whole
objects, never fields).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.bounds import expansion_slack, half_min_center_dist
from repro.linalg.distances import block_sq_dists, row_norms_sq
from repro.plane.broadcast import (
    BroadcastRef,
    InlineBroadcast,
    SharedArrayBroadcast,
    resolve_broadcast,
)

__all__ = ["ServedModel", "PruneIndex"]

#: Relative pad applied to exactly-computed float64 geometry (radii,
#: center gaps) so a bound is never trusted to its last ulp — the same
#: hair the accelerated Lloyd pads its drift with.
_REL_PAD = 1e-12


class PruneIndex:
    """Two-level triangle-inequality index over one frozen center set.

    Built per *working dtype*: the geometry is measured between the
    centers **as the distance kernels will see them** (cast to the
    working dtype, then exactly widened back to float64), so cast error
    can never invalidate a bound.  ``None``-like behavior for tiny k is
    handled by the factory (:meth:`build` returns ``None`` when pruning
    cannot win).

    Attributes
    ----------
    Cw, c_norms:
        Centers and their squared row norms in the working dtype — the
        operands of the exact fallback row (byte-identical to
        :func:`~repro.linalg.distances.assign_labels`).
    reps_w, rep_norms:
        Group representatives (working dtype) and their squared norms.
    perm, starts, group_sizes:
        Centers reordered group-by-group: members of group ``g`` are
        ``perm[starts[g]:starts[g+1]]``; ``Cg``/``cg_norms`` are the
        matching reordered center rows.
    radius_hi:
        Per group, an upper bound on the representative-to-member
        distance (float64, padded up).
    s_half_lo:
        Per center, a lower bound on half the distance to the nearest
        *other* center — Hamerly's separation test, reused verbatim from
        :func:`repro.linalg.bounds.half_min_center_dist`.
    """

    __slots__ = (
        "k", "d", "n_groups", "Cw", "c_norms", "Cg", "cg_norms",
        "perm", "starts", "group_sizes", "reps_w", "rep_norms",
        "radius_hi", "s_half_lo", "slack64",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    # ------------------------------------------------------------------
    @staticmethod
    def build(centers: np.ndarray, wdt: np.dtype) -> "PruneIndex | None":
        """Index ``centers`` for queries in working dtype ``wdt``.

        Returns ``None`` when pruning cannot pay for itself (fewer than
        4 centers, or fewer than 2 usable groups) — callers then take
        the plain full-row path.
        """
        wdt = np.dtype(wdt)
        k, d = centers.shape
        if k < 4:
            return None
        Cw = np.ascontiguousarray(centers, dtype=wdt)
        # Effective positions: what the working-dtype kernels measure
        # distances to.  float32 -> float64 widening is exact, so all
        # float64 geometry below is geometry of these exact points.
        C_eff = Cw.astype(np.float64) if wdt != np.float64 else np.asarray(
            centers, dtype=np.float64
        )
        c_norms64 = row_norms_sq(C_eff)
        slack64 = expansion_slack(c_norms64, c_norms64, d, np.float64)

        group_of, reps = _group_centers(C_eff, c_norms64)
        if group_of is None:
            return None
        n_groups = reps.shape[0]

        counts = np.bincount(group_of, minlength=n_groups)
        perm = np.argsort(group_of, kind="stable").astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

        # Rep-to-member distances (float64, exact points): the group
        # radius, padded up so the triangle-inequality lower bound
        # d(x, c) >= d(x, rep) - radius can never overstate.
        rep_norms64 = row_norms_sq(reps)
        d2_rep = block_sq_dists(
            C_eff, reps, c_norms64, rep_norms64
        )[np.arange(k), group_of]
        radius_sq = np.zeros(n_groups, dtype=np.float64)
        np.maximum.at(radius_sq, group_of, d2_rep)
        radius_hi = np.sqrt(radius_sq + slack64) * (1.0 + _REL_PAD)

        # Hamerly separation bound, padded down by the float64 slack —
        # identical helper (and padding direction) to the accelerated
        # Lloyd's in-loop test.
        s_half_lo = half_min_center_dist(C_eff, c_norms64, slack64) * (
            1.0 - _REL_PAD
        )

        c_norms = row_norms_sq(Cw)
        Cg = np.ascontiguousarray(Cw[perm])
        return PruneIndex(
            k=k,
            d=d,
            n_groups=n_groups,
            Cw=Cw,
            c_norms=c_norms,
            Cg=Cg,
            cg_norms=c_norms[perm].copy(),
            perm=perm,
            starts=starts,
            group_sizes=counts.astype(np.int64),
            reps_w=np.ascontiguousarray(reps, dtype=wdt),
            rep_norms=row_norms_sq(np.ascontiguousarray(reps, dtype=wdt)),
            radius_hi=radius_hi,
            s_half_lo=s_half_lo,
            slack64=slack64,
        )


def _group_centers(
    C: np.ndarray, c_norms: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Deterministically partition ``k`` centers into ~sqrt(k) groups.

    Farthest-point seeding (ties -> lowest index) followed by a few
    Lloyd reassignment/mean rounds over the *centers themselves* —
    offline, O(k^1.5 d), no RNG.  Empty groups are compacted away.
    Returns ``(group_of, representatives)`` or ``(None, None)`` when a
    useful partition does not exist (e.g. all centers coincide).
    """
    k = C.shape[0]
    g = int(np.ceil(np.sqrt(k)))
    D = block_sq_dists(C, C, c_norms, c_norms)
    reps_idx = [0]
    mind = D[0].copy()
    while len(reps_idx) < g:
        nxt = int(np.argmax(mind))
        if mind[nxt] <= 0.0:
            break  # every remaining center coincides with a rep
        reps_idx.append(nxt)
        np.minimum(mind, D[nxt], out=mind)
    if len(reps_idx) < 2:
        return None, None
    reps = C[np.asarray(reps_idx)].copy()
    for _ in range(3):
        asn = block_sq_dists(C, reps, c_norms, row_norms_sq(reps)).argmin(axis=1)
        counts = np.bincount(asn, minlength=reps.shape[0]).astype(np.float64)
        sums = np.zeros_like(reps)
        np.add.at(sums, asn, C)
        nonzero = counts > 0
        reps[nonzero] = sums[nonzero] / counts[nonzero, None]
    asn = block_sq_dists(C, reps, c_norms, row_norms_sq(reps)).argmin(axis=1)
    used, group_of = np.unique(asn, return_inverse=True)
    if used.shape[0] < 2:
        return None, None
    return group_of.astype(np.int64), reps[used]


class ServedModel:
    """One immutable, versioned model the registry published.

    ``centers`` resolves the broadcast handle on first touch (an attach
    + zero-copy view in shared mode, the value itself inline) and caches
    the read-only array; :meth:`index_for` lazily builds (and caches)
    the :class:`PruneIndex` per working dtype.  Instances pickle as
    ``(version, handle, shape, dtype)`` — a worker process that receives
    one attaches the same shared segment instead of copying centers.
    """

    def __init__(
        self,
        version: int,
        ref: BroadcastRef,
        shape: tuple[int, int],
        dtype: np.dtype,
    ):
        self.version = int(version)
        self._ref = ref
        self.k, self.d = (int(shape[0]), int(shape[1]))
        self.dtype = np.dtype(dtype)
        self._lock = threading.Lock()
        self._centers: np.ndarray | None = None
        self._indexes: dict[np.dtype, PruneIndex | None] = {}

    # -- plumbing ------------------------------------------------------
    def __getstate__(self):
        return {
            "version": self.version,
            "ref": self._ref,
            "shape": (self.k, self.d),
            "dtype": self.dtype.str,
        }

    def __setstate__(self, state):
        self.__init__(
            state["version"], state["ref"], state["shape"], state["dtype"]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServedModel(version={self.version}, k={self.k}, d={self.d}, "
            f"dtype={self.dtype})"
        )

    # -- reads ---------------------------------------------------------
    @property
    def centers(self) -> np.ndarray:
        """The frozen ``(k, d)`` center matrix (read-only, process-private).

        Resolving a shared handle *copies out* of the segment — once per
        process per version.  The segment is transport, not residence:
        the registry may retire (unmap) an old version at any moment,
        and a lagging reader still holding its ``ServedModel`` must keep
        serving from it safely.  Models are ``(k, d)`` — the copy is
        noise next to the queries it serves.
        """
        cached = self._centers
        if cached is not None:
            return cached
        with self._lock:
            if self._centers is None:
                value = resolve_broadcast(self._ref)
                value = np.asarray(value)
                if value.shape != (self.k, self.d):
                    raise ValidationError(
                        f"served centers resolved to shape {value.shape}, "
                        f"expected {(self.k, self.d)}"
                    )
                if isinstance(self._ref, SharedArrayBroadcast):
                    value = value.copy()  # detach from the segment's lifetime
                else:
                    value = value.view()
                value.flags.writeable = False
                self._centers = value
            return self._centers

    def index_for(self, wdt: np.dtype) -> PruneIndex | None:
        """The pruning index for queries in working dtype ``wdt``."""
        wdt = np.dtype(wdt)
        cached = self._indexes.get(wdt, False)
        if cached is not False:
            return cached
        centers = self.centers  # resolve outside the lock (it locks too)
        with self._lock:
            if wdt not in self._indexes:
                self._indexes[wdt] = PruneIndex.build(centers, wdt)
            return self._indexes[wdt]

    # -- construction helper ------------------------------------------
    @staticmethod
    def freeze(version: int, centers: np.ndarray) -> "ServedModel":
        """An inline (non-registry) model around a private centers copy.

        Convenience for tests and one-off scoring without a registry;
        the registry itself builds models around published broadcasts.
        """
        centers = _check_centers(centers)
        frozen = centers.copy()
        frozen.flags.writeable = False
        return ServedModel(
            version, InlineBroadcast(frozen), frozen.shape, frozen.dtype
        )


def _check_centers(centers: np.ndarray) -> np.ndarray:
    """Validate and normalize a center matrix for publishing."""
    centers = np.asarray(centers)
    if centers.ndim != 2 or centers.shape[0] < 1 or centers.shape[1] < 1:
        raise ValidationError(
            f"centers must be a non-empty 2-d array, got shape {centers.shape}"
        )
    if not np.isfinite(centers).all():
        raise ValidationError("centers must be finite")
    if centers.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        centers = centers.astype(np.float64)
    return np.ascontiguousarray(centers)
