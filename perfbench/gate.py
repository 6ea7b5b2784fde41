"""Correctness gate applied to every benchmark op.

A fit op passes when its centers are *bitwise* equal to the baseline
set by the warm fit with the same algorithm seed: an op repeats that
fit's work exactly.  A serve op is checked on a fixed
sample: its labels must equal ``assign_labels`` on the exact model
version that served it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bitwise_equal", "FitGate", "labels_ok"]


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes (so NaN == NaN and 0.0 != -0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class FitGate:
    """Holds a run's expected centers; the first op checked sets them."""

    def __init__(self) -> None:
        self.baseline: np.ndarray | None = None

    def check(self, centers: np.ndarray) -> bool:
        if self.baseline is None:
            self.baseline = np.array(centers)
            return True
        return bitwise_equal(centers, self.baseline)


def labels_ok(points: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> bool:
    """Served ``labels`` equal the naive nearest-center labels."""
    from repro.linalg.distances import assign_labels

    expected = assign_labels(np.asarray(points), np.asarray(centers))
    return bitwise_equal(np.asarray(labels, dtype=expected.dtype), expected)
