"""The rule for which percentiles a run may report."""

from __future__ import annotations

__all__ = ["MIN_BEYOND", "reportable"]

#: A percentile is reported only when at least this many samples lie
#: beyond it, so it is never set by one or two outliers.
MIN_BEYOND = 10


def reportable(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond ``q``."""
    return n * (1.0 - q) >= MIN_BEYOND - 1e-9
