"""The identity suites once more, with the native kernels unavailable.

:mod:`repro.linalg.native` is optional: without a compiler the numpy
code is the only path, so it must keep every bit-identity contract on
its own.  This module re-collects the suites that exercise the compiled
reductions (bounded Lloyd, the pruned cost fold, serving) with the
loader reporting "unavailable" in this process.  Process-backend workers
load the library on their own; the outputs are bitwise the same either
way, which is what these suites check.
"""

from __future__ import annotations

import pytest

from repro.linalg import native
from tests.properties.test_bounded_lloyd_identity import *  # noqa: F401,F403
from tests.properties.test_cost_fold_pruning import *  # noqa: F401,F403
from tests.properties.test_properties_serve import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def _numpy_kernels(monkeypatch):
    monkeypatch.setattr(native, "lib", lambda: None)
