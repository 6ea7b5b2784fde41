"""Byte charges of ``estimate_nbytes``, one row per type branch.

The scalar fast path (exact ``int``/``float``/``bool``/``None``/``str``
answered before any other probe) must not change a single charge: the
spill trigger, spill telemetry and the simulated shuffle term all read
this scale.
"""

from __future__ import annotations

import enum

import numpy as np
import pytest

from repro.linalg.sparse import HAVE_SCIPY
from repro.shuffle.accounting import FRAME_BYTES, estimate_nbytes, record_nbytes


class Color(enum.IntEnum):
    RED = 1


class Label(str):
    pass


class Opaque:
    pass


CHARGES = [
    # exact builtin scalars (the fast path)
    (0, 8),
    (-(2**100), 8),
    (3.14, 8),
    (True, 8),
    (None, 8),
    ("", 0),
    ("abcd", 4),
    ("é✓", 5),  # charged by UTF-8 length, not code points
    # subclasses take the general path, with the same charges
    (Color.RED, 8),
    (Label("abc"), 3),
    # NumPy
    (np.zeros(10), 80),
    (np.zeros((3, 4), dtype=np.float32), 48),
    (np.zeros(0), 0),
    (np.float64(1.0), 8),
    (np.float32(1.0), 4),
    (np.int8(1), 1),
    (np.complex128(1 + 2j), 16),
    (np.bool_(True), 1),
    # bytes
    (b"xyz", 3),
    (bytearray(b"ab"), 2),
    # containers: header + per-slot framing + elements
    ((), 8),
    ((1.0, 2.0), 8 + 8 * 2 + 16),
    (("agg", 3), 8 + 8 * 2 + 3 + 8),
    ([], 8),
    ([np.zeros(2), "ab"], 8 + 8 * 2 + 16 + 2),
    (frozenset({1.0}), 8 + 8 + 8),
    ({1.0, 2.0}, 8 + 8 * 2 + 16),
    ({}, 8),
    ({"abcd": 1.0}, 8 + 8 + 4 + 8),
    ({("a", 1): np.zeros(3)}, 8 + 8 + (8 + 8 * 2 + 1 + 8) + 24),
    # anything else: a flat word
    (Opaque(), 8),
]


@pytest.mark.parametrize(
    "value, nbytes",
    CHARGES,
    ids=[f"{type(v).__name__}-{i}" for i, (v, _) in enumerate(CHARGES)],
)
def test_charge_table(value, nbytes):
    assert estimate_nbytes(value) == nbytes


def test_record_charge_adds_framing():
    key, value = ("agg", 7), np.zeros(16)
    assert record_nbytes(key, value) == FRAME_BYTES + (8 + 8 * 2 + 3 + 8) + 128


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
def test_sparse_charges_stored_triple():
    import scipy.sparse as sp

    dense = np.zeros((4, 5))
    dense[0, 1] = dense[3, 4] = 1.0
    csr = sp.csr_matrix(dense)
    triple = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    assert estimate_nbytes(csr) == triple
    # Non-CSR formats are charged as their CSR conversion.
    assert estimate_nbytes(sp.coo_matrix(dense)) == triple
