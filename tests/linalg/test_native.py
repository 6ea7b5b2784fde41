"""The native-kernel loader: builds where it can, never fails silently.

The numerical contract of the compiled reductions (bitwise equal to the
numpy code) is checked in ``test_kernel_oracle.py``; this module checks
the build and load path around them.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.linalg import native
from repro.linalg.centroids import cluster_sums
from repro.linalg.distances import update_min_sq_dists_argmin

HAVE_CC = shutil.which("cc") is not None


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_library_loads_when_a_compiler_is_present():
    # With a compiler on PATH a failed build must fail the suite, not
    # fall back to numpy unnoticed.
    assert native.lib() is not None, native.load_error()
    assert native.load_error() is None


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_cache_name_follows_source_and_flags(monkeypatch):
    cc = shutil.which("cc")
    name = native._cache_name(cc)
    assert name == native._cache_name(cc)
    monkeypatch.setattr(native, "_FLAGS", native._FLAGS + ("-g",))
    assert native._cache_name(cc) != name


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_unwritable_pycache_builds_in_the_temp_dir(monkeypatch, tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    source = pkg / "_native.c"
    shutil.copy(native._SOURCE, source)
    (pkg / "__pycache__").write_text("a file where the directory would go")
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(native, "_SOURCE", source)
    monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(temp))
    built = native._build(shutil.which("cc"))
    assert built.parent.parent == temp and built.exists()
    # Written by rename: no temporary file is left beside it.
    assert [p.name for p in built.parent.iterdir()] == [built.name]
    assert native._build(shutil.which("cc")) == built  # cached now
    native._bind(native.ctypes.CDLL(str(built)))


def test_no_compiler_leaves_the_numpy_path(monkeypatch):
    monkeypatch.setattr(native, "_state", {})
    monkeypatch.setattr(native, "_compiler", lambda: None)
    assert native.lib() is None
    assert "cc" in native.load_error()
    G = np.ones((3, 2))
    cur, near = np.full(3, np.inf), np.full(3, -1, dtype=np.int64)
    assert not native.fold_min(G, np.ones(3), np.ones(2), cur, near, 0)
    assert native.top2(G, 0.0) is None
    assert native.scatter_add(G, np.zeros(3, dtype=np.int64), 1) is None
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    update_min_sq_dists_argmin(X, X, cur[:2], near[:2], offset=0)
    np.testing.assert_array_equal(near[:2], [0, 1])


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_wrappers_decline_shapes_the_c_code_could_read_past():
    G = np.ones((3, 2))
    cur, near = np.full(3, np.inf), np.full(3, -1, dtype=np.int64)
    assert not native.fold_min(G, np.ones(2), np.ones(2), cur, near, 0)
    assert not native.fold_min(G, np.ones(3), np.ones(3), cur, near, 0)
    assert not native.fold_min(G, np.ones(3), np.ones(2), cur[:2], near[:2], 0)
    assert native.top2(G, 0.0, xn=np.ones(4), cn=np.ones(2)) is None
    labels = np.zeros(3, dtype=np.int64)
    assert native.scatter_add(G, labels[:2], 1) is None
    assert native.scatter_add(G, labels, 1, np.ones(2)) is None
    assert native.scatter_add(G, labels, 1, np.ones(3)) is not None
    with pytest.raises(ValueError):  # the numpy path's broadcast error
        cluster_sums(G, labels, 1, weights=np.ones(2))
