"""Compiled one-pass reductions over a GEMM block (optional, bitwise).

After the BLAS GEMM, the distance kernels spend most of their time in
numpy passes over the ``(rows, k)`` block: expand, clamp, argmin, gather,
compare — each one a full read and often a full write.  ``_native.c``
does each reduction in one read of the block:

* :func:`fold_min` — the k-means|| cost fold (expand, clamp, first-min
  argmin, strict-improvement update of ``d2``/``nearest``), and
  :func:`fold_pruned`, the same fold restricted to the candidates a
  triangle bound keeps (see :func:`repro.linalg.distances.
  update_min_sq_dists_argmin`);
* :func:`top2` — winner, runner-up and near-tie flag for the Hamerly
  bound fills in :mod:`repro.linalg.bounds` and the best-group pass of
  :mod:`repro.serve.assign`;
* :func:`scatter_add` — the row-order scatter-add inside
  :func:`repro.linalg.centroids.cluster_sums`.

Every kernel is **bitwise equal** to the numpy code it replaces: the C
source rounds each operation once, in numpy's dtype and operand order,
and is compiled with ``-fno-fast-math -ffp-contract=off`` so the
compiler neither reassociates nor fuses a multiply-add.  The numpy code
stays next to every call site; it is the oracle the tests compare
against and the only path when the library cannot be built.  There is no
switch between the two: each wrapper returns ``False``/``None`` when it
cannot run (no library, or a dtype/layout it does not cover) and the
caller then runs the numpy code.

Build: on first use the source is compiled with the system ``cc`` into
this package's ``__pycache__/`` (or the temp dir when that is not
writable), under a name keyed by a hash of the source, the flags and the
compiler, written by atomic rename so concurrent processes never load a
half-written file.  ctypes calls release the GIL, so the engine's
thread fan-out runs the kernels in parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "lib", "load_error", "fold_min", "prune_prepare", "fold_pruned", "top2", "scatter_add",
]

_SOURCE = Path(__file__).with_name("_native.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_TAG = {_F32: "f32", _F64: "f64"}
#: (block dtype, expansion dtype) pairs the kernels are compiled for.
_PAIRS = ((_F32, _F32), (_F32, _F64), (_F64, _F64))

_lock = threading.Lock()
_state: dict[str, object] = {}


def _compiler() -> str | None:
    return shutil.which("cc")


def _cache_name(cc: str) -> str:
    real = os.path.realpath(cc)
    st = os.stat(real)
    key = hashlib.sha256()
    key.update(_SOURCE.read_bytes())
    key.update(" ".join(_FLAGS).encode())
    key.update(f"{real}:{st.st_size}:{st.st_mtime_ns}".encode())
    return f"_native-{key.hexdigest()[:16]}.so"


def _build(cc: str) -> Path:
    """The compiled library, compiling it if no cached copy exists."""
    name = _cache_name(cc)
    pycache = _SOURCE.parent / "__pycache__"
    fallback = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    for where in (pycache, fallback):
        if (where / name).exists():
            return where / name
    for where in (pycache, fallback):
        try:
            where.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=where)
        except OSError:
            continue
        os.close(fd)
        try:
            subprocess.run(
                [cc, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, where / name)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return where / name
    raise OSError("no writable directory for the native library")


def _bind(dll: ctypes.CDLL) -> ctypes.CDLL:
    P, I, D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    for g, e in _PAIRS:
        tag = f"{_TAG[g]}_{_TAG[e]}"
        fn = getattr(dll, f"fold_min_{tag}")
        fn.argtypes = [P, I, I, P, P, P, P, I]
        fn.restype = None
        fn = getattr(dll, f"top2_{tag}")
        fn.argtypes = [P, I, I, P, P, D, D, P, P, P]
        fn.restype = ctypes.c_int
        fn = getattr(dll, f"sums_{tag}")
        fn.argtypes = [P, I, I, P, P, P]
        fn.restype = None
    dll.prune_prepare.argtypes = [P, P, I, I, I, P, D, D, P, P, P, P, P, P]
    dll.prune_prepare.restype = I
    dll.fold_pruned_f64.argtypes = [P, I, I, P, P, P, P, I, I, P, P, P, D, D]
    dll.fold_pruned_f64.restype = I
    return dll


def lib() -> ctypes.CDLL | None:
    """The loaded library, building it on first use; ``None`` when no
    compiler is on ``PATH`` or the build or load failed (the reason is
    kept in :func:`load_error`)."""
    if "lib" in _state:
        return _state["lib"]  # type: ignore[return-value]
    with _lock:
        if "lib" not in _state:
            dll, err = None, None
            cc = _compiler()
            if cc is None:
                err = "no C compiler (cc) on PATH"
            else:
                try:
                    dll = _bind(ctypes.CDLL(str(_build(cc))))
                except (OSError, AttributeError, subprocess.SubprocessError) as exc:
                    err = f"{type(exc).__name__}: {exc}"
            _state["error"] = err
            _state["lib"] = dll
    return _state["lib"]  # type: ignore[return-value]


def load_error() -> str | None:
    """Why :func:`lib` returned ``None`` (``None`` if it loaded or has
    not been asked yet)."""
    return _state.get("error")  # type: ignore[return-value]


def _ptr(a: np.ndarray) -> int:
    """Address of ``a``'s first element (``a.ctypes.data``, ~3x faster
    for the writable arrays most calls pass)."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):  # read-only or empty
        return a.ctypes.data


def _is(a: np.ndarray, dtype: np.dtype) -> bool:
    return a.dtype == dtype and a.flags.c_contiguous


def _as(a: np.ndarray, dtype: np.dtype) -> np.ndarray:
    return a if _is(a, dtype) else np.ascontiguousarray(a, dtype=dtype)


def _expansion(G: np.ndarray, xn: np.ndarray, cn: np.ndarray):
    """``(dtype tag, xn, cn)`` for expanding ``G`` as ``expand_gemm``
    would, or ``None`` for a combination the kernels do not cover (or
    shapes the C code could read past)."""
    g = G.dtype
    e = g if xn.dtype == g and cn.dtype == g else np.result_type(G, xn, cn)
    if (
        (g, e) not in _PAIRS or not G.flags.c_contiguous
        or xn.shape != G.shape[:1] or cn.shape != G.shape[1:]
    ):
        return None
    return f"{_TAG[g]}_{_TAG[e]}", _as(xn, e), _as(cn, e)


def fold_min(G, xn, cn, cur, near, offset) -> bool:
    """Fold the GEMM block ``G`` (rows x new centers) into ``cur``/``near``
    in place, as ``expand_gemm`` + argmin + strict-improvement update do.
    Returns ``False`` (nothing done) when the kernel cannot run."""
    dll = lib()
    if dll is None or G.ndim != 2 or G.shape[1] == 0:
        return False
    spec = _expansion(G, xn, cn)
    if spec is None or not (_is(cur, _F64) and _is(near, _I64)):
        return False
    if cur.shape != xn.shape or near.shape != xn.shape:
        return False
    tag, xn, cn = spec
    getattr(dll, f"fold_min_{tag}")(
        _ptr(G), G.shape[0], G.shape[1], _ptr(xn), _ptr(cn),
        _ptr(cur), _ptr(near), int(offset),
    )
    return True


def prune_prepare(cur, near, lower, slack, hair):
    """``(tables, listed)``: the pruned fold's per-reference tables for
    rows ``cur``/``near`` against the bound matrix ``lower``, and an upper
    bound on the pairs those rows keep (requires the library)."""
    n_ref, k = lower.shape
    sorted_ = np.empty((n_ref, k))
    order = np.empty((n_ref, k), dtype=np.int64)
    length = np.empty(n_ref, dtype=np.int64)
    reach = np.empty(n_ref)
    rows = np.empty(n_ref, dtype=np.int64)
    scratch = np.empty(2 * k)  # k (bound, index) pairs
    listed = lib().prune_prepare(
        _ptr(cur), _ptr(near), cur.shape[0], n_ref, k, _ptr(lower), slack, hair,
        _ptr(reach), _ptr(rows), _ptr(sorted_), _ptr(order), _ptr(length),
        _ptr(scratch),
    )
    return (sorted_, order, length), int(listed)


def fold_pruned(G, xn, cn, cur, near, offset, tables, slack, hair) -> int:
    """The triangle-pruned fold of a float64 GEMM block (all operands
    C-contiguous and finite) over :func:`prune_prepare`'s ``tables``;
    returns the pairs expanded."""
    sorted_, order, length = tables
    return int(lib().fold_pruned_f64(
        _ptr(G), G.shape[0], G.shape[1], _ptr(xn), _ptr(cn), _ptr(cur),
        _ptr(near), int(offset), sorted_.shape[0], _ptr(sorted_), _ptr(order),
        _ptr(length), slack, hair,
    ))


def top2(G, slack, *, xn=None, cn=None, unit=None):
    """``(labels, ub, lb, best, close)`` of a block — the winner, the two
    bounds of ``bounds._fill_rows``, the winner's distance — or ``None``
    when the kernel cannot run.

    With ``xn``/``cn`` given ``G`` is a raw GEMM block expanded here as
    ``expand_gemm`` would; otherwise it is an expanded distance block.
    ``unit`` (with ``xn``/``cn``) also computes the near-tie flags of
    :func:`repro.linalg.bounds._near_ties` on those norms (``close`` is
    ``None`` without it).
    """
    dll = lib()
    if dll is None or G.ndim != 2 or G.shape[1] == 0 or type(slack) is not float:
        return None
    if xn is not None:
        narrow = xn.dtype
        spec = _expansion(G, xn, cn)
        if spec is None:
            return None
        tag, xn, cn = spec
        # The near-tie allowance doubles the norms in their own dtype.
        if unit is not None and (type(unit) is not float or narrow != xn.dtype):
            return None
    else:
        e = G.dtype
        if (e, e) not in _PAIRS or not G.flags.c_contiguous:
            return None
        tag = f"{_TAG[e]}_{_TAG[e]}"
    m, k = G.shape
    labels = np.empty(m, dtype=np.int64)
    bounds = np.empty((3, m))
    close = None if unit is None else np.empty(m, dtype=bool)
    if getattr(dll, f"top2_{tag}")(
        _ptr(G), m, k,
        None if xn is None else _ptr(xn), None if cn is None else _ptr(cn),
        slack, 0.0 if unit is None else 2.0 * unit,
        _ptr(labels), _ptr(bounds), None if close is None else _ptr(close),
    ):
        raise MemoryError("native top-2 pass: no row buffer")
    return labels, bounds[0], bounds[1], bounds[2], close


def scatter_add(block, labels, k, weights=None) -> np.ndarray | None:
    """``cluster_sums``' per-block flattened bincount as a ``(k * d,)``
    float64 partial, or ``None`` when the kernel cannot run."""
    dll = lib()
    if dll is None or block.ndim != 2:
        return None
    p = block.dtype if weights is None else np.result_type(block, weights)
    if (block.dtype, p) not in _PAIRS or labels.shape != block.shape[:1] or (
        weights is not None and weights.shape != block.shape[:1]
    ):
        return None
    block = np.ascontiguousarray(block)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    w = None if weights is None else np.ascontiguousarray(weights, dtype=p)
    n, d = block.shape
    out = np.zeros(k * d, dtype=np.float64)
    getattr(dll, f"sums_{_TAG[block.dtype]}_{_TAG[p]}")(
        _ptr(block), n, d, None if w is None else _ptr(w), _ptr(labels), _ptr(out)
    )
    return out
