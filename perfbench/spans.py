"""In-memory span tracer used by the traced benchmark run.

Spans are recorded around calls *into* a layer's public functions: the
tracer replaces the attribute where the caller looks it up (a function
imported into another module, or a method on its class) with a wrapper
that records ``(name, start, end, parent)`` plus two work attributes —
distance evaluations and bytes.  Nothing inside ``src/`` is modified;
:meth:`Tracer.unpatch_all` puts every original object back.

Each thread appends to its own column buffers (``array`` columns, about
48 bytes a span), so two client threads never interleave rows and a
span's parent is always the innermost open span of the same thread.
Spans stay in memory until the run ends; :func:`self_times` then gives
each span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "self_times"]

_now = time.perf_counter_ns

#: ``after(args, kwargs, result, start_ns, end_ns)`` runs once a wrapped
#: call returned; it may return ``(dist_evals, nbytes)`` for the span and
#: may add to the tracer's counters.
AfterHook = Callable[[tuple, dict, Any, int, int], "tuple[int, int] | None"]


@dataclass(frozen=True)
class Span:
    """One finished span; ``parent`` indexes the same thread's spans."""

    index: int
    layer: str
    name: str
    start: int
    end: int
    parent: int
    evals: int
    nbytes: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class _Buffer:
    """Column store of one thread's spans plus its open-span stack."""

    __slots__ = ("name", "start", "end", "parent", "evals", "nbytes",
                 "stack", "counters")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.evals = array("q")
        self.nbytes = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}


class Tracer:
    """Records spans and counters; owns the attribute patches it made."""

    def __init__(self) -> None:
        self._names: list[tuple[str, str]] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        with self._lock:
            nid = self._name_ids.get(key)
            if nid is None:
                nid = len(self._names)
                self._names.append(key)
                self._name_ids[key] = nid
            return nid

    def _open(self, buf: _Buffer, nid: int) -> int:
        idx = len(buf.start)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0)
        buf.evals.append(0)
        buf.nbytes.append(0)
        buf.stack.append(idx)
        buf.start.append(_now())
        return idx

    @staticmethod
    def _close(buf: _Buffer, idx: int) -> int:
        end = _now()
        buf.end[idx] = end
        buf.stack.pop()
        return end

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[int]:
        """Record the enclosed block as one span of ``layer``."""
        buf = self._buffer()
        idx = self._open(buf, self.name_id(layer, name))
        try:
            yield idx
        finally:
            self._close(buf, idx)

    def count(self, key: str, value: float = 1) -> None:
        """Add ``value`` to this thread's counter ``key``."""
        counters = self._buffer().counters
        counters[key] = counters.get(key, 0) + value

    def wrap(self, fn: Callable, layer: str, name: str,
             after: AfterHook | None = None) -> Callable:
        """``fn`` with every call recorded as a span."""
        nid = self.name_id(layer, name)
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            idx = tracer._open(buf, nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._close(buf, idx)
            if after is not None:
                work = after(args, kwargs, result, buf.start[idx], end)
                if work is not None:
                    buf.evals[idx], buf.nbytes[idx] = work
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- patching --------------------------------------------------------
    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr = value``, remembering what to restore."""
        if isinstance(owner, type):  # restore the class's own entry, or none
            own = attr in owner.__dict__
            original = owner.__dict__.get(attr)
        else:
            own, original = True, getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, value)

    def patch(self, owner: Any, attr: str, layer: str, name: str,
              after: AfterHook | None = None) -> None:
        """Wrap the function or method ``owner.attr`` where it is looked up."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, layer, name, after))
        else:
            wrapped = self.wrap(getattr(owner, attr), layer, name, after)
        self.replace(owner, attr, wrapped)

    def unpatch_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- read-out --------------------------------------------------------
    def spans(self) -> list[list[Span]]:
        """Finished spans, one list per thread, in opening order."""
        with self._lock:
            buffers = list(self._buffers)
        out = []
        for buf in buffers:
            rows = []
            for i in range(len(buf.start)):
                layer, name = self._names[buf.name[i]]
                rows.append(Span(i, layer, name, buf.start[i], buf.end[i],
                                 buf.parent[i], buf.evals[i], buf.nbytes[i]))
            out.append(rows)
        return out

    def counters(self) -> dict[str, float]:
        """Counters summed over every thread."""
        with self._lock:
            buffers = list(self._buffers)
        total: dict[str, float] = {}
        for buf in buffers:
            for key, value in buf.counters.items():
                total[key] = total.get(key, 0) + value
        return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its children cover.

    ``spans`` is one thread's list (``parent`` indexes it).  Children are
    clipped to their parent's interval and overlapping children are
    merged, so the result is the time the span spent outside any child.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0
        lo_edge = s.start
        for lo, hi in sorted(children.get(s.index, ())):
            lo, hi = max(lo, lo_edge), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                lo_edge = hi
        out.append(s.duration - covered)
    return out
