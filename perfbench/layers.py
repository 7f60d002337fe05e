"""Host-side layer tracing for the benchmark's traced run.

The benchmark times calls into each engine layer from outside: it swaps a
timing wrapper onto the layer's public methods and module-level functions
for the duration of one timed phase, then restores the originals.  Nothing
under ``src/`` knows about it.

Every wrapped call becomes a span (name, start, end, parent span).  A call
that returns a generator is timed across its whole iteration: each resume
of the generator is a span of the same layer, so the time the generator
spends producing items is charged to its layer, and the time its consumer
spends between items is not.

A layer's *self time* is the sum of its spans' durations minus the part
covered by their child spans.  Self times of all layers plus the time
spent outside any span add up to the traced phase's wall time by
construction, once every span has closed and nested properly; the
benchmark checks that they did (see
:meth:`LayerTracer.conservation_problem`).
"""

from __future__ import annotations

import importlib
import time
import types
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any


SPAN_CAPACITY = 20_000
"""Spans kept in memory; older ones are dropped."""


@dataclass
class _Frame:
    layer: str
    span_id: int
    parent_id: int
    start: float
    child_s: float = 0.0


class LayerTracer:
    """Span recorder with per-layer self time, inclusive time and counts.

    ``clock`` is injectable so the self-time arithmetic can be tested with
    scripted timestamps.  Spans are kept in memory in a bounded ring
    (``spans``, tuples of span id, parent id, layer, start, end); the
    aggregates cover every span, evicted or not.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: deque[tuple[int, int, str, float, float]] = deque(maxlen=SPAN_CAPACITY)
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}
        """Per layer: time inside its outermost spans (a span nested in a
        span of the same layer is not counted twice)."""
        self.calls: dict[str, int] = {}
        """Per ``Owner.method`` label: number of calls (not resumes)."""
        self.root_s = 0.0
        """Total duration of spans with no parent span."""
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}
        self._next_id = 1

    # -- frames -----------------------------------------------------------

    def enter(self, layer: str) -> _Frame:
        parent = self._stack[-1].span_id if self._stack else 0
        frame = _Frame(layer, self._next_id, parent, self.clock())
        self._next_id += 1
        self._stack.append(frame)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.layer} closed out of order (top {top.layer})")
        duration = end - frame.start
        layer = frame.layer
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame.child_s
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        if depth == 0:
            self.inclusive_s[layer] = self.inclusive_s.get(layer, 0.0) + duration
        if self._stack:
            self._stack[-1].child_s += duration
        else:
            self.root_s += duration
        self.spans.append((frame.span_id, frame.parent_id, layer, frame.start, end))

    def count(self, label: str, n: int = 1) -> None:
        self.calls[label] = self.calls.get(label, 0) + n

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def conservation_problem(self, busy_s: float) -> str | None:
        """Why the spans of a phase do not add up, or None.

        Self times plus the unattributed remainder (the phase's wall time
        minus the root spans) equal the wall time by construction if every
        span closed, in order (:meth:`exit` raises otherwise).  So this
        checks that no span is left open, and that the root spans, all
        opened inside store calls, fit in ``busy_s``, the part of the
        phase spent inside store calls.
        """
        if self._stack:
            return f"{len(self._stack)} spans left open"
        if self.root_s > busy_s * (1 + 1e-9):
            return f"root spans ({self.root_s:.6g} s) exceed time in store calls ({busy_s:.6g} s)"
        return None

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], layer: str, label: str) -> Callable[..., Any]:
        """``fn`` timed as a span of ``layer``; generator results are timed
        over their whole iteration."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.count(label)
            frame = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if type(result) is types.GeneratorType:
                return tracer.iterate(result, layer)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def iterate(self, inner: Iterator[Any], layer: str) -> Iterator[Any]:
        """Re-yield ``inner``'s items, timing each resume (and the final
        close) as a span of ``layer``.  ``send``/``throw``/``close`` are
        forwarded, so it can stand in for a ``@contextmanager`` body."""
        sent: Any = None
        thrown: BaseException | None = None
        try:
            while True:
                frame = self.enter(layer)
                try:
                    if thrown is not None:
                        item = inner.throw(thrown)  # type: ignore[attr-defined]
                    else:
                        item = inner.send(sent)  # type: ignore[attr-defined]
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.exit(frame)
                thrown = None
                try:
                    sent = yield item
                except GeneratorExit:
                    raise
                except BaseException as exc:  # forwarded into ``inner``
                    thrown = exc
        finally:
            frame = self.enter(layer)
            try:
                inner.close()  # type: ignore[attr-defined]
            finally:
                self.exit(frame)


# -- what gets wrapped ----------------------------------------------------

# (module, class or None for a module-level function, attribute, layer)
# Module-level functions are patched in the namespace of every module that
# imports them by name, since that is the name the caller looks up.
WRAP_PLAN: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.lsm.db", "DB", "get", "lsm.db"),
    ("repro.lsm.db", "DB", "put", "lsm.db"),
    ("repro.lsm.db", "DB", "write", "lsm.db"),
    ("repro.lsm.db", "DB", "scan", "lsm.db"),
    ("repro.lsm.db", "DB", "flush", "lsm.flush"),
    ("repro.lsm.db", "DB", "_flush_memtable", "lsm.flush"),
    ("repro.lsm.compaction", "CompactionJob", "run", "lsm.compaction"),
    ("repro.lsm.table_builder", "TableBuilder", "add", "lsm.table_builder"),
    ("repro.lsm.table_builder", "TableBuilder", "finish", "lsm.table_builder"),
    ("repro.lsm.db", None, "merge_internal", "lsm.iterator"),
    ("repro.lsm.compaction", None, "merge_internal", "lsm.iterator"),
    ("repro.lsm.block", "Block", "__init__", "lsm.block"),
    ("repro.lsm.block", "Block", "seek", "lsm.block"),
    ("repro.lsm.block", "Block", "get", "lsm.block"),
    ("repro.lsm.block", "Block", "__iter__", "lsm.block"),
    ("repro.lsm.table_reader", "TableReader", "get", "lsm.table_reader"),
    ("repro.lsm.table_reader", "TableReader", "get_at", "lsm.table_reader"),
    ("repro.lsm.table_reader", "TableReader", "seek", "lsm.table_reader"),
    ("repro.lsm.block_cache", "LRUBlockCache", "get", "lsm.block_cache"),
    ("repro.lsm.block_cache", "LRUBlockCache", "put", "lsm.block_cache"),
    ("repro.lsm.memtable", "MemTable", "add", "lsm.memtable"),
    ("repro.lsm.memtable", "MemTable", "get", "lsm.memtable"),
    ("repro.lsm.memtable", "MemTable", "seek", "lsm.memtable"),
    ("repro.lsm.memtable", "MemTable", "__iter__", "lsm.memtable"),
    ("repro.mash.xwal", "XWalWriter", "add_record", "mash.xwal"),
    ("repro.mash.xwal", "XWalWriter", "sync", "mash.xwal"),
    ("repro.util.bloom", "BloomFilterPolicy", "create_filter", "util.bloom"),
    ("repro.util.bloom", "BloomFilterPolicy", "key_may_match", "util.bloom"),
    ("repro.mash.pcache", "PersistentCache", "get_data", "mash.pcache"),
    ("repro.mash.pcache", "PersistentCache", "put_data", "mash.pcache"),
    ("repro.mash.pcache", "PersistentCache", "get_meta", "mash.pcache"),
    ("repro.mash.pcache", "PersistentCache", "put_meta", "mash.pcache"),
    ("repro.mash.pcache", "PersistentCache", "contains_data", "mash.pcache"),
    ("repro.mash.pcache", "PersistentCache", "drop_file", "mash.pcache"),
    ("repro.mash.layout", "BlockHeatTracker", "record_access", "mash.layout"),
    ("repro.mash.layout", "BlockHeatTracker", "register_file", "mash.layout"),
    ("repro.mash.layout", "BlockHeatTracker", "forget_file", "mash.layout"),
    ("repro.mash.layout", "BlockHeatTracker", "heat_of", "mash.layout"),
    ("repro.mash.layout", "BlockHeatTracker", "file_heat", "mash.layout"),
    ("repro.mash.layout", "BlockHeatTracker", "plan_inheritance", "mash.layout"),
    ("repro.mash.readahead", "ReadaheadBuffer", "get", "mash.readahead"),
    ("repro.mash.readahead", "ReadaheadBuffer", "prime", "mash.readahead"),
    ("repro.storage.local", "LocalDevice", "read", "storage.local"),
    ("repro.storage.local", "LocalDevice", "append", "storage.local"),
    ("repro.storage.local", "LocalDevice", "sync", "storage.local"),
    ("repro.storage.local", "LocalDevice", "write_file", "storage.local"),
    ("repro.storage.local", "LocalDevice", "delete", "storage.local"),
    ("repro.storage.cloud", "CloudObjectStore", "get", "storage.cloud"),
    ("repro.storage.cloud", "CloudObjectStore", "get_range", "storage.cloud"),
    ("repro.storage.cloud", "CloudObjectStore", "put", "storage.cloud"),
    ("repro.storage.cloud", "CloudObjectStore", "upload_part", "storage.cloud"),
    ("repro.storage.cloud", "CloudObjectStore", "complete_multipart", "storage.cloud"),
    ("repro.storage.cloud", "CloudObjectStore", "delete", "storage.cloud"),
    ("repro.obs.trace", "Tracer", "span", "obs.trace"),
    ("repro.obs.trace", "Tracer", "charge", "obs.trace"),
    ("repro.obs.trace", "Tracer", "event", "obs.trace"),
    ("repro.obs.trace", "Tracer", "count_cloud_op", "obs.trace"),
)

_CONTEXT_MANAGERS = {"Tracer.span"}


def _label(owner: str | None, attr: str) -> str:
    return f"{owner}.{attr}" if owner else attr


@contextmanager
def traced(tracer: LayerTracer, plan=WRAP_PLAN) -> Iterator[LayerTracer]:
    """Install ``tracer``'s wrappers for the ``with`` body, then restore
    every original attribute (also when the body raises)."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for module_name, owner_name, attr, layer in plan:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            label = _label(owner_name, attr)
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            restore.append((owner, attr, original))
            setattr(owner, attr, _wrapped(tracer, original, layer, label))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _wrapped(tracer: LayerTracer, original: Any, layer: str, label: str) -> Any:
    if isinstance(original, staticmethod):
        return staticmethod(tracer.wrap(original.__func__, layer, label))
    if label in _CONTEXT_MANAGERS:
        # A @contextmanager method: time its generator body, then rewrap.
        return contextmanager(tracer.wrap(original.__wrapped__, layer, label))
    if label.startswith("ReadaheadBuffer."):
        original = _counting_readahead_stats(tracer, original)
    return tracer.wrap(original, layer, label)


def _counting_readahead_stats(tracer: LayerTracer, method: Callable[..., Any]
                              ) -> Callable[..., Any]:
    """A ``ReadaheadBuffer`` method that also counts what the call added to
    the buffer's own ``stats``: blocks served from bytes already buffered
    (``ReadaheadBuffer.hit``) and fetches issued (``ReadaheadBuffer.fetch``).
    The stats live on each short-lived buffer, so no store-wide read-out
    holds them."""

    def counting(buffer: Any, *args: Any, **kwargs: Any) -> Any:
        stats = buffer.stats
        hits, fetches = stats.sequential_hits, stats.fetches
        result = method(buffer, *args, **kwargs)
        tracer.count("ReadaheadBuffer.hit", stats.sequential_hits - hits)
        tracer.count("ReadaheadBuffer.fetch", stats.fetches - fetches)
        return result

    return counting
