"""Iterator machinery: k-way merge over memtables and tables, user view.

Internal iterators yield ``(internal_key, value)`` in internal-key order
(user key ascending, sequence descending). :func:`merge_internal` performs a
heap-based k-way merge; :func:`visible_user_entries` collapses the merged
stream into the user-visible view at a snapshot sequence — newest visible
entry per user key, tombstones suppressing older values.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    compare_internal,
    internal_key_order,
    parse_internal_key,
)

InternalEntry = tuple[bytes, bytes]  # (internal_key, value)


def merge_internal(sources: list[Iterator[InternalEntry]]) -> Iterator[InternalEntry]:
    """K-way merge of internal iterators into one ordered stream.

    Heap items are ``(user_key, -trailer, source_index, ikey, value,
    source)``: the first two fields are :func:`internal_key_order`, so
    ``heapq`` compares items in C. Ties on identical internal keys cannot
    happen across live sources (sequence numbers are unique), but the
    source index keeps the heap total-ordered regardless and stops the
    comparison before it reaches the payload fields.
    """
    heap: list[tuple[bytes, int, int, bytes, bytes, Iterator[InternalEntry]]] = []
    for index, source in enumerate(sources):
        for ikey, value in source:
            heap.append(internal_key_order(ikey) + (index, ikey, value, source))
            break
    heapq.heapify(heap)
    heapreplace, heappop = heapq.heapreplace, heapq.heappop
    while heap:
        _user_key, _trailer, index, ikey, value, source = heap[0]
        yield ikey, value
        for ikey, value in source:
            heapreplace(heap, internal_key_order(ikey) + (index, ikey, value, source))
            break
        else:
            heappop(heap)


def visible_user_entries(
    merged: Iterator[InternalEntry], sequence: int = MAX_SEQUENCE
) -> Iterator[tuple[bytes, bytes]]:
    """User-visible ``(user_key, value)`` pairs at snapshot ``sequence``.

    For each user key, the first entry with seq <= sequence wins (internal
    order puts newer entries first); a winning tombstone hides the key.
    """
    current_user_key: bytes | None = None
    for ikey, value in merged:
        parsed = parse_internal_key(ikey)
        if parsed.sequence > sequence:
            continue  # not yet visible at this snapshot
        if parsed.user_key == current_user_key:
            continue  # older shadowed entry
        current_user_key = parsed.user_key
        if parsed.value_type == TYPE_DELETION:
            continue
        yield parsed.user_key, value


class _ReverseHeapKey:
    """Max-heap adaptor: largest internal key first, then source index."""

    __slots__ = ("ikey", "index")

    def __init__(self, ikey: bytes, index: int) -> None:
        self.ikey = ikey
        self.index = index

    def __lt__(self, other: "_ReverseHeapKey") -> bool:
        c = compare_internal(self.ikey, other.ikey)
        if c != 0:
            return c > 0
        return self.index < other.index


def merge_internal_reverse(
    sources: list[Iterator[InternalEntry]],
) -> Iterator[InternalEntry]:
    """K-way merge of *reverse* internal iterators (descending order).

    Sources must yield entries in descending internal-key order; the merged
    stream does too.
    """
    heap: list[tuple[_ReverseHeapKey, bytes, Iterator[InternalEntry]]] = []
    for index, source in enumerate(sources):
        for ikey, value in source:
            heap.append((_ReverseHeapKey(ikey, index), value, source))
            break
    heapq.heapify(heap)
    while heap:
        heap_key, value, source = heap[0]
        yield heap_key.ikey, value
        for ikey, next_value in source:
            heapq.heapreplace(
                heap, (_ReverseHeapKey(ikey, heap_key.index), next_value, source)
            )
            break
        else:
            heapq.heappop(heap)


def visible_user_entries_reverse(
    merged: Iterator[InternalEntry], sequence: int = MAX_SEQUENCE
) -> Iterator[tuple[bytes, bytes]]:
    """User-visible pairs in *descending* user-key order.

    The reversed internal stream delivers each user key's entries oldest
    first (sequence ascending), so the winner for a key is the *last*
    visible entry seen before the key changes; it is emitted at the key
    boundary.
    """
    current_key: bytes | None = None
    candidate: tuple[int, bytes] | None = None  # (value_type, value)

    def emit() -> tuple[bytes, bytes] | None:
        if (
            current_key is not None
            and candidate is not None
            and candidate[0] != TYPE_DELETION
        ):
            return (current_key, candidate[1])
        return None

    for ikey, value in merged:
        parsed = parse_internal_key(ikey)
        if parsed.user_key != current_key:
            out = emit()
            if out is not None:
                yield out
            current_key = parsed.user_key
            candidate = None
        if parsed.sequence <= sequence:
            candidate = (parsed.value_type, value)
    out = emit()
    if out is not None:
        yield out


def clamp_to_range_reverse(
    entries: Iterator[tuple[bytes, bytes]],
    begin: bytes | None = None,
    end: bytes | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """Restrict a descending user-entry stream to user keys in [begin, end)."""
    for user_key, value in entries:
        if end is not None and user_key >= end:
            continue
        if begin is not None and user_key < begin:
            return
        yield user_key, value


def clamp_to_range(
    entries: Iterator[tuple[bytes, bytes]],
    begin: bytes | None = None,
    end: bytes | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """Restrict a user-entry stream to user keys in [begin, end)."""
    for user_key, value in entries:
        if begin is not None and user_key < begin:
            continue
        if end is not None and user_key >= end:
            return
        yield user_key, value
