"""Iterator machinery: k-way merge over memtables and tables, user view.

Internal iterators yield ``(internal_key, value)`` in internal-key order
(user key ascending, sequence descending), or in exactly that order
reversed for a reverse scan; every function here takes the direction as a
``reverse`` argument. :func:`merge_internal` performs a heap-based k-way
merge; :func:`visible_user_entries` collapses the merged stream into the
user-visible view at a snapshot sequence — newest visible entry per user
key, tombstones suppressing older values.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    internal_key_order,
    parse_internal_key,
)

InternalEntry = tuple[bytes, bytes]  # (internal_key, value)


# ``heapq``'s C max-heap primitives: public from Python 3.14, private
# (``_``-prefixed) before that, and not in the typing stubs for 3.10.
_heapify_max, _heapreplace_max, _heappop_max = (
    vars(heapq).get(name) or vars(heapq)["_" + name]
    for name in ("heapify_max", "heapreplace_max", "heappop_max")
)


def merge_internal(
    sources: list[Iterator[InternalEntry]], *, reverse: bool = False
) -> Iterator[InternalEntry]:
    """K-way merge of internal iterators into one ordered stream.

    Heap items are ``(user_key, -trailer, source_index, ikey, value,
    source)``: the first two fields are :func:`internal_key_order`, so
    ``heapq`` compares items in C. Ties on identical internal keys cannot
    happen across live sources (sequence numbers are unique), but the
    source index keeps the heap total-ordered regardless and stops the
    comparison before it reaches the payload fields.

    With ``reverse`` every source yields descending internal order and the
    same items sit in a max-heap, so the output is exactly the forward
    merge's output reversed, source-index tie-break included.
    """
    heap: list[tuple[bytes, int, int, bytes, bytes, Iterator[InternalEntry]]] = []
    for index, source in enumerate(sources):
        for ikey, value in source:
            heap.append(internal_key_order(ikey) + (index, ikey, value, source))
            break
    if reverse:
        heapify, heapreplace, heappop = _heapify_max, _heapreplace_max, _heappop_max
    else:
        heapify, heapreplace, heappop = heapq.heapify, heapq.heapreplace, heapq.heappop
    heapify(heap)
    while heap:
        _user_key, _trailer, index, ikey, value, source = heap[0]
        yield ikey, value
        for ikey, value in source:
            heapreplace(heap, internal_key_order(ikey) + (index, ikey, value, source))
            break
        else:
            heappop(heap)


def visible_user_entries(
    merged: Iterator[InternalEntry],
    sequence: int = MAX_SEQUENCE,
    *,
    reverse: bool = False,
) -> Iterator[tuple[bytes, bytes]]:
    """User-visible ``(user_key, value)`` pairs at snapshot ``sequence``.

    For each user key the newest entry with seq <= sequence wins; a winning
    tombstone hides the key. Internal order puts a key's newest entry
    first, so a forward stream emits the winner as soon as it meets it; a
    reverse stream meets the key's entries oldest first and holds the
    newest visible one until the user key changes.
    """
    current_user_key: bytes | None = None
    settled = False  # forward: current_user_key's winner already seen
    held: tuple[bytes, int, bytes] | None = None  # reverse: newest visible so far
    for ikey, value in merged:
        parsed = parse_internal_key(ikey)
        if parsed.user_key != current_user_key:
            if held is not None and held[1] != TYPE_DELETION:
                yield held[0], held[2]
            current_user_key, settled, held = parsed.user_key, False, None
        if settled or parsed.sequence > sequence:
            continue  # shadowed, or not yet visible at this snapshot
        if reverse:
            held = (parsed.user_key, parsed.value_type, value)
            continue
        settled = True
        if parsed.value_type != TYPE_DELETION:
            yield parsed.user_key, value
    if held is not None and held[1] != TYPE_DELETION:
        yield held[0], held[2]


def clamp_to_range(
    entries: Iterator[tuple[bytes, bytes]],
    begin: bytes | None = None,
    end: bytes | None = None,
    *,
    reverse: bool = False,
) -> Iterator[tuple[bytes, bytes]]:
    """Restrict a user-entry stream to user keys in [begin, end).

    Keys before the range's near edge (in scan order) are skipped; the
    first key past its far edge ends the stream.
    """
    for user_key, value in entries:
        below = begin is not None and user_key < begin
        above = end is not None and user_key >= end
        if below or above:
            if below if reverse else above:
                return
            continue
        yield user_key, value
