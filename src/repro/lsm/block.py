"""SSTable block format: prefix-compressed entries with restart points.

LevelDB's block encoding: each entry stores how many leading key bytes it
shares with the previous entry, so sorted keys compress well; every
``restart_interval`` entries a *restart point* stores the full key, and the
block trailer lists restart offsets so :meth:`Block.seek` can binary-search.

The same encoding serves data blocks (internal key → value) and index
blocks (separator key → encoded BlockHandle).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import TypeVar

from repro.errors import CorruptionError
from repro.util.encoding import decode_fixed32, encode_fixed32
from repro.util.varint import decode_varint, encode_varint

Comparator = Callable[[bytes, bytes], int]
_Ref = TypeVar("_Ref")


def _shared_prefix_len(a: bytes, b: bytes) -> int:
    """Length of the common prefix of ``a`` and ``b``.

    XOR of the two prefixes read as big-endian integers: its highest set
    bit lies in the first differing byte, so the bytes below it match.
    """
    n = min(len(a), len(b))
    diff = int.from_bytes(a[:n], "big") ^ int.from_bytes(b[:n], "big")
    return n - (diff.bit_length() + 7) // 8


class BlockBuilder:
    """Accumulates sorted key/value entries into one encoded block."""

    def __init__(self, restart_interval: int = 16) -> None:
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self.restart_interval = restart_interval
        self._buffer = bytearray()
        self._restarts: list[int] = [0]
        self._counter = 0
        self._last_key = b""
        self.num_entries = 0

    def add(self, key: bytes, value: bytes) -> None:
        """Append an entry; keys must arrive in non-decreasing order."""
        if self._counter >= self.restart_interval:
            self._restarts.append(len(self._buffer))
            self._counter = 0
            shared = 0
        else:
            shared = _shared_prefix_len(self._last_key, key)
        non_shared = len(key) - shared
        buffer = self._buffer
        buffer += encode_varint(shared)
        buffer += encode_varint(non_shared)
        buffer += encode_varint(len(value))
        buffer += key[shared:]
        buffer += value
        self._last_key = key
        self._counter += 1
        self.num_entries += 1

    def current_size_estimate(self) -> int:
        """Encoded size if finished now."""
        return len(self._buffer) + 4 * len(self._restarts) + 4

    def empty(self) -> bool:
        return self.num_entries == 0

    def finish(self) -> bytes:
        """Encode restart trailer and return the finished block payload."""
        out = bytearray(self._buffer)
        for offset in self._restarts:
            out += encode_fixed32(offset)
        out += encode_fixed32(len(self._restarts))
        return bytes(out)

    def reset(self) -> None:
        self._buffer.clear()
        self._restarts = [0]
        self._counter = 0
        self._last_key = b""
        self.num_entries = 0


class Block:
    """Read-side view of an encoded block."""

    def __init__(self, data: bytes, comparator: Comparator) -> None:
        if len(data) < 4:
            raise CorruptionError("block too small for restart count")
        self._data = data
        self._cmp = comparator
        num_restarts = decode_fixed32(data, len(data) - 4)
        trailer = 4 + 4 * num_restarts
        if trailer > len(data):
            raise CorruptionError("restart array larger than block")
        self._restart_base = len(data) - trailer
        self._restarts = [
            decode_fixed32(data, self._restart_base + 4 * i) for i in range(num_restarts)
        ]
        if self._restarts and self._restarts[0] != 0:
            raise CorruptionError("first restart must be at offset 0")

    def _parse_entry(self, offset: int, prev_key: bytes) -> tuple[bytes, bytes, int]:
        """Decode the entry at ``offset``; returns (key, value, next_offset)."""
        shared, pos = decode_varint(self._data, offset)
        non_shared, pos = decode_varint(self._data, pos)
        value_len, pos = decode_varint(self._data, pos)
        if shared > len(prev_key):
            raise CorruptionError("shared prefix longer than previous key")
        key_end = pos + non_shared
        value_end = key_end + value_len
        if value_end > self._restart_base:
            raise CorruptionError("entry overruns block body")
        key = prev_key[:shared] + self._data[pos:key_end]
        value = self._data[key_end:value_end]
        return key, value, value_end

    def _iter_from(self, offset: int, prev_key: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries from ``offset`` on.

        Entries whose three header varints are one byte each (every
        field below 128: the common case) are decoded inline, with the
        same checks as :meth:`_parse_entry`; others go through it. The
        three header bytes always lie inside the block, since ``offset``
        is below the restart array and the restart count follows it.
        """
        data = self._data
        limit = self._restart_base
        while offset < limit:
            shared = data[offset]
            non_shared = data[offset + 1]
            value_len = data[offset + 2]
            if (shared | non_shared | value_len) < 0x80:
                key_start = offset + 3
                key_end = key_start + non_shared
                offset = key_end + value_len
                if shared > len(prev_key):
                    raise CorruptionError("shared prefix longer than previous key")
                if offset > limit:
                    raise CorruptionError("entry overruns block body")
                key = prev_key[:shared] + data[key_start:key_end]
                yield key, data[key_end:offset]
            else:
                key, value, offset = self._parse_entry(offset, prev_key)
                yield key, value
            prev_key = key

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in key order."""
        return self._iter_from(0, b"")

    def seek(self, target: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries with key >= ``target`` under the block's comparator.

        Binary search over restart points (full keys), then linear scan.
        """
        if not self._restarts:
            return iter(())
        # Find the last restart whose key is < target.
        lo, hi = 0, len(self._restarts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            key, _, _ = self._parse_entry(self._restarts[mid], b"")
            if self._cmp(key, target) < 0:
                lo = mid
            else:
                hi = mid - 1
        return self._scan_ge(self._restarts[lo], target)

    def seek_reverse(self, bound: bytes | None) -> Iterator[tuple[bytes, bytes]]:
        """Entries with key < ``bound`` (all when None), descending.

        Entries are prefix-compressed forward, so this materializes the
        ones below the bound and hands them out back to front.
        """
        entries: list[tuple[bytes, bytes]] = []
        for key, value in self._iter_from(0, b""):
            if bound is not None and self._cmp(key, bound) >= 0:
                break
            entries.append((key, value))
        return reversed(entries)

    def _scan_ge(self, offset: int, target: bytes) -> Iterator[tuple[bytes, bytes]]:
        prev_key = b""
        emitting = False
        for key, value in self._iter_from(offset, prev_key):
            if emitting or self._cmp(key, target) >= 0:
                emitting = True
                yield key, value

    def get(self, target: bytes) -> bytes | None:
        """Exact-match lookup (comparator equality)."""
        for key, value in self.seek(target):
            return value if self._cmp(key, target) == 0 else None
        return None


def walk_blocks(
    refs: Iterable[_Ref],
    load: Callable[[_Ref], Block],
    edge: bytes | None,
    *,
    reverse: bool = False,
) -> Iterator[tuple[bytes, bytes]]:
    """Entries of a table's blocks ``refs`` (given in scan order), in scan
    order. Each block is loaded only when the walk reaches it; the first
    one is cut at ``edge``: forward keeps its keys >= edge, reverse its
    keys < edge."""
    for ref in refs:
        block = load(ref)
        if reverse:
            yield from block.seek_reverse(edge)
        elif edge is None:
            yield from block
        else:
            yield from block.seek(edge)
        edge = None
