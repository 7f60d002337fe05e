"""Equivalence properties of the compaction kernel's fast paths.

Each fast routine is checked against a plain reference written from the
format's definition: the tuple-keyed merge heap against a sort of the
parsed keys, the XOR prefix length against a byte loop, and the sliced
device read against a copy of the whole file.
"""

from functools import cmp_to_key
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.block import _shared_prefix_len
from repro.lsm.iterator import merge_internal
from repro.sim.clock import SimClock
from repro.storage.local import LocalDevice
from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    compare_internal,
    internal_key_order,
    make_internal_key,
    parse_internal_key,
)

# User keys that are prefixes of one another, so user-key order and the
# trailer bytes that follow a shorter key interact.
user_keys = st.sampled_from([b"", b"a", b"ab", b"ab\x00", b"ab\x01", b"abc", b"b", b"\xff"])
sequences = st.one_of(
    st.integers(min_value=0, max_value=64), st.just(MAX_SEQUENCE), st.just(1 << 40)
)
value_types = st.sampled_from([TYPE_DELETION, TYPE_VALUE])
internal_keys = st.builds(make_internal_key, user_keys, sequences, value_types)


def reference_order(ikey: bytes) -> tuple[bytes, int, int]:
    """Internal order from the parsed fields: user key up, (seq, type) down."""
    parsed = parse_internal_key(ikey)
    return parsed.user_key, -parsed.sequence, -parsed.value_type


@st.composite
def sorted_sources(draw):
    """Up to six sources (some empty), each sorted in internal order; the
    value names the source and position so ties are visible."""
    count = draw(st.integers(min_value=0, max_value=6))
    sources = []
    for index in range(count):
        keys = sorted(draw(st.lists(internal_keys, max_size=12)), key=reference_order)
        sources.append([(k, b"%d:%d" % (index, i)) for i, k in enumerate(keys)])
    return sources


class TestInternalOrder:
    @given(internal_keys, internal_keys)
    def test_compare_matches_parsed_fields(self, a, b):
        ra, rb = reference_order(a), reference_order(b)
        expected = (ra > rb) - (ra < rb)
        assert compare_internal(a, b) == expected
        oa, ob = internal_key_order(a), internal_key_order(b)
        assert (oa > ob) - (oa < ob) == expected

    @given(st.binary(max_size=7), internal_keys)
    def test_short_keys_are_corruption(self, short, good):
        with pytest.raises(CorruptionError):
            compare_internal(short, good)
        with pytest.raises(CorruptionError):
            compare_internal(good, short)
        with pytest.raises(CorruptionError):
            internal_key_order(short)


class TestMergeEquivalence:
    @given(sorted_sources())
    def test_forward_merge_equals_sort(self, sources):
        merged = list(merge_internal([iter(s) for s in sources]))
        # ``sorted`` is stable, so equal keys keep source order: the heap's
        # tie-break on the source index.
        assert merged == sorted(chain(*sources), key=lambda e: internal_key_order(e[0]))
        assert merged == sorted(chain(*sources), key=lambda e: reference_order(e[0]))

    @given(sorted_sources())
    def test_reverse_merge_equals_descending_sort(self, sources):
        reversed_sources = [iter(list(reversed(s))) for s in sources]
        merged = list(merge_internal(reversed_sources, reverse=True))
        keys = [e[0] for e in merged]
        by_comparator = cmp_to_key(lambda x, y: compare_internal(x[0], y[0]))
        expected = sorted(chain(*sources), key=by_comparator)
        assert keys == [e[0] for e in reversed(expected)]
        assert sorted(merged) == sorted(chain(*sources))


class TestSharedPrefix:
    @given(st.binary(max_size=40), st.binary(max_size=40))
    def test_shared_prefix_matches_byte_loop(self, a, b):
        for x, y in ((a, b), (a, a + b), (a + b, a), (a + b[:1], a + b[1:2])):
            n = 0
            while n < min(len(x), len(y)) and x[n] == y[n]:
                n += 1
            assert _shared_prefix_len(x, y) == n


def reference_read(durable: bytes, pending: bytes, offset: int, length: int | None) -> bytes:
    """The device's contract: a slice of the whole file, unsynced tail included."""
    data = durable + pending
    end = len(data) if length is None else min(len(data), offset + length)
    return data[offset:end]


class TestLocalDeviceRead:
    @given(
        st.binary(max_size=64),
        st.binary(max_size=32),
        st.integers(min_value=0, max_value=120),
        st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
    )
    def test_read_matches_whole_file_slice(self, durable, pending, offset, length):
        clock = SimClock()
        device = LocalDevice(clock)
        device.create("f")
        device.append("f", durable)
        device.sync("f")
        device.append("f", pending)
        before = clock.now
        chunk = device.read("f", offset, length)
        expected = reference_read(durable, pending, offset, length)
        assert chunk == expected
        assert type(chunk) is bytes
        assert clock.now == before + device.model.read_cost(len(expected))
        assert device.counters.get("local.read_bytes") == len(expected)
        # The read left no buffer export behind: the file still grows.
        device.append("f", b"x")
        device.sync("f")
        assert device.read("f") == durable + pending + b"x"
