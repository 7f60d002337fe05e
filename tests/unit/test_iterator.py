"""Unit tests for the merge/visibility iterator machinery."""

import pytest

from repro.errors import CorruptionError
from repro.lsm.iterator import clamp_to_range, merge_internal, visible_user_entries
from repro.util.encoding import TYPE_DELETION, TYPE_VALUE, make_internal_key


def ik(user_key: bytes, seq: int, vtype: int = TYPE_VALUE) -> bytes:
    return make_internal_key(user_key, seq, vtype)


class TestMergeInternal:
    def test_empty_sources(self):
        assert list(merge_internal([])) == []
        assert list(merge_internal([iter([]), iter([])])) == []

    def test_single_source_passthrough(self):
        entries = [(ik(b"a", 2), b"1"), (ik(b"b", 1), b"2")]
        assert list(merge_internal([iter(entries)])) == entries

    def test_interleaved_merge(self):
        s1 = [(ik(b"a", 1), b"a1"), (ik(b"c", 1), b"c1")]
        s2 = [(ik(b"b", 1), b"b1"), (ik(b"d", 1), b"d1")]
        merged = list(merge_internal([iter(s1), iter(s2)]))
        assert [e[1] for e in merged] == [b"a1", b"b1", b"c1", b"d1"]

    def test_same_user_key_newest_first(self):
        s1 = [(ik(b"k", 5), b"old")]
        s2 = [(ik(b"k", 9), b"new")]
        merged = list(merge_internal([iter(s1), iter(s2)]))
        assert [e[1] for e in merged] == [b"new", b"old"]

    def test_many_sources(self):
        sources = [iter([(ik(bytes([97 + i]), 1), bytes([i]))]) for i in range(20)]
        merged = list(merge_internal(sources))
        assert len(merged) == 20
        keys = [e[0] for e in merged]
        assert keys == sorted(keys)

    def test_short_key_is_corruption(self):
        with pytest.raises(CorruptionError):
            list(merge_internal([iter([(b"short", b"v")])]))

    def test_short_key_mid_stream_is_corruption(self):
        s1 = [(ik(b"a", 1), b"a1"), (b"bad", b"v")]
        s2 = [(ik(b"b", 1), b"b1")]
        merged = merge_internal([iter(s1), iter(s2)])
        assert next(merged) == (ik(b"a", 1), b"a1")
        with pytest.raises(CorruptionError):
            list(merged)


class TestVisibility:
    def test_newest_wins(self):
        merged = iter([(ik(b"k", 9), b"new"), (ik(b"k", 5), b"old")])
        assert list(visible_user_entries(merged)) == [(b"k", b"new")]

    def test_tombstone_hides(self):
        merged = iter([(ik(b"k", 9, TYPE_DELETION), b""), (ik(b"k", 5), b"old")])
        assert list(visible_user_entries(merged)) == []

    def test_snapshot_skips_future(self):
        merged = iter([(ik(b"k", 9), b"future"), (ik(b"k", 5), b"past")])
        assert list(visible_user_entries(merged, sequence=6)) == [(b"k", b"past")]

    def test_snapshot_before_any_entry(self):
        merged = iter([(ik(b"k", 9), b"v")])
        assert list(visible_user_entries(merged, sequence=3)) == []

    def test_tombstone_then_older_put_at_snapshot(self):
        # Delete at seq 9, put at seq 5; snapshot at 7 sees the put.
        merged = iter([(ik(b"k", 9, TYPE_DELETION), b""), (ik(b"k", 5), b"v")])
        assert list(visible_user_entries(merged, sequence=7)) == [(b"k", b"v")]

    def test_multiple_keys(self):
        merged = iter(
            [
                (ik(b"a", 3), b"a3"),
                (ik(b"a", 1), b"a1"),
                (ik(b"b", 2, TYPE_DELETION), b""),
                (ik(b"b", 1), b"b1"),
                (ik(b"c", 1), b"c1"),
            ]
        )
        assert list(visible_user_entries(merged)) == [(b"a", b"a3"), (b"c", b"c1")]


class TestClamp:
    def entries(self):
        return iter([(b"a", b"1"), (b"c", b"2"), (b"e", b"3"), (b"g", b"4")])

    def test_no_bounds(self):
        assert len(list(clamp_to_range(self.entries()))) == 4

    def test_begin_inclusive(self):
        got = list(clamp_to_range(self.entries(), begin=b"c"))
        assert [k for k, _ in got] == [b"c", b"e", b"g"]

    def test_end_exclusive(self):
        got = list(clamp_to_range(self.entries(), end=b"e"))
        assert [k for k, _ in got] == [b"a", b"c"]

    def test_both_bounds(self):
        got = list(clamp_to_range(self.entries(), begin=b"b", end=b"g"))
        assert [k for k, _ in got] == [b"c", b"e"]

    def test_early_termination(self):
        # clamp must stop consuming once past `end`.
        consumed = []

        def source():
            for k in [b"a", b"b", b"c", b"d"]:
                consumed.append(k)
                yield k, b"v"

        list(clamp_to_range(source(), end=b"b"))
        assert b"d" not in consumed
