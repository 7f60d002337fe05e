"""Regression tests for reverse scans over the sorted view.

A reverse view scan walks the same per-run cursors as a forward one, so
it must fetch each data block at most once and prime its upcoming cloud
runs ahead of consumption, exactly like the forward scan does.
"""

import random

import pytest

from repro.bench.harness import HarnessKnobs, make_store
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.workloads import dbbench


def open_counting_view_db():
    fetches = []

    def wrapper(name, file, next_loader):
        def load(n, handle, kind):
            if kind == "data":
                fetches.append((n, handle.offset))
            return next_loader(n, handle, kind)

        return load

    options = Options(
        write_buffer_size=4 << 10,
        block_size=512,
        max_bytes_for_level_base=16 << 10,
        target_file_size_base=4 << 10,
        block_cache_bytes=0,
        sorted_view=True,
    )
    db = DB.open(
        LocalEnv(LocalDevice(SimClock())), "db/", options, loader_wrapper=wrapper
    )
    return db, fetches


class TestReverseViewBlockReads:
    @pytest.mark.parametrize(
        "begin, end", [(None, None), (b"key00500", b"key01200"), (None, b"key00042")]
    )
    def test_each_block_loaded_once_and_no_more_than_forward(self, begin, end):
        db, fetches = open_counting_view_db()
        try:
            rng = random.Random(1)
            for i in range(4000):
                key = f"key{rng.randrange(2000):05d}".encode()
                db.put(key, f"value{i:06d}".encode() * 3)
            hits = db.view_stats["scan_hits"]

            fetches.clear()
            forward = list(db.scan(begin, end))
            forward_fetches = list(fetches)

            fetches.clear()
            backward = list(db.scan_reverse(begin, end))
            assert db.view_stats["scan_hits"] == hits + 2
            assert backward == forward[::-1]
            assert len(fetches) == len(set(fetches))
            assert len(fetches) <= len(forward_fetches)
        finally:
            db.close()


def cold_cloud_view_store(depth, records=600):
    """RocksMash with a sorted view, everything below L0 cloud-resident and
    the caches cold."""
    store = make_store(
        "rocksmash",
        HarnessKnobs(
            scan_prefetch_depth=depth,
            cloud_level=1,
            block_cache_bytes=0,
            pcache_budget_bytes=4 << 10,
            sorted_view=True,
        ),
    )
    dbbench.fill_database(store, records)
    store.db.table_cache.clear()
    return store


class TestReverseViewPrefetch:
    def test_long_reverse_view_scan_primes_upcoming_runs(self):
        base = cold_cloud_view_store(depth=0)
        piped = cold_cloud_view_store(depth=2)
        expect = base.scan_reverse()
        got = piped.scan_reverse()
        assert got == expect
        assert piped.db.view_stats["scan_hits"] >= 1
        issued = piped.tracer.event_count("prefetch_issue")
        hits = piped.tracer.event_count("prefetch_hit")
        waste = piped.tracer.event_count("prefetch_waste")
        assert issued > 0
        assert hits + waste == issued
        assert waste <= 2
