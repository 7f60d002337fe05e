"""The percentile rule and counter deltas."""

import pytest

from bench import deltas, enough, store_readings
from stats import (
    HOST_ELASTICITY,
    REFERENCE_NOMINAL_S,
    host_factor,
    median,
    nearest_rank,
    op_host_factors,
    sim_metrics,
    tail,
    wall_metrics,
)
from repro.bench.harness import HarnessKnobs, make_store
from repro.workloads.ycsb import Op


def test_tail_is_p999_when_ten_samples_lie_beyond_it():
    samples = [float(i) for i in range(10_000)]
    q, value, n = tail(samples, 0.999)
    assert (q, value, n) == (0.999, 9989.0, 10_000)
    assert sum(1 for x in samples if x > value) == 10
    assert tail(samples + samples, 0.999)[0] == 0.999  # more samples: still p99.9


def test_tail_falls_back_to_the_highest_quantile_with_ten_beyond():
    samples = [float(i) for i in range(500)]
    q, value, n = tail(samples, 0.99)
    assert n == 500
    assert q == pytest.approx(0.98)
    assert sum(1 for x in samples if x > value) == 10
    assert tail(samples, want=0.5)[0] == 0.5


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10, 0.99)
    q, value, _ = tail([float(i) for i in range(11)], 0.99)
    assert value == 0.0 and q == pytest.approx(1 / 11)


def test_tail_is_an_actual_sample_and_order_free():
    samples = [5.0, 1.0, 9.0] * 400
    assert tail(samples, 0.99) == tail(sorted(samples), 0.99)
    assert tail(samples, 0.99)[1] in samples


def test_nearest_rank_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0  # an actual sample, not 2.5
    assert nearest_rank([1.0, 2.0], 1.0) == 2.0


def test_wall_metrics_pool_rounds():
    rounds = [
        {"host_factor": 1.0, "setup_s": s, "raw_setup_s": s, "ops": 100, "busy_s": b,
         "raw_busy_s": b, "main": [0.001] * 100,
         "by_group": {"read": [r], "write": [r * 2], "scan": [r * 3]}}
        for s, b, r in ((1.0, 1.0, 1e-6), (3.0, 0.5, 2e-6), (2.0, 0.25, 3e-6))
    ]
    metrics, notes = wall_metrics(rounds)
    assert metrics["setup_s"] == 2.0
    assert metrics["wall_ops_per_s"] == 300 / 1.75  # pooled: all ops over all busy time
    assert metrics["wall_read_p50_us"] == 2.0
    assert metrics["wall_scan_p50_us"] == 6.0
    assert metrics["wall_p95_us"] == 1000.0
    assert notes["wall_p95_us"].startswith("p95 of n=300 timed-phase ops, p96.6667 1000 us")


def test_host_factor_is_one_at_reference_speed_and_weighs_modes_by_time():
    assert host_factor([REFERENCE_NOMINAL_S] * 3) == pytest.approx(1.0)
    # Half the interval at double speed, half at the reference speed:
    # the mean of the timings, not either mode.
    mixed = host_factor([REFERENCE_NOMINAL_S / 2, REFERENCE_NOMINAL_S])
    assert mixed == pytest.approx((4 / 3) ** HOST_ELASTICITY)
    assert host_factor([REFERENCE_NOMINAL_S / 2]) > mixed > 1.0  # faster host: above 1


def test_each_operation_takes_the_factor_of_the_timings_around_it():
    ref = [REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S / 3]
    factors = op_host_factors(ref, last_before=[0, 0, 1, 1])
    assert factors[:2] == [pytest.approx(1.0)] * 2
    assert factors[2:] == [pytest.approx(1.5 ** HOST_ELASTICITY)] * 2  # timings N and N/3: mean 2N/3


def test_a_corrected_phase_brackets_every_operation(monkeypatch):
    import bench

    store = make_store("rocksmash", HarnessKnobs())
    ops = [Op("update", b"k%04d" % i, b"v" * 100) for i in range(200)]
    monkeypatch.setattr(bench, "REFERENCE_EVERY_S", 0.0)  # a timing before every op
    phase = bench.run_phase(store, ops, correct=True)
    assert len(phase.host_factors) == len(ops)
    assert all(f > 0 for f in phase.host_factors)
    assert phase.corrected_wall() == [w * f for w, f in zip(phase.wall, phase.host_factors)]
    assert bench.run_phase(store, ops).host_factors == []


def test_sim_metrics_pool_sub_streams():
    rounds = [
        {"ops": 100, "sim_s": 1.0, "write_amp": 2.0, "local_space_amp": 0.5,
         "cost_usd_per_month": 3.0,
         "samples": {"read": [0.0] * 20, "write": [1e-3] * 20, "scan": [2e-3] * 20}},
        {"ops": 100, "sim_s": 3.0, "write_amp": 4.0, "local_space_amp": 1.5,
         "cost_usd_per_month": 5.0,
         "samples": {"read": [2e-3] * 20, "write": [3e-3] * 20, "scan": [2e-3] * 20}},
    ]
    metrics, detail = sim_metrics(rounds)
    assert metrics["sim_ops_per_s"] == 50.0  # 200 ops over 4 simulated seconds
    assert metrics["sim_read_mean_ms"] == pytest.approx(1.0)
    assert metrics["sim_write_mean_ms"] == pytest.approx(2.0)
    assert metrics["write_amp"] == 3.0 and metrics["cost_usd_per_month"] == 4.0
    assert detail["sim_read_mean_ms"] == "p50 0 ms, p75 2 ms, n=40"


def test_rounds_stop_closest_to_the_target():
    assert not enough(1, 5.0, min_units=2, seconds=1.0)  # minimum first
    assert not enough(2, 6.0, min_units=2, seconds=10.0)  # 6 + 1.5 < 10
    assert enough(2, 7.0, min_units=2, seconds=8.0)  # 7 + 1.75 >= 8: stop


def test_deltas_subtract_and_count_new_readings_from_zero():
    assert deltas({"a": 5, "b": 1.5}, {"a": 7, "b": 1.5, "c": 3}) == {"a": 2, "b": 0.0, "c": 3}


def test_store_reading_deltas_cover_only_the_phase_between_them():
    store = make_store("rocksmash", HarnessKnobs())
    for i in range(50):
        store.put(b"k%04d" % i, b"v" * 100, sync=True)
    before = store_readings(store)
    for i in range(50):
        assert store.get(b"k%04d" % i) == b"v" * 100
    store.put(b"late", b"x" * 10, sync=True)
    d = deltas(before, store_readings(store))
    # Reads served by the memtable touch no block; the one put is logged.
    assert d["block_cache.hits"] + d["block_cache.misses"] == 0
    assert d["local.write_bytes"] > 0
    assert d["local.write_bytes"] < store_readings(store)["local.write_bytes"]
    assert d["tier.local"] > 0
    assert d.get("cloud.get_ops", 0) == 0
