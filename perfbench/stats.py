"""Order statistics the benchmark reports (no engine imports)."""

from __future__ import annotations

import math
from collections.abc import Sequence


def nearest_rank(sorted_samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile as an actual sample (nearest-rank definition)."""
    k = max(0, math.ceil(q * len(sorted_samples)) - 1)
    return sorted_samples[k]


def median(values: Sequence[float]) -> float:
    return nearest_rank(sorted(values), 0.5)


REFERENCE_NOMINAL_S = 0.005
"""What ``bench.reference_loop`` takes on the reference host."""
HOST_ELASTICITY = 0.75
"""How far the engine's wall times follow the reference loop's when the
host's speed changes, as a log-log slope.  Measured on a 2-vCPU host
whose speed flips between two modes within a second: 0.5-0.75 on
ycsb-a, 0.75 on ycsb-e, 0.75-1.0 on ycsb-c-hot (see README.md, "Noise")."""


def host_factor(reference_s: Sequence[float]) -> float:
    """The correction for wall times measured while the reference loop
    took ``reference_s``: 1 on the reference host, above 1 on a faster
    one.  The mean, not the median, because the timings come from two
    speed modes and the mean weighs each by its share of the interval."""
    return (REFERENCE_NOMINAL_S * len(reference_s) / sum(reference_s)) ** HOST_ELASTICITY


def op_host_factors(reference_s: Sequence[float], last_before: Sequence[int]) -> list[float]:
    """Per operation, the host factor of the two reference timings around
    it: the last one before it (its index in ``last_before``) and the
    next one."""
    per_gap = [host_factor(reference_s[j : j + 2]) for j in range(len(reference_s) - 1)]
    return [per_gap[j] for j in last_before]


TAIL_Q = 0.95
"""The host-latency tail with a bound: the highest percentile that is
steady from seed to seed on every workload (see README.md)."""


def tail(samples: Sequence[float], want: float, beyond: int = 10) -> tuple[float, float, int]:
    """``(q, value, n)``: the highest quantile up to ``want`` that leaves at
    least ``beyond`` samples above it, its value, and the sample count."""
    s = sorted(samples)
    n = len(s)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no quantile with {beyond} beyond it")
    k = min(math.ceil(want * n) - 1, n - 1 - beyond)
    return (k + 1) / n, s[k], n


def wall_metrics(rounds: Sequence[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Host-clock end-to-end metrics pooled over rounds (``bench.py``'s
    ``wall_summary`` dicts, already corrected for host speed); second
    value: a note per metric."""
    ops = sum(r["ops"] for r in rounds)
    factors = [r["host_factor"] for r in rounds]
    metrics = {
        "wall_ops_per_s": ops / sum(r["busy_s"] for r in rounds),
        "setup_s": median([r["setup_s"] for r in rounds]),
    }
    notes = {
        "wall_ops_per_s": f"{ops} ops in {len(rounds)} rounds, uncorrected "
        f"{ops / sum(r['raw_busy_s'] for r in rounds):.6g}, host factor "
        f"{median(factors):.4g} ({min(factors):.4g}-{max(factors):.4g})",
        "setup_s": f"median of {len(rounds)} set-ups, uncorrected "
        f"{median([r['raw_setup_s'] for r in rounds]):.6g}",
    }
    for group in ("read", "write", "scan"):
        samples = sorted(x for r in rounds for x in r["by_group"][group])
        metrics[f"wall_{group}_p50_us"] = 1e6 * nearest_rank(samples, 0.5)
        notes[f"wall_{group}_p50_us"] = f"n={len(samples)}"
    main = [x for r in rounds for x in r["main"]]
    q, value, n = tail(main, TAIL_Q)
    metrics["wall_p95_us"] = 1e6 * value
    notes["wall_p95_us"] = f"p{100 * q:g} of n={n} timed-phase ops" + "".join(
        f", p{100 * hq:g} {1e6 * hv:.6g} us" for hq, hv, _ in (tail(main, 0.99), tail(main, 0.999))
    )
    return metrics, notes


def sim_metrics(rounds: Sequence[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Simulated end-to-end metrics pooled over sub-streams (``bench.py``'s
    ``sim_summary`` dicts); second value: the percentile detail per kind."""
    n = len(rounds)
    metrics = {
        "sim_ops_per_s": sum(r["ops"] for r in rounds) / sum(r["sim_s"] for r in rounds),
        "write_amp": sum(r["write_amp"] for r in rounds) / n,
        "local_space_amp": sum(r["local_space_amp"] for r in rounds) / n,
        "cost_usd_per_month": sum(r["cost_usd_per_month"] for r in rounds) / n,
    }
    detail = {}
    for group in ("read", "write", "scan"):
        samples = sorted(x for r in rounds for x in r["samples"][group])
        metrics[f"sim_{group}_mean_ms"] = 1e3 * sum(samples) / len(samples)
        q, value, count = tail(samples, 0.99)
        detail[f"sim_{group}_mean_ms"] = (
            f"p50 {1e3 * nearest_rank(samples, 0.5):.6g} ms, "
            f"p{100 * q:g} {1e3 * value:.6g} ms, n={count}"
        )
    return metrics, detail
