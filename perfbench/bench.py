"""One benchmark process: set up RocksMash, run a YCSB workload, measure.

Started by ``perfbench/run.py`` with ``PYTHONPATH=src`` (``run.py`` adds the
cross-process determinism check and prints the report).

A *round* builds a store with ``make_store("rocksmash", HarnessKnobs())``,
loads it and warms it up with point reads (together the set-up, timed as
``setup_s``), then runs the timed phase, then the probe phases.  Round
``j`` replays sub-stream ``j`` of the seed: operations generated from
``seed * 1000 + j`` before the round starts.  Rounds repeat until the
timed phases add up to about ``--seconds``; the simulated metrics pool the first
``Workload.streams`` rounds, so they depend on the seed alone.

Probes: every workload reports every end-to-end metric, but
YCSB-A has no scans, YCSB-E no point reads and the hot read-only workload
neither writes nor scans.  For an operation kind missing from the mix, a
probe phase of that kind (same key distribution) runs on the round's
store after the timed phase, and the per-kind metrics of that kind come
from it.  Probes never feed ``wall_ops_per_s`` or ``wall_p95_us``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from array import array
from bisect import bisect_left, insort
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.bench.harness import HarnessKnobs, make_store
from repro.workloads.generator import make_key, make_value
from repro.workloads.ycsb import (
    WORKLOAD_A,
    WORKLOAD_C,
    WORKLOAD_E,
    Op,
    YCSBSpec,
    iter_ops,
    load_phase,
    outcome_digest_update,
)

from layers import LayerTracer, traced
from stats import host_factor, op_host_factors, sim_metrics, wall_metrics

# -- workloads ------------------------------------------------------------

KIND_GROUP = {"read": "read", "update": "write", "insert": "write", "scan": "scan"}
GROUPS = ("read", "write", "scan")
_PROBE_MIX = {
    "read": {"read_proportion": 1.0},
    "write": {"update_proportion": 1.0},
    "scan": {"scan_proportion": 1.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: YCSBSpec
    """The timed phase: mix, dataset size and operations per round."""
    streams: int
    """Rounds (distinct sub-streams) the simulated metrics pool."""
    probe_ops: int
    """Operations per probe phase (one per op kind missing from the mix)."""
    warm_up_reads: int = 1000

    def probes(self) -> list[YCSBSpec]:
        s = self.spec
        mix = {
            "read": s.read_proportion,
            "write": s.update_proportion + s.insert_proportion,
            "scan": s.scan_proportion,
        }
        return [
            YCSBSpec(
                f"{group}-probe",
                record_count=s.record_count,
                operation_count=self.probe_ops,
                value_size=s.value_size,
                **_PROBE_MIX[group],
            )
            for group in GROUPS
            if mix[group] == 0
        ]


# Why each workload: see BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Tree far larger than the local caches: inline flush and compaction.
        Workload("ycsb-a", WORKLOAD_A.scaled(20_000, 3_400), streams=3, probe_ops=500),
        # Same tree, short scans: block decode, merging iterator, readahead.
        Workload("ycsb-e", WORKLOAD_E.scaled(20_000, 3_400), streams=3, probe_ops=1_000),
        # Tree that fits in local L0/L1: the pure-CPU point-read path.
        Workload("ycsb-c-hot", WORKLOAD_C.scaled(1_000, 10_000), streams=2, probe_ops=400),
    )
}


# -- measuring ------------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    """Outcome of an operation that raised."""

    error: str


def execute(store: Any, op: Op) -> Any:
    """Apply one operation; every write is synchronous."""
    if op.kind == "read":
        return store.get(op.key)
    if op.kind in ("update", "insert"):
        store.put(op.key, op.value, sync=True)
        return None
    if op.kind == "scan":
        return store.scan(op.key, None, limit=op.limit)
    raise ValueError(f"unsupported op kind {op.kind!r}")


LOCAL_SAMPLE_EVERY = 100

REFERENCE_EVERY_S = 0.2
"""Host seconds of a phase between two timings of the reference loop."""


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the engine, whose time
    tracks the host's speed (see README.md, "Noise")."""
    d: dict[int, int] = {}
    for i in range(30_000):
        k = i % 1000
        d[k] = d.get(k, 0) + i
    return len(d)


def time_reference(out: list[float], times: int = 1) -> float:
    """Append ``times`` timings of :func:`reference_loop` to ``out``;
    returns the seconds they took."""
    total = 0.0
    for _ in range(times):
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        out.append(took)
        total += took
    return total


@dataclass
class Phase:
    """Per-operation host and simulated latencies plus every outcome."""

    ops: Sequence[Op]
    outcomes: list[Any]
    wall: list[float]
    sim: list[float]
    wall_s: float
    local_bytes: list[int]
    """``store.local_bytes()`` every ``LOCAL_SAMPLE_EVERY`` operations
    and at the end (timed phase only)."""
    host_factors: list[float]
    """Per operation, the host-speed correction of its wall time (empty
    when the phase was not corrected)."""

    def corrected_wall(self) -> list[float]:
        return [w * f for w, f in zip(self.wall, self.host_factors)]


def run_phase(store: Any, ops: Sequence[Op], *, sample_local: bool = False,
              correct: bool = False) -> Phase:
    """Closed loop, one operation in flight.  Only the store call sits
    between the clock reads; checking happens after the phase.  With
    ``correct``, the reference loop is timed before the first operation,
    between operations every ``REFERENCE_EVERY_S`` and after the last, and
    each operation's host factor comes from the two timings around it;
    ``wall_s`` leaves that time out."""
    n = len(ops)
    outcomes: list[Any] = [None] * n
    wall = [0.0] * n
    sim = [0.0] * n
    local_bytes: list[int] = []
    reference: list[float] = []
    last_before = [0] * n
    clock = store.clock
    perf = time.perf_counter
    if correct:
        time_reference(reference)
    wall_start = perf()
    reference_s = 0.0
    next_reference = wall_start + REFERENCE_EVERY_S
    for i, op in enumerate(ops):
        if sample_local and i % LOCAL_SAMPLE_EVERY == 0:
            local_bytes.append(store.local_bytes())
        if correct:
            if perf() >= next_reference:
                reference_s += time_reference(reference)
                next_reference = perf() + REFERENCE_EVERY_S
            last_before[i] = len(reference) - 1
        c0 = clock.now
        t0 = perf()
        try:
            outcome = execute(store, op)
        except Exception as exc:  # a failed op is counted, not fatal
            outcome = Failure(f"{type(exc).__name__}: {exc}")
        t1 = perf()
        wall[i] = t1 - t0
        sim[i] = clock.now - c0
        outcomes[i] = outcome
    wall_s = perf() - wall_start - reference_s
    if sample_local:
        local_bytes.append(store.local_bytes())
    factors: list[float] = []
    if correct:
        time_reference(reference)
        factors = op_host_factors(reference, last_before)
    return Phase(ops, outcomes, wall, sim, wall_s, local_bytes, factors)


@dataclass
class Inputs:
    """One round's operations, generated before any timing starts."""

    spec: YCSBSpec
    warm_up: list[Op]
    main: list[Op]
    probes: list[list[Op]]

    @classmethod
    def generate(cls, workload: Workload, seed: int, stream: int) -> "Inputs":
        sub_seed = seed * 1000 + stream
        warm = YCSBSpec(
            "warm-up",
            read_proportion=1.0,
            record_count=workload.spec.record_count,
            operation_count=workload.warm_up_reads,
        )
        return cls(
            workload.spec,
            warm_up=list(iter_ops(warm, seed=sub_seed + 100)),
            main=list(iter_ops(workload.spec, seed=sub_seed)),
            probes=[
                list(iter_ops(p, seed=sub_seed + 200 * (i + 1)))
                for i, p in enumerate(workload.probes())
            ],
        )


def store_readings(store: Any) -> dict[str, float]:
    """Public read-outs whose delta over the timed phase the traced run
    reports per operation."""
    db = store.db
    readings: dict[str, float] = dict(store.counters.snapshot())
    readings["compaction.bytes_written"] = db.compaction_stats.bytes_written
    readings["block_cache.hits"] = db.block_cache.hits
    readings["block_cache.misses"] = db.block_cache.misses
    for key, value in db.bloom_stats.items():
        readings[f"bloom.{key}"] = value
    ps = store.pcache.stats
    for key in ("data_hits", "data_misses", "meta_hits", "meta_misses", "evictions"):
        readings[f"pcache.{key}"] = getattr(ps, key)
    readings["placement.demotions"] = store.placement.tier_summary()["demotions"]
    for tier, seconds in store.tracer.totals.as_dict().items():
        readings[f"tier.{tier}"] = seconds
    return readings


def deltas(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """``after - before`` per reading; a reading new in ``after`` counts
    from zero."""
    return {k: v - before.get(k, 0) for k, v in after.items()}


@dataclass
class Round:
    setup_s: float
    warm_up: Phase
    main: Phase
    probes: list[Phase]
    readings: dict[str, float]
    """Store read-outs at the end of the timed phase."""
    phase_deltas: dict[str, float]
    tracer: LayerTracer | None = None
    setup_factor: float = 1.0
    """Host-speed correction of ``setup_s`` (untraced rounds)."""

    def phases(self) -> list[Phase]:
        return [self.warm_up, self.main, *self.probes]


SETUP_REFERENCE_SAMPLES = 5
"""Reference-loop timings taken right before and right after a set-up."""


def run_round(inputs: Inputs, tracer: LayerTracer | None = None) -> Round:
    """One round.  An untraced round corrects its wall times for host
    speed; a traced round times no reference loop, so its phase times
    stay comparable with the spans."""
    correct = tracer is None
    reference: list[float] = []
    gc.collect()
    if correct:
        time_reference(reference, SETUP_REFERENCE_SAMPLES)
    t0 = time.perf_counter()
    store = make_store("rocksmash", HarnessKnobs())
    load_phase(store, inputs.spec, sync=True)
    warm = run_phase(store, inputs.warm_up)
    setup_s = time.perf_counter() - t0
    if correct:
        time_reference(reference, SETUP_REFERENCE_SAMPLES)

    gc.collect()
    before = store_readings(store)
    if tracer is None:
        main = run_phase(store, inputs.main, sample_local=True, correct=True)
    else:
        with traced(tracer):
            main = run_phase(store, inputs.main, sample_local=True)
    after = store_readings(store)
    after["cost_usd_per_month"] = store.cost_report(store.clock.now).total
    probes = [run_phase(store, ops, correct=correct) for ops in inputs.probes]
    store.close()
    return Round(setup_s, warm, main, probes, after, deltas(before, after), tracer,
                 host_factor(reference) if correct else 1.0)


# -- checking -------------------------------------------------------------


class Oracle:
    """Dict of every acknowledged write, starting from the loaded records."""

    def __init__(self, spec: YCSBSpec) -> None:
        self.data = {make_key(i): make_value(i, spec.value_size) for i in range(spec.record_count)}
        self.keys = sorted(self.data)
        self.user_bytes_written = sum(len(k) + len(v) for k, v in self.data.items())

    def check(self, op: Op, outcome: Any) -> bool:
        """Whether ``outcome`` is right; applies acknowledged writes."""
        if isinstance(outcome, Failure):
            return False
        if op.kind == "read":
            return outcome == self.data.get(op.key)
        if op.kind == "scan":
            i = bisect_left(self.keys, op.key)
            expected = [(k, self.data[k]) for k in self.keys[i : i + op.limit]]
            return outcome == expected
        if op.key not in self.data:
            insort(self.keys, op.key)
        self.data[op.key] = op.value
        self.user_bytes_written += len(op.key) + len(op.value)
        return outcome is None

    def live_bytes(self) -> int:
        return sum(len(k) + len(v) for k, v in self.data.items())


def fold_outcome(hasher: Any, op: Op, outcome: Any) -> None:
    if isinstance(outcome, Failure):
        hasher.update(b"!" + op.kind.encode() + op.key + outcome.error.encode())
    else:
        outcome_digest_update(hasher, op, outcome)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    user_bytes: int = 0
    """Load + timed-phase user bytes written."""
    live_bytes: int = 0
    """Live user bytes at the end of the timed phase."""


def verify(spec: YCSBSpec, phases: Sequence[Phase], main: Phase) -> Verdict:
    """Replay ``phases`` (all of a round's, in order) against the oracle;
    ``main`` is the timed phase among them."""
    oracle = Oracle(spec)
    hasher = hashlib.sha256()
    verdict = Verdict()
    for phase in phases:
        for op, outcome in zip(phase.ops, phase.outcomes):
            verdict.attempted += 1
            fold_outcome(hasher, op, outcome)
            if not oracle.check(op, outcome):
                verdict.failed += 1
                if len(verdict.errors) < 5:
                    verdict.errors.append(f"{op.kind} {op.key!r}: {outcome!r:.120}")
        if phase is main:
            verdict.user_bytes = oracle.user_bytes_written
            verdict.live_bytes = oracle.live_bytes()
    verdict.digest = hasher.hexdigest()
    return verdict


def fingerprint(phases: Sequence[Phase]) -> str:
    """sha256 over every outcome and every simulated latency (bit for bit)
    of ``phases``."""
    hasher = hashlib.sha256()
    for phase in phases:
        for op, outcome, sim in zip(phase.ops, phase.outcomes, phase.sim):
            fold_outcome(hasher, op, outcome)
            hasher.update(sim.hex().encode())
    return hasher.hexdigest()


# -- per-round summaries ---------------------------------------------------


def by_group(phases: Sequence[Phase], values: Callable[[Phase], Sequence[float]]
             ) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {g: [] for g in GROUPS}
    for phase in phases:
        for op, x in zip(phase.ops, values(phase)):
            groups[KIND_GROUP[op.kind]].append(x)
    return groups


def sim_summary(rnd: Round, verdict: Verdict) -> dict[str, Any]:
    """What the simulated clock decided in one round, and the outcome
    digest; ``stats.sim_metrics`` pools these across sub-streams."""
    main = rnd.main
    r = rnd.readings
    written = r.get("local.write_bytes", 0) + r.get("cloud.put_bytes", 0)
    return {
        "ops": len(main.ops),
        "sim_s": sum(main.sim),
        "samples": by_group([main, *rnd.probes], lambda p: p.sim),
        "write_amp": written / verdict.user_bytes,
        "local_space_amp": sum(main.local_bytes) / len(main.local_bytes) / verdict.live_bytes,
        "cost_usd_per_month": r["cost_usd_per_month"],
        "digest": verdict.digest,
    }


def wall_summary(rnd: Round) -> dict[str, Any]:
    """One round's host-clock samples, corrected for host speed, and the
    uncorrected totals; ``stats.wall_metrics`` pools them.  Samples are
    kept as compact arrays, so that the process's peak RSS hardly depends
    on how many rounds it runs."""
    main = rnd.main.corrected_wall()
    factors = rnd.main.host_factors
    return {
        "setup_s": rnd.setup_s * rnd.setup_factor,
        "raw_setup_s": rnd.setup_s,
        "ops": len(main),
        "busy_s": sum(main),
        "raw_busy_s": sum(rnd.main.wall),
        "host_factor": sum(factors) / len(factors),
        "main": array("d", main),
        "by_group": {g: array("d", xs) for g, xs in
                     by_group([rnd.main, *rnd.probes], Phase.corrected_wall).items()},
    }


# -- per-layer metrics (traced rounds) -----------------------------------

_SELF_LAYERS = (
    "lsm.db",
    "lsm.table_builder",
    "lsm.iterator",
    "lsm.block",
    "lsm.table_reader",
    "lsm.block_cache",
    "lsm.memtable",
    "mash.xwal",
    "util.bloom",
    "mash.pcache",
    "mash.layout",
    "mash.readahead",
    "storage.local",
    "storage.cloud",
    "obs.trace",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class TracedRound:
    """What the per-layer metrics need from one traced round."""

    tracer: LayerTracer
    phase_deltas: dict[str, float]
    ops: int
    user_bytes: int
    """User bytes written in the timed phase."""
    wall_s: float
    untraced_wall_s: float
    """The timed phase of the untraced round of the same sub-stream."""


def layer_metrics(rounds: Sequence[TracedRound]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per timed-phase operation, as ``name: (value,
    unit)``, pooled over traced rounds."""
    ops = sum(r.ops for r in rounds)
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    calls: dict[str, float] = {}
    d: dict[str, float] = {}
    for r in rounds:
        t = r.tracer
        for total, part in ((self_s, t.self_s), (incl, t.inclusive_s), (calls, t.calls),
                            (d, r.phase_deltas)):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v
    root_s = sum(r.tracer.root_s for r in rounds)
    wall = sum(r.wall_s for r in rounds)

    def per_op(x: float, unit: str = "1/op") -> tuple[float, str]:
        return x / ops, unit

    m: dict[str, tuple[float, str]] = {"bench.traced_ops": (float(ops), "count")}
    m["lsm.compaction.wall_s"] = per_op(incl.get("lsm.compaction", 0.0), "s/op")
    m["lsm.compaction.count"] = per_op(calls.get("CompactionJob.run", 0))
    m["lsm.compaction.bytes_written_per_user_byte"] = (
        _ratio(d["compaction.bytes_written"], sum(r.user_bytes for r in rounds)),
        "ratio",
    )
    m["lsm.flush.wall_s"] = per_op(incl.get("lsm.flush", 0.0), "s/op")
    m["lsm.flush.count"] = per_op(calls.get("DB._flush_memtable", 0))
    for layer in _SELF_LAYERS:
        m[f"{layer}.wall_self_s"] = per_op(self_s.get(layer, 0.0), "s/op")
    m["lsm.block.decodes"] = per_op(calls.get("Block.__init__", 0))
    m["lsm.table_reader.gets"] = per_op(
        calls.get("TableReader.get", 0) + calls.get("TableReader.get_at", 0)
    )
    lookups = d["block_cache.hits"] + d["block_cache.misses"]
    m["lsm.block_cache.lookups"] = per_op(lookups)
    m["lsm.block_cache.hit_ratio"] = (_ratio(d["block_cache.hits"], lookups), "ratio")
    m["mash.xwal.records"] = per_op(calls.get("XWalWriter.add_record", 0))
    checked = d["bloom.bloom_checked"]
    useful = d["bloom.bloom_useful"]
    fp = d["bloom.bloom_false_positive"]
    m["util.bloom.probes"] = per_op(checked)
    m["util.bloom.useful_ratio"] = (_ratio(useful, checked), "ratio")
    m["util.bloom.fp_rate"] = (_ratio(fp, useful + fp), "ratio")
    for kind in ("data", "meta"):
        hits = d[f"pcache.{kind}_hits"]
        looked = hits + d[f"pcache.{kind}_misses"]
        m[f"mash.pcache.{kind}_lookups"] = per_op(looked)
        m[f"mash.pcache.{kind}_hit_ratio"] = (_ratio(hits, looked), "ratio")
    m["mash.pcache.evictions"] = per_op(d["pcache.evictions"])
    m["mash.placement.demotions"] = per_op(d["placement.demotions"])
    m["mash.placement.upload_bytes"] = per_op(d.get("cloud.put_bytes", 0), "B/op")
    ra_gets = calls.get("ReadaheadBuffer.get", 0)
    m["mash.readahead.lookups"] = per_op(ra_gets)
    m["mash.readahead.hit_ratio"] = (_ratio(calls.get("ReadaheadBuffer.hit", 0), ra_gets), "ratio")
    m["mash.readahead.fetches"] = per_op(calls.get("ReadaheadBuffer.fetch", 0))
    m["storage.local.read_ops_per_op"] = per_op(d.get("local.read_ops", 0))
    m["storage.local.read_bytes_per_op"] = per_op(d.get("local.read_bytes", 0), "B/op")
    m["storage.cloud.get_ops_per_op"] = per_op(d.get("cloud.get_ops", 0))
    m["storage.cloud.get_bytes_per_op"] = per_op(d.get("cloud.get_bytes", 0), "B/op")
    m["storage.cloud.put_ops"] = per_op(d.get("cloud.put_ops", 0))
    m["storage.cloud.retries"] = per_op(d.get("cloud.retries", 0))
    for tier in ("local", "cloud", "cpu"):
        m[f"sim.tier.{tier}_s_per_op"] = per_op(d[f"tier.{tier}"], "s/op")
    m["bench.unattributed_s"] = per_op(wall - root_s, "s/op")
    m["bench.tracing_overhead_s"] = per_op(
        sum(r.wall_s - r.untraced_wall_s for r in rounds), "s/op"
    )
    return m


# -- the process ----------------------------------------------------------


def enough(units: int, timed: float, min_units: int, seconds: float) -> bool:
    """Stop after ``min_units`` once one more unit would overshoot
    ``seconds`` of timed phases by more than it falls short."""
    return units >= min_units and timed + timed / units / 2 >= seconds


class Checker:
    """Checks rounds against the oracle and collects what went wrong."""

    def __init__(self, spec: YCSBSpec) -> None:
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, rnd: Round) -> Verdict:
        verdict = verify(self.spec, rnd.phases(), rnd.main)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems.extend(verdict.errors)
        return verdict


def determinism_record(rnd: Round, summary: dict[str, Any]) -> dict[str, Any]:
    """What every execution of a sub-stream must reproduce bit for bit:
    each outcome and simulated latency of every phase, and the round's
    simulated metrics."""
    record = {k: v for k, v in summary.items() if k != "samples"}
    record["fingerprint"] = fingerprint(rnd.phases())
    return record


def replay(workload: Workload, seed: int, trace: bool, check: Checker) -> dict[str, Any]:
    """Sub-stream 0 in full, probes included: the other half of the
    cross-process check."""
    rnd = run_round(Inputs.generate(workload, seed, 0), LayerTracer() if trace else None)
    return {"determinism": determinism_record(rnd, sim_summary(rnd, check(rnd)))}


ROUND_BUDGET_S = 100.0
"""Host seconds of a process after which it starts no new round, once it
has the rounds it needs: keeps a run inside its deadline on a slow host."""


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            check: Checker) -> dict[str, Any]:
    """Rounds over sub-streams 0, 1, ... until the timed phases add up to
    about ``seconds``.  With ``trace``, each sub-stream also runs traced,
    and the two rounds must agree on every simulated result."""
    result: dict[str, Any] = {}
    sims: list[dict[str, Any]] = []
    walls: list[dict[str, Any]] = []
    traced_rounds: list[TracedRound] = []
    digests: list[str] = []
    min_rounds = 1 if trace else workload.streams
    started = time.perf_counter()
    timed = 0.0
    stream = 0
    while not enough(stream, timed, min_rounds, seconds):
        if stream >= min_rounds and time.perf_counter() - started > ROUND_BUDGET_S:
            break
        inputs = Inputs.generate(workload, seed, stream)
        rnd = run_round(inputs)
        summary = sim_summary(rnd, check(rnd))
        digests.append(summary["digest"])
        record = determinism_record(rnd, summary)
        if stream == 0:
            result["determinism"] = record
        timed += rnd.main.wall_s
        if trace:
            t_rnd = run_round(inputs, LayerTracer())
            if determinism_record(t_rnd, sim_summary(t_rnd, check(t_rnd))) != record:
                check.problems.append(f"sub-stream {stream}: traced and untraced rounds differ")
            tracer = t_rnd.tracer
            assert tracer is not None
            problem = tracer.conservation_problem(sum(t_rnd.main.wall))
            if problem is not None:
                check.problems.append(f"trace conservation broken: {problem}")
            user_bytes = sum(len(op.key) + len(op.value) for op in inputs.main
                             if KIND_GROUP[op.kind] == "write")
            traced_rounds.append(TracedRound(tracer, t_rnd.phase_deltas, len(inputs.main),
                                             user_bytes, t_rnd.main.wall_s, rnd.main.wall_s))
            timed += t_rnd.main.wall_s
        else:
            if stream < workload.streams:
                sims.append(summary)
            walls.append(wall_summary(rnd))
        stream += 1
    # Before pooling, which builds lists that grow with the number of rounds.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        result["layers"] = layer_metrics(traced_rounds)
    else:
        result["sim"] = sim_metrics(sims)
        result["wall"] = wall_metrics(walls)
    result["rounds"] = stream
    result["digests"] = digests
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", action="store_true",
                    help="only replay sub-stream 0 (the cross-process check)")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    check = Checker(workload.spec)
    if args.replay:
        result = replay(workload, args.seed, bool(args.trace), check)
    else:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), check)
    result.update(attempted=check.attempted, failed=check.failed, problems=check.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
