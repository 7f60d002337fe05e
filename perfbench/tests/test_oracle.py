"""The oracle catches a store that corrupts one returned value."""

from bench import Oracle, run_phase, verify
from repro.bench.harness import HarnessKnobs, make_store
from repro.workloads.ycsb import WORKLOAD_A, WORKLOAD_E, Op, iter_ops, load_phase

SPEC = WORKLOAD_A.scaled(300, 400)


class CorruptOneRead:
    """Delegates to a store, flipping a byte of the ``nth`` read value."""

    def __init__(self, store, nth):
        self._store = store
        self._nth = nth
        self._reads = 0
        self.clock = store.clock

    def get(self, key):
        value = self._store.get(key)
        self._reads += 1
        if self._reads == self._nth and value:
            value = bytes([value[0] ^ 1]) + value[1:]
        return value

    def __getattr__(self, name):
        return getattr(self._store, name)


def run(spec, wrap=None):
    store = make_store("rocksmash", HarnessKnobs())
    load_phase(store, spec, sync=True)
    target = wrap(store) if wrap else store
    phase = run_phase(target, list(iter_ops(spec, seed=7)))
    return verify(spec, [phase], phase)


def test_correct_store_passes_and_digest_repeats():
    first, second = run(SPEC), run(SPEC)
    assert first.failed == 0 and first.attempted == SPEC.operation_count
    assert first.digest == second.digest


def test_one_corrupted_value_fails_the_check():
    clean = run(SPEC)
    bad = run(SPEC, wrap=lambda s: CorruptOneRead(s, nth=5))
    assert bad.failed == 1
    assert bad.digest != clean.digest
    assert bad.errors and bad.errors[0].startswith("read")


def test_scans_are_checked_against_the_oracle():
    spec = WORKLOAD_E.scaled(300, 200)

    class DropLastRow:
        def __init__(self, store):
            self._store = store
            self.clock = store.clock

        def scan(self, *a, **k):
            return self._store.scan(*a, **k)[:-1]

        def __getattr__(self, name):
            return getattr(self._store, name)

    assert run(spec).failed == 0
    assert run(spec, wrap=DropLastRow).failed > 0


def test_an_operation_that_raises_counts_as_failed():
    class Broken:
        def __init__(self, store):
            self._store = store
            self.clock = store.clock

        def put(self, *a, **k):
            raise OSError("disk gone")

        def __getattr__(self, name):
            return getattr(self._store, name)

    verdict = run(SPEC, wrap=Broken)
    writes = sum(1 for op in iter_ops(SPEC, seed=7) if op.kind == "update")
    assert verdict.failed >= writes


def test_oracle_applies_acknowledged_writes():
    oracle = Oracle(WORKLOAD_A.scaled(3, 1))
    op = next(o for o in iter_ops(WORKLOAD_A.scaled(3, 50), seed=1) if o.kind == "update")
    assert oracle.check(op, None)
    assert oracle.check(Op("read", op.key), op.value)
    assert not oracle.check(Op("read", op.key), b"stale")
