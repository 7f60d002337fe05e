"""Self-time arithmetic, generator spans, and wrapper install/restore."""

import itertools

import pytest

from layers import WRAP_PLAN, LayerTracer, traced


def scripted(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds mid [1, 7], which holds inner [2, 5].
    t = LayerTracer(clock=scripted([0, 1, 2, 5, 7, 10]))
    outer = t.enter("a")
    mid = t.enter("b")
    inner = t.enter("c")
    t.exit(inner)
    t.exit(mid)
    t.exit(outer)
    assert t.self_s == {"c": 3, "b": 3, "a": 4}
    assert t.inclusive_s == {"c": 3, "b": 6, "a": 10}
    assert t.root_s == 10
    assert t.conservation_problem(busy_s=10.0) is None
    assert "exceed" in t.conservation_problem(busy_s=9.0)
    spans = {name: (sid, parent) for sid, parent, name, _, _ in t.spans}
    assert spans["c"][1] == spans["b"][0] and spans["b"][1] == spans["a"][0]
    assert spans["a"][1] == 0


def test_an_unclosed_span_breaks_conservation():
    t = LayerTracer(clock=scripted([0, 1, 2, 3]))
    outer = t.enter("a")
    t.enter("b")  # never closed, e.g. a generator wrapper that leaked a frame
    assert "open" in t.conservation_problem(busy_s=5.0)
    assert outer.layer == "a"


def test_same_layer_nesting_counts_inclusive_time_once():
    t = LayerTracer(clock=scripted([0, 2, 6, 9]))
    outer = t.enter("flush")
    inner = t.enter("flush")
    t.exit(inner)
    t.exit(outer)
    assert t.inclusive_s == {"flush": 9}
    assert t.self_s == {"flush": 9}


def test_generator_spans_time_each_resume_not_the_consumer():
    ticks = itertools.count()
    t = LayerTracer(clock=lambda: float(next(ticks)))

    def produce():
        for i in range(3):
            child = t.enter("child")  # work the generator delegates
            t.exit(child)
            yield i

    wrapped = t.wrap(produce, "gen", "produce")
    consumer = t.enter("consumer")
    items = []
    for item in wrapped():
        t.clock()  # the consumer spends time between items
        items.append(item)
    t.exit(consumer)
    assert items == [0, 1, 2]
    assert t.open_spans == 0
    # Four resumes (three items + exhaustion) and one close, plus the call.
    gen_spans = [s for s in t.spans if s[2] == "gen"]
    assert len(gen_spans) == 6
    assert t.calls == {"produce": 1}
    total = sum(t.self_s.values())
    assert total == pytest.approx(t.root_s)
    # The consumer's own ticks stay in its self time, not the generator's.
    gen_incl = sum(end - start for _, _, name, start, end in t.spans if name == "gen")
    assert t.self_s["gen"] == pytest.approx(gen_incl - t.self_s["child"])
    assert t.self_s["consumer"] >= 3


def test_generator_close_and_throw_are_forwarded():
    t = LayerTracer()
    cleaned = []

    def produce():
        try:
            yield 1
            yield 2
        finally:
            cleaned.append(True)

    gen = t.wrap(produce, "gen", "produce")()
    assert next(gen) == 1
    gen.close()
    assert cleaned == [True] and t.open_spans == 0

    def catcher():
        try:
            yield 1
        except KeyError:
            yield "caught"

    gen = t.wrap(catcher, "gen", "catcher")()
    next(gen)
    assert gen.throw(KeyError()) == "caught"
    assert t.open_spans == 0


def test_wrappers_are_removed_after_the_phase_even_on_error():
    import importlib

    def current(module, owner, attr):
        mod = importlib.import_module(module)
        return (getattr(mod, owner).__dict__ if owner else vars(mod))[attr]

    before = {(m, o, a): current(m, o, a) for m, o, a, _ in WRAP_PLAN}
    with pytest.raises(RuntimeError):
        with traced(LayerTracer()):
            assert any(current(m, o, a) is not f for (m, o, a), f in before.items())
            raise RuntimeError("boom")
    assert all(current(m, o, a) is f for (m, o, a), f in before.items())


def test_tracing_changes_neither_outcomes_nor_simulated_latencies():
    from bench import Inputs, Workload, fingerprint, run_round
    from repro.workloads.ycsb import WORKLOAD_E

    workload = Workload("tiny-e", WORKLOAD_E.scaled(2_000, 150), streams=1, probe_ops=20,
                        warm_up_reads=50)
    inputs = Inputs.generate(workload, seed=3, stream=0)
    plain = run_round(inputs)
    tracer = LayerTracer()
    with_trace = run_round(inputs, tracer)
    assert fingerprint(plain.phases()) == fingerprint(with_trace.phases())
    assert tracer.conservation_problem(sum(with_trace.main.wall)) is None
    assert tracer.calls.get("DB.scan", 0) > 0 and tracer.self_s.get("lsm.block", 0) > 0



class _ZeroFile:
    """Random-access file of zero bytes: blocks with no compression."""

    def read(self, offset, length):
        return bytes(length)


def test_readahead_hits_exclude_calls_that_fetch():
    from repro.lsm.format import BLOCK_TRAILER_SIZE, BlockHandle
    from repro.mash.readahead import ReadaheadBuffer

    size = 100
    handles = [BlockHandle(i * (size + BLOCK_TRAILER_SIZE), size) for i in range(8)]
    buffer = ReadaheadBuffer(_ZeroFile(), verify=False)
    t = LayerTracer()
    plan = (("repro.mash.readahead", "ReadaheadBuffer", "get", "mash.readahead"),)
    with traced(t, plan):
        served = [buffer.get(h) is not None for h in handles]
    # Two accesses prove the run; the third fetches one 4 KiB range and is
    # served from it, the other five are served from the buffer.
    assert served == [False, False] + [True] * 6
    assert t.calls["ReadaheadBuffer.get"] == 8
    assert t.calls["ReadaheadBuffer.fetch"] == 1
    assert t.calls["ReadaheadBuffer.hit"] == 5
