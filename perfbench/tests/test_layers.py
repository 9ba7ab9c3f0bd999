"""Self-time accounting and install/remove of the timing wrappers."""

import sys
import types

import pytest

from layers import PREFIX, SPANS, LayerClock, Span


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_module(monkeypatch):
    clock = FakeClock()
    mod = types.ModuleType("perfbench_fake_layer")

    class Engine:
        def advance(self, n):
            clock.now += n
            return n

    class Machine:
        def run(self, engine):
            clock.now += 5
            engine.advance(7)
            clock.now += 3
            engine.advance(2)
            return "done"

    def helper():
        clock.now += 4
        return [1, 2, 3]

    mod.Engine, mod.Machine, mod.helper = Engine, Machine, helper
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    spans = (
        Span("outer", mod.__name__, "Machine", "run"),
        Span("inner", mod.__name__, "Engine", "advance", "inner.units",
             lambda args, result, before: float(result)),
        Span("free", mod.__name__, "", "helper", "free.items",
             lambda args, result, before: float(len(result))),
    )
    return clock, mod, spans


def test_self_time_subtracts_nested_wrapped_calls(fake_module):
    clock, mod, spans = fake_module
    lc = LayerClock(clock=clock)
    with lc.installed(spans):
        assert mod.Machine().run(mod.Engine()) == "done"
    c = lc.parent_counters
    assert c[PREFIX + "inner.ns"] == 9
    assert c[PREFIX + "inner.calls"] == 2
    assert c[PREFIX + "inner.units"] == 9
    # 17 ns elapsed in run, 9 of them inside the nested advance calls.
    assert c[PREFIX + "outer.ns"] == 8
    assert c[PREFIX + "outer.calls"] == 1


def test_module_level_function_is_wrapped_where_looked_up(fake_module):
    clock, mod, spans = fake_module
    lc = LayerClock(clock=clock)
    with lc.installed(spans):
        assert mod.helper() == [1, 2, 3]
    assert lc.parent_counters[PREFIX + "free.ns"] == 4
    assert lc.parent_counters[PREFIX + "free.items"] == 3


def test_counters_go_to_the_attempt_context_when_present(fake_module):
    from repro.obs.metrics import MetricsRegistry

    clock, mod, spans = fake_module
    obs = types.SimpleNamespace(registry=MetricsRegistry())
    lc = LayerClock(clock=clock, context=lambda: obs)
    with lc.installed(spans):
        mod.Engine().advance(6)
    assert obs.registry.counter(PREFIX + "inner.ns").value == 6
    assert lc.parent_counters == {}


def test_exception_still_records_and_unwinds_stack(fake_module):
    clock, mod, spans = fake_module

    def boom(self, n):
        clock.now += n
        raise ValueError("boom")

    mod.Engine.advance = boom
    lc = LayerClock(clock=clock)
    with lc.installed(spans):
        with pytest.raises(ValueError):
            mod.Engine().advance(3)
        mod.helper()
    assert lc.parent_counters[PREFIX + "inner.ns"] == 3
    assert lc.parent_counters[PREFIX + "free.ns"] == 4


def test_wrappers_removed_afterwards(fake_module):
    _clock, mod, spans = fake_module
    originals = (mod.Machine.run, mod.Engine.advance, mod.helper)
    lc = LayerClock()
    with lc.installed(spans):
        assert mod.Machine.run is not originals[0]
    assert (mod.Machine.run, mod.Engine.advance, mod.helper) == originals
    lc.install(spans)  # re-installable after removal
    lc.remove()
    assert mod.helper is originals[2]


def test_real_spans_are_restored():
    import importlib

    def current():
        out = []
        for span in SPANS:
            module = importlib.import_module(span.module)
            target = getattr(module, span.owner) if span.owner else module
            out.append(vars(target)[span.attr])
        return out

    before = current()
    lc = LayerClock()
    with lc.installed():
        during = current()
        assert all(a is not b for a, b in zip(before, during))
        with pytest.raises(RuntimeError):
            lc.install()
    assert all(a is b for a, b in zip(before, current()))
