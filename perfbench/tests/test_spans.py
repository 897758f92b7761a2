"""The tracer's bookkeeping: self time, transparent wrappers, absent targets."""

from types import SimpleNamespace

import pytest

import layers
from spans import Tracer


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_only_direct_children():
    # outer 0..20 holds mid 1..11 (which holds inner 2..8) and a second
    # inner 12..15.
    tracer = Tracer(clock=scripted_clock(0, 1, 2, 8, 11, 12, 15, 20))
    with tracer.span("outer"):
        with tracer.span("mid"):
            with tracer.span("inner"):
                pass
        with tracer.span("inner"):
            pass
    stats = tracer.stats
    assert (stats["outer"].calls, stats["outer"].total_s, stats["outer"].self_s) == (1, 20, 7)
    assert (stats["mid"].total_s, stats["mid"].self_s) == (10, 4)
    assert (stats["inner"].calls, stats["inner"].total_s, stats["inner"].self_s) == (2, 9, 9)


def test_span_closes_when_the_body_raises():
    tracer = Tracer(clock=scripted_clock(0, 1, 3, 4))
    with tracer.span("outer"):
        with pytest.raises(KeyError):
            with tracer.span("inner"):
                raise KeyError("x")
    assert tracer.stats["inner"].total_s == 2
    assert tracer.stats["outer"].self_s == 2


def test_wrappers_return_the_wrapped_value_unchanged():
    result = object()
    module = SimpleNamespace(f=lambda x, *, y: (result, x, y))

    class Box:
        def get(self, n):
            return [result] * n

    def items(n):
        yield from range(n)

    module.items = items
    original_f, original_get = module.f, Box.get
    tracer = Tracer()
    assert not tracer.wrap(module, "missing", "missing")
    tracer.wrap(module, "f", "f", count=lambda a, k, r: {"f.x": a[0]})
    tracer.wrap(Box, "get", lambda a, k: f"get.{a[1]}")
    tracer.wrap_generator(module, "items", "items", count=lambda item: {"n": 1})

    assert module.f(3, y=4) == (result, 3, 4)
    assert module.f(3, y=4)[0] is result
    assert Box().get(2)[1] is result
    assert list(module.items(3)) == [0, 1, 2]
    assert tracer.stats["f"].calls == 2 and tracer.counters["f.x"] == 6
    assert tracer.stats["get.2"].calls == 1
    assert tracer.stats["items"].calls == 4  # three items, then the end
    assert tracer.counters["n"] == 3

    tracer.restore()
    assert module.f is original_f and Box.get is original_get
    assert module.items is items


def test_missing_targets_are_reported_absent(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", (
        ("gone", "headlab.engine:no_such_function", None),
        ("gone", "headlab.scene:NoSuchClass.method", None),
        ("gone", "headlab.no_such_module:f", None),
        ("engine.ddim_step", "headlab.engine:ddim_step", None),
    ))
    monkeypatch.setattr(layers, "GENERATOR_TARGETS", ())
    tracer = Tracer()
    absent = layers.install(tracer)
    try:
        assert absent == ["headlab.engine:no_such_function",
                          "headlab.scene:NoSuchClass.method",
                          "headlab.no_such_module:f"]
        metrics = layers.per_layer_metrics(tracer.stats, tracer.counters, {},
                                           0.0, len(absent))
        assert metrics["trace.absent_targets"] == 3
        assert metrics["engine.ddim_step.calls"] == 0
    finally:
        tracer.restore()
