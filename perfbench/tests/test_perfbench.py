"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os

import pytest

from perfbench import hostspeed, layers, measure
from perfbench.run import END_TO_END, PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class FakeClock:
    """A clock that only moves when a test advances it."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, amount: int) -> None:
        self.now += amount


# -- normaliser ---------------------------------------------------------------

def test_scale_uses_mean_of_the_readings_either_side():
    # Host ran at 0.006 s then 0.004 s per loop: mean 0.005 = nominal.
    assert hostspeed.scale(0.2, 0.006, 0.004, 0.005) == pytest.approx(0.2)
    # A host twice as slow as nominal has its times halved.
    assert hostspeed.scale(0.2, 0.010, 0.010, 0.005) == pytest.approx(0.1)


def test_scale_rejects_nonpositive_readings():
    with pytest.raises(ValueError):
        hostspeed.scale(1.0, 0.0, 0.005, 0.005)


def test_segments_give_the_same_total_on_a_fixed_input():
    def run() -> tuple:
        ticks = iter([0.0, 0.004,           # first calibration: 4 ms
                      0.004, 0.104,         # segment of 100 ms raw
                      0.104, 0.110,         # calibration: 6 ms
                      0.110, 0.310,         # segment of 200 ms raw
                      0.310, 0.316,         # calibration: 6 ms
                      0.316])               # next segment opens
        speed = hostspeed.HostSpeed(0.005, clock=lambda: next(ticks))
        segments = hostspeed.Segments(speed)
        segments.checkpoint()
        segments.checkpoint()
        return segments.total, segments.raw, speed.readings

    total, raw, readings = run()
    assert readings == pytest.approx([0.004, 0.006, 0.006])
    assert raw == pytest.approx(0.3)
    # 0.1 * 0.005 / 0.005 + 0.2 * 0.005 / 0.006
    assert total == pytest.approx(0.1 + 0.2 * 5 / 6)
    assert run() == (total, raw, readings)


def test_calibration_constant_matches_the_loop():
    assert hostspeed.nominal_seconds() > 0.0


# -- generator-aware layer wrapper ---------------------------------------------

def _toy_chain(clock: FakeClock, tracer: layers.LayerTracer):
    """Three generator layers: outer -> middle -> inner, each doing its
    own known amount of work around a yield."""

    def inner():
        clock.advance(1)
        got = yield "inner-wait"
        clock.advance(2)
        return got * 10

    def middle():
        clock.advance(10)
        value = yield from traced_inner()
        clock.advance(20)
        return value + 1

    def outer():
        clock.advance(100)
        value = yield from traced_middle()
        clock.advance(200)
        return value

    traced_inner = tracer.wrap("inner", inner)
    traced_middle = tracer.wrap("middle", middle)
    return tracer.wrap("outer", outer)


def test_wrapper_charges_nested_generator_layers_exclusively():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)
    outer = _toy_chain(clock, tracer)
    tracer.begin()
    generator = outer()
    clock.advance(5)                       # kernel work before starting
    assert generator.send(None) == "inner-wait"
    clock.advance(7)                       # kernel work while suspended
    with pytest.raises(StopIteration) as stop:
        generator.send(4)
    tracer.end()
    assert stop.value.value == 41
    assert tracer.self_ns == {"outer": 300, "middle": 30, "inner": 3,
                              layers.OTHER: 12}
    assert tracer.depth == 0
    # Exclusive charging: the parts add up to the elapsed clock.
    assert layers.closure_gap(sum(tracer.self_ns.values()), clock.now) == 0.0


def test_wrapper_forwards_throw_and_close():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def body():
        try:
            yield 1
        except KeyError:
            clock.advance(3)
            yield 2
        yield 3

    traced = tracer.wrap("layer", body)
    tracer.begin()
    generator = traced()
    assert next(generator) == 1
    assert generator.throw(KeyError()) == 2
    generator.close()
    tracer.end()
    assert tracer.self_ns["layer"] == 3
    assert tracer.depth == 0


def test_wrapper_counts_only_inside_a_window():
    tracer = layers.LayerTracer(clock=FakeClock())
    counted = tracer.counter("calls", lambda x: x + 1)
    assert counted(1) == 2
    tracer.begin()
    counted(1)
    tracer.end()
    assert tracer.take()[1] == {"calls": 1}


def test_probes_restore_patched_attributes():
    class Owner:
        def method(self):
            return "original"

    original = Owner.__dict__["method"]
    tracer = layers.LayerTracer(clock=FakeClock())
    with layers.Probes() as probes:
        probes.patch(Owner, "method", tracer.wrap("x", original))
        assert Owner.__dict__["method"] is not original
        assert Owner().method() == "original"
    assert Owner.__dict__["method"] is original


# -- the ten-samples-beyond rule ----------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(measure.TooFewSamples):
        measure.tail_percentile([float(x) for x in range(999)], 0.99)
    assert measure.samples_beyond(1000, 0.99) == 10
    assert measure.tail_percentile([float(x) for x in range(1000)],
                                   0.99) == 989.0


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert measure.percentile(values, 0.5) == 3.0
    assert measure.percentile(values, 1.0) == 5.0


# -- the benchmark's declared metrics -------------------------------------------

def test_benchmark_json_lists_exactly_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
