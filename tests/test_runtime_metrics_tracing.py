"""Unit tests for the runtime observability layer (metrics + tracing)."""

import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.runtime import (
    ListSink,
    MetricsRegistry,
    RingBufferSink,
    Tracer,
    write_snapshot,
)
from repro.runtime.metrics import Histogram


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestCounterGauge:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        assert reg.snapshot()["counters"]["c"] == 3.5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ReproError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.snapshot() == 3.0

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


class TestHistogram:
    def test_buckets_cumulative(self):
        h = Histogram("h", buckets=[1.0, 10.0])
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"le_1": 2, "le_10": 3, "le_inf": 4}
        assert snap["min"] == 0.5 and snap["max"] == 50.0
        assert snap["mean"] == pytest.approx(56.2 / 4)

    def test_empty_histogram_snapshot(self):
        snap = Histogram("h", buckets=[1.0]).snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ReproError):
            Histogram("h", buckets=[2.0, 1.0])


class TestSnapshotRoundTrip:
    def test_snapshot_survives_json(self):
        reg = MetricsRegistry()
        reg.counter("ranks.completed").inc(4)
        reg.gauge("ranks.total").set(4)
        reg.histogram("rank.elapsed_s", buckets=[0.1, 1.0]).observe(0.05)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_write_snapshot_file(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("edges").inc(480)
        path = write_snapshot(tmp_path / "m.json", reg.snapshot())
        loaded = json.loads(Path(path).read_text())
        assert loaded["counters"]["edges"] == 480

    def test_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestTracer:
    def test_nested_spans_record_parent_and_depth(self):
        clock = FakeClock()
        sink = ListSink()
        tracer = Tracer(sink, clock=clock)
        with tracer.span("outer", ranks=2):
            clock.advance(1.0)
            with tracer.span("inner", rank=0):
                clock.advance(0.25)
            clock.advance(1.0)
        inner, outer = sink.spans
        assert (inner.name, inner.parent, inner.depth) == ("inner", "outer", 1)
        assert (outer.name, outer.parent, outer.depth) == ("outer", None, 0)
        assert inner.elapsed_s == pytest.approx(0.25)
        assert outer.elapsed_s == pytest.approx(2.25)
        assert outer.attributes == {"ranks": 2}

    def test_span_to_dict_is_json_ready(self):
        clock = FakeClock()
        sink = ListSink()
        tracer = Tracer(sink, clock=clock)
        with tracer.span("op", rank=3):
            clock.advance(0.5)
        d = sink.spans[0].to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["attributes"] == {"rank": 3}

    def test_current_span(self):
        tracer = Tracer(ListSink())
        assert tracer.current is None
        with tracer.span("a") as s:
            assert tracer.current is s
        assert tracer.current is None

    def test_default_tracer_helper(self):
        from repro.runtime import DEFAULT_TRACER, span

        before = len(DEFAULT_TRACER.sink.spans("helper.test"))
        with span("helper.test"):
            pass
        assert len(DEFAULT_TRACER.sink.spans("helper.test")) == before + 1


class TestRingBufferSink:
    def test_evicts_oldest(self):
        clock = FakeClock()
        sink = RingBufferSink(capacity=2)
        tracer = Tracer(sink, clock=clock)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                clock.advance(0.1)
        assert [s.name for s in sink.spans()] == ["b", "c"]

    def test_filter_by_name(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        with tracer.span("x"):
            pass
        with tracer.span("y"):
            pass
        assert [s.name for s in sink.spans("y")] == ["y"]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ReproError):
            RingBufferSink(0)
