"""Trace context: ``TraceContext`` round trips and
:meth:`Tracer.current_context`, the calling thread's position that the
thread-parallel engine reads to parent its workers' spans."""

import threading

import pytest

from repro.errors import ObsError
from repro.obs.clock import ManualClock
from repro.obs.tracer import NULL_TRACER, TraceContext, Tracer


class TestTraceContext:
    def test_round_trip(self):
        ctx = TraceContext(
            trace_id="abc123", parent_span_id=7, baggage={"root": 3}
        )
        again = TraceContext.from_dict(ctx.as_dict())
        assert again == ctx

    def test_round_trip_without_parent(self):
        ctx = TraceContext(trace_id="abc123")
        again = TraceContext.from_dict(ctx.as_dict())
        assert again.parent_span_id is None
        assert again.baggage == {}

    def test_from_dict_coerces_types(self):
        ctx = TraceContext.from_dict(
            {"trace_id": "t", "parent_span_id": "12"}
        )
        assert ctx.parent_span_id == 12

    def test_malformed_payload_raises(self):
        with pytest.raises(ObsError):
            TraceContext.from_dict({"parent_span_id": 1})
        with pytest.raises(ObsError):
            TraceContext.from_dict("not a dict")


class TestCurrentContext:
    def test_empty_tracer_has_no_parent(self):
        tracer = Tracer(clock=ManualClock())
        ctx = tracer.current_context()
        assert ctx.trace_id == tracer.trace_id
        assert ctx.parent_span_id is None
        assert NULL_TRACER.current_context().parent_span_id is None

    def test_innermost_open_span_is_the_parent(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("outer") as outer:
            assert tracer.current_context().parent_span_id == outer.span_id
            with tracer.span("inner") as inner:
                assert (
                    tracer.current_context().parent_span_id == inner.span_id
                )
            assert tracer.current_context().parent_span_id == outer.span_id
        assert tracer.current_context().parent_span_id is None

    def test_baggage_kwargs_attach(self):
        tracer = Tracer(clock=ManualClock())
        ctx = tracer.current_context(workload="rmat-s8", child=1)
        assert ctx.baggage == {"workload": "rmat-s8", "child": 1}

    def test_other_threads_do_not_see_the_caller_span(self):
        tracer = Tracer(clock=ManualClock())
        seen = []
        with tracer.span("main"):
            t = threading.Thread(
                target=lambda: seen.append(
                    tracer.current_context().parent_span_id
                )
            )
            t.start()
            t.join(timeout=5)
        assert seen == [None]
