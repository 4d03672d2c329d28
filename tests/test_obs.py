"""Tests for the observability layer (repro.obs).

The contract verified here:

* spans nest (parent/child linkage), propagate across threads (via
  ``Tracer.propagate``) and asyncio tasks, and round-trip over the wire as
  ``traceparent`` headers -- malformed headers are dropped, never raised;
* the recorder is a bounded ring; ``chrome_trace`` renders any span set as
  valid Chrome trace-event JSON (one pid row per service);
* the structured logger filters by level, renders both human and JSON
  modes, and stamps records with the active trace/span ids;
* the metrics instruments survive concurrent updates without losing counts
  and render byte-exact Prometheus text exposition.
"""

import asyncio
import io
import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    Span,
    SpanContext,
    SpanRecorder,
    Tracer,
    chrome_trace,
    configure_logging,
    get_logger,
    parse_traceparent,
)
from repro.obs.logging import LEVELS


@pytest.fixture(autouse=True)
def _reset_logging():
    yield
    configure_logging()  # restore defaults for other test modules


class TestTraceContext:
    def test_traceparent_round_trip(self):
        context = SpanContext(trace_id="ab" * 16, span_id="cd" * 8)
        assert parse_traceparent(context.to_traceparent()) == context

    def test_traceparent_header_shape(self):
        header = SpanContext("ab" * 16, "cd" * 8).to_traceparent()
        assert header == f"00-{'ab' * 16}-{'cd' * 8}-01"

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-short-cdcdcdcdcdcdcdcd-01",
        f"00-{'g' * 32}-{'cd' * 8}-01",       # non-hex
        f"01-{'ab' * 16}-{'cd' * 8}",          # missing flags
        f"00-{'0' * 32}-{'cd' * 8}-01",        # all-zero trace id
        f"00-{'ab' * 16}-{'0' * 16}-01",       # all-zero span id
    ])
    def test_malformed_headers_drop_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_case_and_whitespace_are_tolerated(self):
        header = f"  00-{'AB' * 16}-{'CD' * 8}-01  "
        context = parse_traceparent(header)
        assert context is not None
        assert context.trace_id == "ab" * 16


class TestTracer:
    def test_root_span_starts_a_fresh_trace(self):
        tracer = Tracer(service="t")
        with tracer.span("root", answer=42) as span:
            assert span.parent_id is None
            assert len(span.trace_id) == 32
            assert len(span.span_id) == 16
            assert span.attrs == {"answer": 42}
        [recorded] = tracer.recorder.spans()
        assert recorded.name == "root"
        assert recorded.duration_s >= 0.0

    def test_nested_spans_share_the_trace_and_link_parents(self):
        tracer = Tracer(service="t")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        # After both exit, the context is clean: a new span is a new trace.
        with tracer.span("later") as later:
            assert later.trace_id != outer.trace_id
            assert later.parent_id is None

    def test_exception_marks_error_and_reraises(self):
        tracer = Tracer(service="t")
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        [span] = tracer.recorder.spans()
        assert span.status == "error"

    def test_disabled_tracer_yields_none_and_records_nothing(self):
        tracer = Tracer(service="t", enabled=False)
        with tracer.span("invisible") as span:
            assert span is None
        assert len(tracer.recorder) == 0
        assert tracer.current_traceparent() is None
        headers = {}
        tracer.inject_headers(headers)
        assert headers == {}

    def test_remote_parent_links_server_spans_to_the_caller(self):
        tracer = Tracer(service="t")
        header = SpanContext("ab" * 16, "cd" * 8).to_traceparent()
        with tracer.remote_parent(header):
            with tracer.span("handler") as span:
                assert span.trace_id == "ab" * 16
                assert span.parent_id == "cd" * 8
        assert tracer.current_context() is None

    def test_remote_parent_tolerates_garbage(self):
        tracer = Tracer(service="t")
        with tracer.remote_parent("not-a-header") as context:
            assert context is None
            with tracer.span("handler") as span:
                assert span.parent_id is None

    def test_inject_headers_adds_traceparent_inside_a_span(self):
        tracer = Tracer(service="t")
        with tracer.span("client") as span:
            headers = {"Content-Type": "application/json"}
            tracer.inject_headers(headers)
            assert headers["traceparent"] == \
                f"00-{span.trace_id}-{span.span_id}-01"

    def test_inject_headers_never_overrides_an_explicit_header(self):
        tracer = Tracer(service="t")
        pinned = f"00-{'ee' * 16}-{'ff' * 8}-01"
        with tracer.span("client"):
            headers = {"traceparent": pinned}
            tracer.inject_headers(headers)
            assert headers["traceparent"] == pinned

    def test_propagate_carries_context_into_a_thread(self):
        tracer = Tracer(service="t")
        seen = {}

        def work():
            with tracer.span("child") as span:
                seen["trace_id"] = span.trace_id
                seen["parent_id"] = span.parent_id

        with tracer.span("parent") as parent:
            thread = threading.Thread(target=tracer.propagate(work))
            thread.start()
            thread.join()
        assert seen == {"trace_id": parent.trace_id,
                        "parent_id": parent.span_id}

    def test_bare_threads_do_not_inherit_context(self):
        tracer = Tracer(service="t")
        seen = {}

        def work():
            with tracer.span("child") as span:
                seen["parent_id"] = span.parent_id

        with tracer.span("parent"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        assert seen["parent_id"] is None

    def test_asyncio_tasks_nest_under_the_spawning_span(self):
        tracer = Tracer(service="t")

        async def child():
            with tracer.span("task") as span:
                return span.trace_id, span.parent_id

        async def main():
            with tracer.span("loop") as outer:
                trace_id, parent_id = await asyncio.create_task(child())
                return outer, trace_id, parent_id

        outer, trace_id, parent_id = asyncio.run(main())
        assert trace_id == outer.trace_id
        assert parent_id == outer.span_id

    def test_span_dict_round_trip(self):
        tracer = Tracer(service="svc")
        with tracer.span("op", k="v"):
            pass
        [span] = tracer.recorder.spans()
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone.to_dict() == span.to_dict()


class TestSpanRecorder:
    def test_ring_keeps_only_the_newest_spans(self):
        recorder = SpanRecorder(capacity=3)
        tracer = Tracer(service="t", recorder=recorder)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [span.name for span in recorder.spans()] == ["s2", "s3", "s4"]
        assert len(recorder) == 3
        recorder.clear()
        assert recorder.spans() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)


class TestChromeTrace:
    def test_export_is_valid_json_with_one_pid_per_service(self):
        spans = []
        for service in ("cli", "worker-a", "worker-b"):
            tracer = Tracer(service=service)
            with tracer.span("op"):
                pass
            spans.extend(tracer.recorder.spans())
        document = json.loads(json.dumps(chrome_trace(spans)))
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == 3
        assert {e["pid"] for e in complete} == {1, 2, 3}
        assert {e["args"]["name"] for e in metadata} == \
            {"cli", "worker-a", "worker-b"}
        assert document["displayTimeUnit"] == "ms"

    def test_events_carry_ids_and_microsecond_times(self):
        tracer = Tracer(service="t")
        with tracer.span("op") as span:
            pass
        [event] = [e for e in chrome_trace(tracer.recorder.spans())
                   ["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["trace_id"] == span.trace_id
        assert event["ts"] == pytest.approx(span.start_s * 1e6)
        assert event["dur"] == pytest.approx(span.duration_s * 1e6)


class TestStructuredLogging:
    def test_json_mode_emits_one_parseable_object_per_line(self):
        sink = io.StringIO()
        configure_logging(level="debug", json_output=True, stream=sink)
        get_logger("test.json").info("thing.happened", count=3, name="x")
        record = json.loads(sink.getvalue())
        assert record["level"] == "info"
        assert record["logger"] == "test.json"
        assert record["event"] == "thing.happened"
        assert record["count"] == 3

    def test_records_carry_the_active_trace_ids(self):
        sink = io.StringIO()
        configure_logging(level="info", json_output=True, stream=sink)
        tracer = Tracer(service="t")
        from repro.obs import set_tracer
        previous = set_tracer(tracer)
        try:
            with tracer.span("op") as span:
                get_logger("test.corr").info("inside")
        finally:
            set_tracer(previous)
        record = json.loads(sink.getvalue())
        assert record["trace_id"] == span.trace_id
        assert record["span_id"] == span.span_id

    def test_level_filtering(self):
        sink = io.StringIO()
        configure_logging(level="warning", stream=sink)
        logger = get_logger("test.levels")
        logger.debug("dropped")
        logger.info("dropped")
        logger.warning("kept")
        logger.error("kept")
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert not logger.is_enabled("info")
        assert logger.is_enabled("error")

    def test_human_mode_renders_fields_inline(self):
        sink = io.StringIO()
        configure_logging(level="info", stream=sink)
        get_logger("test.human").info("srv.up", url="http://x:1", n=2)
        line = sink.getvalue()
        assert "INFO" in line and "srv.up" in line
        assert "url=http://x:1" in line and "n=2" in line

    def test_unknown_level_is_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="loud")

    def test_level_names_are_ordered(self):
        assert LEVELS == ("debug", "info", "warning", "error")

    def test_get_logger_is_memoized(self):
        assert get_logger("same") is get_logger("same")


class TestMetricsConcurrency:
    def test_concurrent_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", labelnames=("path",))
        threads = [threading.Thread(target=lambda: [
            counter.inc(path="/jobs") for _ in range(1000)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(path="/jobs") == 8000

    def test_concurrent_histogram_observations_are_not_lost(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "latency",
                                       buckets=(0.1, 1.0))
        threads = [threading.Thread(target=lambda: [
            histogram.observe(0.05) for _ in range(500)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count() == 4000

    def test_concurrent_registration_of_distinct_label_sets(self):
        registry = MetricsRegistry()
        counter = registry.counter("paths_total", "paths", labelnames=("path",))
        errors = []

        def bump(index):
            try:
                for _ in range(200):
                    counter.inc(path=f"/p{index}")
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        threads = [threading.Thread(target=bump, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(counter.value(path=f"/p{i}") == 200 for i in range(8))


class TestPrometheusRender:
    def test_counter_render_golden(self):
        registry = MetricsRegistry()
        counter = registry.counter("loom_requests_total",
                                   "Requests served.", labelnames=("path",))
        counter.inc(path="/jobs")
        counter.inc(2, path="/stats")
        assert registry.render() == (
            "# HELP loom_requests_total Requests served.\n"
            "# TYPE loom_requests_total counter\n"
            'loom_requests_total{path="/jobs"} 1\n'
            'loom_requests_total{path="/stats"} 2\n'
        )

    def test_gauge_and_histogram_render_golden(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("loom_queue_depth", "Queue depth.")
        gauge.set(4)
        histogram = registry.histogram(
            "loom_wait_seconds", "Wait time.", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert registry.render() == (
            "# HELP loom_queue_depth Queue depth.\n"
            "# TYPE loom_queue_depth gauge\n"
            "loom_queue_depth 4\n"
            "# HELP loom_wait_seconds Wait time.\n"
            "# TYPE loom_wait_seconds histogram\n"
            'loom_wait_seconds_bucket{le="0.1"} 1\n'
            'loom_wait_seconds_bucket{le="1"} 2\n'
            'loom_wait_seconds_bucket{le="+Inf"} 3\n'
            "loom_wait_seconds_sum 5.55\n"
            "loom_wait_seconds_count 3\n"
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", "esc", labelnames=("v",))
        counter.inc(v='say "hi"\nback\\slash')
        rendered = registry.render()
        assert '\\"hi\\"' in rendered
        assert "\\n" in rendered
        assert "\\\\slash" in rendered

