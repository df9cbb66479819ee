"""Tests of the unified telemetry subsystem.

Covers the metrics registry (labelled series, snapshot round-trips, the
injectable monotonic clock), the span tracer (parent/child trees,
category inheritance, the comparable cell sequence, Chrome trace export),
the Prometheus text exporter, the bench-trend series with its regression
gate, the durable lifecycle event log, the heartbeat worker's error
reporting, the ``MetricsObserver`` bridge, the fingerprint memoisation
satellites, the telemetry status page and the new CLI commands.
"""

import json
import os
import threading

import pytest

from repro._common import ReproError, SchedulingError
from repro.cli import main as cli_main
from repro.scheduler.lifecycle import (
    EVENT_CELL_COMPLETED,
    EVENT_HEARTBEAT,
    EVENT_TENANT_THROTTLED,
    FileEventSink,
    LifecycleEvent,
    PluginRegistry,
    read_event_log,
)
from repro.storage.common_storage import CommonStorage
from repro.telemetry import (
    MetricsObserver,
    MetricsRegistry,
    NULL_TELEMETRY,
    SpanTracer,
    Telemetry,
    check_series,
    check_trends,
    prometheus_text,
    read_trend_series,
    record_trend,
)


class FakeClock:
    """A hand-stepped monotonic clock for deterministic durations."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestMetricsRegistry:
    def test_counters_gauges_and_labels(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.increment("cells_total", outcome="passed")
        registry.increment("cells_total", outcome="passed")
        registry.increment("cells_total", amount=3, outcome="failed")
        registry.set_gauge("queue_depth", 7)
        assert registry.counter_value("cells_total", outcome="passed") == 2
        assert registry.counter_value("cells_total", outcome="failed") == 3
        assert registry.counter_value("cells_total", outcome="skipped") == 0
        assert registry.gauge_value("queue_depth") == 7.0
        assert registry.gauge_value("missing") is None

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.increment("tasks", backend="threads", tenant="h1")
        registry.increment("tasks", tenant="h1", backend="threads")
        assert registry.counter_value("tasks", tenant="h1", backend="threads") == 2

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.declare_histogram("wait", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 5.0, 50.0):
            registry.observe("wait", value)
        series = registry.histogram("wait")
        assert series.counts == [1, 1, 1, 1]  # one overflow beyond 10.0
        assert series.count == 4
        assert series.minimum == 0.05
        assert series.maximum == 50.0
        assert series.mean == pytest.approx(55.55 / 4)

    def test_time_block_observes_the_injected_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        with registry.time_block("build_seconds", package="reco"):
            clock.advance(2.5)
        series = registry.histogram("build_seconds", package="reco")
        assert series.count == 1
        assert series.total == pytest.approx(2.5)

    def test_snapshot_round_trip_is_exact(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        registry.increment("cells_total", outcome="passed")
        registry.set_gauge("cache_bytes", 12345, backend="threads")
        registry.declare_histogram("wait", buckets=[0.5, 2.0])
        registry.observe("wait", 0.25, tenant="h1")
        registry.observe("wait", 3.0, tenant="h1")
        clock.advance(1.0)
        registry.increment("cells_total", outcome="passed")
        restored = MetricsRegistry.from_dict(registry.to_dict(), clock=FakeClock())
        assert restored.to_dict() == registry.to_dict()

    def test_summary_rows_render_every_kind(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.increment("cells_total", outcome="passed")
        registry.set_gauge("queue_depth", 2)
        registry.observe("wait", 0.5)
        kinds = [row[0] for row in registry.summary_rows()]
        assert kinds == ["counter", "gauge", "histogram"]
        labels = [row[1] for row in registry.summary_rows()]
        assert "cells_total{outcome=passed}" in labels


class TestSpanTracer:
    def test_parent_child_tree_and_self_seconds(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("outer", category="cell"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(2.0)
            clock.advance(0.5)
        inner, outer = tracer.spans
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        # An unadorned child inherits the parent's category.
        assert inner.category == "cell"
        assert outer.duration == pytest.approx(3.5)
        assert outer.child_seconds == pytest.approx(2.0)
        assert outer.self_seconds == pytest.approx(1.5)

    def test_sequence_filters_by_category_and_keeps_attributes(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("cell_validate", category="cell", experiment="H1"):
            pass
        with tracer.span("backend_dispatch", category="dispatch"):
            pass
        with tracer.span("cache_probe", category="cell", package="reco"):
            pass
        assert tracer.sequence(category="cell") == (
            ("cell_validate", (("experiment", "H1"),)),
            ("cache_probe", (("package", "reco"),)),
        )
        assert len(tracer.sequence()) == 3

    def test_phase_rows_aggregate_by_category_and_name(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        for _ in range(3):
            with tracer.span("probe", category="cell"):
                clock.advance(1.0)
        with tracer.span("dispatch", category="dispatch"):
            clock.advance(5.0)
        rows = tracer.phase_rows()
        # Sorted by descending cumulative seconds.
        assert rows[0][:4] == ["dispatch", "dispatch", 1, 5.0]
        assert rows[1][:4] == ["cell", "probe", 3, 3.0]

    def test_chrome_trace_document_shape(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("build", category="cell", task="reco"):
            clock.advance(0.002)
        document = tracer.chrome_trace()
        assert document["displayTimeUnit"] == "ms"
        (event,) = document["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "build"
        assert event["cat"] == "cell"
        assert event["dur"] == pytest.approx(2000.0)
        assert event["args"] == {"task": "reco"}
        # The document must be JSON-serialisable as-is.
        json.dumps(document)

    def test_threads_get_separate_stacks(self):
        tracer = SpanTracer(clock=FakeClock())

        def worker():
            with tracer.span("child_thread_span", category="dispatch"):
                pass

        with tracer.span("main_span", category="cell"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        threaded = next(s for s in tracer.spans if s.name == "child_thread_span")
        # Parentage never crosses threads, and the category is its own.
        assert threaded.parent_id is None
        assert threaded.category == "dispatch"
        assert threaded.thread != 0

    def test_reset_drops_finished_spans(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("one"):
            pass
        tracer.reset()
        assert tracer.spans == []
        assert tracer.sequence() == ()


class TestNullTelemetry:
    def test_null_bundle_is_inert(self):
        assert NULL_TELEMETRY.enabled is False
        with NULL_TELEMETRY.tracer.span("anything", category="cell"):
            NULL_TELEMETRY.metrics.increment("counter")
            NULL_TELEMETRY.metrics.observe("histogram", 1.0)
        assert NULL_TELEMETRY.tracer.sequence() == ()
        assert NULL_TELEMETRY.metrics.counter_value("counter") == 0.0
        assert NULL_TELEMETRY.metrics.summary_rows() == []

    def test_system_default_is_the_null_bundle(self):
        from repro.core.spsystem import SPSystem

        system = SPSystem()
        assert system.telemetry.enabled is False


class TestPrometheusExport:
    def test_counters_gauges_and_histograms_render(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.increment("cells_total", amount=5, outcome="passed")
        registry.set_gauge("cache_bytes", 1024.5)
        registry.declare_histogram("wait_seconds", buckets=[0.1, 1.0])
        registry.observe("wait_seconds", 0.05)
        registry.observe("wait_seconds", 0.5)
        registry.observe("wait_seconds", 5.0)
        text = prometheus_text(registry)
        assert '# TYPE repro_cells_total counter' in text
        assert 'repro_cells_total{outcome="passed"} 5' in text
        assert "# TYPE repro_cache_bytes gauge" in text
        assert "repro_cache_bytes 1024.5" in text
        assert "# TYPE repro_wait_seconds histogram" in text
        assert 'repro_wait_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_wait_seconds_bucket{le="1"} 2' in text
        assert 'repro_wait_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_wait_seconds_sum 5.55" in text
        assert "repro_wait_seconds_count 3" in text
        assert text.endswith("\n")

    def test_type_line_appears_once_per_family(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.increment("cells_total", outcome="passed")
        registry.increment("cells_total", outcome="failed")
        text = prometheus_text(registry)
        assert text.count("# TYPE repro_cells_total counter") == 1

    def test_names_and_labels_are_sanitised(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.increment("weird-metric.name", **{"bad-label": 'va"lue'})
        text = prometheus_text(registry)
        assert "repro_weird_metric_name" in text
        assert 'bad_label="va\\"lue"' in text


class TestTrendSeries:
    def test_record_and_read_round_trip(self, tmp_path):
        directory = str(tmp_path)
        path = record_trend(
            "cells_per_second", 120.5, "higher_is_better",
            unit="cells/s", context={"backend": "simulated"},
            directory=directory,
        )
        record_trend(
            "cells_per_second", 118.0, "higher_is_better", directory=directory
        )
        points = read_trend_series(path)
        assert [point["value"] for point in points] == [120.5, 118.0]
        assert points[0]["context"] == {"backend": "simulated"}
        assert points[0]["unit"] == "cells/s"

    def test_unknown_direction_is_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            record_trend("x", 1.0, "sideways_is_better", directory=str(tmp_path))

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = record_trend(
            "journal_bytes", 100.0, "lower_is_better", directory=str(tmp_path)
        )
        record_trend("journal_bytes", 105.0, "lower_is_better", directory=str(tmp_path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"metric": "journal_bytes", "val')  # killed mid-append
        points = read_trend_series(path)
        assert [point["value"] for point in points] == [100.0, 105.0]

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        path = os.path.join(str(tmp_path), "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"metric": "x", "value": 1.0}\n')
        with pytest.raises(ReproError):
            read_trend_series(path)

    def test_check_series_flags_regressions_in_the_bad_direction(self):
        def points(direction, values):
            return [
                {"metric": "m", "direction": direction, "value": value}
                for value in values
            ]

        # Throughput halves: regression.
        verdict = check_series(
            points("higher_is_better", [100, 100, 100, 45]),
            threshold=0.25, window=10,
        )
        assert verdict.regressed
        # Throughput doubles: improvement, not a regression.
        verdict = check_series(
            points("higher_is_better", [100, 100, 100, 220]),
            threshold=0.25, window=10,
        )
        assert not verdict.regressed
        # Latency doubles: regression the other way round.
        verdict = check_series(
            points("lower_is_better", [10, 10, 10, 22]),
            threshold=0.25, window=10,
        )
        assert verdict.regressed

    def test_single_point_has_no_baseline_and_passes(self):
        verdict = check_series(
            [{"metric": "m", "direction": "lower_is_better", "value": 5.0}],
            threshold=0.25, window=10,
        )
        assert verdict.baseline is None
        assert not verdict.regressed
        assert verdict.to_row()[-1] == "ok"

    def test_check_trends_over_a_directory(self, tmp_path):
        directory = str(tmp_path)
        for value in (100.0, 101.0, 99.0, 40.0):
            record_trend("throughput", value, "higher_is_better", directory=directory)
        record_trend("bytes", 10.0, "lower_is_better", directory=directory)
        verdicts = check_trends(directory, threshold=0.25, window=10)
        assert set(verdicts) == {"throughput", "bytes"}
        assert verdicts["throughput"].regressed
        assert not verdicts["bytes"].regressed

    def test_missing_directory_yields_no_verdicts(self, tmp_path):
        assert check_trends(str(tmp_path / "nowhere")) == {}


class TestEventLogDurability:
    def _emit(self, registry, path, count):
        sink = FileEventSink(path)
        registry.add_observer(sink)
        for index in range(count):
            registry.emit(
                EVENT_CELL_COMPLETED,
                campaign_id="campaign-0001",
                payload={"cell": index, "passed": True},
            )
        return sink

    def test_sink_round_trips_through_the_reader(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        self._emit(PluginRegistry(), path, count=3)
        events = read_event_log(path)
        assert [event["payload"]["cell"] for event in events] == [0, 1, 2]
        assert all(event["event"] == EVENT_CELL_COMPLETED for event in events)

    def test_missing_log_reads_as_empty(self, tmp_path):
        assert read_event_log(str(tmp_path / "absent.jsonl")) == []

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        self._emit(PluginRegistry(), path, count=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"sequence": 3, "event": "cell_co')  # torn tail
        events = read_event_log(path)
        assert len(events) == 2

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage\n")
            handle.write('{"sequence": 2, "event": "cell_completed"}\n')
        with pytest.raises(SchedulingError):
            read_event_log(path)


class TestHeartbeatWorkerErrors:
    def test_last_error_keeps_the_exception_type(self):
        from repro.service.telemetry import HeartbeatWorker

        class PoisonedService:
            def beat(self, source):
                raise KeyError("cache_hit_rate")

        worker = HeartbeatWorker(
            PoisonedService(), interval=0.01, max_consecutive_failures=1
        )
        worker.start()
        worker._thread.join(timeout=5.0)
        status = worker.status()
        assert status["failures"] >= 1
        # A bare str(KeyError(...)) would be just "'cache_hit_rate'".
        assert status["last_error"] == "KeyError: 'cache_hit_rate'"
        worker.stop()


class TestMetricsObserver:
    def test_events_fold_into_counters_and_gauges(self):
        registry = MetricsRegistry(clock=FakeClock())
        bus = PluginRegistry()
        bus.add_observer(MetricsObserver(registry))
        bus.emit(EVENT_CELL_COMPLETED, payload={"passed": True})
        bus.emit(EVENT_CELL_COMPLETED, payload={"passed": False})
        bus.emit(EVENT_TENANT_THROTTLED, payload={"tenant": "zeus"})
        bus.emit(
            EVENT_HEARTBEAT,
            payload={"queue_depth": 4, "cache_hit_rate": 0.75, "source": "test"},
        )
        assert registry.counter_value("cells_total", outcome="passed") == 1
        assert registry.counter_value("cells_total", outcome="failed") == 1
        assert registry.counter_value("service_throttled_total", tenant="zeus") == 1
        assert registry.counter_value("service_heartbeats_total") == 1
        assert registry.counter_value(
            "lifecycle_events_total", event=EVENT_CELL_COMPLETED
        ) == 2
        assert registry.gauge_value("service_queue_depth") == 4.0
        assert registry.gauge_value("cache_hit_rate") == 0.75


class TestFingerprintMemoisation:
    def test_configuration_fingerprint_is_memoised_and_stable(self):
        from repro.environment.configuration import (
            _configuration_fingerprint,
            configuration_fingerprint,
            sp_system_configurations,
        )

        configuration = sp_system_configurations()[0]
        first = configuration_fingerprint(configuration)
        assert first == _configuration_fingerprint(configuration)
        assert configuration_fingerprint(configuration) == first
        # A value-equal copy computes the same value.
        clone = sp_system_configurations()[0]
        assert configuration_fingerprint(clone) == first

    def test_fingerprint_values_are_pinned(self):
        """The memo is kept on the instance; the values never change.

        The build-cache journal and the history ledger persist these
        fingerprints, so a changed value would orphan every persisted entry.
        """
        from dataclasses import replace

        from repro.environment.configuration import (
            configuration_fingerprint,
            sp_system_configurations,
        )

        expected = {
            "SL5_32bit_gcc4.1": "33e3635e5de50755a92b3ba0ad40faaf9ffe8115",
            "SL5_32bit_gcc4.4": "bd56a3f218d392b64ba38074b22baca4ff8ca3dd",
            "SL5_64bit_gcc4.1": "58d532df435296e8df3f1f349a093ac6bbd031f8",
            "SL5_64bit_gcc4.4": "5f7bd6eb09f32cf32e9affdaf20d69be689b95b5",
            "SL6_64bit_gcc4.4": "f2d72a56e8f0b8fbf08dd968086deef3bd170f14",
        }
        configurations = sp_system_configurations()
        assert {
            configuration.key: configuration_fingerprint(configuration)
            for configuration in configurations
        } == expected
        configuration = configurations[0]
        assert configuration.__dict__["_fingerprint"] == expected[configuration.key]
        # The cached value is no dataclass field: equality and hashing still
        # compare the fields only, and a replaced copy computes its own.
        assert configuration == sp_system_configurations()[0]
        assert hash(configuration) == hash(sp_system_configurations()[0])
        evolved = replace(configuration, externals=configuration.externals[1:])
        assert configuration_fingerprint(evolved) != expected[configuration.key]

    def test_package_identity_digest_is_memoised_and_stable(self):
        from repro.experiments import build_hermes_experiment
        from repro.environment.configuration import sp_system_configurations
        from repro.scheduler.cache import (
            _package_identity_digest,
            package_identity_digest,
        )

        experiment = build_hermes_experiment(scale=0.2)
        package = experiment.inventory.all()[0]
        configuration = sp_system_configurations()[0]
        first = package_identity_digest(package, configuration)
        assert first == _package_identity_digest(package, configuration)
        assert package_identity_digest(package, configuration) == first


class TestTelemetryPage:
    def test_page_renders_phases_and_metrics(self):
        from repro.reporting.webpages import StatusPageGenerator

        storage = CommonStorage()
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("cell_validate", category="cell"):
            pass
        registry = MetricsRegistry(clock=FakeClock())
        registry.increment("cells_total", outcome="passed")
        page = StatusPageGenerator(storage).telemetry_page(
            tracer.phase_rows(),
            metric_rows=registry.summary_rows(),
            span_count=len(tracer.spans),
        )
        assert "cell_validate" in page
        assert "cells_total{outcome=passed}" in page
        assert "1 recorded span(s)" in page
        assert storage.exists("reports", "telemetry")


class TestTelemetryCli:
    def test_metrics_command_prints_prometheus_text(self, capsys):
        exit_code = cli_main(["metrics", "--scale", "0.02"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "# TYPE repro_cells_total counter" in captured.out
        assert "repro_scheduler_cells_total" in captured.out

    def test_trace_command_writes_a_chrome_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        exit_code = cli_main(["trace", "--out", out, "--scale", "0.02"])
        captured = capsys.readouterr()
        assert exit_code == 0
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["traceEvents"]
        names = {event["name"] for event in document["traceEvents"]}
        assert "cell_validate" in names
        assert "spec_validation" in names
        assert "cumulative s" in captured.out

    def test_bench_trends_check_gates_on_regressions(self, tmp_path, capsys):
        directory = str(tmp_path)
        for value in (100.0, 101.0, 99.0):
            record_trend(
                "cells_per_second", value, "higher_is_better",
                directory=directory,
            )
        assert cli_main(["bench-trends", "check", "--dir", directory]) == 0
        record_trend(
            "cells_per_second", 10.0, "higher_is_better", directory=directory
        )
        assert cli_main(["bench-trends", "check", "--dir", directory]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out

    def test_bench_trends_check_passes_on_a_fresh_checkout(self, tmp_path, capsys):
        missing = str(tmp_path / "never-recorded")
        assert cli_main(["bench-trends", "check", "--dir", missing]) == 0
        assert "nothing to gate" in capsys.readouterr().out

    def test_campaign_telemetry_flag_prints_the_phase_table(self, capsys):
        exit_code = cli_main([
            "campaign", "--scale", "0.02", "--workers", "2", "--telemetry",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cell_validate" in captured.out
        assert "cumulative s" in captured.out
