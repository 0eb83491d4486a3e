"""Tests for the repro.obs observability layer."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.models.unigram import UnigramModel
from repro.obs import metrics, profile, report, trace
from repro.obs.instrument import traced
from repro.obs.logging import configure as configure_logging, get_logger


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with observability off and empty."""
    obs.disable_all()
    obs.reset_all()
    yield
    obs.disable_all()
    obs.reset_all()


class TestTrace:
    def test_disabled_by_default_and_costless(self):
        assert not trace.is_enabled()
        with trace.span("never.recorded"):
            assert trace.current_span() is None
        assert trace.roots() == []

    def test_nesting_builds_a_tree(self):
        trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
            with trace.span("inner2"):
                pass
        roots = trace.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner", "inner2"]

    def test_same_name_spans_merge_and_count(self):
        trace.enable()
        with trace.span("stage"):
            for _ in range(5):
                with trace.span("step"):
                    pass
        (root,) = trace.roots()
        (step,) = root.children
        assert step.n_calls == 5
        assert root.n_calls == 1

    def test_timing_monotonicity(self):
        trace.enable()
        with trace.span("parent"):
            with trace.span("child"):
                sum(range(20_000))
        (parent,) = trace.roots()
        (child,) = parent.children
        assert parent.wall >= child.wall >= 0.0
        assert parent.cpu >= child.cpu >= 0.0

    def test_counters_attach_to_current_span(self):
        trace.enable()
        with trace.span("stage"):
            trace.add_counter("items", 3)
            trace.add_counter("items", 4)
        (root,) = trace.roots()
        assert root.counters == {"items": 7.0}

    def test_counters_noop_when_disabled(self):
        trace.add_counter("items", 3)
        assert trace.roots() == []

    def test_reset_clears_everything(self):
        trace.enable()
        with trace.span("stage"):
            pass
        trace.reset()
        assert trace.roots() == []
        assert trace.current_span() is None

    def test_as_dict_is_json_encodable(self):
        trace.enable()
        with trace.span("stage"):
            trace.add_counter("n", 2)
            with trace.span("step"):
                pass
        (root,) = trace.roots()
        encoded = json.loads(json.dumps(root.as_dict()))
        assert encoded["name"] == "stage"
        assert encoded["children"][0]["name"] == "step"


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = metrics.MetricsRegistry()
        registry.counter("calls").inc()
        registry.counter("calls").inc(2)
        registry.gauge("depth").set(4)
        for value in (1.0, 2.0, 3.0):
            registry.histogram("latency").observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["calls"] == 3.0
        assert snap["gauges"]["depth"] == 4.0
        assert snap["histograms"]["latency"]["count"] == 3
        assert snap["histograms"]["latency"]["mean"] == pytest.approx(2.0)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            metrics.MetricsRegistry().counter("c").inc(-1)

    def test_name_kind_collision_rejected(self):
        registry = metrics.MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_reset_roundtrip(self):
        registry = metrics.MetricsRegistry()
        registry.counter("c").inc(5)
        assert registry.snapshot()["counters"] == {"c": 5.0}
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_to_json_parses(self):
        registry = metrics.MetricsRegistry()
        registry.counter("c").inc()
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["c"] == 1.0

    def test_guarded_helpers_disabled_by_default(self):
        metrics.inc("never")
        metrics.observe("never.h", 1.0)
        metrics.set_gauge("never.g", 1.0)
        snap = metrics.snapshot()
        assert not snap["counters"] and not snap["gauges"] and not snap["histograms"]

    def test_guarded_helpers_record_when_enabled(self):
        metrics.enable()
        metrics.inc("c", 2)
        metrics.observe("h", 1.5)
        metrics.set_gauge("g", -3)
        snap = metrics.snapshot()
        assert snap["counters"]["c"] == 2.0
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["gauges"]["g"] == -3.0


class TestLogging:
    def test_json_lines_emission(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        configure_logging("ERROR", json_path=log_path)
        log = get_logger("test")
        log.info("hello", extra={"obs": {"stage": "fit", "n": 3}})
        log.warning("watch out")
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(records) == 2
        assert records[0]["message"] == "hello"
        assert records[0]["stage"] == "fit"
        assert records[0]["n"] == 3
        assert records[1]["level"] == "WARNING"
        assert all("ts" in r and "logger" in r for r in records)

    def test_reconfigure_does_not_stack_handlers(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        configure_logging("ERROR", json_path=log_path)
        configure_logging("ERROR", json_path=log_path)
        get_logger().info("once")
        lines = [l for l in log_path.read_text().splitlines() if l.strip()]
        assert len(lines) == 1

    def test_console_level_applies(self, tmp_path, capsys):
        import io

        stream = io.StringIO()
        configure_logging("WARNING", stream=stream)
        get_logger().info("quiet")
        get_logger().warning("loud")
        output = stream.getvalue()
        assert "quiet" not in output
        assert "loud" in output

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("shouting")

    def test_console_writes_to_the_current_stderr(self, monkeypatch):
        import io
        import sys

        replaced = io.StringIO()
        monkeypatch.setattr(sys, "stderr", replaced)
        configure_logging("WARNING")
        replaced.close()
        current = io.StringIO()
        monkeypatch.setattr(sys, "stderr", current)
        get_logger("test").warning("after the swap")
        output = current.getvalue()
        assert "after the swap" in output
        assert "Logging error" not in output

    def test_explicit_console_stream_is_kept(self, monkeypatch):
        import io
        import sys

        stream = io.StringIO()
        configure_logging("WARNING", stream=stream)
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        get_logger("test").warning("to the given stream")
        assert "to the given stream" in stream.getvalue()
        assert sys.stderr.getvalue() == ""

    def teardown_method(self):
        # Detach file handlers so tmp_path can be reclaimed.
        configure_logging("WARNING")
        logging.getLogger("repro").handlers.clear()


class TestInstrumentation:
    def test_model_methods_spanned_when_enabled(self, split):
        obs.enable_all()
        model = UnigramModel().fit(split.train)
        model.perplexity(split.test)
        model.batch_next_product_proba([[0], [1]])
        names = {s.name for root in trace.roots() for s in root.walk()}
        assert "model.unigram.fit" in names
        assert "model.unigram.log_prob" in names
        assert "model.unigram.batch_next_product_proba" in names
        assert "model.unigram.next_product_proba" in names
        snap = metrics.snapshot()
        assert snap["counters"]["model.unigram.fit.calls"] == 1.0
        assert snap["counters"]["model.unigram.next_product_proba.calls"] == 2.0

    def test_no_spans_when_disabled(self, split):
        model = UnigramModel().fit(split.train)
        model.next_product_proba([0])
        assert trace.roots() == []
        assert metrics.snapshot()["counters"] == {}

    def test_instrumentation_preserves_results(self, split):
        baseline = UnigramModel().fit(split.train).next_product_proba([0])
        obs.enable_all()
        instrumented = UnigramModel().fit(split.train).next_product_proba([0])
        assert np.allclose(baseline, instrumented)

    def test_traced_decorator(self):
        @traced("custom.stage", counter="custom.calls")
        def work(x):
            """Docstring preserved."""
            return x + 1

        assert work(1) == 2  # disabled: plain passthrough
        assert trace.roots() == []
        obs.enable_all()
        assert work(2) == 3
        assert [r.name for r in trace.roots()] == ["custom.stage"]
        assert metrics.snapshot()["counters"]["custom.calls"] == 1.0
        assert work.__doc__ == "Docstring preserved."


class TestProfile:
    def test_disabled_capture_is_noop(self):
        with profile.capture("nothing") as cap:
            assert cap is None
        assert profile.captures() == []

    def test_capture_records_hot_functions(self):
        profile.enable(top_n=5)
        with profile.capture("busy") as cap:
            sorted(range(50_000), key=lambda x: -x)
        assert cap is not None
        (recorded,) = profile.captures()
        assert recorded.label == "busy"
        assert 1 <= len(recorded.top) <= 5
        assert all(row.cumulative_s >= 0.0 for row in recorded.top)
        encoded = json.loads(json.dumps(recorded.as_dict()))
        assert encoded["label"] == "busy"

    def test_nested_capture_noops(self):
        profile.enable()
        with profile.capture("outer") as outer:
            with profile.capture("inner") as inner:
                assert inner is None
        assert outer is not None
        assert [c.label for c in profile.captures()] == ["outer"]

    def test_bad_top_n_rejected(self):
        with pytest.raises(ValueError):
            profile.enable(top_n=0)


class TestReport:
    def test_text_report_contains_tree_and_metrics(self):
        obs.enable_all()
        with trace.span("exp.demo.fit"):
            with trace.span("model.demo.fit"):
                pass
        metrics.inc("demo.calls", 2)
        text = report.render_text()
        assert "== timing report ==" in text
        assert "exp.demo.fit" in text
        assert "  model.demo.fit" in text
        assert "demo.calls" in text

    def test_json_report_shape(self):
        obs.enable_all()
        with trace.span("stage"):
            pass
        payload = report.render_json()
        assert payload["trace"][0]["name"] == "stage"
        assert set(payload) == {"trace", "metrics", "profiles"}
        json.dumps(payload)  # encodable

    def test_empty_report_mentions_tracing(self):
        assert "tracing" in report.render_text()
