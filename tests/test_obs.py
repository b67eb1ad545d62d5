"""Tests for the observability layer: tracer, metrics, logging, trace export."""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path

import pytest

from repro import EvaluationEngine, MetricsRegistry, Tracer, write_trace
from repro.core.algorithms import get_algorithm
import numpy as np
from repro.obs import setup_logging
from repro.obs.metrics import BUCKET_BOUNDS
from repro.obs.tracer import NULL_TRACER, TRACE_SCHEMA, NullTracer, _NullSpan
from repro.simulation.generator import toy_population


class TestTracer:
    def test_nested_spans_build_a_tree(self) -> None:
        tracer = Tracer()
        with tracer.span("outer", label="a"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attributes == {"label": "a"}
        assert [child.name for child in root.children] == ["inner", "inner"]
        assert all(child.parent_id == root.span_id for child in root.children)

    def test_children_time_bounded_by_parent(self) -> None:
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        root = tracer.roots[0]
        assert root.duration_seconds >= root.children_seconds
        assert root.self_seconds >= 0.0

    def test_set_attaches_attributes(self) -> None:
        tracer = Tracer()
        with tracer.span("op") as span:
            span.set(value=3.5, done=True)
        assert tracer.roots[0].attributes == {"value": 3.5, "done": True}

    def test_exception_closes_span_and_marks_error(self) -> None:
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("boom")
        span = tracer.roots[0]
        assert span.end is not None
        assert span.attributes["error"] == "ValueError"
        assert tracer.current_span() is None

    def test_breakdown_aggregates_by_name(self) -> None:
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("op"):
                pass
        breakdown = tracer.breakdown()
        assert breakdown["op"]["count"] == 3
        assert breakdown["op"]["total_seconds"] >= 0.0

    def test_span_ids_unique_across_threads(self) -> None:
        tracer = Tracer()

        def record() -> None:
            for _ in range(50):
                with tracer.span("threaded"):
                    pass

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = [span.span_id for span in tracer.iter_spans()]
        assert len(ids) == 200
        assert len(set(ids)) == 200

    def test_json_round_trip(self, tmp_path: Path) -> None:
        tracer = Tracer()
        with tracer.span("outer", k=2):
            with tracer.span("inner"):
                pass
        out = tmp_path / "trace.json"
        payload = write_trace(str(out), tracer)
        loaded = json.loads(out.read_text())
        assert loaded == json.loads(json.dumps(payload))
        assert loaded["schema"] == TRACE_SCHEMA
        root = loaded["spans"][0]
        assert root["name"] == "outer"
        assert root["attributes"] == {"k": 2}
        assert root["children"][0]["name"] == "inner"
        assert loaded["metrics"] is None


class TestNullTracer:
    def test_shared_singleton_span(self) -> None:
        assert NULL_TRACER.enabled is False
        first = NULL_TRACER.span("a", k=1)
        second = NULL_TRACER.span("b")
        assert first is second
        assert isinstance(first, _NullSpan)

    def test_noop_span_records_nothing(self) -> None:
        tracer = NullTracer()
        with tracer.span("op") as span:
            span.set(ignored=True)
        assert tracer.to_dict() == {"spans": []}
        assert tracer.breakdown() == {}
        assert list(tracer.iter_spans()) == []
        assert tracer.current_span() is None


class TestMetricsRegistry:
    def test_counters_and_gauges(self) -> None:
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        registry.set_gauge("frontier", 7)
        registry.set_gauge("frontier", 3)
        assert registry.counter("hits") == 5
        assert registry.gauge("frontier") == 3
        assert registry.counter("missing") == 0
        assert registry.gauge("missing") is None

    def test_timing_histogram_buckets(self) -> None:
        registry = MetricsRegistry()
        registry.observe("op_seconds", 5e-6)   # first bucket
        registry.observe("op_seconds", 5e-3)   # <= 1e-2
        registry.observe("op_seconds", 100.0)  # overflow bucket
        stats = registry.timing("op_seconds")
        assert stats is not None
        assert stats.count == 3
        assert stats.min == 5e-6
        assert stats.max == 100.0
        assert stats.buckets[0] == 1
        assert stats.buckets[BUCKET_BOUNDS.index(1e-2)] == 1
        assert stats.buckets[-1] == 1

    def test_time_context_manager(self) -> None:
        registry = MetricsRegistry()
        with registry.time("op_seconds"):
            pass
        stats = registry.timing("op_seconds")
        assert stats is not None and stats.count == 1


class TestLoggingSetup:
    def test_configures_repro_logger_idempotently(self) -> None:
        logger = setup_logging("debug")
        again = setup_logging("info")
        assert logger is again
        tagged = [
            handler
            for handler in logger.handlers
            if getattr(handler, "_repro_obs_handler", False)
        ]
        assert len(tagged) == 1
        assert logger.level == logging.INFO

    def test_rejects_unknown_level(self) -> None:
        with pytest.raises(ValueError):
            setup_logging("loud")


class TestEngineIntegration:
    def test_traced_run_matches_untraced(self) -> None:
        population = toy_population()
        scores = np.random.default_rng(0).uniform(size=population.size)
        untraced = get_algorithm("balanced").run(population, scores)
        tracer, metrics = Tracer(), MetricsRegistry()
        traced = get_algorithm("balanced").run(
            population, scores, tracer=tracer, metrics=metrics
        )
        assert traced.unfairness == untraced.unfairness
        assert traced.partitioning.canonical_key() == untraced.partitioning.canonical_key()
        names = {span.name for span in tracer.iter_spans()}
        assert "algorithm.balanced" in names
        assert "engine.unfairness" in names
        assert metrics.counter("engine.n_evaluations") == traced.n_evaluations
        assert metrics.counter("algorithm.runs") == 1

    def test_sync_metrics_deltas_do_not_double_count(self) -> None:
        population = toy_population()
        scores = np.random.default_rng(0).uniform(size=population.size)
        metrics = MetricsRegistry()
        engine = EvaluationEngine(population, scores, metrics=metrics)
        from repro.core.partition import Partition

        partitions = [
            Partition(population.all_indices()[: population.size // 2]),
            Partition(population.all_indices()[population.size // 2 :]),
        ]
        engine.unfairness(partitions)
        engine.sync_metrics()
        first = metrics.counter("engine.n_evaluations")
        engine.sync_metrics()
        assert metrics.counter("engine.n_evaluations") == first
        engine.unfairness(
            [Partition(population.all_indices())]
        )
        engine.sync_metrics()
        assert metrics.counter("engine.n_evaluations") == first + 1
        engine.close()
