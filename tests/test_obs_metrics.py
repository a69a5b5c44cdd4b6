"""Tests for the metrics registry and the Prometheus text exposition."""

import json

import pytest

from repro.obs.export import prometheus_text, sanitize_metric_name
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    _flat_name,
    _unflatten,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_default_and_incr(self, registry):
        assert registry.counter("missing") == 0
        registry.incr("hits")
        registry.incr("hits", 4)
        assert registry.counter("hits") == 5

    def test_labelled_counters_are_separate_series(self, registry):
        registry.incr("spills", labels={"epp": "e1"})
        registry.incr("spills", 2, labels={"epp": "e2"})
        assert registry.counter("spills", labels={"epp": "e1"}) == 1
        assert registry.counter("spills", labels={"epp": "e2"}) == 2
        assert registry.counter("spills") == 0

    def test_gauge_last_write_wins(self, registry):
        registry.gauge("cost", 10.0)
        registry.gauge("cost", 3.5)
        assert registry.gauge_value("cost") == 3.5
        assert registry.gauge_value("missing", default=-1) == -1

    def test_histogram_cumulative_buckets(self):
        hist = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        # Prometheus semantics: counts[i] counts observations <= bound.
        assert hist.counts == [1, 2, 3]
        assert hist.count == 4
        assert hist.total == 555.5

    def test_observe_uses_default_buckets(self, registry):
        registry.observe("charge", 42.0)
        dump = registry.summary()["histograms"]["charge"]
        assert tuple(dump["buckets"]) == DEFAULT_BUCKETS
        assert dump["count"] == 1

    def test_phase_context_accumulates(self, registry):
        for _ in range(3):
            with registry.phase("sweep"):
                pass
        phases = registry.summary()["phases"]
        assert phases["sweep"]["count"] == 3
        assert phases["sweep"]["total_s"] >= 0.0

    def test_record_phase_external_duration(self, registry):
        registry.record_phase("io", 1.5)
        registry.record_phase("io", 0.5)
        assert registry.summary()["phases"]["io"] == {
            "total_s": 2.0, "count": 2,
        }

    def test_summary_phases_counters_shape(self, registry):
        # The shape serve and sweep workers ship home for the parent's
        # `merge`, and `repro stats --format json` prints.
        with registry.phase("build"):
            pass
        registry.incr("cache_hits", 3)
        summary = registry.summary()
        assert summary["counters"] == {"cache_hits": 3}
        assert set(summary["phases"]) == {"build"}
        assert set(summary["phases"]["build"]) == {"total_s", "count"}

    def test_reset_clears_everything(self, registry):
        registry.incr("c")
        registry.gauge("g", 1)
        registry.observe("h", 1)
        registry.record_phase("p", 1)
        registry.reset()
        summary = registry.summary()
        assert summary == {"phases": {}, "counters": {},
                           "gauges": {}, "histograms": {}}


class TestFlatNames:
    def test_unlabelled_passthrough(self):
        assert _flat_name("hits", ()) == "hits"
        assert _unflatten("hits") == ("hits", None)

    def test_labelled_round_trip(self):
        flat = _flat_name("spills", (("algo", "sb"), ("epp", "e1")))
        assert flat == "spills{algo=sb,epp=e1}"
        name, labels = _unflatten(flat)
        assert name == "spills"
        assert labels == {"algo": "sb", "epp": "e1"}


class TestMerge:
    def test_merge_adds_counters_and_phases(self, registry):
        worker = MetricsRegistry()
        worker.incr("points", 100)
        worker.incr("spills", 2, labels={"epp": "e1"})
        worker.record_phase("sweep", 1.0)
        registry.incr("points", 10)
        registry.record_phase("sweep", 0.5)

        registry.merge(worker.summary())
        assert registry.counter("points") == 110
        assert registry.counter("spills", labels={"epp": "e1"}) == 2
        assert registry.summary()["phases"]["sweep"] == {
            "total_s": 1.5, "count": 2,
        }

    def test_merge_gauges_last_write_wins(self, registry):
        registry.gauge("cost", 1.0)
        worker = MetricsRegistry()
        worker.gauge("cost", 9.0)
        registry.merge(worker.summary())
        assert registry.gauge_value("cost") == 9.0

    def test_merge_adds_histograms(self, registry):
        worker = MetricsRegistry()
        for value in (1.0, 100.0):
            registry.observe("charge", value)
            worker.observe("charge", value)
        registry.merge(worker.summary())
        dump = registry.summary()["histograms"]["charge"]
        assert dump["count"] == 4
        assert dump["sum"] == 202.0

    def test_merge_bucket_mismatch_raises(self):
        hist = Histogram(buckets=(1.0, 2.0))
        other = Histogram(buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket mismatch"):
            hist.merge(other.dump())

    def test_merge_empty_summary_is_noop(self, registry):
        registry.incr("c")
        registry.merge({})
        assert registry.counter("c") == 1


class TestPrometheusExposition:
    def test_counter_gauge_and_labels(self, registry):
        registry.incr("sweeps", 3, labels={"engine": "batch"})
        registry.gauge("last_run_total_cost", 120.5)
        text = prometheus_text(registry)
        assert '# TYPE repro_sweeps_total counter' in text
        assert 'repro_sweeps_total{engine="batch"} 3' in text
        assert '# TYPE repro_last_run_total_cost gauge' in text
        assert 'repro_last_run_total_cost 120.5' in text
        assert text.endswith("\n")

    def test_histogram_triple(self, registry):
        registry.observe("charge", 5.0, buckets=(1.0, 10.0))
        registry.observe("charge", 50.0, buckets=(1.0, 10.0))
        text = prometheus_text(registry)
        assert '# TYPE repro_charge histogram' in text
        assert 'repro_charge_bucket{le="1"} 0' in text
        assert 'repro_charge_bucket{le="10"} 1' in text
        assert 'repro_charge_bucket{le="+Inf"} 2' in text
        assert 'repro_charge_sum 55' in text
        assert 'repro_charge_count 2' in text

    def test_bucket_counts_monotone_and_inf_equals_count(self, registry):
        for value in (0.1, 2.0, 7.0, 1e12):
            registry.observe("spread", value)
        lines = prometheus_text(registry).splitlines()
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines
                  if line.startswith("repro_spread_bucket")]
        assert counts == sorted(counts)
        count_line = next(line for line in lines
                          if line.startswith("repro_spread_count"))
        assert counts[-1] == int(count_line.rsplit(" ", 1)[1])

    def test_phases_export_as_labelled_counters(self, registry):
        registry.record_phase("parallel_sweep", 2.5)
        text = prometheus_text(registry)
        assert ('repro_phase_seconds_total{phase="parallel_sweep"} 2.5'
                in text)
        assert 'repro_phase_runs_total{phase="parallel_sweep"} 1' in text

    def test_type_header_precedes_samples(self, registry):
        registry.incr("a_counter")
        registry.gauge("b_gauge", 1)
        lines = prometheus_text(registry).splitlines()
        seen_types = set()
        for line in lines:
            if line.startswith("# TYPE"):
                seen_types.add(line.split()[2])
            elif not line.startswith("#") and line:
                family = line.split("{")[0].split(" ")[0]
                assert family in seen_types, line

    def test_names_and_label_values_sanitized(self, registry):
        registry.incr("cache.load-time", labels={"key": 'a"b\nc'})
        text = prometheus_text(registry)
        assert "repro_cache_load_time_total" in text
        assert '\\"' in text and "\\n" in text

    def test_empty_registry_renders(self, registry):
        assert prometheus_text(registry) == "\n"

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("ess-cache.hits") == "ess_cache_hits"
        assert sanitize_metric_name("9lives").startswith("_")


class TestThreadSafety:
    """The registry is hammered from executor threads in the serving
    path (worker summaries merge concurrently with request-path incr/
    observe); every mutation must survive the interleaving exactly."""

    def test_concurrent_incr_observe_merge_is_exact(self):
        import threading

        donor = MetricsRegistry()
        donor.incr("hits")
        donor.incr("labelled", 2, labels={"tenant": "a"})
        donor.observe("latency", 0.25, buckets=(0.5, 1.0))
        donor.record_phase("work", 0.001)
        snapshot = donor.summary()

        registry = MetricsRegistry()
        rounds = 300

        def direct():
            for _ in range(rounds):
                registry.incr("hits")
                registry.incr("labelled", 2, labels={"tenant": "a"})
                registry.observe("latency", 0.25, buckets=(0.5, 1.0))
                registry.record_phase("work", 0.001)

        def merger():
            for _ in range(rounds):
                registry.merge(snapshot)

        threads = [threading.Thread(target=direct) for _ in range(3)]
        threads += [threading.Thread(target=merger) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = 6 * rounds  # every thread lands `rounds` of everything
        assert registry.counter("hits") == total
        assert registry.counter("labelled", labels={"tenant": "a"}) \
            == 2 * total
        summary = registry.summary()
        assert summary["histograms"]["latency"]["count"] == total
        assert summary["histograms"]["latency"]["counts"][-1] == total
        assert summary["phases"]["work"]["count"] == total
