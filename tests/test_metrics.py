"""Unit tests for the live-metrics registry (:mod:`repro.runtime.metrics`).

Covers the three metric kinds, the disabled-registry zero-cost path, the
snapshot/merge protocol (including the mismatched-bucket rejection), and
the Prometheus text exposition format — validated by actually parsing the
output line by line, not just substring checks.
"""

import pickle
import re

import pytest

from repro.runtime.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)


class TestCounter:
    def test_monotone(self):
        c = Counter("repro_x_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("repro_x_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)
        assert c.value == 0.0


class TestGauge:
    def test_set_and_set_max(self):
        g = Gauge("repro_x_bytes")
        g.set(10.0)
        g.set_max(5.0)  # below the watermark: ignored
        assert g.value == 10.0
        g.set_max(20.0)
        assert g.value == 20.0
        g.set(1.0)  # plain set always wins
        assert g.value == 1.0

    def test_bad_agg_rejected(self):
        with pytest.raises(ValueError, match="agg must be one of"):
            Gauge("g", agg="avg")


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram("repro_x_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)   # <= 0.1
        h.observe(0.5)    # <= 1.0
        h.observe(5.0)    # +Inf only
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)

    def test_boundary_is_inclusive(self):
        # Prometheus buckets are upper-inclusive: observe(b) lands in le="b".
        h = Histogram("repro_x_seconds", buckets=(0.1, 1.0))
        h.observe(0.1)
        assert h.counts == [1, 0, 0]

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(2.0, 1.0))


class TestRegistry:
    def test_idempotent_by_name(self):
        reg = MetricsRegistry()
        c1 = reg.counter("repro_x_total", help="first wins")
        c2 = reg.counter("repro_x_total", help="ignored")
        assert c1 is c2
        assert c1.help == "first wins"
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_disabled_registry_hands_out_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("repro_x_total")
        # The no-op metric accepts every mutator and is shared across kinds.
        c.inc(5)
        reg.gauge("g").set(1.0)
        reg.gauge("g").set_max(2.0)
        reg.histogram("h").observe(0.1)
        assert reg.counter("other") is c  # one shared singleton
        assert reg.snapshot().empty

    def test_snapshot_freezes_state(self):
        reg = MetricsRegistry()
        reg.counter("repro_tasks_total", help="tasks").inc(7)
        reg.gauge("repro_peak_bytes", agg="max").set_max(100)
        reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        snap = reg.snapshot()
        assert snap.counters["repro_tasks_total"] == 7
        assert snap.gauges["repro_peak_bytes"] == 100
        assert snap.gauge_aggs["repro_peak_bytes"] == "max"
        assert snap.histograms["repro_lat_seconds"].counts == (1, 0, 0)
        assert snap.helps["repro_tasks_total"] == "tasks"
        # Mutating the registry afterwards must not leak into the snapshot.
        reg.counter("repro_tasks_total").inc()
        reg.histogram("repro_lat_seconds").observe(0.05)
        assert snap.counters["repro_tasks_total"] == 7
        assert snap.histograms["repro_lat_seconds"].counts == (1, 0, 0)

    def test_snapshot_is_picklable(self):
        # The whole point of snapshots: they ride inside heartbeats.
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(0.01)
        clone = pickle.loads(pickle.dumps(reg.snapshot()))
        assert clone.counters["c"] == 1
        assert clone.histograms["h"].count == 1

    def test_get_lookup(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(4)
        snap = reg.snapshot()
        assert snap.get("c") == 3
        assert snap.get("g") == 4
        assert snap.get("missing") == 0.0
        assert snap.get("missing", -1.0) == -1.0


def _snap(**kwargs):
    reg = MetricsRegistry()
    for name, v in kwargs.items():
        reg.counter(name).inc(v)
    return reg.snapshot()


class TestMerge:
    def test_counters_sum(self):
        merged = MetricsSnapshot.merge([_snap(a=1, b=2), _snap(a=10)])
        assert merged.counters == {"a": 11.0, "b": 2.0}

    def test_none_parts_skipped(self):
        # Workers with metrics off report None; merge must tolerate it.
        merged = MetricsSnapshot.merge([None, _snap(a=1), None])
        assert merged.counters == {"a": 1.0}
        assert MetricsSnapshot.merge([None, None]).empty

    def test_gauges_by_declared_agg(self):
        def gsnap(peak, level, stamp):
            reg = MetricsRegistry()
            reg.gauge("peak", agg="max").set(peak)
            reg.gauge("level", agg="sum").set(level)
            reg.gauge("stamp", agg="last").set(stamp)
            return reg.snapshot()

        merged = MetricsSnapshot.merge([gsnap(5, 1, 7), gsnap(3, 2, 9)])
        assert merged.gauges["peak"] == 5    # max
        assert merged.gauges["level"] == 3   # sum
        assert merged.gauges["stamp"] == 9   # last

    def test_histograms_add_elementwise(self):
        def hsnap(values):
            reg = MetricsRegistry()
            h = reg.histogram("h", buckets=(0.1, 1.0))
            for v in values:
                h.observe(v)
            return reg.snapshot()

        merged = MetricsSnapshot.merge([hsnap([0.05, 5.0]), hsnap([0.5])])
        h = merged.histograms["h"]
        assert h.counts == (1, 1, 1)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)

    def test_mismatched_buckets_rejected(self):
        a = MetricsSnapshot(histograms={
            "h": HistogramSnapshot(buckets=(0.1,), counts=(1, 0), sum=0.05, count=1)
        })
        b = MetricsSnapshot(histograms={
            "h": HistogramSnapshot(buckets=(0.2,), counts=(1, 0), sum=0.05, count=1)
        })
        with pytest.raises(ValueError, match="mismatched"):
            MetricsSnapshot.merge([a, b])


#: One Prometheus sample line: name[{labels}] value
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$'
)


def _parse_exposition(text):
    """Parse exposition text into {family: type} and [(name, labels, value)]."""
    types, samples = {}, []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            types[family] = kind
        elif line.startswith("#"):
            assert line.startswith("# HELP "), f"unknown comment: {line!r}"
        else:
            m = _SAMPLE_RE.match(line)
            assert m, f"malformed sample line: {line!r}"
            samples.append((m["name"], m["labels"], float(m["value"])))
    return types, samples


class TestPrometheus:
    def test_empty_snapshot_renders_empty(self):
        assert MetricsSnapshot().to_prometheus() == ""

    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("repro_tasks_total", help="tasks executed").inc(42)
        reg.gauge("repro_peak_bytes").set(1.5)
        text = reg.snapshot().to_prometheus()
        types, samples = _parse_exposition(text)
        assert types == {"repro_tasks_total": "counter", "repro_peak_bytes": "gauge"}
        assert ("repro_tasks_total", None, 42.0) in samples
        assert ("repro_peak_bytes", None, 1.5) in samples
        assert "# HELP repro_tasks_total tasks executed" in text
        # Integer-valued samples must not carry a trailing ".0".
        assert "repro_tasks_total 42\n" in text

    def test_histogram_series_are_cumulative_and_end_at_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.snapshot().to_prometheus()
        types, samples = _parse_exposition(text)
        assert types == {"repro_lat_seconds": "histogram"}
        buckets = [(labels, v) for name, labels, v in samples
                   if name == "repro_lat_seconds_bucket"]
        assert buckets == [('le="0.1"', 1.0), ('le="1"', 2.0), ('le="+Inf"', 3.0)]
        assert ("repro_lat_seconds_sum", None, pytest.approx(5.55)) in [
            (n, l, v) for n, l, v in samples if n.endswith("_sum")
        ]
        assert ("repro_lat_seconds_count", None, 3.0) in samples

    def test_default_buckets_render(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(0.3)
        text = reg.snapshot().to_prometheus()
        _, samples = _parse_exposition(text)
        nbuckets = sum(1 for n, _, _ in samples if n == "h_bucket")
        assert nbuckets == len(DEFAULT_BUCKETS) + 1  # finite bounds + +Inf


def test_report_counters_name_created_metrics():
    """Every metric a ``DistReport`` counter reads is created somewhere
    under ``src/repro``: ``MetricsSnapshot.get`` returns 0 for an unknown
    name, so a misspelled table entry would otherwise read 0 forever."""
    import ast
    from pathlib import Path

    import repro
    from repro.dist.coordinator import _RUN_COUNTERS, REPORT_COUNTERS

    created = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge")
                    and node.args and isinstance(node.args[0], ast.Constant)):
                created.add(node.args[0].value)
    # The coordinator creates one counter per entry of its own table.
    created.update(name for name, _ in _RUN_COUNTERS.values())
    missing = sorted(set(REPORT_COUNTERS.values()) - created)
    assert not missing, f"DistReport counters read unknown metrics: {missing}"
