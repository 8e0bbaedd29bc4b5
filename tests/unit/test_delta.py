"""Unit tests for the cross-process telemetry plane's data layer.

Covers :mod:`repro.obs.delta` (capture/merge/apply of worker metric
deltas, histogram wire forms, funnel absorption) and
:mod:`repro.obs.context` (deterministic head sampling and the picklable
trace context).
"""

import pickle

import pytest

from repro.obs import (
    ExplainRecorder,
    Histogram,
    MetricsDelta,
    MetricsRegistry,
    Recorder,
    TraceContext,
    head_sample,
    split_worker_metric,
)
from repro.obs.delta import WORKER_PREFIX, _merge_wire


def _wire(*values):
    hist = Histogram()
    for value in values:
        hist.observe(value)
    return hist.to_wire()


def _recorder_with_traffic(seed: int = 0) -> Recorder:
    recorder = Recorder(explain=ExplainRecorder())
    m = recorder.metrics
    m.inc("query.count", 3 + seed)
    m.inc("pruning.social_index_pruned", 40 + seed)
    m.set_gauge("snapshot.attach_seconds", 0.01 * (seed + 1))
    for i in range(5):
        m.observe("query.cpu_time_sec", 0.001 * (i + 1 + seed))
    recorder.explain.visit("traverse.social", 10 + seed)
    recorder.explain.prune(
        "traverse.social", "lemma2_social_distance", margin=0.5 + seed
    )
    recorder.explain.survive("traverse.social", 9 + seed)
    return recorder


class TestSketch:
    """The wire form of a histogram, as deltas ship and merge it."""

    def test_from_histogram_exact_moments(self):
        m = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 10.0):
            m.observe("h", v)
        doc = m.histograms["h"].to_wire()
        assert doc["count"] == 4
        assert doc["sum"] == pytest.approx(16.0)
        assert doc["max"] == 10.0
        assert doc["min"] == 1.0
        assert sum(doc["buckets"].values()) == 4
        clone = Histogram.from_wire(doc)
        assert [clone.p50, clone.p95] == [2.0, 10.0]

    def test_merge_is_exact_in_the_moments(self):
        merged = Histogram.from_wire(
            _merge_wire(_wire(1, 2, 3), _wire(4, 5))
        )
        assert merged.count == 5
        assert merged.sum == pytest.approx(15.0)
        assert merged.max == 5.0
        assert merged.mean == pytest.approx(3.0)

    def test_merge_associative_below_the_cap(self):
        docs = [_wire(float(i), float(i) / 2) for i in range(1, 5)]
        left = _merge_wire(
            _merge_wire(_merge_wire(docs[0], docs[1]), docs[2]), docs[3]
        )
        right = _merge_wire(
            docs[0], _merge_wire(docs[1], _merge_wire(docs[2], docs[3]))
        )
        assert left.pop("sum") == pytest.approx(right.pop("sum"))
        assert left == right  # buckets, count, min, max: exact

    def test_merge_with_empty_is_identity(self):
        a = _wire(1, 2, 3)
        for merged in (_merge_wire(a, _wire()), _merge_wire(_wire(), a)):
            assert merged == a

    def test_percentile_accuracy_after_thinning(self):
        """Merging chunk histograms loses nothing: the quantiles equal
        the single-stream histogram's, within 2^-7 of nearest rank."""
        values = [float(i) for i in range(10_000)]
        doc = _wire()
        for start in range(0, len(values), 256):
            doc = _merge_wire(doc, _wire(*values[start:start + 256]))
        merged = Histogram.from_wire(doc)
        assert merged.count == len(values)
        assert merged.p50 == pytest.approx(4999, rel=2**-7)
        assert merged.p95 == pytest.approx(9499, rel=2**-7)
        assert doc["buckets"] == _wire(*values)["buckets"]


class TestCaptureApply:
    def test_capture_resets_the_recorder(self):
        recorder = _recorder_with_traffic()
        delta = MetricsDelta.capture(recorder, worker="0")
        assert not delta.empty
        assert recorder.metrics.counters == {}
        assert recorder.metrics.histograms == {}
        assert list(recorder.explain.iter_phases()) == []
        assert MetricsDelta.capture(recorder, worker="0").empty

    def test_apply_reproduces_serial_counts(self):
        recorder = _recorder_with_traffic()
        expected = dict(recorder.metrics.counters)
        delta = MetricsDelta.capture(recorder, worker="w1")
        parent = MetricsRegistry()
        explain = ExplainRecorder()
        delta.apply(parent, explain=explain)
        for name, value in expected.items():
            assert parent.counters[name] == value
            assert parent.counters[f"{WORKER_PREFIX}w1.{name}"] == value
        assert parent.histograms["query.cpu_time_sec"].count == 5
        assert explain.rule_counts() == {"lemma2_social_distance": 1}

    def test_disjoint_captures_sum_exactly(self):
        parent = MetricsRegistry()
        recorder = _recorder_with_traffic()
        MetricsDelta.capture(recorder, worker="0").apply(parent)
        recorder.metrics.inc("query.count", 2)
        MetricsDelta.capture(recorder, worker="0").apply(parent)
        assert parent.counters["query.count"] == 5
        assert parent.counters[f"{WORKER_PREFIX}0.query.count"] == 5

    def test_unlabelled_apply_skips_worker_series(self):
        recorder = _recorder_with_traffic()
        delta = MetricsDelta.capture(recorder, worker="3")
        parent = MetricsRegistry()
        delta.apply(parent, labelled=False)
        assert not any(
            name.startswith(WORKER_PREFIX) for name in parent.counters
        )

    def test_merge_matches_sequential_apply(self):
        r1, r2 = _recorder_with_traffic(0), _recorder_with_traffic(5)
        d1 = MetricsDelta.capture(r1, worker="0")
        d2 = MetricsDelta.capture(r2, worker="0")
        via_merge, via_seq = MetricsRegistry(), MetricsRegistry()
        d1.merge(d2).apply(via_merge)
        d1.apply(via_seq)
        d2.apply(via_seq)
        assert via_merge.counters == via_seq.counters
        for name in via_seq.histograms:
            assert (
                via_merge.histograms[name].count
                == via_seq.histograms[name].count
            )
            assert via_merge.histograms[name].sum == pytest.approx(
                via_seq.histograms[name].sum
            )
            assert (
                via_merge.histograms[name].stats()
                == via_seq.histograms[name].stats()
            )

    def test_funnel_absorb_adds_exactly(self):
        explain = ExplainRecorder()
        for recorder in (
            _recorder_with_traffic(0), _recorder_with_traffic(1)
        ):
            MetricsDelta.capture(recorder, worker="0").apply(
                MetricsRegistry(), explain=explain
            )
        phases = explain.as_dict()
        funnel = phases["traverse.social"]
        assert funnel["visited"] == 10 + 11
        assert funnel["survived"] == 9 + 10
        rule = funnel["rules"]["lemma2_social_distance"]
        assert rule["pruned"] == 2
        assert rule["margin"]["count"] == 2

    def test_delta_is_picklable(self):
        recorder = _recorder_with_traffic()
        delta = MetricsDelta.capture(
            recorder, worker="pid1",
            trace={"request_id": "req-1", "spans": [], "shard_sec": 0.0},
        )
        clone = pickle.loads(pickle.dumps(delta))
        assert clone.counters == delta.counters
        assert clone.trace["request_id"] == "req-1"


class TestWorkerNames:
    def test_split_roundtrip(self):
        assert split_worker_metric("worker.pid42.query.count") == (
            "query.count", "pid42"
        )
        assert split_worker_metric("query.count") is None
        assert split_worker_metric("worker.") is None
        assert split_worker_metric("worker.x") is None


class TestTraceContext:
    def test_head_sample_deterministic(self):
        decisions = {
            rid: head_sample(rid, 0.5)
            for rid in (f"req-{i}" for i in range(200))
        }
        for rid, decision in decisions.items():
            assert head_sample(rid, 0.5) is decision
        sampled = sum(decisions.values())
        assert 60 <= sampled <= 140  # ~50% of 200, loose bounds

    def test_rate_edges(self):
        assert head_sample("anything", 0.0) is False
        assert head_sample("anything", 1.0) is True

    def test_sampled_force_overrides_rate(self):
        assert TraceContext.sampled("req-x", 0.0) is None
        ctx = TraceContext.sampled("req-x", 0.0, force=True)
        assert ctx is not None and ctx.request_id == "req-x"

    def test_context_pickles(self):
        ctx = TraceContext(request_id="req-y", max_spans=64)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
