"""Unit tests for the windowed histogram (daemon latency stats)."""

import pytest

from repro.obs.histogram import Histogram, HistogramStats


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestRollingWindow:
    def test_empty_snapshot_is_zero(self):
        stats = Histogram(window_sec=300.0).stats()
        assert stats.count == 0
        assert stats.p50 == 0.0
        assert stats.p99 == 0.0
        assert stats.total_count == 0
        assert stats.mean == 0.0

    def test_percentiles_over_recent_values_only(self):
        clock = FakeClock()
        hist = Histogram(window_sec=10.0, clock=clock)
        hist.observe(100.0)  # will age out
        clock.now = 20.0
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        stats = hist.stats()
        assert stats.count == 4
        assert stats.max == 4.0  # the 100.0 left the window
        assert stats.p50 == 2.0
        assert stats.p99 == 4.0

    def test_totals_stay_monotone_across_pruning(self):
        clock = FakeClock()
        hist = Histogram(window_sec=5.0, clock=clock)
        for i in range(10):
            hist.observe(1.0)
            clock.now += 2.0
        stats = hist.stats()
        # Window keeps only the recent observations ...
        assert stats.count < 10
        # ... but the lifetime totals (the Prometheus _count/_sum) never
        # shrink: a scraper's delta math must not go backwards.
        assert stats.total_count == 10
        assert stats.total_sum == pytest.approx(10.0)

    def test_window_stats_mean(self):
        stats = HistogramStats(
            window_sec=60.0, count=4, sum=8.0, p50=2.0, p95=2.0, p99=2.0,
            max=2.0, total_count=4, total_sum=8.0,
        )
        assert stats.mean == 2.0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Histogram(window_sec=0.0)
        with pytest.raises(ValueError):
            Histogram(window_sec=-1.0)
