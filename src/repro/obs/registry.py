"""Named counters, gauges, and timing histograms behind one registry.

The :class:`MetricsRegistry` is deliberately minimal — dictionaries of
floats plus log-linear :class:`~repro.obs.histogram.Histogram` objects —
because every number the paper reports is either a monotone tally
(pruned objects, page accesses) or a per-query distribution (CPU time).
The :class:`Recorder` bundles a registry with a tracer and is the
single object the query processor threads through its phases;
:meth:`Recorder.record_query` absorbs a finished query's
:class:`~repro.core.query.QueryStatistics` — including every
:class:`~repro.core.query.PruningCounters` field, verbatim — so the
scattered ad-hoc plumbing of earlier revisions now has one sink.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .funnel import NULL_EXPLAIN, ExplainRecorder
from .histogram import DEFAULT_WINDOW_SEC, Histogram, HistogramStats
from .tracer import NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.query import QueryStatistics

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "Recorder",
    "process_rss_bytes",
]


def process_rss_bytes() -> float:
    """This process's resident set size in bytes (0.0 if unknown).

    Reads ``/proc/self/status`` (Linux); falls back to
    ``resource.getrusage`` peak-RSS elsewhere. Used for the
    ``process.rss_bytes`` gauge and the frozen-snapshot scale benchmark,
    which measures how little incremental RSS a memmap-attached worker
    adds over the shared page cache.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) * 1024.0
    except OSError:
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return float(usage) * (1.0 if usage > 1 << 32 else 1024.0)
    except Exception:  # pragma: no cover - platform without getrusage
        return 0.0


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, scrape-consistent image of a :class:`MetricsRegistry`.

    This is what a long-lived service hands to the Prometheus exporter:
    counters stay monotone (no mid-flight :meth:`MetricsRegistry.reset`
    zeroing a scraper's deltas), and all values were read under the
    registry lock, so one exposition never mixes two moments in time.
    Shares the attribute shape :func:`~repro.obs.exporters.prometheus_text`
    reads (``counters`` / ``gauges`` / ``histograms`` / ``windows``).
    """

    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, HistogramStats]
    windows: Dict[str, HistogramStats]


class MetricsRegistry:
    """Named counters (monotone), gauges (last value), and histograms.

    Two histogram families coexist: :meth:`observe` feeds lifetime
    :class:`Histogram` objects (the benchmark/CLI shape), while
    :meth:`observe_window` feeds windowed ones whose percentiles
    describe only the last ``window_sec`` seconds (the daemon's latency
    p50/p95/p99). All mutation paths are thread-safe; a scraping thread
    should read through :meth:`snapshot` rather than the live dicts.
    """

    def __init__(self, window_sec: float = DEFAULT_WINDOW_SEC) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.windows: Dict[str, Histogram] = {}
        self.window_sec = window_sec
        self._lock = threading.RLock()

    def inc(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    def _histogram(self, name: str) -> Histogram:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
        return hist

    def observe(self, name: str, value: float) -> None:
        self._histogram(name).observe(value)

    def merge_histogram(self, name: str, hist: Histogram) -> None:
        """Add ``hist``'s buckets into the named histogram — the
        parent-side arm of worker delta shipping."""
        self._histogram(name).merge(hist)

    def observe_window(self, name: str, value: float) -> None:
        """Record into the named windowed histogram."""
        with self._lock:
            window = self.windows.get(name)
            if window is None:
                window = self.windows[name] = Histogram(
                    window_sec=self.window_sec
                )
        window.observe(value)

    def counter(self, name: str) -> float:
        with self._lock:
            return self.counters.get(name, 0.0)

    def drain(
        self,
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Histogram]]:
        """Atomically hand over counters/gauges/histograms and reset.

        The capture side of worker delta shipping: the returned
        histograms are *removed* from the registry (fresh ones are
        created on next observe), so the caller may read them without
        racing the worker's next chunk. Rolling windows stay — workers
        never populate them; they are parent-side latency state.
        """
        with self._lock:
            counters = self.counters
            gauges = self.gauges
            histograms = self.histograms
            self.counters = {}
            self.gauges = {}
            self.histograms = {}
        return counters, gauges, histograms

    def reset(self) -> None:
        """Zero everything — for short-lived runs (CLI, tests) only.

        A long-lived service must never reset mid-flight: a scraper
        computing counter deltas would see them go backwards. Daemons
        expose :meth:`snapshot` instead and let counters stay monotone
        for the whole process lifetime.
        """
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.windows.clear()

    def snapshot(self) -> MetricsSnapshot:
        """A frozen scrape-consistent copy (see :class:`MetricsSnapshot`)."""
        with self._lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            histograms = list(self.histograms.items())
            windows = list(self.windows.items())
        return MetricsSnapshot(
            counters=counters,
            gauges=gauges,
            histograms={name: h.stats() for name, h in histograms},
            windows={name: w.stats() for name, w in windows},
        )

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """A plain-data snapshot (JSON-serializable)."""
        snap = self.snapshot()
        doc: Dict[str, Dict[str, float]] = {
            "counters": snap.counters,
            "gauges": snap.gauges,
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean,
                    "p50": h.p50,
                    "p95": h.p95,
                    "max": h.max,
                }
                for name, h in snap.histograms.items()
            },
        }
        if snap.windows:
            doc["windows"] = {
                name: {
                    "window_sec": w.window_sec,
                    "count": w.count,
                    "sum": w.sum,
                    "p50": w.p50,
                    "p95": w.p95,
                    "p99": w.p99,
                    "max": w.max,
                    "total_count": w.total_count,
                    "total_sum": w.total_sum,
                }
                for name, w in snap.windows.items()
            }
        return doc


class Recorder:
    """One tracer + metrics registry + explain funnel, threaded through
    the processor.

    The default construction (``Recorder()``) pairs a
    :class:`NullTracer` and a :class:`~repro.obs.funnel.NullExplain`
    with a live registry: per-phase span timing and per-rule funnel
    accounting are off (zero hot-path overhead) while the cheap
    end-of-query metric absorption stays on. Pass ``tracer=Tracer()`` to
    capture spans, or use :meth:`explaining` for the full EXPLAIN
    ANALYZE configuration (spans + funnel).
    """

    __slots__ = ("tracer", "metrics", "explain")

    def __init__(
        self,
        tracer: Optional[object] = None,
        metrics: Optional[MetricsRegistry] = None,
        explain: Optional[object] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.explain = explain if explain is not None else NULL_EXPLAIN

    @classmethod
    def traced(cls) -> "Recorder":
        """A recorder with an active span tracer."""
        return cls(tracer=Tracer())

    @classmethod
    def explaining(cls) -> "Recorder":
        """A recorder with span tracing *and* funnel accounting on."""
        return cls(tracer=Tracer(), explain=ExplainRecorder())

    @property
    def active(self) -> bool:
        """True when span tracing is on."""
        return bool(getattr(self.tracer, "active", False))

    @property
    def explaining_active(self) -> bool:
        """True when funnel (explain) accounting is on."""
        return bool(getattr(self.explain, "active", False))

    def span(self, name: str):
        return self.tracer.span(name)

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.metrics.inc(name, amount)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def record_query(self, stats: "QueryStatistics") -> None:
        """Absorb one finished query's statistics into the registry.

        Every :class:`PruningCounters` field lands under ``pruning.*``
        unchanged (the fig7a-d powers recompute bit-identically from
        these), the scalar measurements under ``query.*`` histograms,
        and the Dijkstra/oracle tallies under ``dijkstra.*`` counters.
        """
        m = self.metrics
        m.inc("query.count")
        m.observe("query.cpu_time_sec", stats.cpu_time_sec)
        m.observe("query.page_accesses", stats.page_accesses)
        m.observe("query.candidate_users", stats.candidate_users)
        m.observe("query.candidate_pois", stats.candidate_pois)
        m.observe("query.groups_refined", stats.groups_refined)
        m.inc("dijkstra.searches", stats.dijkstra_searches)
        m.inc("dijkstra.cache_hits", stats.dijkstra_cache_hits)
        for field in dataclasses.fields(stats.pruning):
            m.inc(f"pruning.{field.name}", getattr(stats.pruning, field.name))
        for phase, seconds in stats.phase_times.items():
            m.observe(f"phase.{phase}", seconds)
