"""One mergeable log-linear histogram for every distribution kept.

Per-query CPU time, page accesses, candidate counts, phase times,
pruning margins, and the daemon's request latencies all land in
:class:`Histogram`. Values are counted in sparse buckets keyed by
:func:`math.frexp`: :data:`SUB_BUCKETS` equal-width sub-buckets per
power of two, plus one bucket for zero (the HDR-histogram layout).

* ``count``, ``sum``, ``min`` and ``max`` are exact.
* Quantiles use the nearest-rank rule over the bucket counts and report
  the bucket's lower edge, clamped to ``[min, max]``, so every quantile
  is within relative ``1 / SUB_BUCKETS`` (2^-7) below the exact
  nearest-rank value. Integers below ``2 * SUB_BUCKETS`` and short
  dyadic values (0.5, 42.0, 95) fall in buckets of their own and come
  back exact.
* :meth:`Histogram.merge` adds bucket counts, so merges are exact,
  associative and commutative (up to float addition order in ``sum``):
  merging worker histograms gives the buckets a serial run observes.
* Memory is bounded by the value range, not the observation count: a
  million values spanning 1..10^6 occupy 1780 buckets.

A *windowed* histogram (``window_sec`` given) additionally keeps a ring
of :data:`WINDOW_SLOTS` slot histograms, each ``window_sec /
WINDOW_SLOTS`` seconds wide, so :meth:`Histogram.stats` describes only
recent traffic, up to one slot of granularity, while its lifetime
``count``/``sum`` (the Prometheus ``_count``/``_sum``) stay monotone.

Only non-negative finite values are accepted: every observation is a
duration, a count, or a pruning margin, and the funnel drops non-finite
margins before they get here.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_WINDOW_SEC",
    "Histogram",
    "HistogramStats",
    "SUB_BUCKETS",
    "WINDOW_SLOTS",
]

#: Sub-buckets per power of two; quantiles are within relative 2^-7.
SUB_BUCKETS = 128

#: Slot histograms in a windowed histogram's ring.
WINDOW_SLOTS = 10

DEFAULT_WINDOW_SEC = 300.0

#: The zero bucket's key, below every frexp-derived key (the smallest
#: subnormal has exponent -1073).
_ZERO_KEY = -(1 << 31)


def _bucket(value: float) -> int:
    if value == 0.0:
        return _ZERO_KEY
    mantissa, exponent = math.frexp(value)  # mantissa in [0.5, 1)
    return exponent * SUB_BUCKETS + int(mantissa * (2 * SUB_BUCKETS)) - SUB_BUCKETS


def _lower_edge(key: int) -> float:
    if key == _ZERO_KEY:
        return 0.0
    exponent, sub = divmod(key, SUB_BUCKETS)
    return math.ldexp((SUB_BUCKETS + sub) / (2 * SUB_BUCKETS), exponent)


@dataclass(frozen=True)
class HistogramStats:
    """A consistent point-in-time summary of one :class:`Histogram`.

    ``count``/``sum``/quantiles/``max`` describe the window for a
    windowed histogram and everything otherwise; ``total_count`` and
    ``total_sum`` are always the lifetime, monotone totals.
    """

    count: int
    sum: float
    p50: float
    p95: float
    p99: float
    max: float
    window_sec: Optional[float] = None
    total_count: int = 0
    total_sum: float = 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram:
    """Log-linear bucket histogram; see the module docstring.

    Thread-safe: observes, merges and reads serialize on a
    per-histogram lock.
    """

    __slots__ = (
        "window_sec", "_buckets", "_count", "_sum", "_min", "_max",
        "_ring", "_clock", "_lock",
    )

    def __init__(
        self,
        window_sec: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_sec is not None and not window_sec > 0:
            raise ValueError(f"window_sec must be > 0, got {window_sec}")
        self.window_sec = None if window_sec is None else float(window_sec)
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0
        #: (slot epoch, slot histogram) per ring position, windowed only.
        self._ring: Optional[List[Optional[Tuple[int, Histogram]]]] = (
            None if window_sec is None else [None] * WINDOW_SLOTS
        )
        self._clock = clock
        self._lock = threading.Lock()

    # -- writes --------------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"histogram values must be finite and >= 0, got {value}"
            )
        key = _bucket(value)
        with self._lock:
            self._add(key, value)
            if self._ring is not None:
                self._slot(self._clock())._add(key, value)

    def _add(self, key: int, value: float) -> None:
        buckets = self._buckets
        buckets[key] = buckets.get(key, 0) + 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s lifetime buckets and exact fields to this
        one's lifetime state (a window ring is fed by :meth:`observe`
        only)."""
        with other._lock:
            parts = (
                dict(other._buckets), other._count, other._sum,
                other._min, other._max,
            )
        with self._lock:
            self._fold(*parts)

    def _fold(
        self,
        buckets: Dict[int, int],
        count: int,
        total: float,
        minimum: float,
        maximum: float,
    ) -> None:
        if not count:
            return
        mine = self._buckets
        for key, n in buckets.items():
            mine[key] = mine.get(key, 0) + n
        self._count += count
        self._sum += total
        self._min = min(self._min, minimum)
        self._max = max(self._max, maximum)

    # -- the window ring -----------------------------------------------------

    def _epoch(self, now: float) -> int:
        return math.floor(now * WINDOW_SLOTS / self.window_sec)

    def _slot(self, now: float) -> "Histogram":
        epoch = self._epoch(now)
        position = epoch % WINDOW_SLOTS
        entry = self._ring[position]
        if entry is None or entry[0] != epoch:
            entry = self._ring[position] = (epoch, Histogram())
        return entry[1]

    def _window(self) -> "Histogram":
        """A fresh histogram merging the slots still inside the window
        (caller holds the lock)."""
        oldest = self._epoch(self._clock()) - WINDOW_SLOTS + 1
        merged = Histogram()
        for entry in self._ring:
            if entry is not None and entry[0] >= oldest:
                merged.merge(entry[1])
        return merged

    # -- reads ---------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def _quantiles(self, percents: Sequence[float]) -> List[float]:
        """Nearest-rank quantiles over the buckets, ``percents``
        ascending (caller holds the lock)."""
        if not self._count:
            return [0.0] * len(percents)
        ranks = [max(1, math.ceil(p / 100.0 * self._count)) for p in percents]
        out: List[float] = []
        seen = 0
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            while len(out) < len(ranks) and seen >= ranks[len(out)]:
                out.append(min(max(_lower_edge(key), self._min), self._max))
            if len(out) == len(ranks):
                break
        return out

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100], of the lifetime
        observations (within relative 2^-7 below the exact value)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            return self._quantiles((p,))[0]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def stats(self) -> HistogramStats:
        """One consistent summary; the window's for a windowed histogram."""
        with self._lock:
            total_count, total_sum = self._count, self._sum
            view = self if self._ring is None else self._window()
            p50, p95, p99 = view._quantiles((50.0, 95.0, 99.0))
            return HistogramStats(
                count=view._count, sum=view._sum, p50=p50, p95=p95,
                p99=p99, max=view.max, window_sec=self.window_sec,
                total_count=total_count, total_sum=total_sum,
            )

    # -- wire form -----------------------------------------------------------

    def to_wire(self) -> Dict[str, object]:
        """Plain data (picklable; JSON-safe up to int bucket keys)."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self.min,
                "max": self.max,
                "buckets": dict(self._buckets),
            }

    @classmethod
    def from_wire(cls, doc: Dict[str, object]) -> "Histogram":
        hist = cls()
        hist._fold(
            {int(key): int(n) for key, n in doc["buckets"].items()},
            int(doc["count"]), float(doc["sum"]), float(doc["min"]),
            float(doc["max"]),
        )
        return hist

    def __repr__(self) -> str:
        return f"Histogram(n={self.count}, p50={self.p50:.4g}, max={self.max:.4g})"
