"""Property tests for the one log-linear histogram (``repro.obs.histogram``).

* merging is exact, associative and commutative, and equals observing
  the concatenated stream (``sum`` up to float addition order);
* every quantile is within relative 2^-7 below nearest rank over the
  sorted values;
* a windowed histogram under a fake clock agrees with a brute-force
  deque of timestamped values, up to one slot of granularity;
* memory is bounded by the value range, not the observation count: a
  million lognormal(0, 1) latencies keep fewer than 2000 buckets.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.histogram import WINDOW_SLOTS, Histogram

REL = 2.0**-7

values_st = st.lists(
    st.one_of(
        st.integers(0, 10_000).map(float),
        st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
        st.floats(1e-12, 1e-3),
    ),
    max_size=200,
)


def _hist(values):
    hist = Histogram()
    for value in values:
        hist.observe(value)
    return hist


def _merged(*parts):
    out = Histogram()
    for part in parts:
        out.merge(part)
    return out


def _exact(hist):
    """The wire form minus ``sum``, which float addition order may move."""
    doc = hist.to_wire()
    doc.pop("sum")
    return doc


def _nearest_rank(ordered, p):
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class TestMerge:
    @settings(max_examples=60, deadline=None)
    @given(a=values_st, b=values_st, c=values_st)
    def test_exact_associative_commutative(self, a, b, c):
        ha, hb, hc = _hist(a), _hist(b), _hist(c)
        stream = _hist(a + b + c)
        left = _merged(_merged(ha, hb), hc)
        right = _merged(ha, _merged(hb, hc))
        swapped = _merged(hc, hb, ha)
        for merged in (left, right, swapped):
            assert _exact(merged) == _exact(stream)
            assert merged.sum == pytest.approx(stream.sum, rel=1e-12)
            assert merged.stats().p99 == stream.stats().p99

    @settings(max_examples=30, deadline=None)
    @given(a=values_st)
    def test_wire_round_trip(self, a):
        hist = _hist(a)
        assert Histogram.from_wire(hist.to_wire()).to_wire() == hist.to_wire()


class TestQuantiles:
    @settings(max_examples=80, deadline=None)
    @given(
        values=values_st.filter(bool),
        p=st.floats(0.0, 100.0),
    )
    def test_within_relative_error_of_nearest_rank(self, values, p):
        hist = _hist(values)
        exact = _nearest_rank(sorted(values), p)
        got = hist.percentile(p)
        assert exact * (1 - REL) <= got <= exact
        assert hist.count == len(values)
        assert hist.min == min(values)
        assert hist.max == max(values)

    def test_small_integers_and_dyadics_are_exact(self):
        for value in (0.0, 0.5, 2.0, 42.0, 95.0, 255.0, 0.375):
            assert _hist([value]).p50 == value


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestWindow:
    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 5),
        events=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 1000)),
            max_size=60,
        ),
        read_gap=st.integers(0, 120),
    )
    def test_matches_brute_force_deque(self, width, events, read_gap):
        """Integer times and ``window_sec = WINDOW_SLOTS * width`` keep
        slot boundaries exact in float arithmetic."""
        window_sec = float(WINDOW_SLOTS * width)
        clock = FakeClock()
        hist = Histogram(window_sec=window_sec, clock=clock)
        points = []
        for step, value in events:
            clock.now += step
            hist.observe(float(value))
            points.append((clock.now, float(value)))
        clock.now += read_gap
        stats = hist.stats()

        now = clock.now
        # Everything in the last window_sec - width seconds is in the
        # window; nothing older than window_sec is.
        inner = [v for t, v in points if t > now - window_sec + width]
        outer = [v for t, v in points if t > now - window_sec]
        assert len(inner) <= stats.count <= len(outer)
        assert max(inner, default=0.0) <= stats.max <= max(outer, default=0.0)
        assert stats.total_count == len(points)
        assert stats.total_sum == pytest.approx(sum(v for _, v in points))
        # The window is exactly the slots the ring still holds.
        slot = math.floor(now / width)
        live = [v for t, v in points if math.floor(t / width) > slot - WINDOW_SLOTS]
        assert stats.count == len(live)
        if live:
            assert stats.p50 == _hist(live).p50
            assert stats.p99 == _hist(live).p99


def test_a_million_observations_stay_under_2000_buckets():
    values = np.random.default_rng(0).lognormal(0.0, 1.0, size=1_000_000)
    hist = Histogram()
    for value in values.tolist():
        hist.observe(value)
    assert hist.count == 1_000_000
    assert len(hist.to_wire()["buckets"]) < 2000
    ordered = np.sort(values)
    for p in (50.0, 95.0, 99.0):
        exact = _nearest_rank(ordered, p)
        assert exact * (1 - REL) <= hist.percentile(p) <= exact
