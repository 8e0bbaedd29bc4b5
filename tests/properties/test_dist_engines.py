"""Property tests: every distance engine agrees with the dict Dijkstra.

The dict-walking Dijkstra (:class:`tests.oracles.DictDijkstraEngine`)
is the correctness oracle; the CSR kernel and the contraction hierarchy
must reproduce it to within floating-point noise (1e-9) on arbitrary
road networks, arbitrary on-edge positions, truncation bounds, and
disconnected pairs. Pivot selection, which runs on the configured
engine, must pick the same pivots and the same pivot distances, bit for
bit, on both sides of the scipy threshold, and so must ``csr``'s scipy
path for searches seeded at on-edge positions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import NetworkPosition, RoadNetwork
from repro.datagen.synthetic import generate_road_network
from repro.index.pivots import select_pivots_road
from repro.roadnet.csr import SCIPY_MIN_VERTICES, CSRGraph
from repro.roadnet.engines import make_engine
from repro.roadnet.shortest_path import position_seeds
from tests.oracles import DictDijkstraEngine, multi_source_dijkstra

ATOL = 1e-9


def random_positions(road, rng, count):
    edges = list(road.edges())
    out = []
    for _ in range(count):
        u, v, length = edges[int(rng.integers(len(edges)))]
        # Mix interior points with exact endpoints (offset 0 / length)
        # and reversed orientations — the historical trouble spots.
        roll = rng.random()
        if roll < 0.15:
            offset = 0.0
        elif roll < 0.3:
            offset = length
        else:
            offset = float(rng.random() * length)
        if rng.random() < 0.5:
            u, v, offset = v, u, length - offset
        out.append(NetworkPosition(u, v, offset))
    return out


def two_component_road(rng, half=12):
    """Two disjoint random road networks merged under one id space."""
    road = RoadNetwork()
    for component in range(2):
        part = generate_road_network(half, rng)
        base = component * half
        for vid in part.vertices():
            point = part.coords(vid)
            road.add_vertex(base + vid, point.x + component * 1000.0, point.y)
        for u, v, length in part.edges():
            road.add_edge(base + u, base + v, length)
    return road


class TestEngineAgreement:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_point_to_point_all_engines(self, seed):
        rng = np.random.default_rng(seed)
        road = generate_road_network(50, rng)
        engines = [DictDijkstraEngine(road)] + [
            make_engine(name, road) for name in ("csr", "ch")
        ]
        for a, b in zip(
            random_positions(road, rng, 8), random_positions(road, rng, 8)
        ):
            got = [engine.point_to_point(a, b) for engine in engines]
            for other in got[1:]:
                assert other == pytest.approx(got[0], abs=ATOL)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_disconnected_pairs_are_inf_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        road = two_component_road(rng)
        a = random_positions(road, rng, 1)[0]
        b = a
        while (b.u < 12) == (a.u < 12):  # resample until components differ
            b = random_positions(road, rng, 1)[0]
        engines = [DictDijkstraEngine(road)] + [
            make_engine(name, road) for name in ("csr", "ch")
        ]
        for engine in engines:
            assert math.isinf(engine.point_to_point(a, b))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 500), bound=st.floats(0.0, 60.0))
    def test_csr_sssp_matches_dict_kernel(self, seed, bound):
        rng = np.random.default_rng(seed)
        road = generate_road_network(50, rng)
        ids = list(road.vertices())
        seeds = [
            (ids[int(rng.integers(len(ids)))], float(rng.random() * 3))
            for _ in range(3)
        ]
        ours = CSRGraph(road).sssp(seeds, bound)
        reference = multi_source_dijkstra(road, seeds, bound)
        assert set(ours) == set(reference)
        for v, d in reference.items():
            assert ours[v] == pytest.approx(d, abs=ATOL)


class TestPivotsOnEngines:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 500),
        # one network on the pure-Python kernel, one on scipy's
        size=st.sampled_from([SCIPY_MIN_VERTICES // 4, SCIPY_MIN_VERTICES + 44]),
        split=st.booleans(),
        engine=st.sampled_from(["csr", "ch", "lazy-ch"]),
    )
    def test_pivots_match_dict_dijkstra(self, seed, size, split, engine):
        rng = np.random.default_rng(seed)
        if split:
            road = two_component_road(rng, half=size // 2)
        else:
            road = generate_road_network(size, rng)
        expected = select_pivots_road(
            DictDijkstraEngine(road), 3, np.random.default_rng(seed)
        )
        got = select_pivots_road(
            make_engine(engine, road), 3, np.random.default_rng(seed)
        )
        assert got.pivots == expected.pivots
        for pos in random_positions(road, rng, 12):
            assert got.distances(pos) == expected.distances(pos)


class TestOnEdgeSeedsOnScipy:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500), bounded=st.booleans())
    def test_csr_matches_dict_dijkstra_bit_for_bit(self, seed, bounded):
        """One scipy search per multi-seed position, rounding
        ``(d0 + w1) + w2`` exactly as the oracle does."""
        rng = np.random.default_rng(seed)
        road = generate_road_network(SCIPY_MIN_VERTICES + 44, rng)
        oracle = DictDijkstraEngine(road)
        graph = CSRGraph(road)
        ids = list(graph.ids)
        bound = float(rng.random() * 40.0) if bounded else math.inf
        seed_sets = [
            position_seeds(road, pos)
            for pos in random_positions(road, rng, 8)
        ]
        # Duplicate vertices (what a self-loop position would seed)
        # collapse to their smallest offset.
        a, b = ids[int(rng.integers(len(ids)))], ids[int(rng.integers(len(ids)))]
        seed_sets.append([(a, 0.75), (b, 0.5), (a, 0.25)])
        for seeds in seed_sets:
            expected = oracle.sssp(seeds, bound)
            # A position whose seeds all lie beyond the bound reaches
            # nothing and needs no search at all.
            step = 1 if any(d0 <= bound for _, d0 in seeds) else 0
            runs = graph.scipy_runs
            got = graph.sssp(seeds, bound)
            assert graph.scipy_runs == runs + step
            assert dict(got.items()) == expected
            dense = graph.sssp_dense(seeds, bound)
            assert graph.scipy_runs == runs + 2 * step
            assert dense.tolist() == [
                expected.get(vid, math.inf) for vid in ids
            ]
