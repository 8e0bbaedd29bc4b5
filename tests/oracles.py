"""Explicit test oracles kept out of the product code.

:func:`dijkstra` / :func:`multi_source_dijkstra` are the binary-heap
Dijkstra over the road network's dict-of-dicts adjacency, and
:class:`DictDijkstraEngine` serves them through the
:class:`~repro.roadnet.engines.DistanceEngine` interface. Every product
engine (``csr``, ``ch``, ``lazy-ch``) is validated against it; install
it on a network with :func:`use_engine` (or
``network.distances.engine = DictDijkstraEngine(network.road)``).

:class:`ScalarRefinementProcessor` is the query processor with its one
pair-evaluation step (:meth:`GPSSNQueryProcessor._refine_group`)
replaced by the per-pair scalar reference: one Dijkstra map per group
member and :func:`~repro.core.refinement.best_region_for_seed` for every
(group, seed) pair, scanned in ascending seed distance with the same
Lemma 5 / Eq. 6 early termination. Traversal, seed filtering, group
enumeration and top-k bookkeeping are the product's own, so any
difference in answers, ``candidate_pairs_examined`` or the EXPLAIN
funnel is a difference in the vectorized ``PairKernel`` path.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Tuple

from repro.core.algorithm import GPSSNQueryProcessor
from repro.core.refinement import best_region_for_seed, group_distance_maps
from repro.exceptions import UnknownEntityError
from repro.roadnet.engines import DistanceEngine
from repro.roadnet.graph import NetworkPosition, RoadNetwork
from repro.roadnet.shortest_path import (
    position_distance_from_map,
    position_seeds,
)


def dijkstra(
    road: RoadNetwork,
    source: int,
    max_distance: float = math.inf,
) -> Dict[int, float]:
    """Single-source shortest path distances from vertex ``source``.

    Returns ``vertex -> distance`` for every vertex reachable within
    ``max_distance`` (unreached vertices are absent).
    """
    if not road.has_vertex(source):
        raise UnknownEntityError(f"unknown road vertex {source}")
    return multi_source_dijkstra(road, [(source, 0.0)], max_distance)


def multi_source_dijkstra(
    road: RoadNetwork,
    sources: Iterable[Tuple[int, float]],
    max_distance: float = math.inf,
) -> Dict[int, float]:
    """Dijkstra from several ``(vertex, initial_distance)`` seeds.

    The multi-seed form lets a search start *on an edge*: a network
    position ``(u, v, offset)`` seeds ``u`` with ``offset`` and ``v`` with
    ``edge_length - offset``.
    """
    dist: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = []
    for vertex, d0 in sources:
        if not road.has_vertex(vertex):
            raise UnknownEntityError(f"unknown road vertex {vertex}")
        if d0 <= max_distance and d0 < dist.get(vertex, math.inf):
            dist[vertex] = d0
            heapq.heappush(heap, (d0, vertex))
    settled: set = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled or d > dist.get(node, math.inf):
            continue
        settled.add(node)
        for nbr, length in road.neighbors(node).items():
            nd = d + length
            if nd <= max_distance and nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


class DictDijkstraEngine(DistanceEngine):
    """The dict-walking Dijkstra as a distance engine (the oracle)."""

    name = "plain"

    def sssp(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ) -> Dict[int, float]:
        return multi_source_dijkstra(self.road, seeds, max_distance)

    def point_to_point(
        self, pos_a: NetworkPosition, pos_b: NetworkPosition
    ) -> float:
        # Exactly the oracle's cache-miss path: one full seeded Dijkstra
        # from pos_a, then endpoint lookups for pos_b.
        dist_map = multi_source_dijkstra(
            self.road, position_seeds(self.road, pos_a)
        )
        return position_distance_from_map(self.road, dist_map, pos_b, pos_a)


def use_engine(network, name: str) -> DistanceEngine:
    """``network.use_distance_engine`` that also knows the oracle.

    ``name`` is a product engine name, or :attr:`DictDijkstraEngine.name`
    to install the dict Dijkstra on the network's shared oracle.
    """
    if name != DictDijkstraEngine.name:
        return network.use_distance_engine(name)
    if network.distances.engine.name != name:
        network.distances.engine = DictDijkstraEngine(network.road)
        network.distances.clear()
    return network.distances.engine


class ScalarRefinementProcessor(GPSSNQueryProcessor):
    """GP-SSN processor whose pair evaluation is the scalar reference."""

    def _refine_group(self, group, seeds, query, counters, top, ex) -> None:
        network = self.network
        dist_maps = group_distance_maps(network, group)
        interests = [network.social.user(uid).interests for uid in group]
        frozen_group = frozenset(group)
        n_seeds = len(seeds.ids)
        for rank, seed in enumerate(seeds.ids):
            seed_dist = float(seeds.dist[rank])
            if seed_dist >= top.kth:
                if ex is not None:
                    ex.prune(
                        "refine.pairs", "pair.distance",
                        n_seeds - rank, seed_dist - top.kth,
                    )
                break
            if ex is not None:
                ex.survive("refine.pairs")
            counters.candidate_pairs_examined += 1
            region_ids = self.road_index.region(seed, query.radius)
            result = best_region_for_seed(
                network, interests, dist_maps, seed, region_ids, query.theta,
            )
            if result is not None:
                pois, value = result
                top.offer(value, frozen_group, pois)
