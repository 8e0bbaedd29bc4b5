"""Explicit test oracles kept out of the product code.

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

from repro.core.algorithm import GPSSNQueryProcessor
from repro.core.refinement import best_region_for_seed, group_distance_maps


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
