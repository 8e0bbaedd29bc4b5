"""Independent answer checks: Definition 5 with a plain Dijkstra.

Nothing here touches the program's distance engines, caches or index:
road distances come from a textbook binary-heap Dijkstra over
``RoadNetwork.neighbors``, social connectivity from a BFS over
``SocialNetwork.friends``, and the interest / matching scores from
``repro.core.scores`` (Eqs. 1-2). A found answer ``(S, R)`` must satisfy

1. ``|S| = tau`` and ``u_q in S``;
2. ``S`` is connected in the social graph;
3. every pair in ``S`` has interest score ``>= gamma``;
4. every pair in ``R`` is within road distance ``2r``;
5. every user in ``S`` has ``Match_Score(u, R) >= theta``;
6. the reported value equals ``maxdist_RN(S, R)``.

:func:`check_optimal` adds what Definition 5 alone cannot see: that the
answer is the optimum, by comparison with the exhaustive
``BaselineProcessor`` (no index, no pruning).
"""

from __future__ import annotations

import hashlib
import heapq
import math
from typing import Dict, Iterable, List, Optional

from repro.core.scores import interest_score, match_score

TOL = 1e-6


def dijkstra(road, position) -> Dict[int, float]:
    """Vertex distances from a network position (no truncation, no cache)."""
    length = road.edge_length(position.u, position.v)
    dist: Dict[int, float] = {}
    heap = [(position.offset, position.u), (length - position.offset, position.v)]
    while heap:
        d, vertex = heapq.heappop(heap)
        if vertex in dist:
            continue
        dist[vertex] = d
        for other, weight in road.neighbors(vertex).items():
            if other not in dist:
                heapq.heappush(heap, (d + weight, other))
    return dist


def position_distance(road, dist: Dict[int, float], source, target) -> float:
    """``dist_RN(source, target)`` given ``dist`` from :func:`dijkstra`."""
    length = road.edge_length(target.u, target.v)
    best = min(
        dist.get(target.u, math.inf) + target.offset,
        dist.get(target.v, math.inf) + length - target.offset,
    )
    if {source.u, source.v} == {target.u, target.v}:
        along = target.offset if target.u == source.u else length - target.offset
        best = min(best, abs(along - source.offset))
    return best


def _connected(social, users: List[int]) -> bool:
    members = set(users)
    seen = {users[0]}
    frontier = [users[0]]
    while frontier:
        uid = frontier.pop()
        for friend in social.friends(uid):
            if friend in members and friend not in seen:
                seen.add(friend)
                frontier.append(friend)
    return seen == members


def check_answer(network, query, answer) -> Optional[str]:
    """``None`` when ``answer`` satisfies Definition 5, else the reason.

    An empty answer (``found`` false) is accepted: this checks only what
    a found answer claims. Optimality is :func:`check_optimal`'s job.
    """
    if not answer.found:
        return None
    road, social = network.road, network.social
    users, pois = sorted(answer.users), sorted(answer.pois)
    if len(users) != query.tau or query.query_user not in answer.users:
        return "group size or issuer"
    if not pois:
        return "empty POI set"
    if not _connected(social, users):
        return "group not socially connected"
    vectors = {uid: social.user(uid).interests for uid in users}
    for i, a in enumerate(users):
        for b in users[i + 1:]:
            if interest_score(vectors[a], vectors[b]) < query.gamma - TOL:
                return f"interest({a},{b}) < gamma"
    positions = {pid: network.poi(pid).position for pid in pois}
    covered = frozenset().union(*(network.poi(pid).keywords for pid in pois))
    for uid in users:
        if match_score(vectors[uid], covered) < query.theta - TOL:
            return f"match({uid}) < theta"
    for i, a in enumerate(pois):
        dist = dijkstra(road, positions[a])
        for b in pois[i + 1:]:
            if position_distance(road, dist, positions[a], positions[b]) > 2 * query.radius + TOL:
                return f"dist({a},{b}) > 2r"
    worst = 0.0
    for uid in users:
        home = social.user(uid).home
        dist = dijkstra(road, home)
        for pid in pois:
            worst = max(worst, position_distance(road, dist, home, positions[pid]))
    if abs(worst - answer.max_distance) > TOL:
        return f"maxdist {answer.max_distance} != {worst}"
    return None


def check_optimal(exact, answer) -> Optional[str]:
    """``None`` when ``answer`` agrees with ``exact``, the exhaustive
    answer to the same query, in found flag and objective value, else
    the reason. Catches over-pruning: a missed or worse group."""
    if answer.found != exact.found:
        return f"found={answer.found} but exhaustive search found={exact.found}"
    if exact.found and abs(answer.max_distance - exact.max_distance) > TOL:
        return f"maxdist {answer.max_distance} != optimum {exact.max_distance}"
    return None


def answer_line(answer) -> str:
    """Canonical text of one answer, for digests and byte comparison."""
    if not answer.found:
        return "none"
    return "{}|{}|{:.9f}".format(
        ",".join(map(str, sorted(answer.users))),
        ",".join(map(str, sorted(answer.pois))),
        answer.max_distance,
    )


def digest(lines: Iterable[str]) -> str:
    """Order-sensitive sha256 over outcome lines (first 16 hex digits)."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]
