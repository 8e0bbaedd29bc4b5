"""Seeded inputs for the three workloads.

Each workload runs on one fixed dataset generated from
:data:`NETWORK_SEED`: the network, the client population and, for
``dynamic-mixed``, the update log. This mirrors the paper, which fixes
its datasets and draws random queries over them. Everything that varies
between runs is derived from the ``--seed`` argument alone: the order of
the queries, their radii and the arrival times. One seed always yields
the same inputs, and a held-out seed yields fresh ones of the same shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.query import GPSSNQuery

#: Every workload pins the dist_RN engine, so a change of the program's
#: default engine does not change any workload.
ENGINE = "csr"

# -- road-scale: SSSP-bound answers, POIs outnumber the oracle LRU ----------
ROAD_VERTICES = 4_000
ROAD_POIS = 600
ROAD_USERS = 1_000
ROAD_ORACLE_CACHE = 128
#: I_R is built for exactly the workload's radius envelope.
ROAD_R_MAX = 2.0
ROAD_RADIUS = (0.5, 2.0)
ROAD_TAU = 2
ROAD_MAX_GROUPS = 2
ROAD_WARMUP = 2
ROAD_CLIENTS = 48
ROAD_ROUNDS = 20

# -- serve-mixed: refinement-bound answers behind the daemon ----------------
SERVE_VERTICES = 300
SERVE_POIS = 100
SERVE_USERS = 300
SERVE_RATE = 5.0
SERVE_CLIENTS = 16
SERVE_TAUS = (3, 4, 5)
SERVE_RADIUS = (1.0, 3.0)
SERVE_MAX_GROUPS = 300

# -- dynamic-mixed: one mutation + one ad-hoc read per step -----------------
DYN_VERTICES = 600
DYN_POIS = 600
DYN_USERS = 600
DYN_STANDING = 6
DYN_READERS = 64
DYN_TAU = 2
DYN_READ_MAX_GROUPS = 2
DYN_READ_RADIUS = (0.5, 2.0)
#: Upper bound on the stream; a run stops when its time is up.
DYN_MUTATIONS = 2_000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """``n`` draws from U[lo, hi], one per stratum of equal width, in a
    seeded order: every round of queries sees the same spread of radii,
    and the seed decides which issuer gets which."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


#: Generator seed of every workload's network (and of its pivots).
NETWORK_SEED = 7


def road_network():
    from repro.datagen.scale import generate_grid_network

    network = generate_grid_network(
        ROAD_VERTICES, ROAD_POIS, ROAD_USERS, seed=NETWORK_SEED
    )
    network.distances.cache_size = ROAD_ORACLE_CACHE
    return network


def serve_network():
    from repro.datagen.synthetic import uni_dataset

    return uni_dataset(
        SERVE_VERTICES, SERVE_POIS, SERVE_USERS, seed=NETWORK_SEED
    )


def dynamic_network():
    from repro.datagen.scale import generate_grid_network

    return generate_grid_network(
        DYN_VERTICES, DYN_POIS, DYN_USERS, seed=NETWORK_SEED
    )


def _clients(network) -> List[int]:
    """Every eligible issuer, in one order fixed with the dataset."""
    from repro.experiments.harness import sample_query_users

    order = int(_rng(NETWORK_SEED, 0).integers(2**31))
    return sample_query_users(network, network.social.num_users, seed=order)


def road_queries(network, seed: int) -> List[GPSSNQuery]:
    """Rounds over ``ROAD_CLIENTS`` issuers fixed with the network: each
    round visits every issuer once, in a seeded order with stratified
    radii. The first ``ROAD_WARMUP`` queries are the warm-up; a run stops
    on time after a few rounds. The oracle LRU is far smaller than one
    issuer's candidate set, so a repeat issuer finds nothing cached."""
    rng = _rng(seed, 1)
    clients = _clients(network)[:ROAD_CLIENTS]
    return [
        GPSSNQuery(int(clients[int(i)]), tau=ROAD_TAU, radius=float(radius))
        for _round in range(ROAD_ROUNDS)
        for i, radius in zip(rng.permutation(len(clients)),
                             _stratified(rng, len(clients), *ROAD_RADIUS))
    ]


@dataclass(frozen=True)
class Arrival:
    due: float  # seconds after the schedule starts
    line: str  # one batch-protocol query line


def serve_schedule(network, seed: int, seconds: float) -> List[Arrival]:
    """Open-loop arrivals at ``SERVE_RATE`` from a fixed client population.

    Inter-arrival gaps are exponential with mean ``1/SERVE_RATE``, drawn
    by stratified sampling: one uniform draw per stratum of (0, 1),
    taken in a seeded order. Every run then sees the same spread of
    short and long gaps, so its queueing is that of the rate and not
    of a lucky or unlucky draw. ``SERVE_CLIENTS`` issuers, fixed with
    the network, each send every group size in ``SERVE_TAUS``; the seed
    shuffles these requests, one full round after another, and draws
    their radii, stratified over each round.
    """
    rng = _rng(seed, 2)
    count = max(1, int(SERVE_RATE * seconds))
    strata = (rng.permutation(count) + rng.random(count)) / count
    gaps = -np.log1p(-strata) / SERVE_RATE
    clients = _clients(network)[:SERVE_CLIENTS]
    mix = [(uq, tau) for uq in clients for tau in SERVE_TAUS]
    out: List[Arrival] = []
    pending: List[Tuple[int, int, float]] = []
    for due in np.cumsum(gaps):
        if due >= seconds:
            break
        if not pending:
            radii = _stratified(rng, len(mix), *SERVE_RADIUS)
            pending = [(*mix[int(i)], float(radius))
                       for i, radius in zip(rng.permutation(len(mix)), radii)]
        uq, tau, radius = pending.pop()
        doc = {
            "user": int(uq),
            "tau": tau,
            "radius": round(radius, 6),
            "max_groups": SERVE_MAX_GROUPS,
        }
        out.append(Arrival(float(due), json.dumps(doc, sort_keys=True)))
    return out


def serve_warmup(network) -> List[str]:
    """One untimed request per client and group size, at the middle
    radius: the daemon's worker is warm before the timed loop starts."""
    radius = sum(SERVE_RADIUS) / 2.0
    return [
        json.dumps({"user": int(uq), "tau": tau, "radius": radius,
                    "max_groups": SERVE_MAX_GROUPS}, sort_keys=True)
        for uq in _clients(network)[:SERVE_CLIENTS]
        for tau in SERVE_TAUS
    ]


def dynamic_inputs(network, seed: int) -> Tuple[list, list, List[GPSSNQuery]]:
    """Standing entries, the mutation stream, and one read per mutation.

    The standing queries, the ``DYN_READERS`` reading issuers and the
    mutation log are fixed with the network, as an update log recorded
    against the dataset; the seed draws the order of the reads and
    their radii, stratified over each round of readers. A fixed log keeps the mix of oracle-clearing writes, which
    decides what reads cost, the same in every run.
    """
    from repro.dynamic import synthesize_mutations

    pool = _clients(network)
    standing = [
        (GPSSNQuery(uq, tau=DYN_TAU), None) for uq in pool[:DYN_STANDING]
    ]
    readers = pool[DYN_STANDING:DYN_STANDING + DYN_READERS]
    mutations = list(synthesize_mutations(
        network, DYN_MUTATIONS, seed=NETWORK_SEED
    ))
    rng = _rng(seed, 3)
    reads = [
        GPSSNQuery(int(readers[int(i)]), tau=DYN_TAU, radius=float(radius))
        for _round in range(-(-DYN_MUTATIONS // len(readers)))
        for i, radius in zip(rng.permutation(len(readers)),
                             _stratified(rng, len(readers), *DYN_READ_RADIUS))
    ][:DYN_MUTATIONS]
    return standing, mutations, reads
