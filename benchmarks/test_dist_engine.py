"""Distance engines: CSR kernel and contraction hierarchy vs the oracle.

Runs the Fig. 8 workload's road network (UNI at bench scale) and times
point-to-point ``dist_RN`` over a fixed batch of random position pairs
on each engine, with the dict-walking Dijkstra test oracle
(``tests.oracles.DictDijkstraEngine``, reported as ``plain``) as the
baseline. Writes ``results/BENCH_dist_engine.json`` (median
microseconds + speedups + engine stats) next to the usual speedup
table, asserts every engine returns the oracle's distances, and asserts
the acceptance bar: CH median point-to-point at least 5x faster than
the oracle.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, RESULTS_DIR, write_result
from repro.roadnet.engines import make_engine
from tests.oracles import DictDijkstraEngine

#: The oracle's name, the baseline key in the payload.
ORACLE = DictDijkstraEngine.name
NUM_PAIRS = 60
TIMING_ROUNDS = 5


def _random_pairs(road, count, seed):
    rng = np.random.default_rng(seed)
    edges = list(road.edges())
    pairs = []
    from repro import NetworkPosition

    for _ in range(count):
        positions = []
        for _ in range(2):
            u, v, length = edges[int(rng.integers(len(edges)))]
            positions.append(NetworkPosition(u, v, float(rng.random() * length)))
        pairs.append(tuple(positions))
    return pairs


def test_dist_engine_speedup(benchmark, uni_processor):
    network, _, _ = uni_processor
    road = network.road
    pairs = _random_pairs(road, NUM_PAIRS, BENCH_SEED)

    engines = {ORACLE: DictDijkstraEngine(road)}
    engines.update((name, make_engine(name, road)) for name in ("csr", "ch"))
    engines["ch"].hierarchy()  # preprocessing outside the timed loop

    medians_us = {}
    distances = {}
    for name, engine in engines.items():
        per_pair = []
        results = []
        for a, b in pairs:
            best = None
            for _ in range(TIMING_ROUNDS):
                started = time.perf_counter()
                d = engine.point_to_point(a, b)
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            per_pair.append(best * 1e6)
            results.append(d)
        medians_us[name] = statistics.median(per_pair)
        distances[name] = results

    # Correctness first: all engines agree on every pair.
    for name in ("csr", "ch"):
        for d_oracle, d_engine in zip(distances[ORACLE], distances[name]):
            assert d_engine == pytest.approx(d_oracle, abs=1e-9), name

    speedups = {
        name: medians_us[ORACLE] / medians_us[name] for name in medians_us
    }
    ch_stats = engines["ch"].stats()

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "road_vertices": road.num_vertices,
        "road_edges": road.num_edges,
        "num_pairs": NUM_PAIRS,
        "timing_rounds": TIMING_ROUNDS,
        "median_us": medians_us,
        "speedup_vs_plain": speedups,
        "ch_shortcuts_added": ch_stats["shortcuts_added"],
        "ch_preprocess_seconds": ch_stats["preprocess_seconds"],
    }
    (RESULTS_DIR / "BENCH_dist_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    write_result(
        "dist_engine",
        ["engine", "median p2p (us)", "speedup vs plain"],
        [
            [name, round(medians_us[name], 1), round(speedups[name], 2)]
            for name in (ORACLE, "csr", "ch")
        ],
        "Distance engines (point-to-point dist_RN, UNI road network)",
    )

    # Acceptance bar: the hierarchy pays for its preprocessing.
    assert speedups["ch"] >= 5.0, medians_us
    assert speedups["csr"] >= 1.0, medians_us

    # Timed operation: one CH point-to-point query.
    a, b = pairs[0]
    ch = engines["ch"]
    benchmark(lambda: ch.point_to_point(a, b))
