"""Pair-kernel speedup benchmark + regression-guard wiring (S6).

Times the refinement-dominant workloads (UNI and Gow+Col, the datasets
where ``pair.distance`` evaluation dominates query latency) through
the product's vectorized pair kernel and through the per-pair scalar
oracle (``tests.oracles.ScalarRefinementProcessor``, which shares the
product's traversal and swaps only the pair evaluation) on the same
warmed network, writes
``results/BENCH_pair_kernel.json`` — scalar vs. vector CPU time and the
speedup ratio — and proves the guard closes: the vectorized kernel must
hold at least ``MIN_SPEEDUP``x over the scalar reference, both here and
in ``scripts/check_bench_regression.py --pair-kernel`` (the blocking CI
gate). Answers are asserted identical while timing, so the speedup can
never come from doing less work.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import time
from pathlib import Path

from repro import GPSSNQueryProcessor
from repro.core.query import GPSSNQuery
from repro.experiments.harness import build_dataset, sample_query_users

from benchmarks.conftest import (
    BENCH_QUERIES,
    BENCH_SCALE,
    BENCH_SEED,
    RESULTS_DIR,
    write_result,
)
from tests.oracles import ScalarRefinementProcessor

BASELINE_PATH = RESULTS_DIR / "BENCH_pair_kernel.json"
CHECKER_PATH = (
    Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)

#: The acceptance floor: the vector kernel must beat the scalar
#: reference by at least this factor on every benched dataset.
MIN_SPEEDUP = 3.0

#: Refinement-dominant datasets (pair.distance is the busiest rule).
DATASETS = ("UNI", "Gow+Col")


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", CHECKER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _time_workload(processor, queries, reps=3):
    """Best-of-``reps`` total CPU time plus the answers of one pass."""
    answers = [
        processor.answer(query, max_groups=BENCH_SCALE.max_groups)[0]
        for query in queries  # warm-up pass (oracle + kernel caches)
    ]
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        for query in queries:
            processor.answer(query, max_groups=BENCH_SCALE.max_groups)
        best = min(best, time.perf_counter() - start)
    return best, answers


def _run_dataset(name):
    network = build_dataset(name, BENCH_SCALE, seed=BENCH_SEED)
    queries = [
        GPSSNQuery(query_user=user)
        for user in sample_query_users(network, BENCH_QUERIES, seed=BENCH_SEED)
    ]
    kernels = {}
    for kernel, cls in (
        ("scalar", ScalarRefinementProcessor),
        ("vector", GPSSNQueryProcessor),
    ):
        processor = cls(network, seed=BENCH_SEED)
        kernels[kernel] = _time_workload(processor, queries)
    scalar_sec, scalar_answers = kernels["scalar"]
    vector_sec, vector_answers = kernels["vector"]
    # The speedup is only meaningful if the work is identical.
    for a_s, a_v in zip(scalar_answers, vector_answers):
        assert a_v.users == a_s.users
        assert a_v.pois == a_s.pois
        assert repr(a_v.max_distance) == repr(a_s.max_distance)
    return {
        "scalar_cpu_sec": scalar_sec,
        "vector_cpu_sec": vector_sec,
        "speedup": scalar_sec / vector_sec,
    }


def _build_payload() -> dict:
    return {
        "schema": "gpssn.bench.pair_kernel/1",
        "scale": {
            "road_vertices": BENCH_SCALE.road_vertices,
            "num_pois": BENCH_SCALE.num_pois,
            "num_users": BENCH_SCALE.num_users,
            "max_groups": BENCH_SCALE.max_groups,
        },
        "num_queries": BENCH_QUERIES,
        "seed": BENCH_SEED,
        "min_speedup": MIN_SPEEDUP,
        "datasets": {name: _run_dataset(name) for name in DATASETS},
    }


def test_pair_kernel_baseline(benchmark):
    payload = _build_payload()

    for name, entry in payload["datasets"].items():
        assert entry["speedup"] >= MIN_SPEEDUP, (
            f"{name}: vector kernel only {entry['speedup']:.2f}x over "
            f"scalar (floor {MIN_SPEEDUP}x) — "
            f"{entry['scalar_cpu_sec']:.3f}s vs {entry['vector_cpu_sec']:.3f}s"
        )

    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    write_result(
        "pair_kernel",
        ["dataset", "scalar (s)", "vector (s)", "speedup"],
        [
            [
                name,
                round(entry["scalar_cpu_sec"], 4),
                round(entry["vector_cpu_sec"], 4),
                f"{entry['speedup']:.2f}x",
            ]
            for name, entry in sorted(payload["datasets"].items())
        ],
        "Refinement kernel speedup (vector vs scalar, 4-query workloads)",
    )

    # A fresh run always passes its own gate.
    checker = _load_checker()
    assert checker.compare_pair_kernel(payload) == []

    benchmark(lambda: checker.compare_pair_kernel(payload))


def test_pair_kernel_gate_blocks_slow_kernel(tmp_path):
    """The CI gate's acceptance bar: a payload whose speedup sinks
    below the floor must fail the checker with a nonzero exit."""
    checker = _load_checker()
    payload = json.loads(BASELINE_PATH.read_text())

    honest = tmp_path / "pair.json"
    honest.write_text(json.dumps(payload) + "\n")
    assert checker.main(["--pair-kernel", str(honest)]) == 0

    slow_payload = copy.deepcopy(payload)
    for entry in slow_payload["datasets"].values():
        entry["vector_cpu_sec"] = entry["scalar_cpu_sec"]
        entry["speedup"] = 1.0
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(slow_payload) + "\n")
    assert checker.main(["--pair-kernel", str(slow)]) == 1

    # A custom floor overrides the payload's committed one.
    assert checker.compare_pair_kernel(slow_payload, min_speedup=0.5) == []
    assert checker.compare_pair_kernel(payload, min_speedup=10**6) != []
