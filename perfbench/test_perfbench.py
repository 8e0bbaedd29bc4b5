"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from verify import check_answer, check_optimal  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so one run takes a few seconds."""
    for name, value in {
        "ROAD_VERTICES": 120, "ROAD_POIS": 60, "ROAD_USERS": 80, "ROAD_WARMUP": 1,
        "SERVE_VERTICES": 80, "SERVE_POIS": 30, "SERVE_USERS": 80,
        "SERVE_RATE": 20.0, "SERVE_MAX_GROUPS": 50,
        "DYN_VERTICES": 120, "DYN_POIS": 60, "DYN_USERS": 80, "DYN_MUTATIONS": 30,
    }.items():
        monkeypatch.setattr(inputs, name, value)
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)


def _run(workload: str, traced: bool):
    return workloads.WORKLOADS[workload](3, 0.6, traced)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(tiny, workload):
    out = _run(workload, traced=False)
    assert out.failed == 0, out.errors
    assert out.attempted >= 1
    metrics = workloads.end_to_end(workload, out)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_v, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _unit in metrics.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(tiny, workload):
    out = _run(workload, traced=True)
    assert out.failed == 0, out.errors
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert workloads.PER_LAYER == declared
    assert 0.0 <= out.layers["obs.untracked.frac"] <= 1.0
    assert out.layers["index.build_s"] > 0.0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_is_the_result_object(tiny, capsys, trace):
    import run

    code = run.main(["--workload", "dynamic-mixed", "--seed", "2",
                     "--seconds", "0.5", "--trace", trace])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_same_seed_same_inputs(tiny):
    a, b = inputs.dynamic_network(), inputs.dynamic_network()
    assert sorted(a.road.edges()) == sorted(b.road.edges())
    assert [p.position for p in a.pois()] == [p.position for p in b.pois()]
    assert inputs.dynamic_inputs(a, 5) == inputs.dynamic_inputs(b, 5)
    assert inputs.dynamic_inputs(a, 5)[2] != inputs.dynamic_inputs(a, 6)[2]
    road = inputs.road_network()
    assert inputs.road_queries(road, 5) == inputs.road_queries(inputs.road_network(), 5)
    assert inputs.road_queries(road, 5) != inputs.road_queries(road, 6)
    serve = inputs.serve_network()
    assert inputs.serve_schedule(serve, 5, 3.0) == inputs.serve_schedule(
        inputs.serve_network(), 5, 3.0
    )
    assert inputs.serve_schedule(serve, 5, 3.0) != inputs.serve_schedule(serve, 6, 3.0)


def test_doctored_answer_is_caught(tiny):
    from repro.core.algorithm import GPSSNQueryProcessor

    network = inputs.road_network()
    processor = GPSSNQueryProcessor(network, seed=1, distance_engine=inputs.ENGINE)
    found = None
    for query in inputs.road_queries(network, 4):
        answer, _ = processor.answer(query)
        if answer.found:
            found = (query, answer)
            break
    assert found is not None
    query, answer = found
    assert check_answer(network, query, answer) is None
    assert check_answer(network, query, replace(answer, max_distance=answer.max_distance * 0.9))
    outsider = next(u for u in network.social.user_ids() if u not in answer.users)
    swapped = replace(answer, users=frozenset(set(answer.users) - {query.query_user} | {outsider}))
    assert check_answer(network, query, swapped)


def test_doctored_answers_count_as_failed_ops(tiny, monkeypatch):
    from repro.core.algorithm import GPSSNQueryProcessor

    honest = GPSSNQueryProcessor.answer

    def doctored(self, query, max_groups=None):
        answer, stats = honest(self, query, max_groups=max_groups)
        if answer.found:
            answer = replace(answer, max_distance=answer.max_distance + 1.0)
        return answer, stats

    monkeypatch.setattr(GPSSNQueryProcessor, "answer", doctored)
    out = _run("road-scale", traced=False)
    assert out.failed > 0
    assert any("maxdist" in error for error in out.errors)


def test_found_answer_turned_not_found_is_caught(tiny, monkeypatch):
    """A pruning bug shared by the live registry and the rebuild passes
    their byte parity; the exhaustive comparison must still catch it."""
    from repro.core.algorithm import GPSSNQueryProcessor
    from repro.core.baseline import BaselineProcessor
    from repro.core.query import GPSSNAnswer

    state = workloads._dynamic_setup(3)
    exact = [BaselineProcessor(state.network).answer(q, max_groups=g)[0]
             for q, g in state.standing]
    assert any(answer.found for answer in exact)
    for answer in exact:
        assert check_optimal(answer, answer) is None
        assert check_optimal(answer, GPSSNAnswer.empty()) == (
            None if not answer.found else
            "found=False but exhaustive search found=True"
        )

    honest = GPSSNQueryProcessor.answer
    standing = {q for q, _g in state.standing}

    def over_pruned(self, query, max_groups=None):
        answer, stats = honest(self, query, max_groups=max_groups)
        return (GPSSNAnswer.empty() if query in standing else answer), stats

    monkeypatch.setattr(GPSSNQueryProcessor, "answer", over_pruned)
    errors = []
    for seed in (0, 1):  # each seed checks one half of the standing queries
        out = workloads.Outcome()
        workloads._check_standing(out, workloads._dynamic_setup(3), seed)
        checked = exact[seed % 2::2]
        assert out.failed == sum(answer.found for answer in checked)
        errors += out.errors
    assert errors and all("exhaustive search" in error for error in errors)


def test_all_failed_run_still_reports(tiny):
    out = workloads.Outcome(attempted=4, failed=4, answers_attempted=4, setup_s=[1.0])
    metrics = workloads.end_to_end("serve-mixed", out)
    assert metrics["answer_p50_ms"][0] == 0.0
    assert metrics["slo_ok_frac"][0] == 0.0
    assert metrics["ops_per_s"][0] == 0.0


def test_reference_time_follows_the_probe():
    from calibrate import PROBE_REF_S, HostClock, scale

    clock = HostClock()
    clock.samples = [(float(t), 2 * PROBE_REF_S) for t in range(20)]  # half speed
    clock.samples += [(float(t), PROBE_REF_S / 2) for t in range(20, 40)]  # double
    assert scale(clock, 5.0, 1.0) == pytest.approx(0.5)
    assert scale(clock, 35.0, 1.0) == pytest.approx(2.0)
    assert scale(None, 35.0, 1.0) == 1.0


def test_wall_figures_are_the_raw_timings(tiny):
    out = _run("road-scale", traced=False)
    wall = workloads.end_to_end("road-scale", out, wall=True)
    assert wall["answer_p50_ms"][0] == workloads.percentile(out.answer_ms, 50)
    assert wall["setup_s"][0] == pytest.approx(sorted(out.setup_s)[len(out.setup_s) // 2])
    assert len(out.clock.samples) > len(out.answer_ms)  # one probe per answer at least


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "road-scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
