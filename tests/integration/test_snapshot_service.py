"""Frozen snapshots through the service stack: executor backends, the
serve daemon's telemetry, fallback behavior, and the CLI paths."""

import os

import pytest

from repro.cli import main
from repro.core.query import GPSSNQuery
from repro.experiments.harness import (
    ExperimentScale,
    build_dataset,
    make_processor,
    sample_query_users,
)
from repro.io.snapshot import freeze
from repro.obs import Recorder
from repro.service import BatchQueryExecutor, outcome_lines
from repro.service.executor import NetworkSnapshot
from repro.service.server import GPSSNService, ServerConfig

SCALE = ExperimentScale(
    road_vertices=120, num_pois=40, num_users=100, max_groups=400
)
SEED = 5


@pytest.fixture(scope="module")
def frozen_setup(tmp_path_factory):
    network = build_dataset("UNI", SCALE, seed=SEED)
    processor = make_processor(network, seed=SEED)
    path = tmp_path_factory.mktemp("svc") / "net.gpsnap"
    freeze(network, path, processor=processor)
    issuers = sample_query_users(network, 4, seed=2)
    entries = [
        (GPSSNQuery(query_user=uq, tau=3), SCALE.max_groups)
        for uq in issuers
    ]
    return network, path, entries


@pytest.fixture(scope="module")
def reference_lines(frozen_setup):
    network, _path, entries = frozen_setup
    with BatchQueryExecutor(
        network, backend="serial", build_args={"seed": SEED}
    ) as executor:
        return outcome_lines(executor.run_entries(entries))


class TestExecutorBackends:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_frozen_matches_in_memory(
        self, frozen_setup, reference_lines, backend
    ):
        _network, path, entries = frozen_setup
        with BatchQueryExecutor.from_frozen(
            path, workers=2, backend=backend
        ) as executor:
            outcomes = executor.run_entries(entries)
        assert outcome_lines(outcomes) == reference_lines


class TestRebuildFallback:
    def test_changed_file_counts_fallback_but_still_serves(
        self, frozen_setup, tmp_path
    ):
        network, path, entries = frozen_setup
        copy = tmp_path / "drift.gpsnap"
        copy.write_bytes(path.read_bytes())
        snapshot = NetworkSnapshot.from_frozen(copy)
        # The file changes after capture: refrozen without indexes, so
        # both the header hash and the attach result differ.
        freeze(network, copy, build_args={"seed": SEED},
               include_indexes=False)
        recorder = Recorder()
        _net, processor = snapshot.build_worker(recorder)
        assert recorder.metrics.counters["snapshot.rebuild_fallback"] == 1
        # The worker still came up — indexes replayed from build_args.
        query, max_groups = entries[0]
        answer, _stats = processor.answer(query, max_groups=max_groups)
        assert answer is not None


class TestServiceTelemetry:
    def test_attach_gauges_and_metrics_text(self, frozen_setup,
                                            reference_lines):
        _network, path, entries = frozen_setup
        config = ServerConfig(workers=1, backend="serial", timeout_sec=None)
        snapshot = NetworkSnapshot.from_frozen(path)
        with GPSSNService(None, config, snapshot=snapshot) as service:
            service.warm()
            gauges = service.registry.gauges
            assert gauges["snapshot.attach_seconds"] > 0.0
            assert gauges["snapshot.bytes_mapped"] == path.stat().st_size
            assert "snapshot.rebuild_fallback" not in \
                service.registry.counters
            result = service.execute(entries, request_id="req-frozen")
            assert outcome_lines(result.outcomes) == reference_lines
            text = service.metrics_text()
            assert "snapshot" in text and "attach_seconds" in text
            status = service.status_view()
            assert status["ready"]
        # The arena was the caller's: closing the service keeps it.
        assert path.exists()


class TestServiceArenaLifecycle:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_captured_arena_deleted_at_close(self, frozen_setup, backend):
        network, _path, entries = frozen_setup
        config = ServerConfig(workers=1, backend=backend, timeout_sec=None)
        service = GPSSNService(network, config, build_args={"seed": SEED})
        # The freeze (and its index build) waits for warm-up.
        assert service.snapshot is None
        with service:
            arena = service.snapshot.snapshot_path
            assert os.path.exists(arena)
            result = service.execute(entries[:1], request_id="req-own")
            assert result.outcomes[0].ok
        assert not os.path.exists(arena)


class TestCLI:
    def test_freeze_then_query_matches_input_path(self, tmp_path, capsys):
        bundle = tmp_path / "net.json"
        assert main([
            "generate", "--dataset", "UNI",
            "--users", "80", "--pois", "30", "--road-vertices", "80",
            "--seed", "3", "--output", str(bundle),
        ]) == 0
        snap = tmp_path / "net.gpsnap"
        assert main([
            "freeze", "--input", str(bundle), "--output", str(snap),
        ]) == 0
        assert snap.exists()
        capsys.readouterr()

        def answer_lines(text):
            # Keep the answers, drop the stats line (cpu time / search
            # counts are volatile across warm vs cold oracles).
            return [
                line for line in text.splitlines()
                if line.startswith("#") or "no (S, R) pair" in line
            ]

        query_args = ["--user", "0", "--tau", "3",
                      "--gamma", "0.3", "--theta", "0.3"]
        assert main(["query", "--input", str(bundle)] + query_args) == 0
        from_bundle = answer_lines(capsys.readouterr().out)
        assert main(["query", "--snapshot", str(snap)] + query_args) == 0
        from_snapshot = answer_lines(capsys.readouterr().out)

        assert from_bundle  # the query actually printed something
        assert from_snapshot == from_bundle

    def test_input_and_snapshot_are_exclusive(self, tmp_path, capsys):
        code = main([
            "query", "--input", str(tmp_path / "a.json"),
            "--snapshot", str(tmp_path / "b.gpsnap"), "--user", "0",
        ])
        assert code != 0
