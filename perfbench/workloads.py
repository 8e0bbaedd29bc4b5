"""The three workloads: ``road-scale``, ``serve-mixed``, ``dynamic-mixed``.

Each workload function takes ``(seed, seconds, traced)`` and returns a
:class:`Outcome`. Untraced runs produce the end-to-end metrics; traced
runs replay the same inputs under :class:`~layers.LayerTracer` and
produce the per-layer metrics (see ``README.md`` for the map).
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import queue
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import inputs
from calibrate import HostClock, pin, program_cpu, scale
from layers import LayerTracer, summarize
from verify import answer_line, check_answer, check_optimal

#: Set-up is repeated this many times per untraced run, each time from
#: a collected heap with the previous set-up released; setup_s is the
#: median.
SETUP_REPS = 5

#: Host-speed probes run right before and right after each set-up.
PROBES_AROUND_SETUP = 3

#: serve-mixed probes the daemon's CPU only in an arrival gap at least
#: this long with no request in flight, so a probe never overlaps one.
PROBE_GAP_S = 0.05

#: Per-workload answer latency limit behind ``slo_ok_frac``.
SLO_MS = {"road-scale": 500.0, "serve-mixed": 100.0, "dynamic-mixed": 250.0}

#: Longest wait for a spawned daemon's ``/readyz``.
READY_TIMEOUT_S = 120.0

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


@dataclass
class Outcome:
    """What one run measured: op counts, samples, digest lines, layers.

    Timings are wall times, each with the perf-counter time of its
    middle (``*_at``), so that :func:`end_to_end` can put them in the
    reference time of ``clock`` (see ``calibrate.py``).
    """

    attempted: int = 0
    failed: int = 0
    answers_attempted: int = 0
    answer_ms: List[float] = field(default_factory=list)
    answer_at: List[float] = field(default_factory=list)
    answer_ok: List[bool] = field(default_factory=list)  # passed every check
    update_ms: List[float] = field(default_factory=list)
    update_at: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    setup_at: List[float] = field(default_factory=list)
    busy_s: float = 0.0
    #: serve-mixed: (middle, seconds) of each stretch with a request in
    #: flight; in-process the busy time is the timed calls themselves.
    in_flight: List[Tuple[float, float]] = field(default_factory=list)
    clock: Optional[HostClock] = None
    peak_rss_mb: float = 0.0
    lines: List[str] = field(default_factory=list)  # outcome digest input
    errors: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(reason)

    def add_setup(self, sec: float) -> None:
        """Record a set-up that ended just now."""
        self.setup_s.append(sec)
        self.setup_at.append(time.perf_counter() - sec / 2.0)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0 with no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, out: Outcome, wall: bool = False) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, in reference time (``wall`` gives the raw
    wall-time figures). A figure with no samples behind it (every op
    failed) reads 0, and the failed count says why."""
    clock = None if wall else out.clock
    answer = [scale(clock, at, ms) for at, ms in zip(out.answer_at, out.answer_ms)]
    update = [scale(clock, at, ms) for at, ms in zip(out.update_at, out.update_ms)]
    setup = [scale(clock, at, s) for at, s in zip(out.setup_at, out.setup_s)]
    if out.in_flight:
        busy_s = sum(scale(clock, at, sec) for at, sec in out.in_flight)
    else:
        busy_s = (sum(answer) + sum(update)) / 1000.0
    ops = len(answer) + len(update)
    limit = SLO_MS[name]
    ok = sum(good and ms <= limit for good, ms in zip(out.answer_ok, answer))
    return {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "answer_p50_ms": (percentile(answer, 50), "ms"),
        "answer_p90_ms": (percentile(answer, 90), "ms"),
        "ops_per_s": (ops / busy_s if busy_s else 0.0, "1/s"),
        "slo_ok_frac": (
            ok / out.answers_attempted if out.answers_attempted else 0.0, "fraction"
        ),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }


# -- per-layer metrics --------------------------------------------------------

#: Per-layer metric -> unit, in report order.
PER_LAYER = {
    "roadnet.sssp_full.count": "count",
    "roadnet.sssp_full.ms": "ms",
    "roadnet.sssp_bounded.count": "count",
    "roadnet.sssp_bounded.ms": "ms",
    "roadnet.p2p.count": "count",
    "roadnet.p2p.ms": "ms",
    "roadnet.oracle.hit_ratio": "fraction",
    "index.region.count": "count",
    "index.region.self_ms": "ms",
    "index.page_accesses": "count",
    "index.pivots_s": "s",
    "index.build_s": "s",
    "core.traverse.self_ms": "ms",
    "core.refine.self_ms": "ms",
    "core.enumerate.ms": "ms",
    "core.groups_refined": "count",
    "core.kernel.best_region.count": "count",
    "core.kernel.best_region.ms": "ms",
    "core.kernel.member_row.count": "count",
    "core.kernel.member_row.ms": "ms",
    "core.candidate_users.ratio": "fraction",
    "core.candidate_pois.ratio": "fraction",
    "service.execute_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.envelope_ms": "ms",
    "service.rejected.count": "count",
    "service.gen_late_ms": "ms",
    "io.freeze_s": "s",
    "io.attach_s": "s",
    "dynamic.maintain.ms": "ms",
    "dynamic.reanswer.ms": "ms",
    "dynamic.skip.ratio": "fraction",
    "dynamic.update_p50_ms": "ms",
    "dynamic.update_p90_ms": "ms",
    "obs.trace_overhead.frac": "fraction",
    "obs.untracked.frac": "fraction",
}


class AnswerStats:
    """Per-answer ``QueryStatistics`` sums for the traced run."""

    def __init__(self) -> None:
        self.n = 0
        self.pages = self.groups = self.searches = self.hits = 0
        self.user_ratio = self.poi_ratio = 0.0

    def add(self, stats, network) -> None:
        self.n += 1
        self.pages += stats.page_accesses
        self.groups += stats.groups_refined
        self.searches += stats.dijkstra_searches
        self.hits += stats.dijkstra_cache_hits
        self.user_ratio += stats.candidate_users / network.social.num_users
        self.poi_ratio += stats.candidate_pois / max(network.num_pois, 1)

    def metrics(self) -> Dict[str, float]:
        n = max(self.n, 1)
        lookups = self.hits + self.searches
        return {
            "index.page_accesses": self.pages / n,
            "core.groups_refined": self.groups / n,
            "roadnet.oracle.hit_ratio": self.hits / lookups if lookups else 0.0,
            "core.candidate_users.ratio": self.user_ratio / n,
            "core.candidate_pois.ratio": self.poi_ratio / n,
        }


def layer_metrics(spans: List[list], answers: int, stats: AnswerStats) -> Dict[str, float]:
    """Span-derived per-layer metrics.

    Spans of timed answers carry an integer op id; set-up spans carry
    ``None``. Per-answer figures divide by ``answers``; set-up figures
    (bounded sweeps, pivots, index build) come from the one traced
    set-up; ``obs.untracked.frac`` covers answer ops only.
    """
    op_spans = [s for s in spans if isinstance(s[3], int) and s[3] >= 0]
    setup_spans = [s for s in spans if s[3] is None]
    ops = summarize(op_spans)
    setup = summarize(setup_spans)
    n = max(answers, 1)

    def per_answer(name: str, key: str = "sec") -> float:
        return ops.get(name, {}).get(key, 0.0) * (1000.0 if key != "count" else 1.0) / n

    def self_ms(*names: str) -> float:
        return sum(
            entry["self_sec"] for span_name, entry in ops.items()
            if any(span_name == x or span_name.startswith(x + ".") for x in names)
        ) * 1000.0 / n

    bounded = [setup.get("roadnet.sssp_bounded", {}), ops.get("roadnet.sssp_bounded", {})]
    wall = ops.get("op", {}).get("sec", 0.0)
    out = {
        "roadnet.sssp_full.count": per_answer("roadnet.sssp_full", "count"),
        "roadnet.sssp_full.ms": per_answer("roadnet.sssp_full"),
        "roadnet.sssp_bounded.count": float(sum(b.get("count", 0) for b in bounded)),
        "roadnet.sssp_bounded.ms": 1000.0 * sum(b.get("sec", 0.0) for b in bounded),
        "roadnet.p2p.count": per_answer("roadnet.p2p", "count"),
        "roadnet.p2p.ms": per_answer("roadnet.p2p"),
        "index.region.count": per_answer("index.region", "count"),
        "index.region.self_ms": per_answer("index.region", "self_sec"),
        "index.pivots_s": setup.get("index.pivots", {}).get("sec", 0.0),
        "index.build_s": setup.get("index.build", {}).get("sec", 0.0),
        "core.traverse.self_ms": self_ms("traverse"),
        "core.refine.self_ms": self_ms("refine"),
        "core.enumerate.ms": per_answer("refine.enumerate"),
        "core.kernel.best_region.count": per_answer("core.kernel.best_region", "count"),
        "core.kernel.best_region.ms": per_answer("core.kernel.best_region"),
        "core.kernel.member_row.count": per_answer("core.kernel.member_row", "count"),
        "core.kernel.member_row.ms": per_answer("core.kernel.member_row"),
        "obs.untracked.frac": ops.get("untracked", {}).get("self_sec", 0.0) / wall if wall else 0.0,
    }
    out.update(stats.metrics())
    # Shares behind the workload-separation claims (printed, not gated).
    if wall:
        out["share.roadnet_sssp_full+index_region_self"] = (
            ops.get("roadnet.sssp_full", {}).get("sec", 0.0)
            + ops.get("index.region", {}).get("self_sec", 0.0)
        ) / wall
        out["share.core_self"] = ops.get("layer:core", {}).get("self_sec", 0.0) / wall
    return out


# -- shared in-process loop ----------------------------------------------------


class Timed:
    """Runs one timed call as benchmark op ``op_id`` (span ``op``)."""

    def __init__(self, tracer: Optional[LayerTracer], recorder=None) -> None:
        self.tracer = tracer
        self.recorder = recorder
        self.next_op = 0

    def __call__(self, fn: Callable, warmup: bool = False):
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = -1 if warmup else self.next_op
        start = time.perf_counter()
        try:
            return fn(), time.perf_counter() - start
        finally:
            end = time.perf_counter()
            if tracer is not None:
                if self.recorder is not None:
                    tracer.adopt_program_spans(self.recorder.tracer)
                tracer.span("op", start, end)
                tracer.op_id = None
                if not warmup:
                    self.next_op += 1


def _processor(network, recorder=None, **kwargs):
    from repro.core.algorithm import GPSSNQueryProcessor

    return GPSSNQueryProcessor(
        network, seed=inputs.NETWORK_SEED, distance_engine=inputs.ENGINE,
        recorder=recorder, **kwargs
    )


# -- road-scale ---------------------------------------------------------------


def _road_setup(recorder=None):
    network = inputs.road_network()
    gc.collect()
    start = time.perf_counter()
    processor = _processor(network, recorder, r_max=inputs.ROAD_R_MAX)
    return network, processor, time.perf_counter() - start


def _road_pass(seed, budget, out, timed, processor, network, limit=None, stats=None):
    """Closed loop of answers after the warm-up; returns queries answered."""
    queries = inputs.road_queries(network, seed)
    for query in queries[: inputs.ROAD_WARMUP]:
        timed(lambda q=query: processor.answer(q, max_groups=inputs.ROAD_MAX_GROUPS), warmup=True)
    done = 0
    for query in queries[inputs.ROAD_WARMUP:]:
        if (limit is None and out.busy_s >= budget) or done == limit:
            break
        _answer(out, timed, processor, network, query, inputs.ROAD_MAX_GROUPS, stats)
        done += 1
    return done


def _answer(out, timed, processor, network, query, max_groups, stats=None) -> None:
    out.attempted += 1
    out.answers_attempted += 1
    try:
        (answer, qstats), sec = timed(lambda: processor.answer(query, max_groups=max_groups))
    except Exception as exc:  # noqa: BLE001 - any error is a failed op
        out.fail(f"answer {query}: {type(exc).__name__}: {exc}")
        return
    out.busy_s += sec
    out.answer_ms.append(sec * 1000.0)
    out.answer_at.append(time.perf_counter() - sec / 2.0)
    if out.clock is not None:
        out.clock.probe()
    if stats is not None:
        stats.add(qstats, network)
    reason = check_answer(network, query, answer)
    out.lines.append(f"{query.query_user}:{query.radius:.6f}={answer_line(answer)}")
    out.answer_ok.append(reason is None)
    if reason is not None:
        out.fail(f"answer {query}: {reason}")


def _probed_setup(out: Outcome, setup: Callable):
    """One set-up between probes; ``setup()`` returns ``(..., seconds)``."""
    out.clock.probe(PROBES_AROUND_SETUP)
    result = setup()
    out.add_setup(result[-1])
    out.clock.probe(PROBES_AROUND_SETUP)
    return result


def road_scale(seed: int, seconds: float, traced: bool) -> Outcome:
    pin(program_cpu())
    out = Outcome()
    if not traced:
        out.clock = HostClock()
        network = processor = None
        for _ in range(SETUP_REPS):
            network = processor = None  # release the previous set-up first
            network, processor, _sec = _probed_setup(out, _road_setup)
        _road_pass(seed, seconds, out, Timed(None), processor, network)
        out.peak_rss_mb = self_rss_mb()
        return out
    # Traced: an untraced pass, then the same answers replayed traced on
    # a fresh set-up; the ratio of their busy times is the overhead.
    base = Outcome()
    network, processor, _ = _road_setup()
    answered = _road_pass(seed, seconds / 2, base, Timed(None), processor, network)
    del network, processor
    from repro.obs.registry import Recorder

    recorder = Recorder.traced()
    stats = AnswerStats()
    with LayerTracer() as tracer:
        network, processor, sec = _road_setup(recorder)
        tracer.adopt_program_spans(recorder.tracer)
        out.add_setup(sec)
        _road_pass(seed, 0, out, Timed(tracer, recorder), processor, network,
                   limit=answered, stats=stats)
    out.spans = tracer.spans
    out.layers = layer_metrics(tracer.spans, len(out.answer_ms), stats)
    out.layers["obs.trace_overhead.frac"] = out.busy_s / base.busy_s - 1.0
    out.peak_rss_mb = self_rss_mb()
    return out


# -- dynamic-mixed ------------------------------------------------------------


class DynamicState(NamedTuple):
    network: object
    processor: object
    registry: object
    standing: list
    mutations: list
    reads: list
    setup_s: float  # last, as _probed_setup expects


def _dynamic_setup(seed: int, recorder=None) -> DynamicState:
    from repro.dynamic import ContinuousQueryRegistry, DynamicIndexMaintainer

    network = inputs.dynamic_network()
    standing, mutations, reads = inputs.dynamic_inputs(network, seed)
    gc.collect()
    start = time.perf_counter()
    processor = _processor(network, recorder)
    registry = ContinuousQueryRegistry(DynamicIndexMaintainer(processor))
    registry.subscribe(standing)
    sec = time.perf_counter() - start
    return DynamicState(network, processor, registry, standing, mutations, reads, sec)


def _dynamic_pass(state: DynamicState, budget, out, timed, limit=None, stats=None,
                  skips=None) -> int:
    network, processor, registry = state.network, state.processor, state.registry
    steps = 0
    for mutation, read in zip(state.mutations, state.reads):
        if (limit is None and out.busy_s >= budget) or steps == limit:
            break
        steps += 1
        out.attempted += 1
        try:
            report, sec = timed(lambda m=mutation: registry.apply_batch([m]))
        except Exception as exc:  # noqa: BLE001
            out.fail(f"apply {mutation}: {type(exc).__name__}: {exc}")
            continue
        out.busy_s += sec
        out.update_ms.append(sec * 1000.0)
        out.update_at.append(time.perf_counter() - sec / 2.0)
        if skips is not None:
            skips[0] += report["skipped"]
            skips[1] += report["dirty"]
        _answer(out, timed, processor, network, read, inputs.DYN_READ_MAX_GROUPS, stats)
    return steps


def _check_standing(out: Outcome, state: DynamicState, seed: int) -> None:
    """Standing answers at the end of the stream must be byte-equal to
    a from-scratch rebuild over the mutated network, and every other one
    (which half, the seed decides) must satisfy Definition 5 and match
    the exhaustive ``BaselineProcessor`` in found flag and objective.
    The last check is the one a pruning bug shared by the live registry
    and the rebuild cannot pass."""
    from repro.core.baseline import BaselineProcessor
    from repro.dynamic import ContinuousQueryRegistry, DynamicIndexMaintainer

    cold = ContinuousQueryRegistry(DynamicIndexMaintainer(_processor(state.network)))
    cold.subscribe(state.standing)
    live_lines, fresh_lines = state.registry.outcome_lines(), cold.outcome_lines()
    if len(live_lines) != len(fresh_lines):
        out.attempted += 1
        out.fail(f"{len(live_lines)} standing answers, rebuild has {len(fresh_lines)}")
    for live, fresh in zip(live_lines, fresh_lines):
        out.attempted += 1
        out.lines.append(live)
        if live != fresh:
            out.fail(f"standing answer differs from rebuild: {live} != {fresh}")
    baseline = BaselineProcessor(state.network)
    for sq in state.registry.queries[seed % 2::2]:
        out.attempted += 1
        if sq.answer is None:
            out.fail(f"standing {sq.query}: no answer")
            continue
        exact, _stats = baseline.answer(sq.query, max_groups=sq.max_groups)
        reason = check_answer(state.network, sq.query, sq.answer) or check_optimal(
            exact, sq.answer
        )
        if reason is not None:
            out.fail(f"standing {sq.query}: {reason}")


def dynamic_mixed(seed: int, seconds: float, traced: bool) -> Outcome:
    pin(program_cpu())
    out = Outcome()
    if not traced:
        out.clock = HostClock()
        state = None
        for _ in range(SETUP_REPS):
            state = None  # release the previous set-up first
            state = _probed_setup(out, lambda: _dynamic_setup(seed))
        _dynamic_pass(state, seconds, out, Timed(None))
        # Read before the checks build a second processor.
        out.peak_rss_mb = self_rss_mb()
        _check_standing(out, state, seed)
        return out
    base = Outcome()
    steps = _dynamic_pass(_dynamic_setup(seed), seconds / 2, base, Timed(None))
    from repro.obs.registry import Recorder

    recorder = Recorder.traced()
    stats = AnswerStats()
    skips = [0, 0]
    with LayerTracer() as tracer:
        state = _dynamic_setup(seed, recorder)
        tracer.adopt_program_spans(recorder.tracer)
        out.add_setup(state.setup_s)
        _dynamic_pass(state, 0, out, Timed(tracer, recorder), limit=steps,
                      stats=stats, skips=skips)
    out.peak_rss_mb = self_rss_mb()
    _check_standing(out, state, seed)
    out.spans = tracer.spans
    reads = len(out.answer_ms)
    out.layers = layer_metrics(tracer.spans, reads, stats)
    op_spans = [s for s in tracer.spans if isinstance(s[3], int) and s[3] >= 0]
    ops = summarize(op_spans)
    updates = max(len(out.update_ms), 1)
    maintain = ops.get("dynamic.maintain", {}).get("sec", 0.0)
    flush = ops.get("dynamic.maintain.flush", {}).get("sec", 0.0)
    reanswer = ops.get("dynamic.reanswer", {}).get("sec", 0.0)
    out.layers.update({
        "dynamic.maintain.ms": 1000.0 * (maintain + flush) / updates,
        "dynamic.reanswer.ms": 1000.0 * (reanswer - flush) / updates,
        "dynamic.skip.ratio": skips[0] / max(skips[0] + skips[1], 1),
        "dynamic.update_p50_ms": percentile(out.update_ms, 50),
        "dynamic.update_p90_ms": percentile(out.update_ms, 90),
        "obs.trace_overhead.frac": out.busy_s / base.busy_s - 1.0,
    })
    return out


# -- serve-mixed --------------------------------------------------------------


class Daemon:
    """``gpssn serve`` over a frozen snapshot, in a child process."""

    def __init__(self, arena: Path, log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--snapshot", str(arena), "--port", "0",
                "--backend", "process", "--workers", "1",
                "--distance-engine", inputs.ENGINE,
            ],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("listening on http://")[1].split()[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                if self.get("/readyz")[0] == 200:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon did not become ready")
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon plus its worker processes."""
        total = 0.0
        pids = [self.proc.pid]
        try:
            for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
                pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            pass
        for pid in pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total += float(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self._log.close()


def _serve_setup(workdir: Path, rep: int):
    from repro.io.snapshot import freeze

    network = inputs.serve_network()
    arena = workdir / f"net{rep}.gpsnap"
    gc.collect()
    start = time.perf_counter()
    freeze(network, arena, build_args={"seed": inputs.NETWORK_SEED,
                                       "distance_engine": inputs.ENGINE})
    frozen = time.perf_counter() - start
    daemon = Daemon(arena, workdir / f"daemon{rep}.log")
    return network, daemon, frozen, time.perf_counter() - start


def _warm_up(daemon: Daemon, lines: List[str]) -> None:
    """Send ``lines`` one after another, untimed."""
    conn = daemon.connect()
    try:
        for line in lines:
            conn.request("POST", "/query", body=(line + "\n").encode(),
                         headers={"Content-Type": "application/jsonl"})
            conn.getresponse().read()
    finally:
        conn.close()


def _open_loop(daemon: Daemon, schedule, trace: bool,
               clock: Optional[HostClock] = None) -> List[dict]:
    """Send ``schedule`` on time from two connections; one record each.

    The generator runs on the daemon's CPU (see :func:`serve_mixed`).
    With a ``clock``, it probes that CPU in arrival gaps with no request
    in flight, so a probe never overlaps a request.
    """
    pending: "queue.Queue" = queue.Queue()
    records: List[dict] = [None] * len(schedule)
    path = "/query?trace=1" if trace else "/query"
    in_flight = [0]
    settled = threading.Condition()

    def sender() -> None:
        conn = daemon.connect()
        while True:
            item = pending.get()
            if item is None:
                break
            idx, due_abs = item
            sent = time.perf_counter()
            rec = {"late": sent - due_abs, "status": 0, "sent": sent}
            try:
                body = (schedule[idx].line + "\n").encode()
                conn.request("POST", path, body=body,
                             headers={"Content-Type": "application/jsonl"})
                resp = conn.getresponse()
                payload = resp.read()
                rec["done"] = time.perf_counter()
                rec["latency"] = rec["done"] - due_abs
                rec["status"] = resp.status
                rec["body"] = payload.decode()
                rec["rid"] = resp.getheader("X-Request-Id")
                if trace and resp.status == 200:
                    conn.request("GET", f"/trace/{rec['rid']}")
                    tresp = conn.getresponse()
                    rec["trace"] = json.loads(tresp.read()) if tresp.status == 200 else None
            except (OSError, ValueError, http.client.HTTPException) as exc:
                rec["done"] = time.perf_counter()
                rec["latency"] = rec["done"] - due_abs
                rec["error"] = f"{type(exc).__name__}: {exc}"
                conn.close()
                conn = daemon.connect()
            records[idx] = rec
            with settled:
                in_flight[0] -= 1
                settled.notify_all()
        conn.close()

    threads = [threading.Thread(target=sender) for _ in range(2)]
    for t in threads:
        t.start()
    t0 = time.perf_counter()
    for idx, arrival in enumerate(schedule):
        due = t0 + arrival.due
        if clock is not None:
            with settled:
                settled.wait_for(lambda: not in_flight[0],
                                 timeout=max(0.0, due - time.perf_counter() - PROBE_GAP_S))
                idle = not in_flight[0]
            if idle and due - time.perf_counter() > PROBE_GAP_S:
                clock.probe()
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        with settled:
            in_flight[0] += 1
        pending.put((idx, due))
    for _ in threads:
        pending.put(None)
    for t in threads:
        t.join()
    return records


def in_flight(records: List[dict]) -> List[Tuple[float, float]]:
    """The union of send-to-response intervals, the time the daemon had
    at least one request in the house, as ``(middle, seconds)`` pieces."""
    pieces, reach = [], -math.inf
    for start, end in sorted((r["sent"], r["done"]) for r in records):
        if end > reach:
            start = max(start, reach)
            pieces.append(((start + end) / 2.0, end - start))
            reach = end
    return pieces


def _serial_outcomes(network, schedule, tracer=None, recorder=None, stats=None):
    """The in-process serial processor's outcome per request."""
    from repro.service.batch import query_request_id
    from repro.service.limits import ExecutionLimits, run_with_limits
    from repro.service.protocol import parse_query_lines

    processor = _processor(network, recorder)
    if tracer is not None:
        tracer.adopt_program_spans(recorder.tracer)
    limits = ExecutionLimits()
    timed = Timed(tracer, recorder)
    entries = [parse_query_lines([arrival.line])[0] for arrival in schedule]
    if tracer is not None:
        # The daemon's worker is warm after its first requests; warm the
        # replay the same way so its layer split matches the daemon's.
        for query, max_groups in entries:
            timed(lambda: processor.answer(query, max_groups=max_groups), warmup=True)
    results = []
    for query, max_groups in entries:
        outcome, _sec = timed(lambda: run_with_limits(
            lambda: processor.answer(query, max_groups=max_groups),
            limits, index=0, worker=0,
            request_id=query_request_id(query, max_groups),
        ))
        if stats is not None and outcome.stats is not None:
            stats.add(outcome.stats, network)
        results.append((query, outcome))
    return results


def _serve_check(out: Outcome, network, schedule, records, tracer=None, recorder=None, stats=None):
    """Byte parity with the serial processor plus Definition 5."""
    from repro.service.protocol import outcome_lines

    serial = _serial_outcomes(network, schedule, tracer, recorder, stats)
    for rec, (query, outcome) in zip(records, serial):
        out.attempted += 1
        out.answers_attempted += 1
        expected = outcome_lines([outcome])[0]
        out.lines.append(expected)
        if rec.get("status") != 200:
            out.fail(f"HTTP {rec.get('status')} {rec.get('error', '')}".strip())
            continue
        out.answer_ms.append(rec["latency"] * 1000.0)
        out.answer_at.append(rec["done"] - rec["latency"] / 2.0)
        if rec["body"].rstrip("\n") != expected:
            reason = f"daemon line {rec['body']!r} != serial {expected!r}"
        elif outcome.status != "ok":
            reason = f"outcome {outcome.status}"
        else:
            reason = check_answer(network, query, outcome.answer)
            reason = reason and f"{query}: {reason}"
        out.answer_ok.append(reason is None)
        if reason is not None:
            out.fail(reason)


def serve_mixed(seed: int, seconds: float, traced: bool) -> Outcome:
    # The daemon, its worker and the generator all run on the program
    # CPU: each request's whole path runs where the probe measures, and
    # no hand-off waits for another CPU to wake.
    pin(program_cpu())
    out = Outcome()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK))
    daemon = None
    try:
        if not traced:
            out.clock = HostClock()
        for rep in range(1 if traced else SETUP_REPS):
            if daemon is not None:
                daemon.stop()
            network = daemon = None  # release the previous set-up first
            if traced:
                network, daemon, frozen, sec = _serve_setup(workdir, rep)
                out.add_setup(sec)
            else:
                network, daemon, frozen, _sec = _probed_setup(
                    out, lambda: _serve_setup(workdir, rep)
                )
        if not traced:
            schedule = inputs.serve_schedule(network, seed, seconds)
            _warm_up(daemon, inputs.serve_warmup(network))
            records = _open_loop(daemon, schedule, trace=False, clock=out.clock)
            out.clock.probe(PROBES_AROUND_SETUP)
            out.in_flight = in_flight(records)
            out.busy_s = sum(sec for _at, sec in out.in_flight)
            out.peak_rss_mb = daemon.peak_rss_mb()
            daemon.stop()
            daemon = None
            _serve_check(out, inputs.serve_network(), schedule, records)
            return out
        # Traced: one warm-up pass, the same schedule untraced, then with
        # ?trace=1 and a GET /trace/<id> after each answer.
        schedule = inputs.serve_schedule(network, seed, seconds / 2)
        _open_loop(daemon, schedule, trace=False)
        base = _open_loop(daemon, schedule, trace=False)
        records = _open_loop(daemon, schedule, trace=True)
        _status, metrics_text = daemon.get("/metrics")
        out.peak_rss_mb = daemon.peak_rss_mb()
        daemon.stop()
        daemon = None
        from repro.obs.registry import Recorder

        recorder = Recorder.traced()
        stats = AnswerStats()
        with LayerTracer() as tracer:
            _serve_check(out, inputs.serve_network(), schedule, records,
                         tracer, recorder, stats)
        out.spans = tracer.spans
        out.layers = layer_metrics(tracer.spans, len(schedule), stats)
        out.layers.update(_service_layers(records, base, metrics_text.decode(), frozen))
        return out
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _service_layers(records, base, metrics_text: str, frozen_s: float) -> Dict[str, float]:
    execute, waits, envelope, untracked = [], [], [], []
    for rec in records:
        trace = rec.get("trace")
        if not trace:
            continue
        spans = trace["spans"]
        request = next(s for s in spans if s["name"] == "request")["duration"]
        layered = sum(
            s["duration"] for s in spans
            if s["name"] == "queue.wait" or s["name"] in ("traverse", "refine")
        )
        execute.append(request)
        waits.append(next(s for s in spans if s["name"] == "queue.wait")["duration"])
        envelope.append(rec["done"] - rec["sent"] - request)
        untracked.append(max(request - layered, 0.0))
    attach = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("gpssn_snapshot_attach_seconds "):
            attach = float(line.split()[1])
    lat = [r["latency"] for r in records if r.get("status") == 200]
    lat0 = [r["latency"] for r in base if r.get("status") == 200]
    n = max(len(execute), 1)
    return {
        "service.execute_ms": 1000.0 * sum(execute) / n,
        "service.queue_wait_ms": 1000.0 * sum(waits) / n,
        "service.envelope_ms": 1000.0 * sum(envelope) / n,
        "service.rejected.count": float(sum(r.get("status") == 429 for r in records + base)),
        "service.gen_late_ms": 1000.0 * percentile([r["late"] for r in records + base], 99),
        "io.freeze_s": frozen_s,
        "io.attach_s": attach,
        "obs.trace_overhead.frac": (
            percentile(lat, 50) / percentile(lat0, 50) - 1.0 if lat and lat0 else 0.0
        ),
        "obs.untracked.frac": sum(untracked) / max(sum(execute), 1e-12),
    }


WORKLOADS = {
    "road-scale": road_scale,
    "serve-mixed": serve_mixed,
    "dynamic-mixed": dynamic_mixed,
}
