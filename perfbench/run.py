"""GP-SSN benchmark: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload road-scale --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, with timings in the host's
reference time (see ``calibrate.py``); ``--trace 1`` replays the
workload under the layer tracer and prints the per-layer metrics. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it carry the seed, sample
counts, host facts, the outcome digest and, untraced, the same
end-to-end figures in raw wall time with the host-speed probe's median. A traced run also writes its
spans to ``.perfbench_out/<workload>-<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("road-scale", "serve-mixed", "dynamic-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to the benchmark; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    import workloads
    from calibrate import scale
    from layers import records
    from verify import digest

    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace)
    )
    for error in outcome.errors:
        print(f"FAILED: {error}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "answer_samples": len(outcome.answer_ms),
        "update_samples": len(outcome.update_ms),
        "setup_samples": len(outcome.setup_s),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "digest": digest(outcome.lines),
    }, sort_keys=True))
    if outcome.clock is not None:
        probes = [sec for _at, sec in outcome.clock.samples]
        print(json.dumps({
            "wall": {name: value for name, (value, _unit) in workloads.end_to_end(
                args.workload, outcome, wall=True).items()},
            "probe_samples": len(probes),
            "probe_median_ms": 1000.0 * statistics.median(probes),
        }, sort_keys=True))

    if args.trace:
        metrics = {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, unit in workloads.PER_LAYER.items()
        }
        shares = {k: round(v, 4) for k, v in outcome.layers.items()
                  if k.startswith("share.")}
        print(json.dumps({"layer_shares": shares}, sort_keys=True))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-{args.seed}.spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for record in records(outcome.spans):
                handle.write(json.dumps(record) + "\n")
    else:
        metrics = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in workloads.end_to_end(
                args.workload, outcome
            ).items()
        }
        if outcome.update_ms:
            update_ms = [scale(outcome.clock, at, ms)
                         for at, ms in zip(outcome.update_at, outcome.update_ms)]
            print(json.dumps({
                "update_p50_ms": workloads.percentile(update_ms, 50),
                "update_p90_ms": workloads.percentile(update_ms, 90),
            }))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
