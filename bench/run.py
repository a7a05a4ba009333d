#!/usr/bin/env python3
"""Benchmark of the qcongest diameter algorithms, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload exact-longpath --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one process each

A run builds its workload from ``--seed`` (set-up), then repeats whole
passes over the workload's algorithm runs until ``--seconds`` have passed,
checking every output against the benchmark's own BFS diameters and the
methods' declared properties.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, writing the spans to ``.bench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# One thread per process: the workloads are single-threaded by design, and
# an idle BLAS thread pool must not compete with the timed calls.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

WORKLOAD_NAMES = ("exact-longpath", "dense-grid", "simple-engine")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "run_s_p50": "s",
    "peak_rss_mb": "MB",
    "charged_rounds": "rounds",
    "charged_words": "words",
    "leader_qubits_max": "qubits",
}


def _setup_once(workload: str, seed: int) -> float:
    """Seconds of a cold set-up: importing qcongest and generating the
    workload's graphs, in a fresh interpreter, at the reference host speed."""
    probe = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
        "import workloads\n"
        f"workloads.build({workload!r}, {seed})\n"
        "t = time.perf_counter() - t\n"
        "import calibration\n"
        "print(t * calibration.REFERENCE_S / calibration.sample()[0])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _failures(passes) -> tuple[int, int, bool]:
    """(attempted, failed, outputs identical across passes)."""
    attempted = failed = 0
    for p in passes:
        for outcome in p.outcomes:
            attempted += 1
            if outcome.failures:
                failed += 1
                print(
                    f"FAILED {outcome.algo} {outcome.instance.family} n={outcome.instance.n} "
                    f"seed={outcome.instance.seed}: {'; '.join(outcome.failures)}",
                    file=sys.stderr,
                )
    first = [o.signature() for o in passes[0].outcomes]
    steady = all([o.signature() for o in p.outcomes] == first for p in passes)
    return attempted, failed, steady


def end_to_end(passes, setups: list[float]) -> dict[str, float]:
    first = [o for o in passes[0].outcomes if o.result is not None]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "run_s_p50": statistics.median(o.seconds for p in passes for o in p.outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "charged_rounds": sum(o.result.report.rounds for o in first),
        "charged_words": sum(o.result.report.total_words for o in first),
        "leader_qubits_max": max(
            (o.result.report.per_node_peak_qubits.get(o.result.report.leader, 0) for o in first),
            default=0,
        ),
    }


def per_layer(workload, untraced, traced) -> dict[str, float]:
    import spans

    per_pass = [spans.pass_metrics(rec.spans, p.factor) for p, rec in traced]
    metrics = {key: statistics.fmean(m[key] for m in per_pass) for key in per_pass[0]}
    # set-up ran before any calibration: scale it by the first pass's speed
    metrics["graphs.generate_s"] = workload.generate_s * untraced[0].factor
    metrics["trace.overhead_s"] = statistics.median(
        p.wall_s for p, _ in traced
    ) - statistics.median(p.wall_s for p in untraced)
    return {key: metrics[key] for key, _ in spans.LAYER_METRICS}


def _write_spans(name: str, seed: int, traced) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for number, (_, rec) in enumerate(traced):
            for span in rec.spans:
                fh.write(json.dumps({"pass": number, **vars(span)}) + "\n")
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = [] if trace else [_setup_once(name, seed) for _ in range(SETUP_REPEATS)]
    import spans
    import workloads

    workload = workloads.build(name, seed)
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        untraced.append(workload.run_pass())
        if trace:
            recorder = spans.Recorder()
            with spans.tracing(recorder):
                traced.append((workload.run_pass(recorder), recorder))
        if time.perf_counter() - started >= seconds:
            break
    all_passes = untraced + [p for p, _ in traced]
    attempted, failed, steady = _failures(all_passes)
    if trace:
        print(f"spans written to {_write_spans(name, seed, traced)}", file=sys.stderr)
        units = dict(spans.LAYER_METRICS)
        values = per_layer(workload, untraced, traced)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(untraced, setups)
    host = statistics.median(p.host_wall_s for p in untraced)
    speed = statistics.median(p.factor for p in untraced)
    print(
        f"{name} seed={seed}: {len(untraced)} untraced and {len(traced)} traced passes; "
        f"median pass {host:.3f} host s, host speed factor {speed:.3f}"
    )
    for key, value in values.items():
        print(f"  {key:36s} {value:14.6g} {units[key]}")
    print(f"  attempted {attempted}, failed {failed}, outputs repeat across passes: {steady}")
    return {
        "correct": steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; prints each one's report and the
    results as one JSON object keyed by workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcongest" / "__init__.py").is_file():
        print(f"qcongest sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
