"""Reproducible experiment driver: graph grids, seeded runs, CSV output.

Determinism contract: a config fully determines the task list; each task's
algorithm RNG seed is derived from the master seed and the task index by a
splitmix64 step, so neither the parallelism degree nor scheduling order can
change any output byte.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import graphs
from .diameter import (
    DiameterResult,
    approx_diameter,
    approx_guarantee_holds,
    exact_diameter,
    exact_diameter_simple,
)

CSV_COLUMNS = (
    "family",
    "n",
    "D_true",
    "algo",
    "D_out",
    "rounds",
    "words",
    "leader_qubits",
    "seed",
    "ok",
)

ALGORITHMS = ("exact", "simple", "approx")


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & (2**64 - 1)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return x ^ (x >> 31)


def parse_family(spec: str) -> tuple[str, float | None]:
    """Family spec strings: "path", "cycle", ..., "random:0.05"."""
    if ":" in spec:
        fam, arg = spec.split(":", 1)
        return fam, float(arg)
    return spec, None


@dataclass(frozen=True)
class ExperimentConfig:
    families: tuple[str, ...]
    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    algos: tuple[str, ...] = ("exact",)
    delta: float | None = None  # None: 1/n^2 per instance
    master_seed: int = 0
    jobs: int = 1
    out: str = "results.csv"
    trace_dir: str | None = None  # dumps election word traces per task

    def __post_init__(self) -> None:
        if any(n < 3 for n in self.sizes):
            raise ValueError("sizes must be >= 3")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for a in self.algos:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        for f in self.families:
            parse_family(f)

    @staticmethod
    def from_json(path: str | Path) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return ExperimentConfig(
            families=tuple(raw["families"]),
            sizes=tuple(raw["sizes"]),
            seeds=tuple(raw["seeds"]),
            algos=tuple(raw.get("algos", ["exact"])),
            delta=raw.get("delta"),
            master_seed=int(raw.get("master_seed", 0)),
            jobs=int(raw.get("jobs", 1)),
            out=raw.get("out", "results.csv"),
            trace_dir=raw.get("trace_dir"),
        )

    def tasks(self) -> list[tuple[str, int, int, str]]:
        return [
            (family, n, seed, algo)
            for family in self.families
            for n in self.sizes
            for seed in self.seeds
            for algo in self.algos
        ]


@functools.lru_cache(maxsize=1)
def _instance(family_spec: str, n: int, seed: int) -> tuple[graphs.Graph, int]:
    """The graph and its brute-force diameter; consecutive rows of a grid
    share a graph, so one entry saves every repeated oracle run."""
    family, p = parse_family(family_spec)
    g = graphs.generate(family, n, seed=seed, p=p)
    return g, graphs.diameter_bruteforce(g)


def run_one(
    family_spec: str, n: int, seed: int, algo: str, algo_seed: int,
    delta: float | None, trace_dir: str | None = None,
) -> dict:
    g, d_true = _instance(family_spec, n, seed)
    if trace_dir is not None and n >= 3:
        from .procedures import elect_leader_and_ecc

        family, _ = parse_family(family_spec)
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        trace = Path(trace_dir) / f"{family}-{n}-{seed}-election.jsonl"
        elect_leader_and_ecc(g, trace_path=str(trace))
    if algo == "exact":
        result: DiameterResult = exact_diameter(g, seed=algo_seed, delta=delta)
        ok = result.d_out == d_true
    elif algo == "simple":
        result = exact_diameter_simple(g, seed=algo_seed, delta=delta)
        ok = result.d_out == d_true
    else:
        result = approx_diameter(g, seed=algo_seed, delta=delta)
        ok = approx_guarantee_holds(result.d_out, d_true)
    leader = result.report.leader
    return {
        "family": family_spec,
        "n": n,
        "D_true": d_true,
        "algo": algo,
        "D_out": result.d_out,
        "rounds": result.report.rounds,
        "words": result.report.total_words,
        "leader_qubits": result.report.per_node_peak_qubits.get(leader, 0),
        "seed": seed,
        "ok": int(ok),
    }


def _run_task(args: tuple[ExperimentConfig, int, tuple[str, int, int, str]]) -> dict:
    config, index, (family_spec, n, seed, algo) = args
    algo_seed = splitmix64(config.master_seed * 0x9E3779B97F4A7C15 + index)
    return run_one(
        family_spec, n, seed, algo, algo_seed, config.delta, config.trace_dir
    )


def run_grid(config: ExperimentConfig) -> list[dict]:
    """One row per (family, n, seed, algo), in task order."""
    tasks = [(config, i, task) for i, task in enumerate(config.tasks())]
    if config.jobs <= 1:
        return [_run_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(_run_task, tasks))


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(format_value(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[dict], path: str | Path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8")


def read_csv(path: str | Path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        row = dict(zip(header, line.split(",")))
        for key in ("n", "D_true", "D_out", "rounds", "words", "leader_qubits", "seed", "ok"):
            if key in row:
                row[key] = int(row[key])
        rows.append(row)
    return rows


def reference_metric(algo: str, n: int, d: int) -> float:
    """The round-count scale each algorithm is expected to track."""
    if algo == "exact":
        return math.sqrt(n * max(1, d))
    if algo == "simple":
        return math.sqrt(n) * max(1, d)
    return (n * max(1, d)) ** (1 / 3) + d


def fit_loglog(xs: list[float], ys: list[float]) -> tuple[float | None, float | None]:
    """Least-squares slope of log y against log x; None when degenerate."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({round(lx, 12) for lx, _ in pts}) < 2:
        return None, None
    mx = sum(lx for lx, _ in pts) / len(pts)
    my = sum(ly for _, ly in pts) / len(pts)
    sxx = sum((lx - mx) ** 2 for lx, _ in pts)
    sxy = sum((lx - mx) * (ly - my) for lx, ly in pts)
    slope = sxy / sxx
    syy = sum((ly - my) ** 2 for _, ly in pts)
    r2 = 0.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return slope, r2


def scaling_summary(rows: list[dict]) -> dict[str, dict]:
    """Per-algorithm log-log slope against its reference metric, plus the
    worst ratio rounds / (sqrt(nD) * log2(n)^2)."""
    summary: dict[str, dict] = {}
    for algo in sorted({r["algo"] for r in rows}):
        sub = [r for r in rows if r["algo"] == algo]
        xs = [reference_metric(algo, r["n"], r["D_true"]) for r in sub]
        ys = [float(r["rounds"]) for r in sub]
        slope, r2 = fit_loglog(xs, ys)
        ratios = [
            r["rounds"] / (math.sqrt(r["n"] * max(1, r["D_true"])) * math.log2(r["n"]) ** 2)
            for r in sub
        ]
        summary[algo] = {
            "slope": slope,
            "r2": r2,
            "max_ratio": max(ratios) if ratios else None,
            "points": len(sub),
        }
    return summary
