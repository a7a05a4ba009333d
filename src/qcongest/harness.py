"""Reproducible experiment driver: graph grids, seeded runs, CSV output.

Determinism contract: a config fully determines the task list; each task's
algorithm RNG seed is derived from the master seed and the task index by a
splitmix64 step, so neither the parallelism degree nor scheduling order can
change any output byte.  Rows are built graph by graph: a graph is
generated, traced, prepared and judged by the oracle once, runs under every
algorithm, and is dropped before the next graph is built.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path

from . import graphs, procedures
from .diameter import (
    DiameterResult,
    Prepared,
    approx_diameter,
    approx_guarantee_holds,
    exact_diameter,
    exact_diameter_simple,
    prepare,
)
from .procedures import MIN_PROCEDURE_N
from .qsearch import check_delta

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

# name -> (its function's name here, looked up per run, so a wrapper set on
# this module is what runs; its verdict on D_out, D_true; its round scale)
ALGORITHMS = {
    "exact": ("exact_diameter", operator.eq, lambda n, d: math.sqrt(n * max(1, d))),
    "simple": ("exact_diameter_simple", operator.eq, lambda n, d: math.sqrt(n) * max(1, d)),
    "approx": ("approx_diameter", approx_guarantee_holds, lambda n, d: (n * max(1, d)) ** (1 / 3) + d),
}


def algorithm(name: str, where: str = "") -> tuple:
    """The ``ALGORITHMS`` entry of ``name``; for any other name, a
    ``ValueError`` whose text ``where`` leads."""
    if name not in ALGORITHMS:
        raise ValueError(f"{where}unknown algorithm {name!r}")
    return ALGORITHMS[name]


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & (2**64 - 1)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return x ^ (x >> 31)


def parse_family(spec: str) -> tuple[str, float | None]:
    """Family spec strings: "path", "cycle", ..., "random:0.05": a family
    name, then, after a colon, an edge probability, which must parse as a
    number.  ``graphs.check_family`` then judges the pair, so a spec is
    refused exactly as ``graphs.generate`` refuses its pair."""
    fam, sep, arg = spec.partition(":")
    try:
        p = float(arg) if sep else None
    except ValueError:
        raise ValueError(
            f"family spec {spec!r}: edge probability {arg!r} is not a number"
        ) from None
    graphs.check_family(fam, p)
    return fam, p


@dataclass(frozen=True)
class ExperimentConfig:
    families: tuple[str, ...]
    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    algos: tuple[str, ...] = ("exact",)
    delta: float | None = None  # None: 1/n^2 per instance
    master_seed: int = 0
    jobs: int = 1
    trace_dir: str | None = None  # dumps an election word trace per graph

    def __post_init__(self) -> None:
        if not self.families:
            raise ValueError("need at least one family")
        if not self.sizes:
            raise ValueError("need at least one size")
        if any(n < MIN_PROCEDURE_N for n in self.sizes):
            raise ValueError(f"sizes must be >= {MIN_PROCEDURE_N}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not self.algos:
            raise ValueError("need at least one algorithm")
        if self.delta is not None:
            check_delta(self.delta)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        for a in self.algos:
            algorithm(a)
        for f in self.families:
            parse_family(f)

    def graphs(self) -> list[tuple[str, int, int]]:
        return [
            (family, n, seed)
            for family in self.families
            for n in self.sizes
            for seed in self.seeds
        ]

    def tasks(self) -> list[tuple[str, int, int, str]]:
        return [(*graph, algo) for graph in self.graphs() for algo in self.algos]


def run_one(
    prep: Prepared, d_true: int, family_spec: str, seed: int, algo: str,
    algo_seed: int, delta: float | None,
) -> dict:
    function, verdict, _ = algorithm(algo)
    result: DiameterResult = globals()[function](prep, seed=algo_seed, delta=delta)
    leader = result.report.leader
    return {
        "family": family_spec,
        "n": prep.n,
        "D_true": d_true,
        "algo": algo,
        "D_out": result.d_out,
        "rounds": result.report.rounds,
        "words": result.report.total_words,
        "leader_qubits": result.report.per_node_peak_qubits.get(leader, 0),
        "seed": seed,
        "ok": int(verdict(result.d_out, d_true)),
    }


def _run_graph(args: tuple[ExperimentConfig, int, tuple[str, int, int]]) -> list[dict]:
    """The rows of one graph, one per algorithm, whose task indices (and so
    seeds) count up from ``first``; the election's word trace goes to the
    config's ``trace_dir`` unless that is None."""
    config, first, (family_spec, n, seed) = args
    family, p = parse_family(family_spec)
    g = graphs.generate(family, n, seed=seed, p=p)
    if config.trace_dir is not None:
        trace = Path(config.trace_dir)
        trace.mkdir(parents=True, exist_ok=True)
        # the whole spec names the file, so each edge probability has its own
        name = f"{family_spec.replace(':', '_')}-{n}-{seed}-election.jsonl"
        procedures.elect_on_engine(g, trace_path=str(trace / name))
    prep, d_true = prepare(g), graphs.diameter_bruteforce(g)
    return [
        run_one(
            prep, d_true, family_spec, seed, algo,
            splitmix64(config.master_seed * 0x9E3779B97F4A7C15 + first + i), config.delta,
        )
        for i, algo in enumerate(config.algos)
    ]


def run_grid(config: ExperimentConfig) -> list[dict]:
    """One row per (family, n, seed, algo), in task order."""
    work = [(config, i * len(config.algos), graph) for i, graph in enumerate(config.graphs())]
    workers = min(config.jobs, len(work))
    if workers == 1:
        return [row for item in work for row in _run_graph(item)]
    # imported here: a serial run, or a cold import, pays nothing for the pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(_run_graph, work) for row in rows]


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[dict], path: str | Path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8")


def read_csv(path: str | Path) -> list[dict]:
    """The rows of a CSV that ``write_csv`` wrote.  Raises ``ValueError``
    naming the file when its header lacks any of ``CSV_COLUMNS`` (an empty
    file lacks them all), it holds no data row (every grid has a task, so
    ``qcongest run`` never writes one), a row's field count differs from the
    header's, or an integer column holds something else, n is below
    ``MIN_PROCEDURE_N``, algo is not one of ``ALGORITHMS``, ok is not 0 or 1,
    rounds, words, leader_qubits or D_out is below 0, D_true is below 1, or
    D_true or D_out is above n - 1 (naming the line and column)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {', '.join(missing)}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(
                f"{path}: line {number} has {len(fields)} fields, the header {len(header)}"
            )
        row = dict(zip(header, fields))
        for key in ("n", "D_true", "D_out", "rounds", "words", "leader_qubits", "seed", "ok"):
            try:
                row[key] = int(row[key])
            except ValueError:
                raise ValueError(
                    f"{path}: line {number} column {key}: {row[key]!r} is not an integer"
                ) from None
        if row["n"] < MIN_PROCEDURE_N:
            raise ValueError(f"{path}: line {number} column n: {row['n']} is below {MIN_PROCEDURE_N}")
        algorithm(row["algo"], f"{path}: line {number} column algo: ")
        if row["ok"] not in (0, 1):
            raise ValueError(f"{path}: line {number} column ok: {row['ok']} is not 0 or 1")
        lows = (("rounds", 0), ("words", 0), ("leader_qubits", 0), ("D_out", 0), ("D_true", 1))
        for key, low in lows:
            if row[key] < low:
                raise ValueError(f"{path}: line {number} column {key}: {row[key]} is below {low}")
        for key in ("D_true", "D_out"):
            if row[key] > row["n"] - 1:
                raise ValueError(
                    f"{path}: line {number} column {key}: {row[key]} is above n - 1 = {row['n'] - 1}"
                )
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no rows")
    return rows


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
    """Per-algorithm log-log slope against its round scale in ``ALGORITHMS``,
    plus the worst ratio rounds / (sqrt(nD) * log2(n)^2)."""
    summary: dict[str, dict] = {}
    for algo in sorted({r["algo"] for r in rows}):
        *_, scale = algorithm(algo)
        sub = [r for r in rows if r["algo"] == algo]
        xs = [scale(r["n"], r["D_true"]) for r in sub]
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
