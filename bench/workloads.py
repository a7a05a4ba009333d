"""The benchmark's workloads: which algorithm runs on which graphs.

A workload is built from a seed: the seed draws the graph seeds and the
algorithm seeds, so the same seed gives the same inputs and qcongest only
ever receives the generated graphs.  A pass makes every timed call of the
workload once; a benchmark run repeats whole passes.  A timed call is one
``qcongest.diameter`` function on one graph (``direct`` workloads), or one
``harness.run_grid`` over one graph plus the CSV formatting of its rows
(``grid`` workloads).  A host speed calibration runs between timed calls,
outside the timed region, and scales each call's times (see calibration.py).
"""

from __future__ import annotations

import functools
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field

from qcongest import diameter, graphs, harness
from qcongest.graphs import Graph

import calibration
import checks
from spans import BENCH_LAYER, Recorder, patched

CANDIDATES = 8  # graphs drawn per graph kept, see _stratified()

# algorithm name (as in the harness CSV) -> function name in qcongest.diameter
ALGORITHM_FUNCTIONS = {
    "exact": "exact_diameter",
    "simple": "exact_diameter_simple",
    "approx": "approx_diameter",
}


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str  # "direct" or "grid"
    algos: tuple[str, ...]
    families: tuple[str, ...]
    sizes: tuple[int, ...]
    graphs_per_size: int


WORKLOADS = {
    "exact-longpath": WorkloadSpec(
        kind="direct",
        algos=("exact",),
        families=("path", "cycle", "lollipop"),
        sizes=(48,),
        graphs_per_size=10,
    ),
    "dense-grid": WorkloadSpec(
        kind="grid",
        algos=("exact", "approx"),
        families=("random:0.05", "random:0.2"),
        sizes=(128, 256),
        graphs_per_size=2,
    ),
    "simple-engine": WorkloadSpec(
        kind="direct",
        algos=("simple",),
        families=("path", "random:0.05"),
        sizes=(80,),
        graphs_per_size=6,
    ),
}


@dataclass(frozen=True)
class Instance:
    family: str  # family spec as the harness reads it, e.g. "random:0.05"
    n: int
    seed: int
    graph: Graph


@dataclass
class Outcome:
    """One algorithm run of a pass and what the checks found wrong with it."""

    algo: str
    instance: Instance
    seconds: float = 0.0
    result: object = None  # qcongest.diameter.DiameterResult
    row: dict | None = None  # grid: the run's harness row and its CSV line
    csv_line: str = ""
    failures: list[str] = field(default_factory=list)

    def signature(self) -> tuple:
        if self.result is None:
            return ("failed",)
        report = self.result.report
        return (self.result.d_out, report.rounds, report.total_words, self.result.search.total_calls)


@dataclass
class PassResult:
    wall_s: float  # time of the pass's timed calls, at the reference host speed
    cpu_s: float  # process CPU time of the same calls, at the reference host speed
    host_wall_s: float  # wall_s as measured
    outcomes: list[Outcome]

    @property
    def factor(self) -> float:
        """The pass's mean host speed factor, weighted by call time."""
        return self.wall_s / self.host_wall_s if self.host_wall_s else 1.0


def _stratified(family: str, n: int, count: int, rng: random.Random) -> list[Instance]:
    """``count`` graphs of one family and size, spread evenly over the
    eccentricity of node 0 (the elected leader).

    The leader's eccentricity sets the window width, the evaluation rounds
    and the search's epsilon, so on a path or a lollipop it moves a run's
    charged rounds by a factor of two.  Drawing ``CANDIDATES * count`` graphs
    and keeping those at evenly spaced quantiles of that eccentricity gives
    every workload seed the same spread of leader positions.
    """
    fam, p = harness.parse_family(family)
    drawn = []
    for _ in range(CANDIDATES * count):
        gseed = rng.randrange(1 << 31)
        g = graphs.generate(fam, n, seed=gseed, p=p)
        drawn.append((checks.eccentricity(n, g.edges(), 0), gseed, g))
    drawn.sort(key=lambda c: c[:2])
    step = len(drawn) / count
    picked = [drawn[int((k + 0.5) * step)] for k in range(count)]
    return [Instance(family, n, gseed, g) for _, gseed, g in picked]


def _timed(recorder: Recorder | None, fn, *args, **kwargs):
    if recorder is None:
        return fn(*args, **kwargs)
    return recorder.call("bench.timed", BENCH_LAYER, fn, args, kwargs)


def _error_text() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


class Workload:
    def __init__(self, name: str, spec: WorkloadSpec, seed: int):
        self.name, self.spec, self.seed = name, spec, seed
        rng = random.Random(f"qcongest-bench:{name}:{seed}")
        started = time.perf_counter()
        self.instances = []
        for family in spec.families:
            for n in spec.sizes:
                self.instances += _stratified(family, n, spec.graphs_per_size, rng)
        self.generate_s = time.perf_counter() - started
        # direct: one seed per (instance, algo); grid: one master seed per instance
        per_call = len(spec.algos) if spec.kind == "direct" else 1
        self.algo_seeds = [rng.randrange(1 << 31) for _ in range(per_call * len(self.instances))]
        self._ecc: dict[tuple, list[int]] = {}

    def run_pass(self, recorder: Recorder | None = None) -> PassResult:
        if self.spec.kind == "grid":
            calls = [
                functools.partial(self._grid_call, inst, seed, recorder)
                for inst, seed in zip(self.instances, self.algo_seeds)
            ]
        else:
            runs = [(inst, algo) for inst in self.instances for algo in self.spec.algos]
            calls = [
                functools.partial(self._direct_call, inst, algo, seed, recorder)
                for (inst, algo), seed in zip(runs, self.algo_seeds)
            ]
        outcomes, wall, cpu, host = [], 0.0, 0.0, 0.0
        before = calibration.sample()
        for call in calls:
            c0, t0 = time.process_time(), time.perf_counter()
            outs = call()
            t1, c1 = time.perf_counter(), time.process_time()
            after = calibration.sample()
            wall_factor = calibration.REFERENCE_S / statistics.fmean((before[0], after[0]))
            cpu_factor = calibration.REFERENCE_S / statistics.fmean((before[1], after[1]))
            before = after
            host += t1 - t0
            wall += (t1 - t0) * wall_factor
            cpu += (c1 - c0) * cpu_factor
            for outcome in outs:
                outcome.seconds *= wall_factor
            outcomes += outs
        for outcome in outcomes:
            if outcome.result is not None:
                outcome.failures += self._check(outcome)
        return PassResult(wall, cpu, host, outcomes)

    def _direct_call(self, inst: Instance, algo: str, seed: int, recorder) -> list[Outcome]:
        # looked up per call, so a traced pass reaches the wrapper
        algorithm = getattr(diameter, ALGORITHM_FUNCTIONS[algo])
        outcome = Outcome(algo, inst)
        t0 = time.perf_counter()
        try:
            outcome.result = _timed(recorder, algorithm, inst.graph, seed=seed)
        except Exception:  # a run that raises counts as failed; the pass goes on
            outcome.failures.append(f"raised {_error_text()}")
        outcome.seconds = time.perf_counter() - t0
        return [outcome]

    def grid_config(self, inst: Instance, master_seed: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            families=(inst.family,),
            sizes=(inst.n,),
            seeds=(inst.seed,),
            algos=self.spec.algos,
            master_seed=master_seed,
            jobs=1,
        )

    def _grid_call(self, inst: Instance, master_seed: int, recorder) -> list[Outcome]:
        """run_grid over one graph; each algorithm run's result and time are
        kept by a pass-through wrapper where run_one looks the algorithm up."""
        captured: list[tuple[object, float]] = []

        def capture(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                captured.append((result, time.perf_counter() - t0))
                return result

            return wrapper

        config = self.grid_config(inst, master_seed)
        names = [ALGORITHM_FUNCTIONS[a] for a in self.spec.algos]
        rows, text, error = [], "", None
        with patched((harness, name, capture(getattr(harness, name))) for name in names):
            try:
                rows = _timed(recorder, harness.run_grid, config)
                text = _timed(recorder, harness.rows_to_csv, rows)
            except Exception:  # every run of this grid counts as failed
                error = f"raised {_error_text()}"
        lines = text.splitlines()
        outcomes = []
        for i, (_, _, _, algo) in enumerate(config.tasks()):
            outcome = Outcome(algo, inst)
            if error is not None:
                outcome.failures.append(error)
            elif len(rows) != len(config.tasks()) or len(captured) != len(rows):
                outcome.failures.append(f"{len(rows)} rows from {len(captured)} runs")
            else:
                outcome.result, outcome.seconds = captured[i]
                outcome.row = rows[i]
                outcome.csv_line = lines[i + 1] if i + 1 < len(lines) else ""
            outcomes.append(outcome)
        return outcomes

    def _check(self, outcome: Outcome) -> list[str]:
        inst = outcome.instance
        key = (inst.family, inst.n, inst.seed)
        if key not in self._ecc:
            self._ecc[key] = checks.eccentricities(inst.n, inst.graph.edges())
        ecc = self._ecc[key]
        fails = checks.check_result(outcome.algo, inst.n, outcome.result, ecc)
        if outcome.row is not None:
            fails += checks.check_row(outcome.row, outcome.csv_line, outcome.result, ecc)
        return fails


def build(name: str, seed: int, spec: WorkloadSpec | None = None) -> Workload:
    return Workload(name, spec or WORKLOADS[name], seed)
