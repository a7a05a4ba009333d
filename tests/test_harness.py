from __future__ import annotations

import concurrent.futures
import json
import re
import weakref

import pytest

from qcongest import cli, diameter, graphs, procedures
from qcongest.cli import main as cli_main
from qcongest.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    parse_family,
    read_csv,
    rows_to_csv,
    run_grid,
    scaling_summary,
    splitmix64,
    write_csv,
)


def assert_one_line_error(capsys, message):
    """The CLI reported bad input as one ``qcongest: error:`` line on
    stderr, naming ``message``, and printed nothing else."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("qcongest: error: ") and message in captured.err


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        families=("path", "random:0.3"),
        sizes=(8, 12),
        seeds=(0, 1),
        algos=("exact",),
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_family_spec_parsing():
    assert parse_family("path") == ("path", None)
    assert parse_family("random:0.05") == ("random", 0.05)


def test_config_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        small_config(families=("path", "nope"))


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_config_rejects_an_edge_probability_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=r"random needs an edge probability in \[0, 1\]"):
        small_config(families=(f"random:{p}",))


def test_config_rejects_random_without_an_edge_probability():
    with pytest.raises(ValueError, match=r"random needs an edge probability in \[0, 1\]"):
        small_config(families=("random",))


@pytest.mark.parametrize("spec", ["path:0.3", "grid:0", "star:1"])
def test_config_rejects_an_edge_probability_on_another_family(spec):
    family = spec.partition(":")[0]
    with pytest.raises(ValueError, match=f"family {family!r} takes no edge probability"):
        small_config(families=(spec,))


@pytest.mark.parametrize("family", [*graphs.FAMILIES, "nope"])
@pytest.mark.parametrize("p", [None, 0.0, 0.5, 1.0, -0.1, 1.5, float("nan")])
def test_a_family_spec_is_judged_as_generate_judges_it(family, p):
    # one rule, graphs.check_family, so a spec and a generate call with the
    # same pair are refused alike, with the same text
    spec = family if p is None else f"{family}:{p}"
    try:
        graphs.generate(family, 8, seed=0, p=p)
    except graphs.GraphError as exc:
        with pytest.raises(graphs.GraphError, match=f"^{re.escape(str(exc))}$"):
            parse_family(spec)
    else:
        got = parse_family(spec)
        assert got == (family, p)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(sizes=(2,))
    with pytest.raises(ValueError):
        small_config(seeds=())
    with pytest.raises(ValueError):
        small_config(algos=("nope",))


def test_grid_rows_and_shape():
    rows = run_grid(small_config())
    assert len(rows) == 2 * 2 * 2
    assert all(set(r) == set(CSV_COLUMNS) for r in rows)
    assert all(r["ok"] == 1 for r in rows)


def test_config_rejects_an_empty_algo_list(tmp_path, capsys):
    with pytest.raises(ValueError, match="algorithm"):
        small_config(algos=())
    out = tmp_path / "empty.csv"
    assert cli_main(["run", "--families", "path", "--sizes", "8", "--algos", "", "--out", str(out)]) == 2
    assert_one_line_error(capsys, "need at least one algorithm")
    assert not out.exists()


def test_config_rejects_an_empty_size_list(tmp_path, capsys):
    with pytest.raises(ValueError, match="size"):
        small_config(sizes=())
    out = tmp_path / "empty.csv"
    assert cli_main(["run", "--families", "path", "--sizes", "", "--out", str(out)]) == 2
    assert_one_line_error(capsys, "need at least one size")
    assert not out.exists()


def test_config_rejects_an_empty_family_list(tmp_path, capsys):
    with pytest.raises(ValueError, match="family"):
        small_config(families=())
    out = tmp_path / "empty.csv"
    assert cli_main(["run", "--families", "", "--sizes", "8", "--out", str(out)]) == 2
    assert_one_line_error(capsys, "need at least one family")
    assert not out.exists()


def _refuse_to_run(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "generate", refuse)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1, float("nan"), 1e-320, 5.0])
def test_config_rejects_a_delta_outside_the_unit_interval(delta, monkeypatch, tmp_path, capsys):
    _refuse_to_run(monkeypatch)
    # qsearch.check_delta's text, as every other caller gives it
    with pytest.raises(ValueError, match=rf"^delta must be in \(0, 1\) with 1/delta finite, got {delta}$"):
        small_config(delta=delta)
    assert cli_main(["run", "--families", "path", "--sizes", "8", "--delta", str(delta),
                     "--out", str(tmp_path / "out.csv")]) == 2
    assert_one_line_error(capsys, "delta must be in (0, 1)")
    assert not (tmp_path / "out.csv").exists()
    assert small_config(delta=0.5).delta == 0.5


@pytest.mark.parametrize("jobs", [0, -2])
def test_config_rejects_fewer_than_one_job(jobs, monkeypatch, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        small_config(jobs=jobs)
    _refuse_to_run(monkeypatch)
    out = tmp_path / "out.csv"
    assert cli_main(["run", "--sizes", "8", "--jobs", str(jobs), "--out", str(out)]) == 2
    assert_one_line_error(capsys, f"jobs must be >= 1, got {jobs}")
    assert not out.exists()


def test_cli_rejects_an_output_path_in_a_missing_directory(monkeypatch, tmp_path, capsys):
    _refuse_to_run(monkeypatch)
    missing = tmp_path / "missing"
    assert cli_main(["run", "--sizes", "8", "--out", str(missing / "x.csv")]) == 2
    assert_one_line_error(capsys, f"output directory {missing} does not exist")
    assert not missing.exists()


def test_cli_rejects_an_output_path_that_is_a_directory(monkeypatch, tmp_path, capsys):
    _refuse_to_run(monkeypatch)
    assert cli_main(["run", "--sizes", "8", "--out", str(tmp_path)]) == 2
    assert_one_line_error(capsys, f"output path {tmp_path} is a directory")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("below", [(), ("traces",)], ids=["file", "below-a-file"])
def test_cli_rejects_a_trace_path_at_or_below_a_file(below, monkeypatch, tmp_path, capsys):
    _refuse_to_run(monkeypatch)
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = tmp_path / "out.csv"
    trace = blocker.joinpath(*below)
    assert cli_main(["run", "--sizes", "8", "--out", str(out), "--trace", str(trace)]) == 2
    assert_one_line_error(capsys, f"trace path {blocker} exists and is not a directory")
    assert blocker.read_text() == "kept\n"
    assert not out.exists()


def test_rerun_is_byte_identical(tmp_path):
    config = small_config()
    a = rows_to_csv(run_grid(config))
    b = rows_to_csv(run_grid(config))
    assert a == b


def test_jobs_do_not_change_output():
    config = small_config()
    sequential = rows_to_csv(run_grid(config))
    parallel = rows_to_csv(run_grid(small_config(jobs=2)))
    assert sequential == parallel


def test_next_graph_is_built_after_the_previous_matrix_is_freed(monkeypatch):
    alive_at_generate, matrices, judged = [], [], []
    build, generate, oracle = (
        diameter.all_sources_distances, graphs.generate, graphs.diameter_bruteforce
    )

    def building(g):
        dist = build(g)
        matrices.append(weakref.ref(dist))
        return dist

    def generating(*args, **kwargs):
        alive_at_generate.append(any(ref() is not None for ref in matrices))
        return generate(*args, **kwargs)

    def judging(g):
        judged.append(g.n)
        return oracle(g)

    monkeypatch.setattr(diameter, "all_sources_distances", building)
    monkeypatch.setattr(graphs, "generate", generating)
    monkeypatch.setattr(graphs, "diameter_bruteforce", judging)
    run_grid(small_config(families=("random:0.3",), sizes=(12,), algos=("exact", "approx")))
    # two graphs, each prepared and judged once for its two rows; the first
    # one's matrix was gone when the second was built, and none outlives the grid
    assert alive_at_generate == [False, False]
    assert len(matrices) == len(judged) == 2
    assert all(ref() is None for ref in matrices)


def test_grid_forks_no_more_workers_than_graphs(monkeypatch):
    workers = []

    class InProcessPool:
        """Records its size and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    rows = run_grid(small_config(jobs=64))
    assert workers == [8]
    assert rows == run_grid(small_config())
    # a one-graph grid runs serially whatever --jobs says
    run_grid(small_config(families=("path",), sizes=(8,), seeds=(0,), jobs=4))
    assert workers == [8]


def test_csv_roundtrip(tmp_path):
    rows = run_grid(small_config(sizes=(8,), seeds=(0,)))
    path = tmp_path / "r.csv"
    write_csv(rows, path)
    assert read_csv(path) == rows


def test_seed_derivation_is_stable():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) != splitmix64(2)
    assert 0 <= splitmix64(123456789) < 2**64


def test_scaling_summary_degenerate_grid():
    rows = run_grid(small_config(families=("path",), sizes=(12,), seeds=(0, 1)))
    summary = scaling_summary(rows)
    assert summary["exact"]["slope"] is None  # single size: undefined


def test_scaling_summary_slopes_exist():
    rows = run_grid(
        small_config(families=("path",), sizes=(8, 16, 32), seeds=(0, 1))
    )
    summary = scaling_summary(rows)
    assert summary["exact"]["slope"] is not None
    assert summary["exact"]["max_ratio"] > 0


def test_cli_run_and_scaling(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = cli_main(
        [
            "run",
            "--families", "path",
            "--sizes", "8,12",
            "--num-seeds", "2",
            "--algos", "exact,approx",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    code = cli_main(["scaling", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "slope" in printed


def test_cli_gadget(capsys):
    assert cli_main(["gadget", "--n", "10", "--x", "0000", "--y", "0000"]) == 0
    printed = capsys.readouterr().out
    assert "DISJ=1" in printed and "delta=2" in printed


def test_cli_gadget_random_without_a_seed_draws_with_seed_0(capsys):
    assert cli_main(["gadget", "--n", "10", "--random"]) == 0
    unseeded = capsys.readouterr().out
    assert cli_main(["gadget", "--n", "10", "--random", "--seed", "0"]) == 0
    assert capsys.readouterr().out == unseeded


@pytest.mark.parametrize(
    "argv,message",
    [
        (["run", "--num-seeds", "0"], "need at least one seed"),
        (["run", "--families", "nope"], "unknown family 'nope'"),
        (["scaling", "missing.csv"], "No such file or directory: 'missing.csv'"),
        (["gadget", "--n", "7"], "gadget needs n = 4s+2 with s >= 1, got n=7"),
        (["gadget", "--n", "10", "--x", "0000"], "provide --x and --y bit strings, or --random"),
        (
            ["gadget", "--n", "10", "--random", "--x", "0000", "--y", "0000"],
            "give --x and --y bit strings or --random, not both",
        ),
        (["run", "--families", "path:"], "family spec 'path:': edge probability '' is not a number"),
        (["run", "--families", "path:0.5"], "family 'path' takes no edge probability, got p=0.5"),
        (["run", "--families", "random"], "random needs an edge probability in [0, 1], got p=None"),
        (["run", "--families", "random:abc"], "'random:abc': edge probability 'abc' is not a number"),
        (["run", "--families", "random:0.5:1"], "'random:0.5:1': edge probability '0.5:1' is not"),
        (
            ["gadget", "--n", "10", "--x", "0000", "--y", "0000", "--seed", "5"],
            "--seed needs --random",
        ),
    ],
    ids=[
        "run-seeds", "run-family", "scaling", "gadget-size", "gadget-bits", "gadget-random-and-bits",
        "run-family-empty-p", "run-family-p-on-path", "run-family-random-without-p",
        "run-family-text-p", "run-family-two-p", "gadget-seed-without-random",
    ],
)
def test_cli_reports_bad_input_in_one_line(argv, message, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # no run writes its CSV, and missing.csv is absent
    assert cli_main(argv) == 2
    assert_one_line_error(capsys, message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "missing columns family, n, D_true, algo, D_out, rounds"),
        ("family,n,algo\npath,8,exact\n", "missing columns D_true, D_out, rounds"),
        (rows_to_csv([]) + "path,8,7\n", "line 2 has 3 fields, the header 10"),
        (
            rows_to_csv([]) + "path,8,7,exact,7,x,9,4,0,1\n",
            "line 2 column rounds: 'x' is not an integer",
        ),
        # below the smallest size a run takes: no scaling ratio is defined
        (rows_to_csv([]) + "path,1,0,exact,0,0,0,0,0,1\n", "line 2 column n: 1 is below 3"),
        (rows_to_csv([]) + "path,-4,3,exact,3,9,9,4,0,1\n", "line 2 column n: -4 is below 3"),
        (
            rows_to_csv([]) + "path,8,7,bogus,7,9,9,4,0,1\n",
            "line 2 column algo: unknown algorithm 'bogus'",
        ),
        (rows_to_csv([]) + "path,8,7,exact,7,9,9,4,0,2\n", "line 2 column ok: 2 is not 0 or 1"),
        (rows_to_csv([]) + "path,8,7,exact,7,-9,9,4,0,1\n", "line 2 column rounds: -9 is below 0"),
        (rows_to_csv([]) + "path,8,7,exact,7,9,-1,4,0,1\n", "line 2 column words: -1 is below 0"),
        (
            rows_to_csv([]) + "path,8,7,exact,7,9,9,-4,0,1\n",
            "line 2 column leader_qubits: -4 is below 0",
        ),
        (rows_to_csv([]) + "path,8,7,exact,-7,9,9,4,0,1\n", "line 2 column D_out: -7 is below 0"),
        (rows_to_csv([]) + "path,8,0,exact,0,9,9,4,0,1\n", "line 2 column D_true: 0 is below 1"),
        (
            rows_to_csv([]) + "path,8,8,exact,7,9,9,4,0,1\n",
            "line 2 column D_true: 8 is above n - 1 = 7",
        ),
        (
            rows_to_csv([]) + "path,8,7,exact,9,9,9,4,0,0\n",
            "line 2 column D_out: 9 is above n - 1 = 7",
        ),
    ],
    ids=[
        "empty", "no-result-columns", "short-row", "not-an-integer", "n-one", "n-negative",
        "unknown-algo", "ok-not-a-flag", "rounds-negative", "words-negative",
        "qubits-negative", "d-out-negative", "d-true-zero", "d-true-above-n", "d-out-above-n",
    ],
)
def test_cli_scaling_reports_a_csv_it_cannot_read_in_one_line(text, message, capsys, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["scaling", str(path)]) == 2
    assert_one_line_error(capsys, f"{path}: {message}")


def test_cli_does_not_catch_errors_raised_while_the_algorithms_run(monkeypatch, tmp_path):
    def failing(config):
        raise ValueError("raised by a run")

    monkeypatch.setattr(cli, "run_grid", failing)
    with pytest.raises(ValueError, match="raised by a run"):
        cli_main(["run", "--sizes", "8", "--out", str(tmp_path / "out.csv")])


def test_cli_trace_dump(tmp_path):
    out = tmp_path / "t.csv"
    trace_dir = tmp_path / "traces"
    code = cli_main(
        [
            "run",
            "--families", "path",
            "--sizes", "8",
            "--num-seeds", "1",
            "--algos", "exact",
            "--out", str(out),
            "--trace", str(trace_dir),
        ]
    )
    assert code == 0
    files = list(trace_dir.glob("*.jsonl"))
    assert files, "expected an election trace per task"
    first = json.loads(files[0].read_text().splitlines()[0])
    assert set(first) == {"round", "edge", "hex", "bits"}


def test_trace_runs_the_engine_election_once_per_graph(monkeypatch, tmp_path):
    traced = []
    elect = procedures.elect_on_engine

    def counting(g, trace_path):
        traced.append(trace_path)
        return elect(g, trace_path=trace_path)

    monkeypatch.setattr(procedures, "elect_on_engine", counting)
    algos = ("exact", "simple", "approx")
    run_grid(small_config(sizes=(8,), algos=algos, trace_dir=str(tmp_path)))
    # two families, two seeds: four graphs, each traced once for three rows
    assert len(traced) == len(set(traced)) == 4
    assert sorted(str(p) for p in tmp_path.iterdir()) == sorted(traced)


def test_cli_verify_passes_every_check(capsys):
    assert cli_main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and all(line.startswith("PASS") for line in lines)
    # each line: PASS, the check's name, its elapsed seconds, its detail
    for line in lines:
        _, _, seconds, _ = line.split(maxsplit=3)
        assert seconds.endswith("s") and 0 <= float(seconds[:-1]) < 60
