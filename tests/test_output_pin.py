"""Output pins: the exact CSV of a small fixed grid and each run's accounting,
and the sha256 of the CSV of a whole grid (every family and algorithm at
n = 16, 64 and 256).

The small grid is the criterion-10 determinism config.  A refactor or a
performance change must leave every byte and every count below unchanged;
re-pin only in a change whose purpose is to change outputs, and say so in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

from qcongest import harness
from qcongest.harness import ExperimentConfig, rows_to_csv, run_grid

PINNED_CSV = (
    "family,n,D_true,algo,D_out,rounds,words,leader_qubits,seed,ok\n"
    "path,12,11,exact,11,15363,61227,54,0,1\n"
    "path,12,11,approx,11,2579,3208,27,0,1\n"
    "path,12,11,exact,11,21045,62495,54,1,1\n"
    "path,12,11,approx,11,3527,3352,27,1,1\n"
    "path,16,15,exact,15,21045,108735,60,0,1\n"
    "path,16,15,approx,15,3531,4368,30,0,1\n"
    "path,16,15,exact,15,24695,101265,60,1,1\n"
    "path,16,15,approx,15,4479,4530,30,1,1\n"
    "random:0.2,12,3,exact,3,11493,109698,84,0,1\n"
    "random:0.2,12,3,approx,3,3884,33690,56,0,1\n"
    "random:0.2,12,3,exact,3,8712,113362,116,1,1\n"
    "random:0.2,12,3,approx,3,7825,77870,87,1,1\n"
    "random:0.2,16,3,exact,3,14854,186339,128,0,1\n"
    "random:0.2,16,3,approx,3,5709,58062,64,0,1\n"
    "random:0.2,16,3,exact,3,10536,170363,128,1,1\n"
    "random:0.2,16,3,approx,3,7985,98686,96,1,1\n"
)

# per row, in task order: (t0, t_eval, search.total_calls)
PINNED_ACCOUNTING = [
    (33, 146, 105),
    (97, 146, 17),
    (45, 200, 105),
    (127, 200, 17),
    (45, 200, 105),
    (131, 200, 17),
    (57, 254, 97),
    (161, 254, 17),
    (13, 56, 205),
    (46, 38, 101),
    (10, 38, 229),
    (35, 38, 205),
    (14, 56, 265),
    (53, 56, 101),
    (10, 38, 277),
    (43, 38, 209),
]


def test_criterion_10_grid_output_is_pinned(monkeypatch):
    config = ExperimentConfig(
        families=("path", "random:0.2"),
        sizes=(12, 16),
        seeds=(0, 1),
        algos=("exact", "approx"),
        master_seed=11,
    )
    results = []

    def capture(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            return result

        return wrapper

    for name in ("exact_diameter", "approx_diameter"):
        monkeypatch.setattr(harness, name, capture(getattr(harness, name)))
    assert rows_to_csv(run_grid(config)) == PINNED_CSV
    assert [(r.t0, r.t_eval, r.search.total_calls) for r in results] == PINNED_ACCOUNTING


# the sha256 of the CSV of every family at three sizes with every algorithm
PINNED_WHOLE_GRID_SHA256 = "0cd3b7068b02d9babafb2b17a8252df2770fd65045cc9033e8483c2140ab0408"


def test_whole_grid_output_is_pinned():
    config = ExperimentConfig(
        families=("path", "cycle", "star", "grid", "lollipop", "random:0.05", "random:0.2"),
        sizes=(16, 64, 256),
        seeds=(0, 1),
        algos=("exact", "simple", "approx"),
        master_seed=0,
    )
    text = rows_to_csv(run_grid(config))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_WHOLE_GRID_SHA256
