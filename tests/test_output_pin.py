"""Output pin: the exact CSV of a small fixed grid and each run's accounting.

The grid is the criterion-10 determinism config.  A refactor or a
performance change must leave every byte and every count below unchanged;
re-pin only in a change whose purpose is to change outputs, and say so in
CHANGES.md.
"""

from __future__ import annotations

from qcongest import harness
from qcongest.harness import ExperimentConfig, rows_to_csv, run_grid

PINNED_CSV = (
    "family,n,D_true,algo,D_out,rounds,words,leader_qubits,seed,ok\n"
    "path,12,11,exact,11,14779,58899,54,0,1\n"
    "path,12,11,approx,11,2579,3208,27,0,1\n"
    "path,12,11,exact,11,17845,52991,54,1,1\n"
    "path,12,11,approx,11,3527,3352,27,1,1\n"
    "path,16,15,exact,15,20245,104599,60,0,1\n"
    "path,16,15,approx,15,3531,4368,30,0,1\n"
    "path,16,15,exact,15,22663,92929,60,1,1\n"
    "path,16,15,approx,15,4479,4530,30,1,1\n"
    "random:0.2,12,3,exact,3,12613,120378,84,0,1\n"
    "random:0.2,12,3,approx,3,4036,35010,56,0,1\n"
    "random:0.2,12,3,exact,3,10536,137074,116,1,1\n"
    "random:0.2,12,3,approx,3,8129,80894,87,1,1\n"
    "random:0.2,16,3,exact,3,15302,191955,128,0,1\n"
    "random:0.2,16,3,approx,3,5709,58062,64,0,1\n"
    "random:0.2,16,3,exact,3,10992,177731,128,1,1\n"
    "random:0.2,16,3,approx,3,8137,100566,96,1,1\n"
)

# per row, in task order: (t0, t_eval, search.total_calls)
PINNED_ACCOUNTING = [
    (33, 146, 101),
    (97, 146, 17),
    (45, 200, 89),
    (127, 200, 17),
    (45, 200, 101),
    (131, 200, 17),
    (57, 254, 89),
    (161, 254, 17),
    (13, 56, 225),
    (46, 38, 105),
    (10, 38, 277),
    (35, 38, 213),
    (14, 56, 273),
    (53, 56, 101),
    (10, 38, 289),
    (43, 38, 213),
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
