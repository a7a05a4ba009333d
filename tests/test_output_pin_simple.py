"""Output pin of the simple algorithm: the exact CSV of a small fixed grid
and each run's accounting.

Same grid as the criterion-10 pin in ``test_output_pin.py``, run with
``algos=("simple",)``.  A refactor or a performance change of the simple
evaluation must leave every byte and every count below unchanged; re-pin
only in a change whose purpose is to change outputs, and say so in
CHANGES.md.
"""

from __future__ import annotations

from qcongest import harness
from qcongest.harness import ExperimentConfig, rows_to_csv, run_grid

PINNED_CSV = (
    "family,n,D_true,algo,D_out,rounds,words,leader_qubits,seed,ok\n"
    "path,12,11,simple,11,11319,18531,80,0,1\n"
    "path,12,11,simple,11,12409,18109,80,1,1\n"
    "path,16,15,simple,15,14033,23299,80,0,1\n"
    "path,16,15,simple,15,17167,25561,80,1,1\n"
    "random:0.2,12,3,simple,3,2953,26198,80,0,1\n"
    "random:0.2,12,3,simple,3,2480,29876,80,1,1\n"
    "random:0.2,16,3,simple,3,3338,39643,80,0,1\n"
    "random:0.2,16,3,simple,3,3000,45733,80,1,1\n"
)

# per row, in task order: (t0, t_eval, search.total_calls)
PINNED_ACCOUNTING = [
    (33, 38, 297),
    (45, 44, 281),
    (45, 52, 269),
    (57, 58, 295),
    (13, 12, 245),
    (10, 10, 247),
    (14, 12, 277),
    (10, 10, 299),
]


def test_simple_grid_output_is_pinned(monkeypatch):
    config = ExperimentConfig(
        families=("path", "random:0.2"),
        sizes=(12, 16),
        seeds=(0, 1),
        algos=("simple",),
        master_seed=11,
    )
    results = []
    simple = harness.exact_diameter_simple

    def capture(*args, **kwargs):
        result = simple(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(harness, "exact_diameter_simple", capture)
    assert rows_to_csv(run_grid(config)) == PINNED_CSV
    assert [(r.t0, r.t_eval, r.search.total_calls) for r in results] == PINNED_ACCOUNTING
