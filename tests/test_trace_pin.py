"""Trace pin: the sha256 of the word-level engine's JSONL transcript of each
classical procedure on three fixed graphs.

Every delivered word is one trace line (round, edge, hex, bit count), so
equal hashes mean equal words on equal edges in equal rounds.  A change to
the engine's representation of words or to its step loop must leave every
hash below unchanged.  The election writes its trace through its engine
reference ``elect_on_engine``; the other procedures run their programs
through ``engine.run`` with the same arguments as their engine references.
"""

from __future__ import annotations

import hashlib

import pytest

from qcongest import graphs
from qcongest.engine import run
from qcongest.procedures import (
    ArgmaxConvergecastProgram,
    BfsTreeProgram,
    MultiSourceBfsProgram,
    bfs_tree_on_engine,
    elect_on_engine,
    multi_source_bfs_on_engine,
)

GRAPHS = {
    "random:0.1-64": lambda: graphs.generate("random", 64, seed=3, p=0.1),
    "path-33": lambda: graphs.generate("path", 33, seed=3),
    "lollipop-40": lambda: graphs.generate("lollipop", 40, seed=3),
}

PINNED = {
    "random:0.1-64": {
        "elect": (
            "0a85f1043f499dc4c3c470d5f35b2db6"
            "4383ca14529c1b7c08a585de1de57349"
        ),
        "bfs_tree": (
            "36db5763e91821a370e0119e39e330b4"
            "a46e6ee768d0e9924e8ecc1a1aa13de5"
        ),
        "multi_source_bfs": (
            "719543b1e73111ec8081ab4e53d7afee"
            "c51d8c0ecb34046e04b92f1f69dc4780"
        ),
        "argmax": (
            "526ff864179ef403bd8a009463178a69"
            "5bc2131d2ec5950fe8a45df191c8cdcc"
        ),
    },
    "path-33": {
        "elect": (
            "c8bbaa956bd9a4cfb16e71231373c2f9"
            "5f4ca88ce0e31e5123ae5608c5b6d07b"
        ),
        "bfs_tree": (
            "e174632cc5a9fb6d03a9a9d3e85c705f"
            "0f610ec21e9493d28b4c055555967578"
        ),
        "multi_source_bfs": (
            "5eb1a9bd8bcf9e279a70a758bc615a7a"
            "e120104e87b022bc76ba7749171bd35b"
        ),
        "argmax": (
            "8371e2294bede4df91aa2334809c1a8c"
            "070ab004f362c19fc6f38b40f10eb59a"
        ),
    },
    "lollipop-40": {
        "elect": (
            "570bed8ea63144ed399cd99e1f6b5151"
            "d1ec8a62e6e5b2a2f4c1f15521f23a6e"
        ),
        "bfs_tree": (
            "2ec974b84b9af80fce758ea4932a96d5"
            "0242df3c9226de3a9262301471559815"
        ),
        "multi_source_bfs": (
            "88825fbfba4896ccc4816580191e08c3"
            "5e59c8b28b62b7fe564e1aaf4c79a442"
        ),
        "argmax": (
            "712c8ab88fbffff27a1b1a4a3ebaffee"
            "6b79a7df445ce5fb4fa0471359255218"
        ),
    },
}


def _traces(g: graphs.Graph, tmp_path) -> dict[str, str]:
    """sha256 of each procedure's trace on ``g``."""
    paths = {name: tmp_path / f"{name}.jsonl" for name in PINNED["path-33"]}
    leader, ecc, _ = elect_on_engine(g, trace_path=str(paths["elect"]))
    run(
        g,
        BfsTreeProgram(g.n, leader, ecc),
        max_rounds=ecc + 2,
        trace_path=paths["bfs_tree"],
    )
    sources = frozenset(range(0, g.n, 7))
    run(
        g,
        MultiSourceBfsProgram(g.n, sources),
        max_rounds=2 * g.n + 16,
        trace_path=paths["multi_source_bfs"],
    )
    tree, _ = bfs_tree_on_engine(g, leader, ecc)
    closest, _ = multi_source_bfs_on_engine(g, sources)
    run(
        g,
        ArgmaxConvergecastProgram(g.n, tree),
        inputs={v: closest[v][0] for v in range(g.n)},
        max_rounds=4 * g.n + 16,
        trace_path=paths["argmax"],
    )
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_procedure_traces_are_pinned(name, tmp_path):
    assert _traces(GRAPHS[name](), tmp_path) == PINNED[name]
