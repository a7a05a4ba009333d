#!/usr/bin/env python3
"""Reproduce the path-family scaling separation between the two exact
algorithms: charged rounds grow like n for the windowed algorithm and like
n^1.5 for the plain eccentricity maximization."""

from __future__ import annotations

import argparse

from qcongest.diameter import exact_diameter, exact_diameter_simple
from qcongest.graphs import generate
from qcongest.harness import fit_loglog


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="32,64,128,256")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--delta", type=float, default=0.05)
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    means: dict[str, dict[int, float]] = {"exact": {}, "simple": {}}
    for n in sizes:
        ex, si = [], []
        for seed in range(args.seeds):
            g = generate("path", n, seed=seed)
            ex.append(exact_diameter(g, seed=seed, delta=args.delta).report.rounds)
            si.append(exact_diameter_simple(g, seed=seed, delta=args.delta).report.rounds)
        means["exact"][n] = sum(ex) / len(ex)
        means["simple"][n] = sum(si) / len(si)
        print(f"n={n:4d}  exact={means['exact'][n]:12.0f}  simple={means['simple'][n]:12.0f}")

    for algo, data in means.items():
        slope, _ = fit_loglog(sizes, [data[n] for n in sizes])
        print(f"{algo}: fitted exponent vs n = {slope:.3f}")
    print(f"round ratio at n={sizes[-1]}: "
          f"{means['simple'][sizes[-1]] / means['exact'][sizes[-1]]:.2f}")


if __name__ == "__main__":
    main()
