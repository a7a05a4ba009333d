"""Command-line interface: run, scaling, verify, gadget."""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from . import verify as verify_mod
from .gadgets import DisjInput, build_reduction_instance, gadget_size
from .harness import (
    ExperimentConfig,
    read_csv,
    run_grid,
    scaling_summary,
    write_csv,
)


class InputError(Exception):
    """A command's input is invalid: ``main`` reports it in one line and
    returns exit status 2."""


@contextmanager
def _reading_inputs():
    """Turn a ``ValueError`` or ``OSError`` raised while a command reads its
    inputs into an ``InputError``; errors of the work that follows pass."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise InputError(exc) from exc


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def cmd_run(args: argparse.Namespace) -> int:
    with _reading_inputs():
        config = ExperimentConfig(
            families=tuple(f for f in args.families.split(",") if f),
            sizes=_int_list(args.sizes),
            seeds=tuple(range(args.num_seeds)),
            algos=tuple(a for a in args.algos.split(",") if a),
            delta=args.delta,
            master_seed=args.seed,
            jobs=args.jobs,
            trace_dir=args.trace,
        )
        out = Path(args.out)
        if not out.parent.is_dir():
            raise InputError(f"output directory {out.parent} does not exist")
        if out.is_dir():
            raise InputError(f"output path {out} is a directory")
        if config.trace_dir is not None:
            trace = Path(config.trace_dir)
            # the nearest existing ancestor (or the path itself) must be a
            # directory, or creating the trace directory fails mid-grid
            existing = next(p for p in (trace, *trace.parents) if p.exists())
            if not existing.is_dir():
                raise InputError(f"trace path {existing} exists and is not a directory")
    rows = run_grid(config)
    write_csv(rows, args.out)
    failures = sum(1 for r in rows if not r["ok"])
    print(f"wrote {len(rows)} rows to {args.out}; {failures} failed validation")
    return 0 if failures == 0 else 1


def cmd_scaling(args: argparse.Namespace) -> int:
    with _reading_inputs():
        rows = read_csv(args.csv)
    summary = scaling_summary(rows)
    for algo, stats in summary.items():
        slope = "undefined" if stats["slope"] is None else f"{stats['slope']:.3f}"
        r2 = "-" if stats["r2"] is None else f"{stats['r2']:.3f}"
        ratio = "-" if stats["max_ratio"] is None else f"{stats['max_ratio']:.3f}"
        print(
            f"{algo:8s} slope={slope:>9s}  r2={r2:>6s}  "
            f"max rounds/(sqrt(nD)*log2(n)^2)={ratio}  points={stats['points']}"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    return 0 if verify_mod.run_all() else 1


def cmd_gadget(args: argparse.Namespace) -> int:
    with _reading_inputs():
        s = gadget_size(args.n)
        k = s * s
        if args.random is not None:
            if args.x is not None or args.y is not None:
                raise InputError("give --x and --y bit strings or --random, not both")
            inp = DisjInput.random(k, random.Random(args.seed or 0))
        elif args.seed is not None:
            raise InputError("--seed needs --random")
        elif args.x is None or args.y is None:
            raise InputError("provide --x and --y bit strings, or --random")
        else:
            inp = DisjInput(k, args.x, args.y)
        inst = build_reduction_instance(args.n, inp, stretch_d=args.d)
    gap_ok = (inst.delta <= 2 + args.d) == (inst.disj == 1)
    print(f"n={args.n} s={s} k={k} stretch_d={args.d}")
    print(f"x={inst.inp.x}")
    print(f"y={inst.inp.y}")
    print(f"DISJ={inst.disj}  delta={inst.delta}  diameter={inst.diameter}")
    print(f"gap verdict: {'consistent' if gap_ok else 'VIOLATED'}")
    return 0 if gap_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcongest",
        description="CONGEST network simulator: distributed diameter algorithms "
        "with exact amplitude-level search and reduction machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid and write a CSV")
    p_run.add_argument("--families", default="path,cycle", help="comma-separated, e.g. path,random:0.2")
    p_run.add_argument("--sizes", default="16,32", help="comma-separated node counts")
    p_run.add_argument("--num-seeds", type=int, default=3)
    p_run.add_argument("--algos", default="exact", help="comma-separated: exact,simple,approx")
    p_run.add_argument("--delta", type=float, default=None, help="failure probability; default 1/n^2")
    p_run.add_argument("--seed", type=int, default=0, help="master seed")
    p_run.add_argument("--out", default="results.csv")
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per graph")
    p_run.add_argument("--trace", default=None, help="directory for engine word traces")
    p_run.set_defaults(fn=cmd_run)

    p_scal = sub.add_parser("scaling", help="fit round counts against the theory metrics")
    p_scal.add_argument("csv", type=Path)
    p_scal.set_defaults(fn=cmd_scaling)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.set_defaults(fn=cmd_verify)

    p_gad = sub.add_parser("gadget", help="build a reduction instance and report its gap")
    p_gad.add_argument("--n", type=int, required=True, help="gadget size, n = 4s+2")
    p_gad.add_argument("--d", type=int, default=0, help="stretch length")
    p_gad.add_argument("--x", default=None)
    p_gad.add_argument("--y", default=None)
    p_gad.add_argument("--random", action="store_const", const=True, default=None,
                       help="draw random inputs of length s^2")
    p_gad.add_argument("--seed", type=int, default=None, help="seed of --random (default 0)")
    p_gad.set_defaults(fn=cmd_gadget)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"qcongest: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
