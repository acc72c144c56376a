"""Command-line surface.

Subcommands: pt, infer, check, verify, graph, regular, gen, bench.  Arrays
and strings pass as single quoted arguments or via stdin with '-'.  Exit
codes: 0 success, 1 domain error (infeasible array, failed verification,
unwritable output), 2 usage error (bad flags, unparseable token).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import random
import sys
from typing import Sequence

from . import bench, core, graph, inference, oracle


def _read(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_pt(args: argparse.Namespace) -> int:
    x = core.parse_string(_read(args.string))
    print(core.format_array(core.compute_prefix_table(x)))
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    y = core.parse_array(_read(args.array))
    if args.trace:
        x, trace = inference.infer_with_trace(y)
        for line in trace:
            print(line)
    else:
        x = inference.infer(y)
    print(core.format_string(x))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    core.validate_feasible(core.parse_array(_read(args.array)))
    print("feasible")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.string == args.array == "-":
        print("error: stdin can feed only one argument", file=sys.stderr)
        return 2
    x = core.parse_string(_read(args.string))
    y = core.parse_array(_read(args.array))
    check = core.verify_prefix_table(x, y)
    if not check.ok:
        print(f"fail at i={check.position} condition ({check.condition})")
        return 1
    print("pass")
    if args.oracle:
        try:
            best, sigma = oracle.brute_force_lex_least(y)
        except oracle.BudgetExceeded as e:
            print(f"oracle skipped ({e})")
            return 0
        if tuple(x) == best:
            print(f"lex-least confirmed (alphabet size {sigma})")
        else:
            print(
                f"lex-least differs: {core.format_string(best)} "
                f"(alphabet size {sigma})"
            )
            return 1
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    g = graph.build_prefix_graph(core.parse_array(_read(args.array)))
    _emit(graph.export_graph(g, fmt=args.format, sign=args.sign))
    return 0


def cmd_regular(args: argparse.Namespace) -> int:
    ok, labels = graph.is_regular(core.parse_array(_read(args.array)))
    if ok:
        print("regular")
    else:
        print(f"indeterminate-only (components: {len(set(labels[1:]))})")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError(f"count must be >= 0, got {args.count}")
    rng = random.Random(args.seed)
    for _ in range(args.count):
        print(core.format_array(bench.gen_random_feasible(args.length, rng)))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = bench.BenchConfig(
        lengths=bench.parse_lengths(args.lengths),
        trials=args.trials,
        seed=args.seed,
    )
    # opened before the timing starts, so an unwritable path fails at once
    out = None if args.out == "-" else open(args.out, "w", encoding="ascii")
    with out or contextlib.nullcontext(sys.stdout) as fh:
        text = bench.run_bench(cfg)
        fh.write(text)
    if len(cfg.lengths) >= 3:  # lengths are strictly ascending
        print(f"log-log slope: {bench.growth_trend(text):.3f}", file=sys.stderr)
    return 0


# built once: main serves repeated calls in one process
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="indetstr",
        description="Indeterminate strings from prefix tables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pt", help="prefix table of a string")
    sp.add_argument("string", help="string text, or - for stdin")
    sp.set_defaults(func=cmd_pt)

    sp = sub.add_parser("infer", help="least string realizing an array")
    sp.add_argument("array", help="feasible array, or - for stdin")
    sp.add_argument("--trace", action="store_true", help="log every event")
    sp.set_defaults(func=cmd_infer)

    sp = sub.add_parser("check", help="validate feasibility of an array")
    sp.add_argument("array", help="array, or - for stdin")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("verify", help="verify that an array is the prefix table of a string")
    sp.add_argument("string", help="string text, or - for stdin")
    sp.add_argument("array", help="array, or - for stdin")
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="also confirm lex-least and alphabet minimality by brute force (small n)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("graph", help="export the prefix graph")
    sp.add_argument("array", help="feasible array, or - for stdin")
    sp.add_argument("--format", choices=("dot", "json"), default="dot")
    sp.add_argument("--sign", choices=("positive", "negative", "both"), default="both")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("regular", help="test whether a regular string realizes the array")
    sp.add_argument("array", help="feasible array, or - for stdin")
    sp.set_defaults(func=cmd_regular)

    sp = sub.add_parser("gen", help="generate random feasible arrays")
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bench", help="time inference over random arrays, emit CSV")
    sp.add_argument("--lengths", default="10:100:10", help="a:b:step or n1,n2,...")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="-", help="output path, - for stdout")
    sp.set_defaults(func=cmd_bench)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except core.ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
