"""Command-line front end.

Subcommands:

* ``cycle-index --p P --r R``: the cycle index of S_p acting on r-subsets,
  as plain text, LaTeX, or line-delimited JSON; ``--unmerged`` keeps one
  term per partition of p, labelled with its source partition.
* ``poly --p P --n N``: the counting polynomial (one coefficient per line)
  and its total.
* ``count --p P --n N``: the total count alone, as a decimal string.
* ``table``: a grid of counts for p and n up to the given bounds.
* ``verify``: run the reference-data and oracle cross-checks.

Exit status is 0 on success, 1 when ``verify`` finds a mismatch, and 2 for
usage errors.  The p ceiling (default 12, applied to ``table --max-n`` too)
is a guardrail against accidental huge runs, not an algorithmic limit; raise
it with ``--limit``.
"""

from __future__ import annotations

import argparse
import sys

from .counting import plex_count, plex_polynomial
from .cycle_index import cycle_index_subset_action, subset_action_terms
from .render import (render_latex, render_latex_unmerged, render_plain,
                     render_plain_unmerged, render_structured)
from .verify import SCOPES, run_scope

DEFAULT_LIMIT = 12


def _add_limit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--limit", type=int, default=DEFAULT_LIMIT, metavar="P",
                        help="refuse p larger than this (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plexcount",
        description="Exact counts of n-plexes (equivalently (n+1)-uniform "
                    "hypergraphs) on p points, via cycle indices of the "
                    "symmetric group acting on subsets.")
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("cycle-index",
                        help="cycle index of S_p acting on r-subsets")
    ci.add_argument("--p", type=int, required=True, help="number of points")
    ci.add_argument("--r", type=int, required=True, help="subset size")
    ci.add_argument("--format", choices=("plain", "latex", "json-like"),
                    default="plain", help="output format (default %(default)s)")
    ci.add_argument("--unmerged", action="store_true",
                    help="one term per partition of p, labelled with its source")
    ci.add_argument("--var", choices=("a", "y"), default="a",
                    help="variable letter (default %(default)s)")
    _add_limit(ci)
    ci.set_defaults(handler=_cmd_cycle_index)

    poly = sub.add_parser("poly", help="counting polynomial of n-plexes on p points")
    poly.add_argument("--p", type=int, required=True, help="number of points")
    poly.add_argument("--n", type=int, required=True, help="plex dimension")
    _add_limit(poly)
    poly.set_defaults(handler=_cmd_poly)

    count = sub.add_parser("count", help="total number of n-plexes on p points")
    count.add_argument("--p", type=int, required=True, help="number of points")
    count.add_argument("--n", type=int, required=True, help="plex dimension")
    _add_limit(count)
    count.set_defaults(handler=_cmd_count)

    table = sub.add_parser("table", help="grid of counts over a range of p and n")
    table.add_argument("--max-p", type=int, default=9, help="last row (default %(default)s)")
    table.add_argument("--max-n", type=int, default=3, help="last column (default %(default)s)")
    _add_limit(table)
    table.set_defaults(handler=_cmd_table)

    verify = sub.add_parser("verify", help="cross-check against reference data and oracles")
    verify.add_argument("--scope", choices=SCOPES, default="all",
                        help="which checks to run (default %(default)s)")
    verify.set_defaults(handler=_cmd_verify)
    return parser


def _require(parser: argparse.ArgumentParser, condition: bool, message: str) -> None:
    if not condition:
        parser.error(message)


def _cmd_cycle_index(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _require(parser, args.p >= 1, f"p must be >= 1, got {args.p}")
    _require(parser, args.p <= args.limit,
             f"p={args.p} exceeds the ceiling {args.limit} (use --limit to raise it)")
    _require(parser, 1 <= args.r <= args.p, f"r must satisfy 1 <= r <= p, got r={args.r}")
    index = cycle_index_subset_action(args.p, args.r)
    if args.unmerged:
        terms = subset_action_terms(args.p, args.r)
        if args.format == "plain":
            text = render_plain_unmerged(terms, index.group_order, var=args.var)
        elif args.format == "latex":
            text = render_latex_unmerged(terms, index.group_order, var=args.var)
        else:
            text = render_structured(index, args.p, args.r, unmerged=terms)
    else:
        if args.format == "plain":
            text = render_plain(index, var=args.var)
        elif args.format == "latex":
            text = render_latex(index, var=args.var)
        else:
            text = render_structured(index, args.p, args.r)
    print(text)
    return 0


def _check_pn(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    _require(parser, args.p >= 1, f"p must be >= 1, got {args.p}")
    _require(parser, args.n >= 1, f"n must be >= 1, got {args.n}")
    _require(parser, args.p <= args.limit,
             f"p={args.p} exceeds the ceiling {args.limit} (use --limit to raise it)")


def _cmd_poly(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_pn(parser, args)
    poly = plex_polynomial(args.p, args.n)
    print(f"p={args.p} n={args.n} degree={poly.degree}")
    for exponent, coeff in enumerate(poly.coeffs):
        print(f"{exponent}: {coeff}")
    print(f"total: {poly.coefficient_sum()}")
    return 0


def _cmd_count(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_pn(parser, args)
    print(plex_count(args.p, args.n))
    return 0


def _cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _require(parser, args.max_p >= 1, f"max-p must be >= 1, got {args.max_p}")
    _require(parser, args.max_n >= 1, f"max-n must be >= 1, got {args.max_n}")
    _require(parser, args.max_p <= args.limit,
             f"max-p={args.max_p} exceeds the ceiling {args.limit} "
             f"(use --limit to raise it)")
    _require(parser, args.max_n <= args.limit,
             f"max-n={args.max_n} exceeds the ceiling {args.limit} "
             f"(use --limit to raise it)")
    header = ["p"] + [f"n={n}" for n in range(1, args.max_n + 1)]
    rows = [[str(p)] + [str(plex_count(p, n)) for n in range(1, args.max_n + 1)]
            for p in range(1, args.max_p + 1)]
    widths = [max(len(line[col]) for line in [header] + rows)
              for col in range(len(header))]
    for line in [header] + rows:
        print("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    results = run_scope(args.scope)
    for result in results:
        print(result.line())
    passed = sum(1 for result in results if result.passed)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(parser, args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
