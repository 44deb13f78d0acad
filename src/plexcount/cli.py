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
usage errors.  Each argument has one guard, and all run before any work:
``--p/--n/--r/--max-p/--max-n/--limit`` parse as ints >= 1 written in
ASCII decimal digits alone (no sign, space or underscore), ``cycle-index``
needs r <= p and takes ``--var`` only with plain or latex output, and
``main`` holds ``--p/--max-p/--max-n`` to one ceiling (default 12), a
guardrail against accidental huge runs that ``--limit`` raises.  While a
command runs, ``main`` lifts Python's limit on the digits of an int printed
in decimal, and restores it on return.
"""

from __future__ import annotations

import argparse
import sys

from .counting import plex_count, plex_polynomial
from .cycle_index import cycle_index_subset_action, subset_action_terms
from .golden import _decimal
from .render import render_latex, render_plain, render_structured
from .verify import SCOPES, run_scope

DEFAULT_LIMIT = 12


def positive_int(text: str) -> int:
    """argparse type of every integer option: ASCII decimal digits, value >= 1.

    It reads digits as golden._decimal does, so a sign, whitespace, an
    underscore or a non-ASCII digit is invalid; a leading minus is read only
    to report the value as below 1.
    """
    value = -_decimal(text[1:]) if text.startswith("-") else _decimal(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_limit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--limit", type=positive_int, default=DEFAULT_LIMIT, metavar="P",
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
    ci.add_argument("--p", type=positive_int, required=True, help="number of points")
    ci.add_argument("--r", type=positive_int, required=True, help="subset size")
    ci.add_argument("--format", choices=("plain", "latex", "json-like"),
                    default="plain", help="output format (default %(default)s)")
    ci.add_argument("--unmerged", action="store_true",
                    help="one term per partition of p, labelled with its source")
    ci.add_argument("--var", choices=("a", "y"),
                    help="variable letter of plain and latex output (default a)")
    _add_limit(ci)
    ci.set_defaults(handler=_cmd_cycle_index)

    for name, handler, help_text in (
            ("poly", _cmd_poly, "counting polynomial of n-plexes on p points"),
            ("count", _cmd_count, "total number of n-plexes on p points")):
        pn = sub.add_parser(name, help=help_text)
        pn.add_argument("--p", type=positive_int, required=True, help="number of points")
        pn.add_argument("--n", type=positive_int, required=True, help="plex dimension")
        _add_limit(pn)
        pn.set_defaults(handler=handler)

    table = sub.add_parser("table", help="grid of counts over a range of p and n")
    table.add_argument("--max-p", type=positive_int, default=9,
                       help="last row (default %(default)s)")
    table.add_argument("--max-n", type=positive_int, default=3,
                       help="last column (default %(default)s)")
    _add_limit(table)
    table.set_defaults(handler=_cmd_table)

    verify = sub.add_parser("verify", help="cross-check against reference data and oracles")
    verify.add_argument("--scope", choices=SCOPES, default="all",
                        help="which checks to run (default %(default)s)")
    verify.set_defaults(handler=_cmd_verify)
    return parser


def _cmd_cycle_index(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.r > args.p:
        parser.error(f"r must satisfy 1 <= r <= p, got r={args.r}")
    if args.format == "json-like" and args.var is not None:
        parser.error("--var applies only to plain and latex output")
    index = cycle_index_subset_action(args.p, args.r)
    unmerged = subset_action_terms(args.p, args.r) if args.unmerged else None
    if args.format == "json-like":
        print(render_structured(index, args.p, args.r, unmerged=unmerged))
    else:
        render = render_latex if args.format == "latex" else render_plain
        print(render(index, var=args.var or "a", unmerged=unmerged))
    return 0


def _cmd_poly(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    poly = plex_polynomial(args.p, args.n)
    print(f"p={args.p} n={args.n} degree={poly.degree}")
    for exponent, coeff in enumerate(poly.coeffs):
        print(f"{exponent}: {coeff}")
    print(f"total: {poly.coefficient_sum()}")
    return 0


def _cmd_count(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    print(plex_count(args.p, args.n))
    return 0


def _cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
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
        for dest in ("p", "max_p", "max_n"):
            value = getattr(args, dest, None)
            if value is not None and value > args.limit:
                parser.error(f"{dest.replace('_', '-')}={value} exceeds the ceiling "
                             f"{args.limit} (use --limit to raise it)")
        # counts and coefficients can run past the default 4300-digit limit
        # on int-to-str conversion; lift it for this command only
        digits_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return args.handler(parser, args)
        finally:
            sys.set_int_max_str_digits(digits_limit)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
