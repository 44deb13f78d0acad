"""Text renderings of cycle indices and a parseable structured format.

Three formats, each with one renderer:

* plain (render_plain): one term per line, ``15 a1^8 a2^6`` style, with a
  ``1/720 * (...)`` wrapper showing the group-order denominator.
* latex (render_latex): a single ``\\frac{1}{720}\\left( ... \\right)``
  expression with ``a_1^{20}`` style monomials.
* structured (render_structured): line-delimited JSON with every weight as a
  decimal string, one header object followed by one object per term.
  parse_structured inverts render_structured exactly.

Each renderer reads rows of ``(source, monomial, weight)``.  By default the
rows are the merged terms, with no source, in decreasing-lexicographic order
of their exponent vectors (the a_1-heavy terms first), so output is
byte-stable.  Given ``unmerged=subset_action_terms(p, r)``, the rows keep one
term per partition of p, in the partitions_of order, and every term is
labelled with its source partition.  The JSON reading of typed fields, of
strict decimal strings and of the ``{"size": mult}`` monomial map lives here
too; the golden loader shares it.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from .cycle_index import CycleIndex
from .partitions import Partition

Row = tuple[Partition | None, Partition, int]


def ordered_terms(index: CycleIndex) -> list[tuple[Partition, int]]:
    """The merged terms of a cycle index in rendering order.

    Every term partitions the same number of points, so comparing the pairs
    orders the exponent vectors decreasing-lexicographically.
    """
    return sorted(index.terms.items(),
                  key=lambda item: tuple((size, -mult) for size, mult in item[0]))


def _rows(index: CycleIndex, unmerged: Iterable[Row] | None) -> list[Row]:
    if unmerged is None:
        return [(None, monomial, weight) for monomial, weight in ordered_terms(index)]
    return list(unmerged)


def monomial_plain(monomial: Partition, var: str = "a") -> str:
    if not monomial:
        return "1"
    pieces = []
    for size, mult in monomial:
        pieces.append(f"{var}{size}" if mult == 1 else f"{var}{size}^{mult}")
    return " ".join(pieces)


def _latex_sub(value: int) -> str:
    return str(value) if value < 10 else "{" + str(value) + "}"


def monomial_latex(monomial: Partition, var: str = "a") -> str:
    if not monomial:
        return "1"
    pieces = []
    for size, mult in monomial:
        piece = f"{var}_{_latex_sub(size)}"
        if mult != 1:
            piece += f"^{_latex_sub(mult)}"
        pieces.append(piece)
    return " ".join(pieces)


def _term(monomial: Partition, weight: int, var: str,
          monomial_text: Callable[[Partition, str], str]) -> str:
    body = monomial_text(monomial, var)
    if weight == 1:
        return body
    return f"{weight} {body}" if body != "1" else str(weight)


def render_plain(index: CycleIndex, var: str = "a",
                 unmerged: Iterable[Row] | None = None) -> str:
    """One term per line; unmerged terms are padded and end ``[from <source>]``."""
    rows = _rows(index, unmerged)
    texts = [_term(monomial, weight, var, monomial_plain) for _, monomial, weight in rows]
    width = max(map(len, texts), default=0)
    lines = [f"1/{index.group_order} * ("]
    for position, ((source, _, _), text) in enumerate(zip(rows, texts)):
        prefix = "    " if position == 0 else "  + "
        lines.append(prefix + (text if source is None
                               else f"{text:<{width}}   [from {source}]"))
    lines.append(")")
    return "\n".join(lines)


def render_latex(index: CycleIndex, var: str = "a",
                 unmerged: Iterable[Row] | None = None) -> str:
    """One line; unmerged, one term per line, each ending ``% from <source>``."""
    rows = _rows(index, unmerged)
    texts = [_term(monomial, weight, var, monomial_latex) for _, monomial, weight in rows]
    if unmerged is None:
        return f"\\frac{{1}}{{{index.group_order}}}\\left({' + '.join(texts)}\\right)"
    lines = [f"\\frac{{1}}{{{index.group_order}}}\\bigl("]
    for position, ((source, _, _), text) in enumerate(zip(rows, texts)):
        joiner = "" if position == 0 else "+ "
        lines.append(f"  {joiner}{text} % from {source}")
    lines.append("\\bigr)")
    return "\n".join(lines)


def _monomial_record(monomial: Partition) -> dict[str, int]:
    return {str(size): mult for size, mult in monomial}


def render_structured(index: CycleIndex, p: int, r: int,
                      unmerged: Iterable[Row] | None = None) -> str:
    """Line-delimited JSON: a header line, then one line per term.

    All weights are decimal strings so no consumer needs big-integer JSON
    support.  With ``unmerged`` the terms keep partition order and carry a
    ``source`` field.
    """
    rows = _rows(index, unmerged)
    header = {
        "kind": "cycle-index",
        "p": p,
        "r": r,
        "points": index.ambient_points,
        "group_order": str(index.group_order),
        "merged": unmerged is None,
        "terms": len(rows),
    }
    lines = [json.dumps(header, sort_keys=True)]
    for source, monomial, weight in rows:
        record = {"weight": str(weight), "monomial": _monomial_record(monomial)}
        if source is not None:
            record["source"] = _monomial_record(source)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines)


def _field(record: object, key: str, kind: type):
    """``record[key]`` of a parsed JSON object; ValueError unless present with this type."""
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {record!r}")
    value = record.get(key)
    if type(value) is not kind:
        raise ValueError(f"expected {key!r} of type {kind.__name__}, got {value!r}")
    return value


def _decimal(text: str) -> int:
    """A decimal string of ASCII digits as an int; ValueError for anything else.

    Plain ``int`` would also take signs, whitespace, underscores and non-ASCII
    digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected a decimal string of ASCII digits, got {text!r}")
    return int(text)


def _monomial(record: object) -> Partition:
    """``record["monomial"]``, a ``{"size": mult}`` map, as a Partition (ValueError if bad)."""
    raw = _field(record, "monomial", dict)
    return Partition({_decimal(size): mult for size, mult in raw.items()})


def parse_structured(text: str) -> CycleIndex:
    """Rebuild a CycleIndex from render_structured output (merging duplicates).

    The document comes from outside the program, so anything malformed raises
    ValueError.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty structured document")
    header = json.loads(lines[0])
    kind = _field(header, "kind", str)
    if kind != "cycle-index":
        raise ValueError(f"unexpected document kind {kind!r}")
    expected = _field(header, "terms", int)
    if len(lines) - 1 != expected:
        raise ValueError(f"header promises {expected} terms, found {len(lines) - 1}")
    terms: dict[Partition, int] = {}
    for line in lines[1:]:
        record = json.loads(line)
        monomial = _monomial(record)
        terms[monomial] = terms.get(monomial, 0) + _decimal(_field(record, "weight", str))
    return CycleIndex(terms, group_order=_decimal(_field(header, "group_order", str)),
                      ambient_points=_field(header, "points", int))
