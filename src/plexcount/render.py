"""Text renderings of cycle indices and a parseable structured format.

Three formats are supported:

* plain: one term per line, ``15 a1^8 a2^6`` style, with a ``1/720 * (...)``
  wrapper showing the group-order denominator.
* latex: a single ``\\frac{1}{720}\\left( ... \\right)`` expression with
  ``a_1^{20}`` style monomials.
* structured: line-delimited JSON with every weight as a decimal string, one
  header object followed by one object per term.  parse_structured inverts
  render_structured exactly.

Merged terms are emitted in decreasing-lexicographic order of their exponent
vectors (the a_1-heavy terms first), so output is byte-stable.  Unmerged
renderings keep one term per partition of p, in the partitions_of order, and
label every term with its source partition.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from .cycle_index import CycleIndex
from .partitions import Partition

UnmergedTerms = Iterable[tuple[Partition, Partition, int]]


def term_sort_key(monomial: Partition) -> tuple[int, ...]:
    """Sort key putting high powers of small cycle sizes first."""
    return tuple(-monomial.multiplicity(size) for size in range(1, monomial.ambient + 1))


def ordered_terms(index: CycleIndex) -> list[tuple[Partition, int]]:
    """The merged terms of a cycle index in rendering order."""
    return sorted(index.terms.items(), key=lambda item: term_sort_key(item[0]))


def monomial_plain(monomial: Partition, var: str = "a") -> str:
    if not monomial.items():
        return "1"
    pieces = []
    for size, mult in monomial.items():
        pieces.append(f"{var}{size}" if mult == 1 else f"{var}{size}^{mult}")
    return " ".join(pieces)


def _latex_sub(value: int) -> str:
    return str(value) if value < 10 else "{" + str(value) + "}"


def monomial_latex(monomial: Partition, var: str = "a") -> str:
    if not monomial.items():
        return "1"
    pieces = []
    for size, mult in monomial.items():
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


def render_plain(index: CycleIndex, var: str = "a") -> str:
    lines = [f"1/{index.group_order} * ("]
    for position, (monomial, weight) in enumerate(ordered_terms(index)):
        prefix = "    " if position == 0 else "  + "
        lines.append(prefix + _term(monomial, weight, var, monomial_plain))
    lines.append(")")
    return "\n".join(lines)


def render_latex(index: CycleIndex, var: str = "a") -> str:
    terms = " + ".join(_term(monomial, weight, var, monomial_latex)
                       for monomial, weight in ordered_terms(index))
    return f"\\frac{{1}}{{{index.group_order}}}\\left({terms}\\right)"


def render_plain_unmerged(terms: UnmergedTerms, group_order: int, var: str = "a") -> str:
    rows = [(_term(induced, weight, var, monomial_plain), str(base))
            for base, induced, weight in terms]
    width = max(len(text) for text, _ in rows)
    lines = [f"1/{group_order} * ("]
    for position, (text, source) in enumerate(rows):
        prefix = "    " if position == 0 else "  + "
        lines.append(f"{prefix}{text:<{width}}   [from {source}]")
    lines.append(")")
    return "\n".join(lines)


def render_latex_unmerged(terms: UnmergedTerms, group_order: int, var: str = "a") -> str:
    lines = [f"\\frac{{1}}{{{group_order}}}\\bigl("]
    for position, (base, induced, weight) in enumerate(terms):
        text = _term(induced, weight, var, monomial_latex)
        joiner = "" if position == 0 else "+ "
        lines.append(f"  {joiner}{text} % from {base}")
    lines.append("\\bigr)")
    return "\n".join(lines)


def _monomial_record(monomial: Partition) -> dict[str, int]:
    return {str(size): mult for size, mult in monomial.items()}


def render_structured(index: CycleIndex, p: int, r: int,
                      unmerged: UnmergedTerms | None = None) -> str:
    """Line-delimited JSON: a header line, then one line per term.

    All weights are decimal strings so no consumer needs big-integer JSON
    support.  With ``unmerged`` the terms keep partition order and carry a
    ``source`` field.
    """
    merged = unmerged is None
    if merged:
        rows = ordered_terms(index)
        sources: list[Partition | None] = [None] * len(rows)
    else:
        materialized = list(unmerged)
        rows = [(induced, weight) for _, induced, weight in materialized]
        sources = [base for base, _, _ in materialized]
    header = {
        "kind": "cycle-index",
        "p": p,
        "r": r,
        "points": index.ambient_points,
        "group_order": str(index.group_order),
        "merged": merged,
        "terms": len(rows),
    }
    lines = [json.dumps(header, sort_keys=True)]
    for (monomial, weight), source in zip(rows, sources):
        record = {"weight": str(weight), "monomial": _monomial_record(monomial)}
        if source is not None:
            record["source"] = _monomial_record(source)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines)


def parse_structured(text: str) -> CycleIndex:
    """Rebuild a CycleIndex from render_structured output (merging duplicates)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty structured document")
    header = json.loads(lines[0])
    if header.get("kind") != "cycle-index":
        raise ValueError(f"unexpected document kind {header.get('kind')!r}")
    expected = header["terms"]
    if len(lines) - 1 != expected:
        raise ValueError(f"header promises {expected} terms, found {len(lines) - 1}")
    terms: dict[Partition, int] = {}
    for line in lines[1:]:
        record = json.loads(line)
        monomial = Partition({int(size): mult
                              for size, mult in record["monomial"].items()})
        terms[monomial] = terms.get(monomial, 0) + int(record["weight"])
    return CycleIndex(terms, group_order=int(header["group_order"]),
                      ambient_points=header["points"])
