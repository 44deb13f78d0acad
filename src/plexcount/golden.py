"""Loader for the bundled reference data (data/golden.json).

The fixture freezes previously published values: a table of plex counts, six
fully expanded cycle indices, the unmerged eleven-term display of Z(S_6^(3)),
and one known misprint in the published Z(S_8^(4)).  Loading requires the
``plexcount.golden/1`` format tag and every field's JSON type (ints for p, n
and r, ASCII decimal strings for counts and coefficients, read by render's
typed field, decimal and monomial readers), then validates the data's
internal consistency (term degrees, weight sums, the C(7,2) = C(7,3)
coincidence), so a corrupted fixture fails fast rather than silently
blessing wrong results.
"""

from __future__ import annotations

import json
from importlib import resources
from math import comb, factorial
from typing import NamedTuple

from .partitions import Partition
from .render import _decimal, _field, _monomial

FORMAT = "plexcount.golden/1"
Formula = dict[Partition, int]
TermList = tuple[tuple[Partition, int], ...]


class GoldenData(NamedTuple):
    counts: dict[tuple[int, int], int]
    formulas: dict[tuple[int, int], Formula]
    unmerged_formulas: dict[tuple[int, int], TermList]
    known_discrepancies: dict[tuple[int, int], TermList]


def fixture_path():
    """Filesystem path of the bundled reference data file."""
    return resources.files("plexcount").joinpath("data", "golden.json")


def _key(entry: object, second: str) -> tuple[int, int]:
    return _field(entry, "p", int), _field(entry, second, int)


def _parse_term(raw: object) -> tuple[Partition, int]:
    return _monomial(raw), _decimal(_field(raw, "coeff", str))


def _parse_terms(entry: object) -> list[tuple[Partition, int]]:
    return [_parse_term(term) for term in _field(entry, "terms", list)]


def _validate(data: GoldenData) -> None:
    if data.counts[(7, 2)] != data.counts[(7, 3)]:
        raise ValueError("reference counts must satisfy the (7,2) = (7,3) coincidence")
    for (p, n), value in data.counts.items():
        if value < 1:
            raise ValueError(f"reference count for p={p}, n={n} is not positive")
    for (p, r), formula in data.formulas.items():
        skip = {monomial for monomial, _ in data.known_discrepancies.get((p, r), ())}
        degree = comb(p, r)
        for monomial, coeff in formula.items():
            if coeff < 1:
                raise ValueError(f"non-positive coefficient in formula ({p},{r})")
            if monomial not in skip and monomial.ambient != degree:
                raise ValueError(
                    f"formula ({p},{r}) term {monomial} has degree "
                    f"{monomial.ambient}, expected {degree}")
        if sum(formula.values()) != factorial(p):
            raise ValueError(f"formula ({p},{r}) coefficients do not sum to {p}!")
    for (p, r), terms in data.unmerged_formulas.items():
        merged: dict[Partition, int] = {}
        for monomial, coeff in terms:
            merged[monomial] = merged.get(monomial, 0) + coeff
        if merged != data.formulas[(p, r)]:
            raise ValueError(f"unmerged terms for ({p},{r}) do not merge to the formula")


def load_golden() -> GoldenData:
    """Read, parse and validate the bundled reference data.

    Every call builds a new GoldenData from the file, so the caller may edit
    its dicts without changing any later result.
    """
    raw = json.loads(fixture_path().read_text(encoding="utf-8"))
    if _field(raw, "format", str) != FORMAT:
        raise ValueError(f"reference data format {raw['format']!r} is not {FORMAT!r}")
    counts = {_key(entry, "n"): _decimal(_field(entry, "count", str))
              for entry in _field(raw, "counts", list)}
    formulas = {}
    for entry in _field(raw, "formulas", list):
        p, r = _key(entry, "r")
        formula: Formula = {}
        for monomial, coeff in _parse_terms(entry):
            if monomial in formula:
                raise ValueError(f"duplicate monomial in formula ({p},{r})")
            formula[monomial] = coeff
        formulas[(p, r)] = formula
    unmerged = {_key(entry, "r"): tuple(_parse_terms(entry))
                for entry in raw.get("unmerged_formulas", [])}
    discrepancies: dict[tuple[int, int], list] = {}
    for entry in raw.get("known_discrepancies", []):
        discrepancies.setdefault(_key(entry, "r"), []).append(
            _parse_term(_field(entry, "term", dict)))
    frozen = {key: tuple(value) for key, value in discrepancies.items()}
    data = GoldenData(counts=counts, formulas=formulas,
                      unmerged_formulas=unmerged, known_discrepancies=frozen)
    _validate(data)
    return data
