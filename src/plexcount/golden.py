"""Loader for the bundled reference data (data/golden.json).

The fixture freezes previously published values: a table of plex counts, six
fully expanded cycle indices, the unmerged eleven-term display of Z(S_6^(3)),
and one known misprint in the published Z(S_8^(4)).  Loading requires the
``plexcount.golden/1`` format tag and every field's JSON type (ints for p, n
and r, ASCII decimal strings for counts, coefficients and monomial sizes,
read by the typed field, decimal and monomial readers below, the only code
in the package that reads JSON) and at most one entry per key
in counts, formulas and unmerged_formulas, then validates the data's
internal consistency (term degrees, weight sums, the C(7,2) = C(7,3)
coincidence, a formula for every unmerged display and known discrepancy),
so a corrupted fixture fails fast, with ValueError, rather than silently
blessing wrong results.
"""

from __future__ import annotations

import json
from importlib import resources
from math import comb, factorial
from typing import Callable, NamedTuple

from .partitions import Partition

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


def _key(entry: object, second: str) -> tuple[int, int]:
    return _field(entry, "p", int), _field(entry, second, int)


def _parse_term(raw: object) -> tuple[Partition, int]:
    return _monomial(raw), _decimal(_field(raw, "coeff", str))


def _parse_terms(entry: object) -> list[tuple[Partition, int]]:
    return [_parse_term(term) for term in _field(entry, "terms", list)]


def _parse_formula(entry: object) -> Formula:
    p, r = _key(entry, "r")
    formula: Formula = {}
    for monomial, coeff in _parse_terms(entry):
        if monomial in formula:
            raise ValueError(f"duplicate monomial in formula ({p},{r})")
        formula[monomial] = coeff
    return formula


def _one_per_key(entries: list, section: str, second: str,
                 parse: Callable[[object], object]) -> dict:
    """Map each entry's (p, second) key to ``parse(entry)``; a repeated key raises."""
    parsed = {}
    for entry in entries:
        p, q = key = _key(entry, second)
        if key in parsed:
            raise ValueError(f"{section} has more than one entry for p={p}, {second}={q}")
        parsed[key] = parse(entry)
    return parsed


def _validate(data: GoldenData) -> None:
    for n in (2, 3):
        if (7, n) not in data.counts:
            raise ValueError(f"reference counts have no entry for p=7, n={n}")
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
    for p, r in data.known_discrepancies:
        if (p, r) not in data.formulas:
            raise ValueError(f"known discrepancy ({p},{r}) names no formula")
    for (p, r), terms in data.unmerged_formulas.items():
        if (p, r) not in data.formulas:
            raise ValueError(f"unmerged terms for ({p},{r}) have no formula")
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
    counts = _one_per_key(_field(raw, "counts", list), "counts", "n",
                          lambda entry: _decimal(_field(entry, "count", str)))
    formulas = _one_per_key(_field(raw, "formulas", list), "formulas", "r", _parse_formula)
    unmerged = _one_per_key(raw.get("unmerged_formulas", []), "unmerged_formulas", "r",
                            lambda entry: tuple(_parse_terms(entry)))
    discrepancies: dict[tuple[int, int], list] = {}
    for entry in raw.get("known_discrepancies", []):
        discrepancies.setdefault(_key(entry, "r"), []).append(
            _parse_term(_field(entry, "term", dict)))
    frozen = {key: tuple(value) for key, value in discrepancies.items()}
    data = GoldenData(counts=counts, formulas=formulas,
                      unmerged_formulas=unmerged, known_discrepancies=frozen)
    _validate(data)
    return data
