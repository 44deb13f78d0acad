"""Bundled reference data: integrity and agreement with computed results."""

import json
from math import comb, factorial

import pytest

from plexcount.cycle_index import subset_action_terms
from plexcount import golden
from plexcount.golden import _decimal, fixture_path, load_golden
from plexcount.oracle import cycle_type_of, induce_on_subsets, representative_of
from plexcount.partitions import Partition

# the published Z(S_8^(4)) prints this term with degree 22 instead of 70
MISPRINTED_8_4 = Partition({1: 2, 4: 2, 6: 2})
# what the computation produces in its place (degree 70, as required)
CORRECTED_8_4 = Partition({1: 2, 4: 2, 6: 2, 12: 4})


def test_fixture_file_exists_and_parses():
    raw = json.loads(fixture_path().read_text(encoding="utf-8"))
    assert raw["format"] == "plexcount.golden/1"
    assert {"counts", "formulas", "unmerged_formulas",
            "known_discrepancies"} <= raw.keys()


def test_fixture_shape():
    data = load_golden()
    assert set(data.counts) == {(p, n) for p in range(1, 10) for n in range(1, 4)}
    assert set(data.formulas) == {(6, 3), (7, 3), (8, 3), (9, 3), (8, 4), (9, 4)}
    assert set(data.unmerged_formulas) == {(6, 3)}
    assert set(data.known_discrepancies) == {(8, 4)}


def test_fixture_counts_coincidence():
    data = load_golden()
    assert data.counts[(7, 2)] == data.counts[(7, 3)]
    assert data.counts[(9, 3)] == 234431745534048922731115555415680


def test_fixture_formula_weights_sum_to_factorial():
    for (p, r), formula in load_golden().formulas.items():
        assert sum(formula.values()) == factorial(p)


def test_fixture_degrees():
    data = load_golden()
    for (p, r), formula in data.formulas.items():
        skip = {m for m, _ in data.known_discrepancies.get((p, r), ())}
        for monomial in formula:
            if monomial not in skip:
                assert monomial.ambient == comb(p, r)
    assert data.known_discrepancies[(8, 4)] == ((MISPRINTED_8_4, 3360),)
    assert MISPRINTED_8_4.ambient == 22


def test_corrected_8_4_term_confirmed_by_explicit_induction():
    # independent of the inversion pipeline: lay out a permutation with
    # cycle type 4+3+1 and trace its induced action on 4-subsets
    perm = representative_of(Partition({4: 1, 3: 1, 1: 1}))
    assert cycle_type_of(induce_on_subsets(perm, 4)) == CORRECTED_8_4


def test_unmerged_duplicates_come_from_distinct_partitions():
    # the published display lists these two terms twice each
    duplicated = {
        (Partition({1: 2, 3: 6}), 40): {Partition({3: 2}),
                                        Partition({3: 1, 1: 3})},
        (Partition({2: 2, 4: 4}), 90): {Partition({4: 1, 2: 1}),
                                        Partition({4: 1, 1: 2})},
    }
    terms = subset_action_terms(6, 3)
    for (induced, weight), sources in duplicated.items():
        found = {base for base, got_induced, got_weight in terms
                 if got_induced == induced and got_weight == weight}
        assert found == sources


def test_decimal_strings_are_ascii_digits_only():
    assert _decimal("0") == 0
    assert _decimal("720") == 720
    for bad in (" +0_6 ", "0_3", "-1", "", "\u0661\u0662"):
        with pytest.raises(ValueError):
            _decimal(bad)


def test_loader_rejects_non_integer_exponents(monkeypatch, tmp_path):
    raw = json.loads(fixture_path().read_text(encoding="utf-8"))
    monomial = raw["formulas"][0]["terms"][0]["monomial"]
    size = next(iter(monomial))
    monomial[size] = float(monomial[size])
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setattr(golden, "fixture_path", lambda: corrupted)
    with pytest.raises(ValueError):
        load_golden()


def test_loader_rejects_non_string_numbers_and_other_formats(monkeypatch, tmp_path):
    def float_count(raw):
        entry = next(e for e in raw["counts"] if (e["p"], e["n"]) == (8, 1))
        entry["count"] = 12346.9

    def bool_coeff(raw):
        term = raw["formulas"][0]["terms"][0]
        assert term["coeff"] == "1"
        term["coeff"] = True

    def other_format(raw):
        raw["format"] = "plexcount.golden/2"

    def loose_count(raw):
        entry = next(e for e in raw["counts"] if (e["p"], e["n"]) == (4, 1))
        assert entry["count"] == "11"
        entry["count"] = " +1_1 "

    def signed_coeff(raw):
        raw["formulas"][0]["terms"][0]["coeff"] = "-1"

    def non_ascii_coeff(raw):
        raw["formulas"][0]["terms"][0]["coeff"] = "\u0661"

    # a second entry for a key is rejected whether it comes first or last
    def wrong_count_first(raw):
        raw["counts"].insert(0, {"p": 4, "n": 1, "count": "12"})

    def wrong_count_last(raw):
        raw["counts"].append({"p": 4, "n": 1, "count": "12"})

    def repeated_formula(raw):
        raw["formulas"].append(raw["formulas"][0])

    def repeated_unmerged(raw):
        raw["unmerged_formulas"].append(raw["unmerged_formulas"][0])

    def discrepancy_without_formula(raw):
        raw["known_discrepancies"].append({**raw["known_discrepancies"][0], "p": 5, "r": 2})

    def unmerged_without_formula(raw):
        raw["formulas"] = [e for e in raw["formulas"] if (e["p"], e["r"]) != (6, 3)]

    def zero_count(raw):
        raw["counts"][0]["count"] = "0"

    def broken_coincidence(raw):
        entry = next(e for e in raw["counts"] if (e["p"], e["n"]) == (7, 3))
        entry["count"] = "7013321"

    # the (7,3) formula has no unmerged display, so only its own check applies
    def zero_coeff(raw):
        raw["formulas"][1]["terms"][0]["coeff"] = "0"

    def wrong_degree(raw):
        raw["formulas"][1]["terms"][0]["monomial"] = {"1": 34}

    def wrong_weight_sum(raw):
        raw["formulas"][1]["terms"][0]["coeff"] = "2"

    def repeated_monomial(raw):
        raw["formulas"][1]["terms"].append(raw["formulas"][1]["terms"][0])

    def unmerged_off_formula(raw):
        raw["unmerged_formulas"][0]["terms"][0]["coeff"] = "2"

    def term_not_an_object(raw):
        raw["formulas"][0]["terms"][0] = [1]

    def term_without_monomial(raw):
        del raw["formulas"][0]["terms"][0]["monomial"]

    def size_key(text):
        def corrupt(raw):
            term = raw["formulas"][0]["terms"][0]
            assert term["monomial"] == {"1": 20}
            term["monomial"] = {text: 20}
        return corrupt

    def exponent(value):
        def corrupt(raw):
            raw["formulas"][0]["terms"][0]["monomial"] = {"1": value}
        return corrupt

    def missing_count(n):
        def corrupt(raw):
            raw["counts"] = [e for e in raw["counts"] if (e["p"], e["n"]) != (7, n)]
        return corrupt

    corrupted = tmp_path / "golden.json"
    monkeypatch.setattr(golden, "fixture_path", lambda: corrupted)
    for corrupt, message in (
            (float_count, None), (bool_coeff, None), (other_format, None),
            (loose_count, None), (signed_coeff, None), (non_ascii_coeff, None),
            (term_not_an_object, r"expected a JSON object, got \[1\]"),
            (term_without_monomial, r"expected 'monomial' of type dict, got None"),
            (size_key(" 1"), r"ASCII digits, got ' 1'"),
            (size_key("+1"), r"ASCII digits, got '\+1'"),
            (size_key("\u0661"), r"ASCII digits, got '\u0661'"),
            (exponent(True), r"parts must be int, got 1: True"),
            (exponent("20"), r"parts must be int, got 1: '20'"),
            (wrong_count_first, r"counts has more than one entry for p=4, n=1$"),
            (wrong_count_last, r"counts has more than one entry for p=4, n=1$"),
            (repeated_formula, r"formulas has more than one entry for p=6, r=3$"),
            (repeated_unmerged, r"unmerged_formulas has more than one entry for p=6, r=3$"),
            (discrepancy_without_formula, r"known discrepancy \(5,2\) names no formula"),
            (unmerged_without_formula, r"unmerged terms for \(6,3\) have no formula"),
            (missing_count(2), "no entry for p=7, n=2"),
            (missing_count(3), "no entry for p=7, n=3"),
            (zero_count, r"count for p=1, n=1 is not positive"),
            (broken_coincidence, r"\(7,2\) = \(7,3\) coincidence"),
            (zero_coeff, r"non-positive coefficient in formula \(7,3\)"),
            (wrong_degree, r"formula \(7,3\) term .* has degree 34, expected 35"),
            (wrong_weight_sum, r"formula \(7,3\) coefficients do not sum"),
            (repeated_monomial, r"duplicate monomial in formula \(7,3\)"),
            (unmerged_off_formula, r"unmerged terms for \(6,3\) do not merge")):
        raw = json.loads(fixture_path().read_text(encoding="utf-8"))
        corrupt(raw)
        corrupted.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_golden()
