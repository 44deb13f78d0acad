"""Bundled reference data: integrity and agreement with computed results."""

import json
from math import comb, factorial

import pytest

from plexcount.cycle_index import subset_action_terms
from plexcount import golden
from plexcount.golden import fixture_path, load_golden
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

    corrupted = tmp_path / "golden.json"
    monkeypatch.setattr(golden, "fixture_path", lambda: corrupted)
    for corrupt in (float_count, bool_coeff, other_format, loose_count, signed_coeff,
                    non_ascii_coeff):
        raw = json.loads(fixture_path().read_text(encoding="utf-8"))
        corrupt(raw)
        corrupted.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError):
            load_golden()
