"""The verification check runner and its report lines."""

import pytest

from plexcount import verify
from plexcount.cli import main
from plexcount.counting import IntPolynomial
from plexcount.cycle_index import CycleIndex
from plexcount.golden import load_golden
from plexcount.partitions import Partition
from plexcount.verify import (CheckResult, check_counts, check_formulas,
                              check_oracle, run_scope)


def test_run_scope_composition():
    assert len(run_scope("table")) == 27
    assert len(run_scope("formulas")) == 7
    oracle = len(run_scope("oracle"))
    assert len(run_scope("all")) == 27 + 7 + oracle
    with pytest.raises(ValueError):
        run_scope("everything")


def test_check_result_line_format():
    assert CheckResult("thing", True).line() == "PASS thing"
    assert CheckResult("thing", False, "boom").line() == "FAIL thing: boom"


def test_check_counts_reports_wrong_values(monkeypatch, capsys):
    monkeypatch.setattr(verify, "plex_count", lambda p, n: 0)
    results = check_counts()
    assert not any(result.passed for result in results)
    assert results[0].line() == "FAIL count p=1 n=1: expected 1, got 0"
    assert main(["verify", "--scope", "table"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0/27 checks passed"


def test_edited_reference_data_changes_no_later_check():
    load_golden().counts[(4, 1)] = 12
    assert all(result.passed for result in check_counts())


def test_check_formulas_reports_wrong_terms(monkeypatch):
    def shifted(p, r):
        # every weight moved onto one wrong term, so nothing published matches
        return CycleIndex({Partition({1: 1, r: 1}): 1}, 1, r + 1)

    monkeypatch.setattr(verify, "cycle_index_subset_action", shifted)
    results = {result.name: result for result in check_formulas()}
    assert not results["formula p=6 r=3"].passed
    assert "not reproduced (computed weight 0)" in results["formula p=6 r=3"].detail
    assert not results["formula p=8 r=4"].passed


def test_check_formulas_reports_wrong_unmerged_display(monkeypatch):
    terms = verify.subset_action_terms(6, 3)
    # the term induced by a 6-cycle goes missing
    monkeypatch.setattr(verify, "subset_action_terms", lambda p, r: terms[1:])
    results = {result.name: result for result in check_formulas()}
    assert results["unmerged terms p=6 r=3"].line() == (
        "FAIL unmerged terms p=6 r=3: term multiset differs from the published display")


def test_check_oracle_reports_disagreement(monkeypatch):
    monkeypatch.setattr(verify, "induced_cycle_type", lambda base, r: Partition())
    monkeypatch.setattr(verify, "plex_polynomial", lambda p, n: IntPolynomial([7]))
    results = check_oracle()
    assert not any(result.passed for result in results)
    by_name = {result.name: result for result in results}
    assert by_name["induced cycle types p=1"].detail == (
        "partition 1, r=1: pipeline gives 0, explicit induction gives 1")
    assert by_name["independent polynomial p=3 n=1"].detail.startswith("coefficients differ: [7] vs")
    assert by_name["exhaustive orbit histogram p=3 n=1"].detail.startswith("[7] vs")
