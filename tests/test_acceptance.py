"""Acceptance suite: one criterion per test, one printed verdict line each.

Run under pytest (use -s to see the verdict lines for passing criteria) or
directly with ``python tests/test_acceptance.py``.  Every check is exact
integer equality; there are no tolerances.
"""

import sys
from math import comb, factorial

from plexcount.counting import plex_count, plex_polynomial, substitute
from plexcount.cycle_index import cycle_index_subset_action
from plexcount.golden import load_golden
from plexcount.oracle import exhaustive_plex_histogram
from plexcount.verify import _check_exhaustive, check_counts, check_formulas, check_oracle

GRAPH_COLUMN = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)
# the published term 3360 a1^2 a4^2 a6^2 has degree 22, not 70; the
# computation must put exactly this term in its place
CORRECTED_8_4 = "; computed 3360 a1^2 a4^2 a6^2 a12^4"


def _report(number: int, label: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail and not passed else ""
    print(f"[acceptance] criterion {number} ({label}): {status}{suffix}", flush=True)
    return passed


def _all_passed(results, named, size=None):
    """Verdict on verify's CheckResults: the named checks ran, and every check passed."""
    names = [result.name for result in results]
    if size is not None and len(names) != size:
        return False, f"{len(names)} checks, expected {size}"
    missing = [name for name in named if name not in names]
    if missing:
        return False, f"no check named {missing[0]!r}"
    failed = [result.line() for result in results if not result.passed]
    return not failed, "; ".join(failed)


def _oracle_family(prefix):
    return [result for result in check_oracle() if result.name.startswith(prefix)]


def criterion_1_reference_counts():
    results = check_counts()
    if results[0].name != "count p=1 n=1":
        return False, f"first check {results[0].name!r}"
    return _all_passed(results, ["count p=9 n=3"], size=27)


def criterion_2_published_formulas():
    results = check_formulas()  # six formulas plus the unmerged display
    passed, detail = _all_passed(results, ["formula p=8 r=4", "unmerged terms p=6 r=3"],
                                 size=7)
    notes = {result.name: result.detail for result in results if result.detail}
    note = notes.get("formula p=8 r=4", "")
    if passed and (len(notes) != 1 or not note.startswith("known misprint")
                   or not note.endswith(CORRECTED_8_4)):
        return False, f"notes {notes}"
    return passed, detail


def criterion_3_induced_oracle():
    return _all_passed(_oracle_family("induced cycle types"), ["induced cycle types p=7"])


def criterion_4_burnside_oracle():
    return _all_passed(_oracle_family("independent polynomial"),
                       ["independent polynomial p=9 n=3"])


def criterion_5_exhaustive_ground_truth():
    results = _oracle_family("exhaustive orbit histogram") + [_check_exhaustive(6, 2)]
    passed, detail = _all_passed(results, ["exhaustive orbit histogram p=5 n=2",
                                           "exhaustive orbit histogram p=6 n=2"])
    if not passed:
        return passed, detail
    # (7, 1), graphs on 7 points at 2^21 states, is the largest case the
    # oracle allows; its one sweep is checked against the polynomial and
    # against the reference count
    histogram = exhaustive_plex_histogram(7, 1)
    if histogram != list(plex_polynomial(7, 1).coeffs):
        return False, f"exhaustive (7, 1) histogram {histogram}"
    if sum(histogram) != load_golden().counts[(7, 1)]:
        return False, f"exhaustive (7, 1) histogram sums to {sum(histogram)}"
    return True, ""


def criterion_6_structural_invariants():
    for p in range(1, 11):
        for r in range(1, p + 1):
            z = cycle_index_subset_action(p, r)  # inversion exactness implied
            if sum(z.terms.values()) != factorial(p):
                return False, f"weight sum p={p} r={r}"
            if any(t.ambient != comb(p, r) for t in z.terms):
                return False, f"term degree p={p} r={r}"
            if substitute(z).coeffs[0] != 1:
                return False, f"normalization p={p} r={r}"
            if r < p and z.terms != cycle_index_subset_action(p, p - r).terms:
                return False, f"complement identity p={p} r={r}"
            if r >= 2:
                coeffs = plex_polynomial(p, r - 1).coeffs
                if coeffs != coeffs[::-1]:
                    return False, f"palindromy p={p} n={r - 1}"
    return True, ""


def criterion_7_graph_sequence():
    got = tuple(plex_count(p, 1) for p in range(1, 10))
    if got != GRAPH_COLUMN:
        return False, f"n=1 column {got}"
    column = tuple(load_golden().counts[(p, 1)] for p in range(1, 10))
    if column != GRAPH_COLUMN:
        return False, f"reference n=1 column {column}"
    return True, ""


CRITERIA = (
    (1, "reference count table", criterion_1_reference_counts),
    (2, "published cycle-index formulas", criterion_2_published_formulas),
    (3, "induced cycle-type oracle", criterion_3_induced_oracle),
    (4, "independent counting polynomials", criterion_4_burnside_oracle),
    (5, "exhaustive orbit ground truth", criterion_5_exhaustive_ground_truth),
    (6, "structural invariants", criterion_6_structural_invariants),
    (7, "graph-count sequence", criterion_7_graph_sequence),
)


def test_criterion_1():
    passed, detail = criterion_1_reference_counts()
    assert _report(1, CRITERIA[0][1], passed, detail), detail


def test_criterion_2():
    passed, detail = criterion_2_published_formulas()
    assert _report(2, CRITERIA[1][1], passed, detail), detail


def test_criterion_3():
    passed, detail = criterion_3_induced_oracle()
    assert _report(3, CRITERIA[2][1], passed, detail), detail


def test_criterion_4():
    passed, detail = criterion_4_burnside_oracle()
    assert _report(4, CRITERIA[3][1], passed, detail), detail


def test_criterion_5():
    passed, detail = criterion_5_exhaustive_ground_truth()
    assert _report(5, CRITERIA[4][1], passed, detail), detail


def test_criterion_6():
    passed, detail = criterion_6_structural_invariants()
    assert _report(6, CRITERIA[5][1], passed, detail), detail


def test_criterion_7():
    passed, detail = criterion_7_graph_sequence()
    assert _report(7, CRITERIA[6][1], passed, detail), detail


def main() -> int:
    failures = 0
    for number, label, criterion in CRITERIA:
        passed, detail = criterion()
        if not _report(number, label, passed, detail):
            failures += 1
    print(f"[acceptance] {len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed",
          flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
