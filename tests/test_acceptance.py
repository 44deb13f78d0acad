"""Acceptance suite: one criterion per test, one printed verdict line each.

Run under pytest (use -s to see the verdict lines for passing criteria) or
directly with ``python tests/test_acceptance.py``.  Every check is exact
integer equality; there are no tolerances.
"""

import sys
from math import comb, factorial

from plexcount.counting import ONE, plex_count, plex_polynomial, substitute
from plexcount.cycle_index import cycle_index_subset_action, induced_cycle_type
from plexcount.golden import load_golden
from plexcount.oracle import (burnside_polynomial, cycle_type_of,
                              exhaustive_plex_histogram, induce_on_subsets,
                              representative_of)
from plexcount.partitions import Partition, partitions_of
from plexcount.verify import (BURNSIDE_MAX_N, BURNSIDE_MAX_P, EXHAUSTIVE_CASES,
                              INDUCED_MAX_P)

GRAPH_COLUMN = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)
CORRECTED_8_4 = Partition({1: 2, 4: 2, 6: 2, 12: 4})


def _report(number: int, label: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail and not passed else ""
    print(f"[acceptance] criterion {number} ({label}): {status}{suffix}", flush=True)
    return passed


def criterion_1_reference_counts():
    for (p, n), expected in sorted(load_golden().counts.items()):
        got = plex_count(p, n)
        if got != expected:
            return False, f"p={p} n={n}: expected {expected}, got {got}"
    return True, ""


def criterion_2_published_formulas():
    data = load_golden()
    for (p, r), formula in sorted(data.formulas.items()):
        computed = dict(cycle_index_subset_action(p, r).terms)
        expected = dict(formula)
        for monomial, weight in data.known_discrepancies.get((p, r), ()):
            if expected.pop(monomial, None) != weight:
                return False, f"({p},{r}): bad discrepancy fixture entry"
        for monomial, weight in expected.items():
            if computed.get(monomial) != weight:
                return False, f"({p},{r}): term {weight} {monomial} not reproduced"
        surplus = {m: w for m, w in computed.items() if m not in expected}
        if (p, r) == (8, 4):
            # the published term 3360 a1^2 a4^2 a6^2 has degree 22, not 70;
            # the computation must produce the corrected term instead
            if surplus != {CORRECTED_8_4: 3360}:
                return False, f"(8,4): replacement terms {surplus}"
        elif surplus:
            return False, f"({p},{r}): unexpected terms {surplus}"
    return True, ""


def criterion_3_induced_oracle():
    for p in range(1, INDUCED_MAX_P + 1):
        for base in partitions_of(p):
            perm = representative_of(base)
            for r in range(1, p + 1):
                direct = cycle_type_of(induce_on_subsets(perm, r))
                if direct != induced_cycle_type(base, r):
                    return False, f"p={p} partition {base} r={r}"
    return True, ""


def criterion_4_burnside_oracle():
    for p in range(2, BURNSIDE_MAX_P + 1):
        for n in range(1, BURNSIDE_MAX_N + 1):
            if n + 1 > p:
                continue
            if burnside_polynomial(p, n + 1) != plex_polynomial(p, n):
                return False, f"p={p} n={n}"
    return True, ""


def criterion_5_exhaustive_ground_truth():
    # (6, 2), at 2^20 states, is the largest case the oracle allows
    for p, n in EXHAUSTIVE_CASES + ((6, 2),):
        brute = exhaustive_plex_histogram(p, n)
        derived = list(plex_polynomial(p, n).coeffs)
        if brute != derived:
            return False, f"p={p} n={n}: exhaustive {brute}, computed {derived}"
    return True, ""


def criterion_6_structural_invariants():
    for p in range(1, 11):
        for r in range(1, p + 1):
            z = cycle_index_subset_action(p, r)  # inversion exactness implied
            if sum(z.terms.values()) != factorial(p):
                return False, f"weight sum p={p} r={r}"
            if any(t.ambient != comb(p, r) for t in z.terms):
                return False, f"term degree p={p} r={r}"
            if substitute(z, ONE) != ONE:
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
