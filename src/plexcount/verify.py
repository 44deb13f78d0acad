"""Cross-checks of computed results against reference data and oracles.

Three check families, matching the CLI ``verify`` scopes:

* table: every bundled reference count is reproduced by plex_count.
* formulas: every bundled cycle-index formula is reproduced term for term.
  Terms listed in the fixture's known_discrepancies are misprints in the
  published formulas; for those the check reports the computed term next to
  the published one and still passes, provided everything else matches and
  the computed replacement carries exactly the misprinted weight.
* oracle: the partition-based pipeline agrees with the explicit-permutation
  oracles (induced cycle types, independent counting polynomials, and
  exhaustive orbit counts at tiny sizes).

Each check yields a CheckResult; a scope passes iff all its results pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .counting import plex_count, plex_polynomial
from .cycle_index import cycle_index_subset_action, induced_cycle_type, subset_action_terms
from .golden import GoldenData, load_golden
from .oracle import (burnside_polynomial, cycle_type_of, exhaustive_plex_histogram,
                     induce_on_subsets, representative_of)
from .partitions import Partition, partitions_of
from .render import monomial_plain

INDUCED_MAX_P = 7
BURNSIDE_MAX_P = 9
BURNSIDE_MAX_N = 3
EXHAUSTIVE_CASES = ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{status} {self.name}{suffix}"


def check_counts() -> list[CheckResult]:
    """One result per reference count entry."""
    results = []
    for (p, n), expected in sorted(load_golden().counts.items()):
        got = plex_count(p, n)
        detail = "" if got == expected else f"expected {expected}, got {got}"
        results.append(CheckResult(f"count p={p} n={n}", got == expected, detail))
    return results


def _term_text(monomial: Partition, weight: int) -> str:
    return f"{weight} {monomial_plain(monomial)}"


def _check_one_formula(data: GoldenData, p: int, r: int) -> CheckResult:
    expected = dict(data.formulas[(p, r)])
    computed = cycle_index_subset_action(p, r).terms
    name = f"formula p={p} r={r}"

    notes = []
    for monomial, weight in data.known_discrepancies.get((p, r), ()):
        if expected.pop(monomial, None) != weight:
            return CheckResult(name, False,
                               "fixture discrepancy entry does not match the formula")
        notes.append((monomial, weight))

    mismatched = sorted(monomial for monomial in expected
                        if computed.get(monomial) != expected[monomial])
    surplus = sorted(monomial for monomial in computed if monomial not in expected)

    if mismatched:
        monomial = mismatched[0]
        return CheckResult(name, False,
                           f"term {_term_text(monomial, expected[monomial])} "
                           f"not reproduced (computed weight "
                           f"{computed.get(monomial, 0)})")
    if not notes:
        if surplus:
            monomial = surplus[0]
            return CheckResult(name, False,
                               f"unexpected term {_term_text(monomial, computed[monomial])}")
        return CheckResult(name, True)

    # The computed replacement terms must carry exactly the misprinted weight.
    surplus_weight = sum(computed[monomial] for monomial in surplus)
    notes_weight = sum(weight for _, weight in notes)
    if surplus_weight != notes_weight:
        return CheckResult(name, False,
                           f"replacement terms carry weight {surplus_weight}, "
                           f"misprinted terms carry {notes_weight}")
    published = ", ".join(
        f"{_term_text(m, w)} (degree {m.ambient}, expected {comb(p, r)})"
        for m, w in notes)
    replacement = ", ".join(_term_text(m, computed[m]) for m in surplus)
    return CheckResult(name, True,
                       f"known misprint in the published formula: published "
                       f"{published}; computed {replacement}")


def _check_unmerged(data: GoldenData, p: int, r: int) -> CheckResult:
    expected = Counter(data.unmerged_formulas[(p, r)])
    computed = Counter((induced, weight)
                       for _, induced, weight in subset_action_terms(p, r))
    passed = expected == computed
    detail = "" if passed else "term multiset differs from the published display"
    return CheckResult(f"unmerged terms p={p} r={r}", passed, detail)


def check_formulas() -> list[CheckResult]:
    data = load_golden()
    results = [_check_one_formula(data, p, r) for p, r in sorted(data.formulas)]
    results.extend(_check_unmerged(data, p, r) for p, r in sorted(data.unmerged_formulas))
    return results


def _check_induced(p: int) -> CheckResult:
    checked = 0
    for base in partitions_of(p):
        perm = representative_of(base)
        for r in range(1, p + 1):
            direct = cycle_type_of(induce_on_subsets(perm, r))
            derived = induced_cycle_type(base, r)
            if direct != derived:
                return CheckResult(
                    f"induced cycle types p={p}", False,
                    f"partition {base}, r={r}: pipeline gives {derived}, "
                    f"explicit induction gives {direct}")
            checked += 1
    return CheckResult(f"induced cycle types p={p}", True,
                       f"{checked} partition/r combinations")


def _check_burnside(p: int, n: int) -> CheckResult:
    name = f"independent polynomial p={p} n={n}"
    direct = burnside_polynomial(p, n + 1)
    derived = plex_polynomial(p, n)
    detail = "" if direct == derived else (
        f"coefficients differ: {list(derived.coeffs)} vs {list(direct.coeffs)}")
    return CheckResult(name, direct == derived, detail)


def _check_exhaustive(p: int, n: int) -> CheckResult:
    name = f"exhaustive orbit histogram p={p} n={n}"
    histogram = exhaustive_plex_histogram(p, n)
    coeffs = list(plex_polynomial(p, n).coeffs)
    detail = "" if histogram == coeffs else f"{coeffs} vs {histogram}"
    return CheckResult(name, histogram == coeffs, detail)


def check_oracle() -> list[CheckResult]:
    results = [_check_induced(p) for p in range(1, INDUCED_MAX_P + 1)]
    results.extend(_check_burnside(p, n)
                   for p in range(1, BURNSIDE_MAX_P + 1)
                   for n in range(1, BURNSIDE_MAX_N + 1)
                   if n + 1 <= p)
    results.extend(_check_exhaustive(p, n) for p, n in EXHAUSTIVE_CASES)
    return results


SCOPES = ("table", "formulas", "oracle", "all")


def run_scope(scope: str) -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}, expected one of {SCOPES}")
    results = []
    if scope in ("table", "all"):
        results.extend(check_counts())
    if scope in ("formulas", "all"):
        results.extend(check_formulas())
    if scope in ("oracle", "all"):
        results.extend(check_oracle())
    return results
