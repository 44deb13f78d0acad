"""Explicit-permutation oracles and exhaustive orbit counting."""

import random
import tracemalloc
from itertools import combinations
from math import comb, factorial

import pytest

from plexcount.counting import IntPolynomial, plex_count, plex_polynomial
from plexcount.oracle import (burnside_polynomial, cycle_type_of, exhaustive_plex_histogram,
                              colex_subsets, induce_on_subsets, representative_of)
from plexcount.partitions import Partition, partitions_of, permutation_count
from plexcount.verify import _check_burnside, _check_exhaustive


def compose(outer, inner):
    return tuple(outer[inner[i]] for i in range(len(inner)))


def test_colex_subsets_length_and_order():
    for p in range(0, 8):
        for r in range(0, p + 1):
            subsets = colex_subsets(p, r)
            assert len(subsets) == comb(p, r)
            assert list(subsets) == sorted(combinations(range(p), r), key=lambda s: s[::-1])


def test_colex_subsets_rank_formula():
    # colex rank (position) of {a_1 < ... < a_r} is sum of C(a_i, i)
    subsets = colex_subsets(7, 3)
    for subset in combinations(range(7), 3):
        expected = sum(comb(element, position + 1)
                       for position, element in enumerate(subset))
        assert subsets.index(subset) == expected


def test_colex_subsets_rejects_negative():
    with pytest.raises(ValueError):
        colex_subsets(3, -1)


def test_representative_has_requested_cycle_type():
    for p in range(1, 8):
        for j in partitions_of(p):
            assert cycle_type_of(representative_of(j)) == j
    assert representative_of(Partition({1: 4})) == (0, 1, 2, 3)
    assert representative_of(Partition({4: 1})) == (1, 2, 3, 0)


def test_induce_on_subsets_fixed_4_subsets():
    # (012)(34)(56)(7): exactly {3,4,5,6} and {0,1,2,7} are fixed 4-subsets
    perm = representative_of(Partition({1: 1, 2: 2, 3: 1}))
    assert perm == (1, 2, 0, 4, 3, 6, 5, 7)
    induced = induce_on_subsets(perm, 4)
    subsets = colex_subsets(8, 4)
    fixed = {subsets[t] for t in range(len(induced)) if induced[t] == t}
    assert fixed == {(0, 1, 2, 7), (3, 4, 5, 6)}


def test_induce_identity():
    for r in range(1, 6):
        assert induce_on_subsets(tuple(range(5)), r) == tuple(range(comb(5, r)))


def test_induce_4_cycle_on_pairs():
    induced = induce_on_subsets((1, 2, 3, 0), 2)
    assert cycle_type_of(induced) == Partition({2: 1, 4: 1})


def test_induce_on_subsets_matches_definition_past_two_bytes():
    # map each element, sort, find the rank: p = 17..20 reaches a third byte table
    rng = random.Random(20)
    for p in range(1, 21):
        for r in sorted({1, 2, 3, p - 1, p} & set(range(1, p + 1))):
            subsets = colex_subsets(p, r)
            rank = {subset: t for t, subset in enumerate(subsets)}
            for _ in range(3):
                perm = tuple(rng.sample(range(p), p))
                expected = tuple(rank[tuple(sorted(perm[i] for i in subset))]
                                 for subset in subsets)
                assert induce_on_subsets(perm, r) == expected, (perm, r)


def test_induce_validation():
    with pytest.raises(ValueError):
        induce_on_subsets((0, 0, 1), 2)
    with pytest.raises(ValueError):
        induce_on_subsets((0, 1, 2), 0)
    with pytest.raises(ValueError):
        induce_on_subsets((0, 1, 2), 4)
    with pytest.raises(ValueError):
        cycle_type_of((1, 1, 0))


def test_inducing_commutes_with_powers():
    for p in range(1, 7):
        for j in partitions_of(p):
            perm = representative_of(j)
            for r in range(1, min(p, 3) + 1):
                induced = induce_on_subsets(perm, r)
                powered, induced_power = perm, induced
                for _ in range(2, 13):
                    powered = compose(perm, powered)
                    induced_power = compose(induced, induced_power)
                    assert induce_on_subsets(powered, r) == induced_power


def test_burnside_polynomial_examples():
    assert burnside_polynomial(2, 2).coeffs == (1, 1)
    assert burnside_polynomial(5, 3).coefficient_sum() == 34
    assert burnside_polynomial(4, 2).coeffs == (1, 1, 2, 3, 2, 1, 1)
    with pytest.raises(ValueError):
        burnside_polynomial(3, 4)
    with pytest.raises(ValueError):
        burnside_polynomial(3, 0)


def reference_burnside_polynomial(p, r):
    # one list slot per coefficient, multiplied by (1 + x**length) slot by slot
    total = [0] * (comb(p, r) + 1)
    for base in partitions_of(p):
        induced = induce_on_subsets(representative_of(base), r)
        term = [1]
        for length in cycle_type_of(induced).to_sizes():
            shifted = term + [0] * length
            for i, c in enumerate(term):
                shifted[i + length] += c
            term = shifted
        weight = permutation_count(base)
        for i, c in enumerate(term):
            total[i] += weight * c
    return IntPolynomial(total).exact_div(factorial(p))


def test_burnside_polynomial_matches_list_reference():
    for p in range(1, 9):
        for r in range(1, p + 1):
            assert burnside_polynomial(p, r) == reference_burnside_polynomial(p, r), (p, r)


def test_burnside_polynomial_matches_substitution():
    # verify's grid stops at the bundled reference data (p <= 9); p = 10 is one past it
    for n in range(1, 4):
        result = _check_burnside(10, n)
        assert result.passed, result.line()
    # r = 1 has no plex counterpart (n = 0); check the shape directly instead
    for p in range(1, 8):
        assert burnside_polynomial(p, 1).coeffs == tuple(1 for _ in range(p + 1))


def test_exhaustive_counts():
    assert sum(exhaustive_plex_histogram(4, 1)) == 11
    assert sum(exhaustive_plex_histogram(5, 2)) == 34
    assert sum(exhaustive_plex_histogram(3, 2)) == 2


def test_exhaustive_histograms_match_coefficients():
    # below verify's grid; at p = 2 the two generators of S_p coincide
    for p, n in ((1, 1), (2, 1)):
        result = _check_exhaustive(p, n)
        assert result.passed, result.line()


def test_exhaustive_empty_state_space():
    # no (n+1)-subsets exist, so the only plex is the empty one
    assert exhaustive_plex_histogram(2, 3) == [1]
    assert plex_count(2, 3) == 1


def test_exhaustive_guards():
    # (8, 6) has C(8, 7) = 8 states, so only the p <= 7 cap refuses it; at
    # p = 7 the 2^21-state cap refuses n = 2 and 3, with C(7, 3) = 35
    # subsets, and lets n = 1 and 4 run at C(7, 2) = C(7, 5) = 21 (the
    # acceptance suite's criterion 5 sweeps (7, 1))
    for p, n in ((8, 6), (7, 2), (7, 3), (0, 1), (4, 0)):
        with pytest.raises(ValueError):
            exhaustive_plex_histogram(p, n)
    for n in (5, 6):
        assert exhaustive_plex_histogram(7, n) == list(plex_polynomial(7, n).coeffs)


def test_exhaustive_tables_stay_small():
    # 256 KB is the size of two 2^15-entry maps of 4-byte entries: an oracle
    # that stores each generator's mask map whole, at C(6, 2) = 15, exceeds it
    tracemalloc.start()
    try:
        exhaustive_plex_histogram(6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
