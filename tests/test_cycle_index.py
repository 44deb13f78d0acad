"""Fixed-subset counts, induced cycle types, and assembled cycle indices."""

import importlib
import pkgutil
from collections import Counter
from itertools import accumulate, combinations, count, permutations
from math import comb, factorial, gcd, lcm
from operator import mul
from struct import calcsize
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plexcount
from plexcount import cycle_index
from plexcount.counting import plex_count, plex_polynomial
from plexcount.cycle_index import (CycleIndex, cycle_index_subset_action, fixed_subset_count,
                                   induced_cycle_type, subset_action_terms)
from plexcount.oracle import _subset_masks
from plexcount.partitions import Partition, partitions_of, permutation_count, power_cycle_type

# merged Z(S_6^(3)), frozen from the published nine-term display
MERGED_6_3 = {
    Partition({1: 20}): 1,
    Partition({1: 8, 2: 6}): 15,
    Partition({1: 4, 2: 8}): 45,
    Partition({1: 2, 3: 6}): 80,
    Partition({1: 2, 3: 2, 6: 2}): 120,
    Partition({2: 10}): 15,
    Partition({2: 2, 4: 4}): 180,
    Partition({2: 1, 6: 3}): 120,
    Partition({5: 4}): 144,
}


def representative(j):
    """Local cycle layout, independent of the oracle module."""
    image = list(range(j.ambient))
    start = 0
    for size in j.to_sizes():
        for offset in range(size):
            image[start + offset] = start + (offset + 1) % size
        start += size
    return image


def count_fixed_subsets(perm, r):
    return sum(1 for subset in combinations(range(len(perm)), r)
               if tuple(sorted(perm[i] for i in subset)) == subset)


def test_fixed_subset_count_examples():
    assert fixed_subset_count(Partition({1: 1, 2: 2, 3: 1}), 4) == 2
    assert fixed_subset_count(Partition({1: 5}), 2) == 10
    assert fixed_subset_count(Partition({5: 1}), 2) == 0


def test_fixed_subset_count_edges():
    assert fixed_subset_count(Partition({3: 1}), 0) == 1
    assert fixed_subset_count(Partition({3: 1}), 3) == 1
    with pytest.raises(ValueError):
        fixed_subset_count(Partition({3: 1}), 4)
    with pytest.raises(ValueError):
        fixed_subset_count(Partition({3: 1}), -1)


def test_fixed_subset_count_matches_explicit_subsets():
    for p in range(1, 7):
        for j in partitions_of(p):
            perm = representative(j)
            for r in range(0, p + 1):
                assert fixed_subset_count(j, r) == count_fixed_subsets(perm, r)


def test_induced_cycle_type_examples():
    assert induced_cycle_type(Partition({1: 6}), 3) == Partition({1: 20})
    assert induced_cycle_type(Partition({1: 1, 5: 1}), 3) == Partition({5: 4})
    assert induced_cycle_type(Partition({6: 1}), 3) == Partition({2: 1, 6: 3})


def test_induced_cycle_type_weight_and_range():
    for p in range(1, 11):
        for j in partitions_of(p):
            for r in range(1, p + 1):
                induced = induced_cycle_type(j, r)
                assert induced.ambient == comb(p, r)
    with pytest.raises(ValueError):
        induced_cycle_type(Partition({3: 1}), 0)
    with pytest.raises(ValueError):
        induced_cycle_type(Partition({3: 1}), 4)


def reference_induced_cycle_type(base, r):
    """Inversion from the definitions, over every divisor of the order, with no early stop."""
    order = lcm(*(size for size, _ in base))
    mult = {}
    for m in (d for d in range(1, order + 1) if order % d == 0):
        fixed = fixed_subset_count(power_cycle_type(base, m), r)
        rest = fixed - sum(d * md for d, md in mult.items() if m % d == 0)
        assert rest >= 0 and rest % m == 0
        mult[m] = rest // m
    return Partition(mult)


def test_induced_cycle_type_matches_reference_inversion():
    for p in range(1, 13):
        for j in partitions_of(p):
            for r in range(1, p + 1):
                assert induced_cycle_type(j, r) == reference_induced_cycle_type(j, r)


def test_induced_cycle_type_is_canonical_partition():
    # the walk builds its result directly: it must be the sorted tuple of
    # positive multiplicities that the validating constructor makes
    for p in range(1, 13):
        for j in partitions_of(p):
            for r in range(1, p + 1):
                induced = induced_cycle_type(j, r)
                assert type(induced) is Partition
                assert tuple(induced) == tuple(Partition(dict(induced)))


# random partitions of p <= 30, with r up to 4: the range plex_count(p, n <= 3) inverts
PARTITION_AND_R = st.lists(st.integers(1, 30), min_size=1, max_size=30).map(
    lambda parts: [size for size, total in zip(parts, accumulate(parts)) if total <= 30]
).flatmap(lambda sizes: st.tuples(st.just(Partition.from_sizes(sizes)),
                                  st.integers(1, min(4, sum(sizes)))))


@settings(deadline=None)
@given(PARTITION_AND_R)
def test_induced_cycle_type_matches_reference_at_large_p(case):
    base, r = case
    assert induced_cycle_type(base, r) == reference_induced_cycle_type(base, r)


def test_cycle_count_matches_induced_cycle_type():
    # plex_count's Burnside cycle count shares one set of tables per (p, r)
    for p in range(1, 13):
        for r in range(1, p + 1):
            tables = cycle_index._PowerTables(p, r)
            for j in partitions_of(p):
                cycles = cycle_index._cycle_count(j, tables)
                assert cycles == sum(mult for _, mult in induced_cycle_type(j, r))
    for r in (0, 4):
        with pytest.raises(ValueError, match=f"need 1 <= r <= 3, got r={r}"):
            cycle_index._cycle_count(Partition({3: 1}), cycle_index._PowerTables(3, r))


@settings(deadline=None)
@given(PARTITION_AND_R)
def test_cycle_count_matches_induced_cycle_type_at_large_p(case):
    base, r = case
    cycles = cycle_index._cycle_count(base, cycle_index._PowerTables(base.ambient, r))
    assert cycles == sum(mult for _, mult in induced_cycle_type(base, r))
    assert cycles == reference_induced_cycle_type(base, r).num_parts()


def only_one_cycles(counts, key):
    """An undercount for the guard tests: r-subsets of 1-cycles alone, no longer ones."""
    return comb(counts.profile(key)[1], counts.r)


def test_inversion_guards(monkeypatch):
    # an induced cycle type must partition all C(p, r) subsets; with every
    # fixed count read as 0, no cycle is found
    monkeypatch.setattr(cycle_index._FixedCounts, "__missing__", lambda counts, key: 0)
    with pytest.raises(ArithmeticError, match="covers 0 of 3 points"):
        induced_cycle_type(Partition({3: 1}), 1)
    # counting only subsets of 1-cycles misses the pair that is the base's
    # 2-cycle, so m = 1 finds no fixed pair and the square's 3 fixed pairs
    # are left to cycles of length 2
    monkeypatch.setattr(cycle_index._FixedCounts, "__missing__", only_one_cycles)
    with pytest.raises(ArithmeticError, match="3 is not a nonnegative multiple of 2"):
        induced_cycle_type(Partition({1: 1, 2: 1}), 2)


def test_cycle_count_guard_on_inexact_orbit_sum(monkeypatch):
    # the same undercount leaves the base {1: 1, 2: 1} at r = 2 with orbit
    # sum 0 + 3 over its powers, which its order 2 does not divide
    monkeypatch.setattr(cycle_index._FixedCounts, "__missing__", only_one_cycles)
    with pytest.raises(ArithmeticError, match="orbit sum 3 .* not divisible by its order 2"):
        cycle_index._cycle_count(Partition({1: 1, 2: 1}), cycle_index._PowerTables(3, 2))
    # plex_count(3, 1) reaches that base after {3: 1}, whose sum 0 + 3 divides by 3
    with pytest.raises(ArithmeticError, match="orbit sum 3 .* not divisible by its order 2"):
        plex_count(3, 1)


def test_inversion_guard_on_negative_multiple(monkeypatch):
    # the fixed points drop out of every square: base {1: 2, 4: 1} at r = 1
    # then has 0 - 2 fixed points left at m = 2, an exact but negative
    # multiple of 2; the leftover test alone would record a multiplicity of
    # -1 and fail later, on the point cover
    monkeypatch.setattr(cycle_index, "gcd", lambda m, k: 0 if (m, k) == (2, 1) else gcd(m, k))
    with pytest.raises(ArithmeticError, match="-2 is not a nonnegative multiple of 2"):
        induced_cycle_type(Partition({1: 2, 4: 1}), 1)
    # the partitions of 6 before {1: 2, 4: 1} invert cleanly under the same patch
    with pytest.raises(ArithmeticError, match="-2 is not a nonnegative multiple of 2"):
        subset_action_terms(6, 1)


def test_profile_slots_wider_than_a_byte():
    # from p = 256 on, a short-cycle count alone can exceed 255, and the
    # profile indices at these (p, r) need 'H' and 'I' lanes; a lane of
    # one byte would carry into the next divisor's
    for sizes, r in (({1: 300, 2: 3}, 2), ({1: 260, 3: 2, 6: 1}, 3)):
        base = Partition(sizes)
        assert base.ambient >= 256
        reference = reference_induced_cycle_type(base, r)
        assert induced_cycle_type(base, r) == reference
        tables = cycle_index._PowerTables(base.ambient, r)
        assert cycle_index._cycle_count(base, tables) == reference.num_parts()


def short_profiles(p, r):
    """Every [0, a_1, ..., a_r] with sum_l l * a_l <= p: the short cycles p points can have."""
    profiles = [[0]]
    for length in range(1, r + 1):
        profiles = [short + [mult] for short in profiles
                    for mult in range((p - sum(map(mul, short, count()))) // length + 1)]
    return profiles


def test_profile_index_is_distinct_and_decodes():
    # each profile's mixed-radix index is its own, below the bound the lanes
    # are sized for, and the fixed-count table reads the profile back from it
    for p in range(1, 31):
        for r in range(1, min(p, 5) + 1):
            tables = cycle_index._PowerTables(p, r)
            top = tables.radix[r + 1]
            width = calcsize(tables.lane)
            assert top <= 1 << 8 * width and (width == 1 or top > 1 << 4 * width)
            assert tables.words == 1
            seen = set()
            for short in short_profiles(p, r):
                index = sum(map(mul, short, tables.radix))
                assert index < top and index not in seen
                seen.add(index)
                assert tables.fixed.profile(index) == short


def test_profile_index_wider_than_64_bits():
    # at p = 39, r = 37 the bound on an index takes 66 bits, so each divisor's
    # index spans two 64-bit lanes, keyed by the tuple of its words; a 37-cycle
    # and a 2-cycle or two fixed points have an index past 2**64 itself
    p, r = 39, 37
    tables = cycle_index._PowerTables(p, r)
    assert (tables.lane, tables.words) == ("Q", 2)
    for sizes in ({1: 2, 37: 1}, {2: 1, 37: 1}, {1: 39}, {3: 13}, {1: 1, 2: 1, 6: 6}):
        base = Partition(sizes)
        assert base.ambient == p
        reference = reference_induced_cycle_type(base, r)
        assert cycle_index._induced_walk(base, tables) == reference
        assert cycle_index._cycle_count(base, tables) == reference.num_parts()
    assert any(high for _, high in tables.fixed)
    assert_fills_match_reference(tables)


def assert_fills_match_reference(tables):
    """Each fixed count filled so far equals fixed_subset_count for its profile.

    The cycle type gets one (r + 1)-cycle besides the profile's short cycles,
    so that it has at least r points; a cycle that long lies in no fixed
    r-subset.
    """
    r = tables.r
    for key, fixed in tables.fixed.items():
        sizes = {length: mult for length, mult in enumerate(tables.fixed.profile(key)) if mult}
        sizes[r + 1] = 1
        assert fixed == fixed_subset_count(Partition(sizes), r)


def test_fixed_count_fill_matches_reference():
    # each profile's fill, a coefficient of prod_l (1 + t^l)**a_l, against
    # fixed_subset_count's walk over the partitions of r, at every r up to p
    for p in range(1, 13):
        for r in range(1, p + 1):
            tables = cycle_index._PowerTables(p, r)
            for short in short_profiles(p, r):
                tables.fixed[sum(map(mul, short, tables.radix))]
            assert_fills_match_reference(tables)


def test_divisor_totients_match_brute_force():
    # phi(n) by Euler's sieve over the primes; divisors by sieving
    limit = 5000
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:  # no smaller prime divides q
            for multiple in range(q, limit + 1, q):
                phi[multiple] -= phi[multiple] // q
    divisors = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            divisors[multiple].append(d)
    for n in range(1, limit + 1):
        assert cycle_index._divisor_totients(n) == [(e, phi[n // e]) for e in divisors[n]]


def test_shared_walk_tables_match_fresh_ones():
    # subset_action_terms shares one _PowerTables across all partitions of p;
    # induced_cycle_type makes its own
    cases = [(p, r) for p in range(1, 15) for r in range(1, p + 1)] + [(24, 3)]
    for p, r in cases:
        fresh = tuple((j, induced_cycle_type(j, r), permutation_count(j))
                      for j in partitions_of(p))
        assert subset_action_terms(p, r) == fresh


def test_cycle_index_symmetric_s3():
    z = cycle_index_subset_action(3, 1)
    assert z.group_order == 6
    assert z.ambient_points == 3
    assert z.terms == {Partition({1: 3}): 1,
                       Partition({1: 1, 2: 1}): 3,
                       Partition({3: 1}): 2}


def test_cycle_index_symmetric_s3_against_explicit_tally():
    tally = Counter()
    for q in permutations(range(3)):
        seen = [False] * 3
        sizes = []
        for start in range(3):
            if seen[start]:
                continue
            size, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = q[i]
                size += 1
            sizes.append(size)
        tally[Partition.from_sizes(sizes)] += 1
    assert dict(tally) == cycle_index_subset_action(3, 1).terms


def test_cycle_index_symmetric_edges():
    assert cycle_index_subset_action(1, 1).terms == {Partition({1: 1}): 1}
    for p in range(1, 13):
        z = cycle_index_subset_action(p, 1)
        assert sum(z.terms.values()) == factorial(p) == z.group_order
    with pytest.raises(ValueError):
        cycle_index_subset_action(0, 1)


def test_subset_action_merged_6_3():
    z = cycle_index_subset_action(6, 3)
    assert len(z.terms) == 9
    assert z.terms == MERGED_6_3
    assert sorted(z.terms.values()) == [1, 15, 15, 45, 80, 120, 120, 144, 180]


def test_subset_action_terms_unmerged_6_3():
    terms = subset_action_terms(6, 3)
    assert len(terms) == 11  # one per partition of 6
    assert [base for base, _, _ in terms] == list(partitions_of(6))
    merged = {}
    for _, induced, weight in terms:
        merged[induced] = merged.get(induced, 0) + weight
    assert merged == MERGED_6_3


def test_subset_action_r1_matches_symmetric():
    # Z(S_p): one term per partition of p, weighted by its permutation count
    for p in range(1, 10):
        z = cycle_index_subset_action(p, 1)
        assert z.terms == {j: permutation_count(j) for j in partitions_of(p)}
        assert (z.group_order, z.ambient_points) == (factorial(p), p)


def test_subset_action_complement_identity():
    for p in range(1, 11):
        for r in range(1, p):
            left = cycle_index_subset_action(p, r)
            right = cycle_index_subset_action(p, p - r)
            assert left.terms == right.terms
            assert left.group_order == right.group_order


def test_subset_action_degree_and_weight_invariants():
    for p in range(1, 13):
        for r in range(1, p + 1):
            z = cycle_index_subset_action(p, r)
            assert z.ambient_points == comb(p, r)
            assert z.group_order == factorial(p)
            assert sum(z.terms.values()) == factorial(p)
            for cycle_type, weight in z.terms.items():
                assert weight >= 1
                assert cycle_type.ambient == comb(p, r)


def test_cycle_index_constructor_validation():
    term = Partition({1: 3})
    CycleIndex({term: 6}, group_order=6, ambient_points=3)
    with pytest.raises(ValueError):
        CycleIndex({term: 5}, group_order=6, ambient_points=3)  # weight sum
    with pytest.raises(ValueError):
        CycleIndex({term: 6}, group_order=6, ambient_points=4)  # degree
    with pytest.raises(ValueError):
        CycleIndex({term: 0}, group_order=0, ambient_points=3)  # empty weight
    for weights in ((2, 4, 0), (1, 6, -1)):  # a weight below 1, the sum still 3!
        with pytest.raises(ValueError, match="term weight must be >= 1"):
            CycleIndex(dict(zip((term, Partition({1: 1, 2: 1}), Partition({3: 1})), weights)),
                       group_order=6, ambient_points=3)
    for group_order, points in ((0, -3), (0, 4)):
        with pytest.raises(ValueError):
            CycleIndex({}, group_order=group_order, ambient_points=points)
    s3 = {Partition({1: 1, 2: 1}): 3, Partition({3: 1}): 2}
    for weight in (1.0, True):
        with pytest.raises(ValueError):
            CycleIndex({term: weight, **s3}, group_order=6, ambient_points=3)
    with pytest.raises(ValueError):
        CycleIndex({term: 6}, group_order=6.0, ambient_points=3)
    with pytest.raises(ValueError):
        CycleIndex({Partition({1: 1}): 1}, group_order=1, ambient_points=True)


def test_caches_are_bounded():
    # every cache in the package, each bounded and holding only tuples and
    # read-only mappings; only what a workload reuses is cached, so
    # partitions_of and subset_action_terms walk per call
    modules = [importlib.import_module(f"plexcount.{info.name}")
               for info in pkgutil.iter_modules(plexcount.__path__)]
    cached = {value for module in modules for value in vars(module).values()
              if hasattr(value, "cache_info")}
    assert cached == {_subset_masks}
    # one entry: every caller asks for one (p, r) many times in a row
    assert _subset_masks.cache_info().maxsize == 1
    cached_value = _subset_masks(4, 2)
    assert type(cached_value) is tuple
    assert all(type(part) in (tuple, MappingProxyType) for part in cached_value)


def test_edited_cycle_index_changes_no_later_result():
    original = cycle_index_subset_action(4, 2)
    edited = cycle_index_subset_action(4, 2)
    assert edited is not original
    edited.terms.clear()
    edited.terms[Partition({1: 6})] = 24
    assert cycle_index_subset_action(4, 2) == original
    assert plex_count(4, 1) == 11
    assert plex_polynomial(4, 1).coeffs == (1, 1, 2, 3, 2, 1, 1)
