"""Partition generation, permutation counting, and power transforms."""

import copy
import pickle
import tracemalloc
from collections import Counter, deque
from itertools import permutations
from math import factorial

import pytest

from plexcount.partitions import (Partition, partitions_of, permutation_count,
                                  power_cycle_type)

# partition numbers p(0)..p(20)
PARTITION_NUMBERS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                     176, 231, 297, 385, 490, 627)


def brute_partition_set(total, cap=None):
    """Independent enumerator: set of descending part tuples."""
    cap = total if cap is None else cap
    if total == 0:
        return {()}
    found = set()
    for first in range(1, min(cap, total) + 1):
        for rest in brute_partition_set(total - first, first):
            found.add(tuple(sorted((first,) + rest, reverse=True)))
    return found


def local_cycle_sizes(perm):
    seen = [False] * len(perm)
    sizes = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        size, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            size += 1
        sizes.append(size)
    return sizes


def test_partition_construction_and_views():
    j = Partition({3: 1, 2: 2, 1: 1})
    assert j.ambient == 8
    assert dict(j) == {1: 1, 2: 2, 3: 1}
    assert tuple(j) == ((1, 1), (2, 2), (3, 1))
    assert j.to_sizes() == [3, 2, 2, 1]
    assert j.num_parts() == 4
    assert str(j) == "3+2+2+1"
    assert Partition.from_sizes([2, 3, 2, 1]) == j
    assert str(Partition()) == "0"


def test_partition_zero_multiplicities_dropped():
    assert Partition({2: 1, 5: 0}) == Partition({2: 1})
    assert tuple(Partition({2: 1, 5: 0})) == ((2, 1),)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition({0: 1})
    with pytest.raises(ValueError):
        Partition({2: -1})
    assert Partition({2: 2}).ambient == 4


def test_partition_rejects_non_int_parts():
    for parts in ({2: 1.5, 1: 1}, {2.0: 1}, {True: 2}, {2: True}, {"2": 1}):
        with pytest.raises(ValueError):
            Partition(parts)
    with pytest.raises(ValueError):
        Partition([(1, 2), (3, 1.0)])


def test_partition_is_its_tuple_of_pairs():
    j = Partition({3: 1, 2: 2, 1: 1})
    assert isinstance(j, tuple)
    assert tuple(j) == ((1, 1), (2, 2), (3, 1))
    assert Partition(j) == j
    for copied in (pickle.loads(pickle.dumps(j)), copy.deepcopy(j)):
        assert type(copied) is Partition
        assert copied == j
    built = (Partition([(3, 1), (2, 2), (1, 1)]), Partition.from_sizes([3, 2, 2, 1]),
             power_cycle_type(j, 1))
    assert all(other == j for other in built)
    assert {hash(other) for other in built} == {hash(j)}


def test_partition_hashable():
    assert len({Partition({1: 2}), Partition.from_sizes([1, 1]), Partition({2: 1})}) == 2


def test_partitions_of_4_exact_order():
    assert [j.to_sizes() for j in partitions_of(4)] == [
        [4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]


def test_partitions_of_edge_cases():
    assert [j.to_sizes() for j in partitions_of(1)] == [[1]]
    assert tuple(partitions_of(0)) == (Partition(),)
    with pytest.raises(ValueError):
        partitions_of(-1)  # at the call, before any next()


def test_partition_counts_up_to_20():
    for p, expected in enumerate(PARTITION_NUMBERS):
        assert len(tuple(partitions_of(p))) == expected
    assert len(tuple(partitions_of(9))) == 30


def test_partitions_match_brute_force():
    for p in range(0, 21):
        generated = {tuple(j.to_sizes()) for j in partitions_of(p)}
        assert generated == brute_partition_set(p)
        assert len(generated) == len(tuple(partitions_of(p)))  # no duplicates emitted


def descending_part_lists(remaining, cap):
    """Part lists, largest part first, in decreasing-lexicographic order."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in descending_part_lists(remaining - first, first):
            yield (first,) + rest


def test_partitions_of_equals_validated_construction():
    # partitions_of builds its tuples directly; each must be the canonical
    # Partition that the validating constructor makes, in the same place
    for p in range(0, 31):
        reference = [Partition.from_sizes(sizes) for sizes in descending_part_lists(p, p)]
        generated = tuple(partitions_of(p))
        assert len(generated) == len(reference)
        for got, want in zip(generated, reference):
            assert type(got) is Partition
            assert tuple(got) == tuple(want)


def test_partitions_of_streams_in_constant_memory():
    # the walk holds one partition at a time: all 37,338 partitions of 40
    # built at once take about 10 MB
    tracemalloc.start()
    try:
        deque(partitions_of(40), maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_partitions_order_is_decreasing_lex():
    for p in range(0, 15):
        listed = [tuple(j.to_sizes()) for j in partitions_of(p)]
        assert listed == sorted(listed, reverse=True)


def test_permutation_count_examples():
    assert permutation_count(Partition({2: 3})) == 15
    assert permutation_count(Partition({1: 8})) == 1
    assert permutation_count(Partition({1: 1, 2: 2, 3: 1})) == 1680


def test_permutation_count_census_small():
    # tally all of S_p and compare per cycle type
    for p in range(1, 7):
        census = Counter(Partition.from_sizes(local_cycle_sizes(q))
                         for q in permutations(range(p)))
        for j in partitions_of(p):
            assert permutation_count(j) == census[j]


def test_permutation_count_1680_by_brute_force():
    target = Partition({1: 1, 2: 2, 3: 1})
    hits = sum(1 for q in permutations(range(8))
               if Partition.from_sizes(local_cycle_sizes(q)) == target)
    assert hits == 1680


def test_permutation_counts_sum_to_factorial():
    for p in range(1, 13):
        assert sum(permutation_count(j) for j in partitions_of(p)) == factorial(p)


def test_power_cycle_type_examples():
    assert power_cycle_type(Partition({6: 1}), 2) == Partition({3: 2})
    assert power_cycle_type(Partition({6: 1}), 3) == Partition({2: 3})
    assert power_cycle_type(Partition({6: 1}), 6) == Partition({1: 6})
    # squaring (1)(23)(45)(678) fixes 1,2,3,4,5 and keeps the 3-cycle
    assert power_cycle_type(Partition({1: 1, 2: 2, 3: 1}), 2) == Partition({1: 5, 3: 1})


def test_power_cycle_type_identity_power():
    for p in range(1, 9):
        for j in partitions_of(p):
            assert power_cycle_type(j, 1) == j


def test_power_cycle_type_preserves_ambient():
    for p in range(1, 9):
        for j in partitions_of(p):
            for m in range(1, 13):
                assert power_cycle_type(j, m).ambient == p


def test_power_cycle_type_composition_law():
    for p in range(1, 9):
        for j in partitions_of(p):
            for a in range(1, 13):
                once = power_cycle_type(j, a)
                for b in range(1, 13):
                    assert power_cycle_type(once, b) == power_cycle_type(j, a * b)


def test_power_cycle_type_rejects_bad_exponent():
    with pytest.raises(ValueError):
        power_cycle_type(Partition({2: 1}), 0)
