"""Cycle index of the symmetric group acting on r-subsets.

Each term is a cycle type (a Partition of the points acted on) weighted by
the number of permutations that give it; r = 1 is Z(S_p) itself.  The cycle
type induced on r-element subsets is computed from the base cycle type
alone, with no explicit permutations: a subset is fixed exactly when it is
a union of whole cycles, which gives the number of 1-cycles of every power
of the induced permutation, and the full induced cycle type follows by
inversion over the divisors of the base permutation's order.  That walk
runs on plain ints, with the short cycles of each power in a list indexed by
cycle length, and builds its result directly as the canonical Partition
tuple.  For one (p, r), subset_action_terms runs every partition's walk
against two tables that live only for that call: the fixed r-subset count
of each short-cycle profile and the divisor list of each base order.  Most
walks meet profiles and orders that earlier walks already met, so most
steps look their fixed count up instead of recounting it.  No table is kept
between calls.  fixed_subset_count and partitions.power_cycle_type are the
definitions the walk follows, kept in their modules (not the top-level
namespace) as the reference the tests compare it against.

Everything here is exact integer arithmetic.  Any division that comes out
inexact, or any negative intermediate multiplicity, raises ArithmeticError
instead of rounding.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .partitions import Partition, partitions_of, permutation_count


class CycleIndex:
    """Exact cycle index: integer-weighted cycle-type monomials over 1/group_order.

    ``terms`` maps each cycle type to a positive int weight.  The weights
    sum to ``group_order``, which is at least 1, and every cycle type
    partitions ``ambient_points``, all checked at construction.  The
    normalising 1/group_order factor is implicit; it is applied only when
    substituting (see counting.substitute).
    """

    __slots__ = ("terms", "group_order", "ambient_points")

    def __init__(self, terms: dict[Partition, int], group_order: int, ambient_points: int):
        if type(group_order) is not int or type(ambient_points) is not int:
            raise ValueError(f"group order and point count must be int, "
                             f"got {group_order!r} and {ambient_points!r}")
        if group_order < 1 or ambient_points < 0:
            raise ValueError(f"need group order >= 1 and point count >= 0, "
                             f"got {group_order} and {ambient_points}")
        terms = dict(terms)
        for cycle_type, weight in terms.items():
            if type(weight) is not int:
                raise ValueError(f"term weight must be int, got {weight!r}")
            if weight < 1:
                raise ValueError(f"term weight must be >= 1, got {weight}")
            if cycle_type.ambient != ambient_points:
                raise ValueError(
                    f"cycle type {cycle_type!r} partitions {cycle_type.ambient}, "
                    f"not {ambient_points}")
        if sum(terms.values()) != group_order:
            raise ValueError(
                f"weights sum to {sum(terms.values())}, not group order {group_order}")
        self.terms = terms
        self.group_order = group_order
        self.ambient_points = ambient_points

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleIndex):
            return NotImplemented
        return (self.terms == other.terms
                and self.group_order == other.group_order
                and self.ambient_points == other.ambient_points)

    def __repr__(self) -> str:
        return (f"CycleIndex({len(self.terms)} terms, group_order={self.group_order}, "
                f"points={self.ambient_points})")


def fixed_subset_count(cycle_type: Partition, r: int) -> int:
    """Number of r-subsets fixed by a permutation with the given cycle type.

    A subset is fixed exactly when it is a union of whole cycles, so the
    count sums, over all partitions of r, the number of ways to choose that
    many cycles of each length.  r = 0 gives 1 (the empty subset).
    """
    if not 0 <= r <= cycle_type.ambient:
        raise ValueError(f"need 0 <= r <= {cycle_type.ambient}, got r={r}")
    available = dict(cycle_type)
    total = 0
    for sub in partitions_of(r):
        ways = 1
        for size, needed in sub:
            ways *= comb(available.get(size, 0), needed)
            if not ways:
                break
        total += ways
    return total


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def induced_cycle_type(base: Partition, r: int) -> Partition:
    """Cycle type of the permutation induced on r-subsets by a base cycle type.

    The m-th power of the induced permutation fixes
    ``fixed_subset_count(power_cycle_type(base, m), r)`` subsets, and that
    fixed count also equals ``sum_{d | m} d * mult_d`` over the induced
    multiplicities.  Walking m through the divisors of the base permutation's
    order in increasing order therefore peels off one unknown multiplicity at
    a time; all other multiplicities are zero because the induced
    permutation's order divides the base order.  The loop stops as soon as
    the recovered cycles cover all C(p, r) points.

    The walk computes that fixed count on ints alone.  Each k-cycle of the
    base becomes gcd(m, k) cycles of length k / gcd(m, k) in the m-th power,
    and only lengths up to r are kept, since a longer cycle lies in no fixed
    r-subset, so a list indexed by cycle length 0..r holds them.  The
    multiplicities are recorded in increasing divisor order and only when
    positive, so the result is built directly as the canonical Partition
    tuple, with no re-sorting or re-validation.  This is the walk
    subset_action_terms runs for each partition; here it gets empty tables of
    fixed counts and divisor lists, dropped on return.
    """
    return _induced_walk(base, r, {}, {})


def _induced_walk(base: Partition, r: int, fixed_by_profile: dict[tuple[int, ...], int],
                  divisors_by_order: dict[int, list[int]]) -> Partition:
    """induced_cycle_type's divisor walk, reading and filling the given tables.

    ``fixed_by_profile`` maps the short-cycle list of a power, as a tuple, to
    the number of r-subsets it fixes, and ``divisors_by_order`` maps a base
    order to its divisors; both hold only what r and those keys determine, so
    every walk at the same r may share them.
    """
    p = 0
    order = 1
    for size, count in base:
        p += size * count
        order = lcm(order, size)
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= {p}, got r={r}")
    points = comb(p, r)
    divisors = divisors_by_order.get(order)
    if divisors is None:
        divisors = divisors_by_order[order] = _divisors(order)
    found: list[tuple[int, int]] = []
    covered = 0
    for m in divisors:
        short = [0] * (r + 1)
        for size, count in base:
            g = gcd(m, size)
            if size <= r * g:
                short[size // g] += g * count
        profile = tuple(short)
        fixed = fixed_by_profile.get(profile)
        if fixed is None:
            fixed = 0
            for sub in partitions_of(r):
                ways = 1
                for length, needed in sub:
                    ways *= comb(short[length], needed)
                    if not ways:
                        break
                fixed += ways
            fixed_by_profile[profile] = fixed
        for d, md in found:
            if m % d == 0:
                fixed -= d * md
        quotient, leftover = divmod(fixed, m)
        if leftover or quotient < 0:
            raise ArithmeticError(
                f"cycle-type inversion failed at m={m} for base {base!r}, r={r}: "
                f"{fixed} is not a nonnegative multiple of {m}")
        if quotient:
            found.append((m, quotient))
            covered += m * quotient
            if covered == points:
                break
    if covered != points:
        raise ArithmeticError(
            f"induced cycle type of {base!r} covers {covered} of {points} points")
    return tuple.__new__(Partition, found)


@lru_cache(maxsize=128)
def subset_action_terms(p: int, r: int) -> tuple[tuple[Partition, Partition, int], ...]:
    """Unmerged cycle-index terms of S_p acting on r-subsets.

    One (base partition, induced cycle type, weight) triple per partition of
    p, in partitions_of order.  Distinct base partitions can induce the same
    cycle type; this form keeps them apart so each term stays auditable.
    All the partitions' divisor walks share one table of fixed counts and one
    of divisor lists, made for this call and dropped on return.  The result
    is cached; it is an immutable tuple, so callers share it safely.
    """
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= p, got p={p}, r={r}")
    fixed_by_profile: dict[tuple[int, ...], int] = {}
    divisors_by_order: dict[int, list[int]] = {}
    return tuple((j, _induced_walk(j, r, fixed_by_profile, divisors_by_order),
                  permutation_count(j))
                 for j in partitions_of(p))


def cycle_index_subset_action(p: int, r: int) -> CycleIndex:
    """Cycle index of S_p acting on the r-element subsets of p points.

    Equal induced cycle types are merged by summing their weights, so the
    term count can drop below the number of partitions of p.  Each call
    merges a new CycleIndex from the cached subset_action_terms, so the
    caller may edit the result without changing any later one.
    """
    merged: dict[Partition, int] = {}
    for _, induced, weight in subset_action_terms(p, r):
        merged[induced] = merged.get(induced, 0) + weight
    return CycleIndex(merged, factorial(p), comb(p, r))
