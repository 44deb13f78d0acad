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
tuple.  counting.plex_count needs only the number of induced cycles, which
_cycle_count gets from the same fixed counts by Burnside's lemma on the
cyclic group the permutation generates, without building the induced cycle
type.  Both read every fixed count through one helper, _fixed_count.

For one (p, r), subset_action_terms and plex_count run every partition
against two tables that live only for that call: the fixed r-subset count
of each short-cycle profile, and each base order's divisors, every divisor
e paired with Euler's phi of order / e (the walk ignores phi).  Most
partitions meet profiles and orders that earlier ones already met, so most
steps look their fixed count up instead of recounting it.  The partitions
of p, and of r inside each fixed count, are streamed from partitions_of, not
stored.  No table, partition or result is kept between calls, so a repeated
(p, r) walks again.
fixed_subset_count and partitions.power_cycle_type are the definitions the
walk follows, kept in their modules (not the top-level namespace) as the
reference the tests compare it against.

Everything here is exact integer arithmetic.  Any division that comes out
inexact, or any negative intermediate multiplicity, raises ArithmeticError
instead of rounding.
"""

from __future__ import annotations

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


def _divisor_totients(n: int) -> list[tuple[int, int]]:
    """(e, phi(n / e)) for each divisor e of n, in increasing order of e.

    Euler's phi comes from d = sum of phi(c) over the divisors c of d, taken
    over the divisors of n in increasing order, so nothing is factored.
    """
    divisors = _divisors(n)
    totients: dict[int, int] = {}
    for d in divisors:
        totients[d] = d - sum(t for c, t in totients.items() if d % c == 0)
    return [(e, totients[n // e]) for e in divisors]


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

    The walk computes that fixed count on ints alone (see _fixed_count).  The
    multiplicities are recorded in increasing divisor order and only when
    positive, so the result is built directly as the canonical Partition
    tuple, with no re-sorting or re-validation.  This is the walk
    subset_action_terms runs for each partition; here it gets empty tables of
    fixed counts and divisors, dropped on return.
    """
    return _induced_walk(base, r, {}, {})


def _base_divisors(base: Partition, r: int,
                   divisors_by_order: dict[int, list[tuple[int, int]]]
                   ) -> tuple[int, int, list[tuple[int, int]]]:
    """The points p and order L of a base cycle type, and L's divisor table.

    The table holds (e, phi(L / e)) for each divisor e of L, in increasing
    order of e; ``divisors_by_order`` keeps it per order.  ValueError unless
    1 <= r <= p.
    """
    p = 0
    order = 1
    for size, count in base:
        p += size * count
        order = lcm(order, size)
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= {p}, got r={r}")
    divisors = divisors_by_order.get(order)
    if divisors is None:
        divisors = divisors_by_order[order] = _divisor_totients(order)
    return p, order, divisors


def _fixed_count(base: Partition, r: int, m: int,
                 fixed_by_profile: dict[tuple[int, ...], int]) -> int:
    """Number of r-subsets fixed by the m-th power of a base cycle type.

    Each k-cycle of the base becomes gcd(m, k) cycles of length k / gcd(m, k)
    in the m-th power, and only lengths up to r are kept, since a longer
    cycle lies in no fixed r-subset, so a list indexed by cycle length 0..r
    holds them.  ``fixed_by_profile`` maps that list, as a tuple, to its
    fixed count, which it alone determines at this r.
    """
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
    return fixed


def _induced_walk(base: Partition, r: int, fixed_by_profile: dict[tuple[int, ...], int],
                  divisors_by_order: dict[int, list[tuple[int, int]]]) -> Partition:
    """induced_cycle_type's divisor walk, reading and filling the given tables.

    ``fixed_by_profile`` is _fixed_count's table and ``divisors_by_order``
    _base_divisors'; both hold only what r and their keys determine, so
    every walk and cycle count at the same r may share them.
    """
    p, _, divisors = _base_divisors(base, r, divisors_by_order)
    points = comb(p, r)
    found: list[tuple[int, int]] = []
    covered = 0
    for m, _ in divisors:
        fixed = _fixed_count(base, r, m, fixed_by_profile)
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


def _cycle_count(base: Partition, r: int, fixed_by_profile: dict[tuple[int, ...], int],
                 divisors_by_order: dict[int, list[tuple[int, int]]]) -> int:
    """Number of cycles of the permutation a base cycle type induces on r-subsets.

    By Burnside's lemma on the cyclic group generated by the permutation,
    whose order L is the base order, that is the orbit count
    (1/L) sum_{e | L} phi(L / e) * F(e), F(e) being the number of r-subsets
    fixed by the e-th power: of the L powers, the phi(L / e) whose exponent
    has gcd e with L generate the same subgroup as the e-th, so fix the same
    subsets.  It takes the same tables as _induced_walk but never builds the
    induced cycle type.  A remainder raises ArithmeticError.
    """
    _, order, divisors = _base_divisors(base, r, divisors_by_order)
    orbit_sum = 0
    for e, phi in divisors:
        orbit_sum += phi * _fixed_count(base, r, e, fixed_by_profile)
    cycles, remainder = divmod(orbit_sum, order)
    if remainder:
        raise ArithmeticError(
            f"orbit sum {orbit_sum} of base {base!r}, r={r} is not divisible "
            f"by its order {order}")
    return cycles


def subset_action_terms(p: int, r: int) -> tuple[tuple[Partition, Partition, int], ...]:
    """Unmerged cycle-index terms of S_p acting on r-subsets.

    One (base partition, induced cycle type, weight) triple per partition of
    p, in partitions_of order.  Distinct base partitions can induce the same
    cycle type; this form keeps them apart so each term stays auditable.
    All the partitions' divisor walks share one table of fixed counts and one
    of divisors, made for this call and dropped on return.  Nothing is
    cached: each call walks every partition again and returns a new tuple.
    """
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= p, got p={p}, r={r}")
    fixed_by_profile: dict[tuple[int, ...], int] = {}
    divisors_by_order: dict[int, list[tuple[int, int]]] = {}
    return tuple((j, _induced_walk(j, r, fixed_by_profile, divisors_by_order),
                  permutation_count(j))
                 for j in partitions_of(p))


def cycle_index_subset_action(p: int, r: int) -> CycleIndex:
    """Cycle index of S_p acting on the r-element subsets of p points.

    Equal induced cycle types are merged by summing their weights, so the
    term count can drop below the number of partitions of p.  Each call
    merges a new CycleIndex from a fresh subset_action_terms walk, so the
    caller may edit the result without changing any later one.
    """
    merged: dict[Partition, int] = {}
    for _, induced, weight in subset_action_terms(p, r):
        merged[induced] = merged.get(induced, 0) + weight
    return CycleIndex(merged, factorial(p), comb(p, r))
