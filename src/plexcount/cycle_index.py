"""Cycle index of the symmetric group acting on r-subsets.

Each term is a cycle type (a Partition of the points acted on) weighted by
the number of permutations that give it; r = 1 is Z(S_p) itself.  The cycle
type induced on r-element subsets is computed from the base cycle type
alone, with no explicit permutations: a subset is fixed exactly when it is
a union of whole cycles, which gives the number of 1-cycles of every power
of the induced permutation, and the full induced cycle type follows by
inversion over the divisors of the base permutation's order.  The walk
builds its result directly as the canonical Partition tuple.
counting.plex_count needs only the number of induced cycles, which
_cycle_count gets from the same fixed counts by Burnside's lemma on the
cyclic group the permutation generates, without building the induced cycle
type.

Both read their fixed counts from one _PowerTables, made for one (p, r) per
call and dropped on return.  A power's fixed count depends only on its
short-cycle profile: the number a_l of its cycles of each length l <= r,
since a longer cycle lies in no fixed r-subset.  A profile is keyed by its
mixed-radix index sum_l a_l * radix[l], with radix[1] = 1 and radix[l + 1]
= radix[l] * (p // l + 1): a_l <= p // l, so every profile of p points has
its own index, below top = radix[r + 1].  The e-th power turns each k-cycle
into g = gcd(e, k) cycles of length k / g, so the indices of all the powers
are linear in the base's multiplicities.  For an order L and a part size k,
one int, a row, holds g * radix[k / g] in lane i, for the i-th divisor e of
L, whenever k / g <= r, and a base with multiplicities m_k has every
divisor's index packed in sum_k m_k * row(L, k).  A lane is the narrowest
native unsigned width that holds top, so none carries, and one memoryview
reads every lane of the packed int's bytes in C.  Where top passes 64 bits
(first at p = 38, r = 37) an index spans several 64-bit lanes, and the
tuple of its words is its key.  The indices key a table of fixed counts,
each filled on its first lookup from the partitions of r, which are walked
once per call.  The rows, and each order's divisors with their Euler phis,
are kept for the call too, so most partitions look every count up instead
of recounting it.
The partitions of p are streamed from partitions_of, not stored.  No table,
partition or result is kept between calls, so a repeated (p, r) walks again.
fixed_subset_count and partitions.power_cycle_type are the definitions the
walk follows, kept in their modules (not the top-level namespace) as the
reference the tests compare it against.

Everything here is exact integer arithmetic.  Any division that comes out
inexact, or any negative intermediate multiplicity, raises ArithmeticError
instead of rounding.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import mul
from struct import calcsize
from typing import Iterator

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


def _divisor_totients(n: int) -> list[tuple[int, int]]:
    """(e, phi(n / e)) for each divisor e of n, in increasing order of e.

    Both come from n's prime factors, found by trial division: each prime
    power q**a of n multiplies every divisor d found so far by q**1..q**a,
    and phi(d * q**j) = phi(d) * q**(j - 1) * (q - 1).  A base order's
    primes are all at most p, so the search takes at most p steps.
    """
    phi_of = {1: 1}
    rest, q = n, 2
    while rest > 1:
        if q * q > rest:
            q = rest
        power = 0
        while rest % q == 0:
            rest //= q
            power += 1
        if power:
            for d, phi in list(phi_of.items()):
                phi *= q - 1
                for _ in range(power):
                    d *= q
                    phi_of[d] = phi
                    phi *= q
        q += 1
    return [(e, phi_of[n // e]) for e in sorted(phi_of)]


# native unsigned lane formats, narrowest first, by size in bytes; an index
# wider than the last spans several of its words
_LANES = tuple((calcsize(fmt), fmt) for fmt in "BHIQ")
_WORD_BITS = 8 * _LANES[-1][0]
# to_bytes in native order puts the last divisor's lane first on a big-endian machine
_LANE_STEP = 1 if sys.byteorder == "little" else -1


class _FixedCounts(dict):
    """Fixed r-subset count of each short-cycle profile, filled on first lookup.

    A key is a profile's mixed-radix index (see the module docstring), whose
    digit in base p // l + 1 is the number of l-cycles for l = 1..r, which
    alone determine the count; an index that spans several 64-bit lanes is
    keyed by the tuple of its words, least significant first.  The
    partitions of r are walked once, when the table is made.
    """

    __slots__ = ("bases", "subs")

    def __init__(self, p: int, r: int):
        super().__init__()
        self.bases = tuple(p // length + 1 for length in range(1, r + 1))
        self.subs = tuple(partitions_of(r))

    def profile(self, key: int | tuple[int, ...]) -> list[int]:
        """[0, a_1, ..., a_r]: the number of l-cycles a key holds, by length l."""
        if type(key) is tuple:
            index = 0
            for word in reversed(key):
                index = index << _WORD_BITS | word
            key = index
        short = [0]
        for base in self.bases:
            key, count = divmod(key, base)
            short.append(count)
        return short

    def __missing__(self, key: int | tuple[int, ...]) -> int:
        short = self.profile(key)
        fixed = 0
        for sub in self.subs:
            ways = 1
            for length, needed in sub:
                ways *= comb(short[length], needed)
                if not ways:
                    break
            fixed += ways
        self[key] = fixed
        return fixed


class _PowerTables:
    """The tables one call's walks share, for cycle types of p points at one r.

    ``radix`` holds the profile index's place values radix[1..r] (radix[0]
    is unused) and radix[r + 1], the bound every index stays below.  Each
    divisor's index fills ``words`` lanes of memoryview format ``lane``, the
    narrowest native unsigned width that holds that bound; ``words`` is 1
    unless the bound passes 64 bits.  ``orders`` maps each base order
    L met to its divisors in increasing order, their phi(L / e), the byte
    length of their packed lanes, and its rows by part size (see the module
    docstring); ``fixed`` is the _FixedCounts of the profiles met.
    ValueError unless 1 <= r <= p.
    """

    __slots__ = ("r", "points", "radix", "lane", "words", "span", "fixed", "orders")

    def __init__(self, p: int, r: int):
        if not 1 <= r <= p:
            raise ValueError(f"need 1 <= r <= {p}, got r={r}")
        self.r = r
        self.points = comb(p, r)
        self.fixed = _FixedCounts(p, r)
        self.radix = (0, *accumulate(self.fixed.bases, mul, initial=1))
        top = self.radix[-1]
        size, self.lane = next((lane for lane in _LANES if top <= 1 << 8 * lane[0]),
                               _LANES[-1])
        self.words = -(-(top - 1).bit_length() // (8 * size))
        self.span = size * self.words
        self.orders: dict[int, tuple[tuple[int, ...], tuple[int, ...],
                                     int, dict[int, int]]] = {}

    def powers(self, base: Partition
               ) -> tuple[int, tuple[int, ...], tuple[int, ...], Iterator[int]]:
        """A base cycle type's order L, L's divisors e, their phi(L / e), and fixed counts.

        The last is an iterator over the number of r-subsets fixed by each
        e-th power, in divisor order, looked up lazily, so a walk that stops
        early skips the rest.
        """
        order = 1
        for size, _ in base:
            order = lcm(order, size)
        entry = self.orders.get(order)
        if entry is None:
            divisors, phis = zip(*_divisor_totients(order))
            entry = self.orders[order] = divisors, phis, len(divisors) * self.span, {}
        divisors, phis, length, rows = entry
        packed = 0
        for size, count in base:
            row = rows.get(size)
            if row is None:
                row = rows[size] = self._row(divisors, size)
            packed += count * row
        profiles = packed.to_bytes(length, sys.byteorder)
        lanes = memoryview(profiles).cast(self.lane)[::_LANE_STEP]
        if self.words > 1:
            lanes = zip(*[iter(lanes)] * self.words)
        return order, divisors, phis, map(self.fixed.__getitem__, lanes)

    def _row(self, divisors: tuple[int, ...], size: int) -> int:
        """The packed profile indices that one size-cycle adds to each divisor's power."""
        r, radix, bits = self.r, self.radix, 8 * self.span
        row = 0
        for i, e in enumerate(divisors):
            g = gcd(e, size)
            if size <= r * g:
                row += g * radix[size // g] << bits * i
        return row


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

    The walk reads those fixed counts from packed short-cycle profiles (see
    _PowerTables).  The multiplicities are recorded in increasing divisor
    order and only when positive, so the result is built directly as the
    canonical Partition tuple, with no re-sorting or re-validation.  This is
    the walk subset_action_terms runs for each partition; here it gets
    tables of its own, dropped on return.
    """
    return _induced_walk(base, _PowerTables(base.ambient, r))


def _induced_walk(base: Partition, tables: _PowerTables) -> Partition:
    """induced_cycle_type's divisor walk, reading and filling the given tables.

    The tables hold only what their p and r determine, so every walk and
    cycle count over cycle types of p points at that r may share them.
    """
    _, divisors, _, fixed_counts = tables.powers(base)
    points = tables.points
    found: list[tuple[int, int]] = []
    covered = 0
    for m, fixed in zip(divisors, fixed_counts):
        for d, md in found:
            if m % d == 0:
                fixed -= d * md
        quotient, leftover = divmod(fixed, m)
        if leftover or quotient < 0:
            raise ArithmeticError(
                f"cycle-type inversion failed at m={m} for base {base!r}, r={tables.r}: "
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


def _cycle_count(base: Partition, tables: _PowerTables) -> int:
    """Number of cycles of the permutation a base cycle type induces on r-subsets.

    By Burnside's lemma on the cyclic group generated by the permutation,
    whose order L is the base order, that is the orbit count
    (1/L) sum_{e | L} phi(L / e) * F(e), F(e) being the number of r-subsets
    fixed by the e-th power: of the L powers, the phi(L / e) whose exponent
    has gcd e with L generate the same subgroup as the e-th, so fix the same
    subsets.  It reads the same tables as _induced_walk but never builds the
    induced cycle type.  A remainder raises ArithmeticError.
    """
    order, _, phis, fixed_counts = tables.powers(base)
    orbit_sum = sum(map(mul, phis, fixed_counts))
    cycles, remainder = divmod(orbit_sum, order)
    if remainder:
        raise ArithmeticError(
            f"orbit sum {orbit_sum} of base {base!r}, r={tables.r} is not divisible "
            f"by its order {order}")
    return cycles


def subset_action_terms(p: int, r: int) -> tuple[tuple[Partition, Partition, int], ...]:
    """Unmerged cycle-index terms of S_p acting on r-subsets.

    One (base partition, induced cycle type, weight) triple per partition of
    p, in partitions_of order.  Distinct base partitions can induce the same
    cycle type; this form keeps them apart so each term stays auditable.
    All the partitions' divisor walks share one _PowerTables, made for this
    call and dropped on return.  Nothing is cached: each call walks every
    partition again and returns a new tuple.
    """
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= p, got p={p}, r={r}")
    tables = _PowerTables(p, r)
    return tuple((j, _induced_walk(j, tables), permutation_count(j))
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
