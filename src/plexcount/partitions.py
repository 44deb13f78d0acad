"""Integer partitions in multiplicity form.

A partition of p is the sorted tuple of its (part size, multiplicity) pairs.
The same data describes the cycle type of a permutation (part sizes are cycle
lengths), so this module also carries the two cycle-type computations the
rest of the package is built on: counting the permutations with a given cycle
type, and transforming a cycle type under powers.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, gcd
from typing import Iterable, Mapping


class Partition(tuple):
    """A partition of ``ambient``: a tuple of (part size, multiplicity) pairs.

    The pairs are sorted by part size with zero multiplicities dropped, so equal
    partitions are equal tuples and can key term maps directly.  As a tuple, a
    Partition also equals the plain tuple of its pairs, is falsy when empty,
    orders like a tuple, and its ``len`` is the number of distinct part sizes.
    Iterating it gives the pairs; ``dict(partition)`` maps size to multiplicity.
    """

    __slots__ = ()

    def __new__(cls, parts: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> "Partition":
        mapping = dict(parts)
        items = []
        for size in sorted(mapping):
            mult = mapping[size]
            if type(size) is not int or type(mult) is not int:
                raise ValueError(f"parts must be int, got {size!r}: {mult!r}")
            if size < 1:
                raise ValueError(f"part size must be >= 1, got {size}")
            if mult < 0:
                raise ValueError(f"multiplicity must be >= 0, got {mult}")
            if mult:
                items.append((size, mult))
        return super().__new__(cls, items)

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "Partition":
        """Build from an explicit list of parts, e.g. [3, 2, 2, 1]."""
        return cls(Counter(sizes))

    @property
    def ambient(self) -> int:
        """The number partitioned: the sum of all parts."""
        return sum(size * mult for size, mult in self)

    def sizes(self) -> tuple[int, ...]:
        """Distinct part sizes, ascending."""
        return tuple(size for size, _ in self)

    def to_sizes(self) -> list[int]:
        """Expanded part list, largest first, e.g. [3, 2, 2, 1]."""
        out: list[int] = []
        for size, mult in reversed(self):
            out.extend([size] * mult)
        return out

    def num_parts(self) -> int:
        """Total number of parts (counting multiplicity)."""
        return sum(mult for _, mult in self)

    def __repr__(self) -> str:
        return f"Partition({dict(self)!r})"

    def __str__(self) -> str:
        if not self:
            return "0"
        return "+".join(str(size) for size in self.to_sizes())


@lru_cache(maxsize=128)
def partitions_of(p: int) -> tuple[Partition, ...]:
    """All integer partitions of p, in decreasing-lexicographic part order.

    partitions_of(4) lists [4], [3,1], [2,2], [2,1,1], [1,1,1,1].
    partitions_of(0) is the single empty partition, which the subset-count
    loops rely on.  Partitions are generated directly in multiplicity form:
    the largest size first and then its multiplicity, both descending, with
    the rest a partition into smaller sizes.  Each comes out as ascending
    (size, positive multiplicity) pairs, already the canonical Partition
    tuple, so none is re-sorted or re-validated.  The result is cached; it is
    an immutable tuple.
    """
    if p < 0:
        raise ValueError(f"cannot partition {p}")
    # by_total[n] lists the partitions of n into sizes <= cap, as ascending
    # pairs in decreasing-lexicographic order.  Raising the cap puts those
    # whose largest size is the new cap first, largest multiplicity first.
    # Only the totals a partition of p can still need are built: p itself,
    # and those below p - cap, since any larger size leaves at most that.
    by_total = [[()]] + [[]] * p
    for cap in range(1, p + 1):
        previous = by_total
        by_total = [[rest + ((cap, mult),)
                     for mult in range(n // cap, 0, -1)
                     for rest in previous[n - cap * mult]] + previous[n]
                    if n < p - cap or n == p else None
                    for n in range(p + 1)]
    return tuple(tuple.__new__(Partition, pairs) for pairs in by_total[p])


def permutation_count(cycle_type: Partition) -> int:
    """Number of permutations of S_p with the given cycle type.

    With multiplicities m_k over part sizes k this is
    p! / prod_k (k**m_k * m_k!), and the division is always exact.
    """
    points = 0
    denominator = 1
    for size, mult in cycle_type:
        points += size * mult
        denominator *= size**mult * factorial(mult)
    return factorial(points) // denominator


def power_cycle_type(cycle_type: Partition, exponent: int) -> Partition:
    """Cycle type of the exponent-th power of a permutation with this type.

    Each k-cycle splits into gcd(e, k) cycles of length k / gcd(e, k).
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    powered: dict[int, int] = {}
    for size, mult in cycle_type:
        g = gcd(exponent, size)
        powered[size // g] = powered.get(size // g, 0) + g * mult
    return Partition(powered)
