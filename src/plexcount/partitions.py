"""Integer partitions in multiplicity form.

A partition of p is the sorted tuple of its (part size, multiplicity) pairs,
and partitions_of streams them one at a time, keeping none.  The same data
describes the cycle type of a permutation (part sizes are cycle lengths), so
this module also carries the two cycle-type computations the rest of the
package is built on: counting the permutations with a given cycle type, and
transforming a cycle type under powers.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, gcd
from typing import Iterable, Iterator, Mapping


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


def partitions_of(p: int) -> Iterator[Partition]:
    """Yield the integer partitions of p, in decreasing-lexicographic part order.

    partitions_of(4) yields [4], [3,1], [2,2], [2,1,1], [1,1,1,1], and
    partitions_of(0) the single empty partition, which the subset-count loops
    rely on.  A negative p raises ValueError at the call, not at the first
    next().  Nothing is cached: each call returns a new iterator holding only
    the current partition, so a full walk takes O(p) memory.

    Each partition is the successor of the last (Knuth, TAOCP 4A 7.2.1.4,
    Algorithm P; Zoghbi and Stojmenovic's ZS1) in multiplicity form: pop the
    1s and one part of the smallest size s > 1 off a stack of (size, mult)
    pairs, sizes descending, and refill those s + ones points with as many
    parts of s - 1 as fit and one part of the rest.  The stack reversed is
    already the canonical Partition tuple, so nothing is re-sorted or
    re-validated.
    """
    if p < 0:
        raise ValueError(f"cannot partition {p}")
    return _successors(p)


def _successors(p: int) -> Iterator[Partition]:
    pairs = [(p, 1)] if p else []
    while True:
        yield tuple.__new__(Partition, pairs[::-1])
        ones = pairs.pop()[1] if pairs and pairs[-1][0] == 1 else 0
        if not pairs:
            return
        size, mult = pairs.pop()
        if mult > 1:
            pairs.append((size, mult - 1))
        quotient, rest = divmod(size + ones, size - 1)
        pairs.append((size - 1, quotient))
        if rest:
            pairs.append((rest, 1))


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
