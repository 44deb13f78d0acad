"""Brute-force cross-checks built on explicit permutations.

Nothing in this module uses the fixed-subset/inversion pipeline from
cycle_index: induced permutations are constructed point by point from the
definition (map every element of every subset, re-sort, look the image up),
and cycle structure is read off by tracing.  That makes these functions slow
and small but trustworthy, which is exactly what the verification suite and
the CLI ``verify`` command want.

An explicit permutation is a plain tuple ``image`` of length N with
``image[i]`` the image of point i; it must be a bijection on 0..N-1.

The exhaustive orbit counter walks the orbits of S_p on bitmasks through the
two mask maps induced by the generators (0 1 ... p-1) and (0 1), in pure
Python on one thread.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .counting import IntPolynomial
from .partitions import Partition, partitions_of, permutation_count

ExplicitPermutation = tuple[int, ...]


class SubsetIndex:
    """Fixed bijection between 0..C(p,r)-1 and the r-subsets of 0..p-1.

    Subsets are numbered colexicographically (compare largest elements
    first), so rank(unrank(t)) == t and unrank is strictly increasing in
    colex order.
    """

    def __init__(self, p: int, r: int):
        if r < 0 or p < 0:
            raise ValueError(f"need p >= 0 and r >= 0, got p={p}, r={r}")
        self.p = p
        self.r = r
        self.subsets: tuple[tuple[int, ...], ...] = tuple(
            sorted(combinations(range(p), r), key=lambda s: s[::-1]))
        self._rank = {s: t for t, s in enumerate(self.subsets)}

    def rank(self, subset) -> int:
        return self._rank[tuple(sorted(subset))]

    def unrank(self, t: int) -> tuple[int, ...]:
        return self.subsets[t]

    def __len__(self) -> int:
        return len(self.subsets)


@lru_cache(maxsize=None)
def subset_index(p: int, r: int) -> SubsetIndex:
    return SubsetIndex(p, r)


def representative_of(cycle_type: Partition) -> ExplicitPermutation:
    """One permutation of 0..p-1 with the given cycle type.

    Cycles are laid out consecutively in decreasing part-size order, so the
    result is deterministic.
    """
    p = cycle_type.ambient
    image = list(range(p))
    start = 0
    for size in cycle_type.to_sizes():
        for offset in range(size):
            image[start + offset] = start + (offset + 1) % size
        start += size
    return tuple(image)


def induce_on_subsets(perm: ExplicitPermutation, r: int) -> ExplicitPermutation:
    """Permutation of subset ranks induced by mapping subsets elementwise."""
    p = len(perm)
    if sorted(perm) != list(range(p)):
        raise ValueError("image is not a bijection")
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= {p}, got r={r}")
    index = subset_index(p, r)
    return tuple(index.rank([perm[i] for i in subset]) for subset in index.subsets)


def _cycle_lengths(perm: ExplicitPermutation) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return lengths


def cycle_type_of(perm: ExplicitPermutation) -> Partition:
    """Cycle type of an explicit permutation, by tracing its cycles."""
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("image is not a bijection")
    return Partition.from_sizes(_cycle_lengths(perm))


def burnside_polynomial(p: int, r: int) -> IntPolynomial:
    """Counting polynomial over two choices per r-subset, from explicit cycles.

    For one representative per partition of p, induce the permutation on
    r-subsets, take the product of (1 + x**length) over its traced cycles,
    weight by the number of permutations sharing that cycle type, and divide
    the grand total exactly by p!.  Agrees with plex_polynomial(p, r - 1)
    but shares none of its cycle-type machinery.
    """
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= p, got p={p}, r={r}")
    total = IntPolynomial()
    for base in partitions_of(p):
        induced = induce_on_subsets(representative_of(base), r)
        # multiply by (1 + x**length) as a plain shift-and-add, so this
        # oracle shares no code with IntPolynomial's packed multiply
        term = [1]
        for length in _cycle_lengths(induced):
            shifted = term + [0] * length
            for i, c in enumerate(term):
                shifted[i + length] += c
            term = shifted
        total = total + IntPolynomial(term).scale(permutation_count(base))
    return total.exact_div(factorial(p))


# ---------------------------------------------------------------------------
# Exhaustive orbit counting over all bitmasks (ground truth at tiny sizes).

def _mask_images(mapping: ExplicitPermutation) -> array:
    """Image of every mask under the bit permutation ``mapping``, indexed by mask.

    Built by doubling: once the masks below ``1 << bit`` are mapped, the
    masks that add that bit map to the same images plus ``1 << mapping[bit]``.
    """
    images = array("I", [0])
    for target in mapping:
        images.extend([image | 1 << target for image in images])
    return images


def exhaustive_plex_histogram(p: int, n: int) -> list[int]:
    """Orbit counts of all simplex sets, split by number of n-simplexes.

    Every subset of the (n+1)-subsets is treated as a bitmask.  S_p is
    generated by the p-cycle (0 1 ... p-1) and the transposition (0 1), so
    the orbits of S_p on masks are the connected components of the two mask
    maps those generators induce.  Masks are swept in increasing order and a
    walk from each unseen one marks its whole orbit, which is counted once
    under its number of set bits.  The p <= 6 and C(p, n+1) <= 20 caps keep
    the state space at most 2^20 masks and are enforced, not advisory.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    if p > 6:
        raise ValueError(f"exhaustive enumeration is capped at p <= 6, got p={p}")
    r = n + 1
    width = comb(p, r)
    if width > 20:
        raise ValueError(f"exhaustive enumeration is capped at 2^20 states, "
                         f"got C({p},{r}) = {width} subsets")
    if width == 0:
        return [1]  # no simplexes possible; only the empty plex
    generators = (tuple(range(1, p)) + (0,), (1, 0) + tuple(range(2, p)))
    maps = [_mask_images(induce_on_subsets(perm, r)) for perm in generators]
    seen = bytearray(1 << width)
    histogram = [0] * (width + 1)
    for start in range(1 << width):
        if seen[start]:
            continue
        seen[start] = 1
        histogram[start.bit_count()] += 1
        stack = [start]
        while stack:
            mask = stack.pop()
            for images in maps:
                image = images[mask]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
    return histogram


def exhaustive_plex_count(p: int, n: int) -> int:
    """Number of n-plexes on p points by exhaustive orbit walking."""
    return sum(exhaustive_plex_histogram(p, n))
