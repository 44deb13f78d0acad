"""Brute-force cross-checks built on explicit permutations.

Nothing in this module uses the fixed-subset/inversion pipeline from
cycle_index: induced permutations are constructed point by point from the
definition (map every element of every subset, re-sort, look the image up),
and cycle structure is read off by tracing.  That makes these functions slow
and small but trustworthy, which is exactly what the verification suite and
the CLI ``verify`` command want.

An explicit permutation is a plain tuple ``image`` of length N with
``image[i]`` the image of point i; it must be a bijection on 0..N-1.  A
permutation induced on r-subsets acts on subset numbers: the r-subsets of
0..p-1 are numbered by their position in the cached colex tuple
``colex_subsets(p, r)``.

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


@lru_cache(maxsize=128)
def colex_subsets(p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The r-subsets of 0..p-1 in colex order (compare largest elements first).

    A subset's position in this tuple is its rank; the rank of
    {a_1 < ... < a_r} is sum C(a_i, i).
    """
    if r < 0 or p < 0:
        raise ValueError(f"need p >= 0 and r >= 0, got p={p}, r={r}")
    return tuple(sorted(combinations(range(p), r), key=lambda s: s[::-1]))


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
    subsets = colex_subsets(p, r)
    rank = {subset: t for t, subset in enumerate(subsets)}
    return tuple(rank[tuple(sorted(perm[i] for i in subset))] for subset in subsets)


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
    weight by the number of permutations sharing that cycle type, and sum
    into one list of C(p, r) + 1 coefficients (every term has that degree,
    the sum of its cycle lengths).  The total is divided exactly by p!, once.
    Agrees with plex_polynomial(p, r - 1) but shares none of its cycle-type
    machinery.
    """
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= p, got p={p}, r={r}")
    total = [0] * (comb(p, r) + 1)
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
        weight = permutation_count(base)
        for i, c in enumerate(term):
            total[i] += weight * c
    return IntPolynomial(total).exact_div(factorial(p))


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
    under its number of set bits.  Two caps are checked: p <= 7, and at most
    2^20 states, C(p, n+1) <= 20.  At p = 7 the state cap refuses n = 1..4
    (21 or 35 subsets) and lets n = 5 and 6 run.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    if p > 7:
        raise ValueError(f"exhaustive enumeration is capped at p <= 7, got p={p}")
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
