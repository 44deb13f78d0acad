"""Brute-force cross-checks built on explicit permutations.

Nothing in this module uses the fixed-subset/inversion pipeline from
cycle_index: induced permutations are constructed point by point from the
definition (map every element of every subset, look the image up), and
cycle structure is read off by tracing.  That makes these functions slow
and small but trustworthy, which is exactly what the verification suite and
the CLI ``verify`` command want.

An explicit permutation is a plain tuple ``image`` of length N with
``image[i]`` the image of point i; it must be a bijection on 0..N-1.  A
permutation induced on r-subsets acts on subset numbers: the r-subsets of
0..p-1 are numbered by their position in the colex tuple
``colex_subsets(p, r)``.

Mask ranks.  ``induce_on_subsets`` holds each r-subset as a bitmask of its
points and looks an image subset's rank up by its mask, in one table of the
masks in colex order and their ranks, cached for the last (p, r) only.
Each subset's mask is mapped through byte tables: one table per byte of the
point mask, 256 entries (fewer for a last, partial byte), each built by
doubling from ``perm``, so a call allocates 256 * ceil(p / 8) table entries
besides the C(p, r) ranks, and sorts nothing.

Burnside slot.  ``burnside_polynomial`` keeps each partition's product of
(1 + x**length) as one int with one coefficient per slot of a fixed
C(p, r) + 1 + p!.bit_length() bits, so multiplying by one cycle's factor is
one shift and one add.  The weighted terms are summed as ints and the total
is split into coefficients once.  No slot can carry into the next: a term
with c cycles has coefficients summing to 2**c <= 2**C(p, r), and the class
sizes weighting the terms sum to p!, so every coefficient of the total is
at most p! * 2**C(p, r), below 2**(C(p, r) + p!.bit_length()).  The width is
fixed, and this shares no packing code with ``counting.substitute``.

The exhaustive orbit counter walks the orbits of S_p on bitmasks through the
two mask maps induced by the generators (0 1 ... p-1) and (0 1), in pure
Python on one thread.  Its sweep gets each next unseen start mask from
``bytearray.find`` on the seen flags instead of testing every mask in Python.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from typing import TypeVar

from .counting import IntPolynomial
from .partitions import Partition, partitions_of, permutation_count

ExplicitPermutation = tuple[int, ...]
MaskImages = TypeVar("MaskImages", list, array)


def colex_subsets(p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The r-subsets of 0..p-1 in colex order (compare largest elements first).

    A subset's position in this tuple is its rank; the rank of
    {a_1 < ... < a_r} is sum C(a_i, i).
    """
    if r < 0 or p < 0:
        raise ValueError(f"need p >= 0 and r >= 0, got p={p}, r={r}")
    return tuple(sorted(combinations(range(p), r), key=lambda s: s[::-1]))


@lru_cache(maxsize=1)
def _subset_masks(p: int, r: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The colex r-subsets of 0..p-1 as point bitmasks, and each mask's rank."""
    masks = tuple(sum(1 << i for i in subset) for subset in colex_subsets(p, r))
    return masks, {mask: rank for rank, mask in enumerate(masks)}


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


def _mask_images(mapping: ExplicitPermutation, images: MaskImages) -> MaskImages:
    """Image of every mask under the bit permutation ``mapping``, indexed by mask.

    ``images`` holds only the image of mask 0, which is 0: a list, or an
    array where the table is large.  It is extended by doubling: once the
    masks below ``1 << bit`` are mapped, the masks that add that bit map to
    the same images plus ``1 << mapping[bit]``.
    """
    for target in mapping:
        bit = 1 << target
        images.extend([image | bit for image in images])
    return images


def _byte_tables(perm: ExplicitPermutation) -> list[list[int]]:
    """Point-mask images under ``perm``, one table per byte of the point mask.

    ``tables[k][b]`` is the mask of the images of the points 8k + i for the
    bits i set in b.
    """
    return [_mask_images(perm[low:low + 8], [0]) for low in range(0, len(perm), 8)]


def induce_on_subsets(perm: ExplicitPermutation, r: int) -> ExplicitPermutation:
    """Permutation of subset ranks induced by mapping subsets elementwise.

    Each subset's point mask is mapped one byte at a time through
    _byte_tables(perm), and the image mask's rank is looked up.
    """
    p = len(perm)
    if sorted(perm) != list(range(p)):
        raise ValueError("image is not a bijection")
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= {p}, got r={r}")
    masks, rank = _subset_masks(p, r)
    tables = _byte_tables(perm)
    induced = []
    for mask in masks:
        image = 0
        for table in tables:
            image |= table[mask & 255]
            mask >>= 8
        induced.append(rank[image])
    return tuple(induced)


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
    (every term has degree C(p, r), the sum of its cycle lengths).  Each
    product is one int of fixed-width slots, built by shift-and-add; the
    module docstring shows why no slot overflows.  The total is divided
    exactly by p!, once.
    Agrees with plex_polynomial(p, r - 1) but shares none of its cycle-type
    machinery.
    """
    if not 1 <= r <= p:
        raise ValueError(f"need 1 <= r <= p, got p={p}, r={r}")
    degree = comb(p, r)
    order = factorial(p)
    slot = degree + 1 + order.bit_length()
    total = 0
    for base in partitions_of(p):
        induced = induce_on_subsets(representative_of(base), r)
        term = 1
        for length in _cycle_lengths(induced):
            term += term << slot * length
        total += permutation_count(base) * term
    low = (1 << slot) - 1
    coeffs = [total >> slot * i & low for i in range(degree + 1)]
    return IntPolynomial(coeffs).exact_div(order)


# ---------------------------------------------------------------------------
# Exhaustive orbit counting over all bitmasks (ground truth at tiny sizes).

def exhaustive_plex_histogram(p: int, n: int) -> list[int]:
    """Orbit counts of all simplex sets, split by number of n-simplexes.

    Every subset of the (n+1)-subsets is treated as a bitmask.  S_p is
    generated by the p-cycle (0 1 ... p-1) and the transposition (0 1), so
    the orbits of S_p on masks are the connected components of the two mask
    maps those generators induce.  Masks are swept in increasing order and a
    walk from each unseen one marks its whole orbit, which is counted once
    under its number of set bits; the next unseen mask is found with
    ``bytearray.find``.  Two caps are checked: p <= 7, and at most
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
    rotate, swap = (_mask_images(induce_on_subsets(perm, r), array("I", [0]))
                    for perm in generators)
    seen = bytearray(1 << width)
    histogram = [0] * (width + 1)
    stack: list[int] = []
    pop, append = stack.pop, stack.append
    start = 0
    while start >= 0:
        seen[start] = 1
        histogram[start.bit_count()] += 1
        append(start)
        while stack:
            mask = pop()
            image = rotate[mask]
            if not seen[image]:
                seen[image] = 1
                append(image)
            image = swap[mask]
            if not seen[image]:
                seen[image] = 1
                append(image)
        start = seen.find(0, start + 1)
    return histogram
