"""Brute-force cross-checks built on explicit permutations.

Nothing in this module uses the fixed-subset/inversion pipeline from
cycle_index: induced permutations are constructed point by point from the
definition (map every element of every subset, re-sort, look the image up),
and cycle structure is read off by tracing.  That makes these functions slow
and small but trustworthy, which is exactly what the verification suite and
the CLI ``verify`` command want.

An explicit permutation is a plain tuple ``image`` of length N with
``image[i]`` the image of point i; it must be a bijection on 0..N-1.

The exhaustive orbit counter vectorises its bitmask sweep with numpy and
honours the PLEXCOUNT_THREADS environment variable (or an explicit
``threads`` argument) by splitting the mask range across a thread pool.
The result is independent of the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np

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

def _thread_count(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get("PLEXCOUNT_THREADS", "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"PLEXCOUNT_THREADS must be an integer, got {env!r}") from None


def _mask_tables(mapping: ExplicitPermutation, width: int):
    """Split-table lookup that sends a width-bit mask through a bit permutation."""
    low_bits = width // 2
    low_mask = np.uint32((1 << low_bits) - 1)
    table_low = np.zeros(1 << low_bits, dtype=np.uint32)
    table_high = np.zeros(1 << (width - low_bits), dtype=np.uint32)
    for value in range(len(table_low)):
        out = 0
        for bit in range(low_bits):
            if value >> bit & 1:
                out |= 1 << mapping[bit]
        table_low[value] = out
    for value in range(len(table_high)):
        out = 0
        for bit in range(width - low_bits):
            if value >> bit & 1:
                out |= 1 << mapping[bit + low_bits]
        table_high[value] = out
    return table_low, table_high, low_bits, low_mask


def _canonical_histogram(width: int, tables, lo: int, hi: int) -> list[int]:
    """Simplex-count histogram of the canonical orbit representatives in [lo, hi)."""
    masks = np.arange(lo, hi, dtype=np.uint32)
    canonical = masks.copy()
    for table_low, table_high, low_bits, low_mask in tables:
        images = table_low[masks & low_mask] | table_high[masks >> low_bits]
        np.minimum(canonical, images, out=canonical)
    histogram = [0] * (width + 1)
    for mask in masks[canonical == masks]:
        histogram[int(mask).bit_count()] += 1
    return histogram


def exhaustive_plex_histogram(p: int, n: int, threads: int | None = None) -> list[int]:
    """Orbit counts of all simplex sets, split by number of n-simplexes.

    Every subset of the (n+1)-subsets is treated as a bitmask; a mask is an
    orbit representative iff it equals the minimum of its images under all
    p! induced permutations.  The p <= 6 and C(p, n+1) <= 20 caps keep the
    state space at most 2^20 masks and are enforced, not advisory.
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
    identity = tuple(range(p))
    tables = [_mask_tables(induce_on_subsets(perm, r), width)
              for perm in permutations(range(p)) if perm != identity]
    total_masks = 1 << width
    workers = min(_thread_count(threads), total_masks)
    bounds = [total_masks * i // workers for i in range(workers + 1)]
    ranges = [(bounds[i], bounds[i + 1]) for i in range(workers)]
    if workers == 1:
        partials = [_canonical_histogram(width, tables, 0, total_masks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(
                lambda span: _canonical_histogram(width, tables, *span), ranges))
    return [sum(part[k] for part in partials) for k in range(width + 1)]


def exhaustive_plex_count(p: int, n: int, threads: int | None = None) -> int:
    """Number of n-plexes on p points by exhaustive canonical-form minimisation."""
    return sum(exhaustive_plex_histogram(p, n, threads=threads))
