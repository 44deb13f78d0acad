"""Counting polynomials for n-plexes via substitution into cycle indices.

An n-plex on p points is determined by its set of n-simplexes, i.e. by a set
of (n+1)-element subsets, so counting n-plexes up to isomorphism is counting
orbits of S_p on those subset families.  Substituting 1 + x into the cycle
index of the action on (n+1)-subsets yields the counting polynomial whose
x^k coefficient is the number of n-plexes with exactly k n-simplexes.
The total alone, plex_count, needs no cycle index: it weights each
partition of p by its class size times 2 to the number of cycles its
permutations induce on (n+1)-subsets, a number Burnside's lemma gives
from fixed-subset counts (cycle_index._cycle_count).  It reads them from a
cycle_index._PowerTables made for that call and dropped on return, which
packs the profile indices of all of a partition's powers into one int.
Class sizes divide one p! per call.  The partitions are streamed, so the
walk holds one at a time.

All polynomial products here are Kronecker substitutions: coefficients go
into fixed-width byte slots of one big integer, so a product is one
big-integer multiply.  One rule sets every slot width: a slot is wide
enough when it holds the product's value at x = 1, which bounds every
coefficient when none is negative.  substitute packs each factor
(1 + x^k)**m of a cycle-index term from its binomial coefficients, in the
term's own slots, and since 1 + x is palindromic it computes only the
lower half of every term and mirrors it (see substitute).
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable

from .cycle_index import CycleIndex, _cycle_count, _PowerTables, cycle_index_subset_action
from .partitions import partitions_of


class IntPolynomial:
    """Dense univariate polynomial with exact (unbounded) integer coefficients.

    Stored as a tuple of coefficients indexed by exponent, with no trailing
    zeros; the zero polynomial is the empty tuple.  Immutable and hashable.

    Its one arithmetic operation is the Kronecker-packed multiply: each
    operand is packed into one big integer, with slots as wide as the
    product's value at x = 1, sum(a) * sum(b), needs.  So a product is a
    single big-integer multiply followed by unpacking.  That bound holds
    only for nonnegative coefficients, and a negative one raises
    ValueError.  substitute does not go through it: it packs each factor
    and multiplies packed ints, with slot widths from the same rule.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        stripped = list(coeffs)
        while stripped and stripped[-1] == 0:
            stripped.pop()
        self.coeffs: tuple[int, ...] = tuple(stripped)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient_sum(self) -> int:
        """Sum of all coefficients, i.e. the value at x = 1."""
        return sum(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        # no caller under src/ (substitute packs its own products); kept as the
        # counting.poly_mul target that benchmarks/tracer.py wraps
        a, b = self.coeffs, other.coeffs
        _require_nonnegative(a)
        _require_nonnegative(b)
        if not a or not b:
            return IntPolynomial()
        width = _slot_width(sum(a) * sum(b))
        return IntPolynomial(
            _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1))

    def exact_div(self, divisor: int) -> "IntPolynomial":
        """Divide every coefficient by ``divisor``, requiring exactness."""
        out = []
        for exponent, c in enumerate(self.coeffs):
            quotient, remainder = divmod(c, divisor)
            if remainder:
                raise ArithmeticError(
                    f"coefficient {c} of x^{exponent} is not divisible by {divisor}")
            out.append(quotient)
        return IntPolynomial(out)

    def __call__(self, value: int) -> int:
        # no caller under src/; kept because benchmarks/child.py reads result(1)
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


def _require_nonnegative(coeffs: tuple[int, ...]) -> None:
    if coeffs and min(coeffs) < 0:
        raise ValueError(
            f"packed multiply needs nonnegative coefficients, got {min(coeffs)}")


def _slot_width(bound: int) -> int:
    """Bytes per slot that hold every value up to ``bound`` (at least one)."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack(coeffs: Iterable[int], width: int) -> int:
    """Kronecker substitution: coefficient i fills bytes [i*width, (i+1)*width)."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _unpack(packed: int, width: int, length: int) -> list[int]:
    """Inverse of _pack: all ``length`` slots, zeros kept; exact when none overflowed."""
    data = packed.to_bytes(width * length, "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def _repack(packed: int, width: int, new_width: int, slots: int) -> int:
    """Move the ``slots`` slots of ``packed`` into slots of ``new_width`` bytes.

    The new slots must be at least as wide.  It costs one strided byte copy
    per byte of the old width, however many slots there are.
    """
    if new_width == width:
        return packed
    data = packed.to_bytes(width * slots, "little")
    out = bytearray(new_width * slots)
    for j in range(width):
        out[j::new_width] = data[j::width]
    return int.from_bytes(out, "little")


ONE = IntPolynomial((1,))


def substitute(index: CycleIndex) -> IntPolynomial:
    """Substitute 1 + x^k for the k-th cycle-index variable and average.

    Each term with cycle type of multiplicities m_k and weight w contributes
    w * prod_k (1 + x^k)**m_k; the sum over terms is divided coefficient by
    coefficient by the group order.  For a genuine cycle index that division
    is exact; a remainder is an internal error and raises ArithmeticError.

    Each term is one packed integer in slots as wide as its value at x = 1,
    2**P for P cycles, needs.  Each factor (1 + x^k)**m is packed directly
    from its coefficients C(m, i), k slots apart, and multiplied in.  The
    weighted terms are moved to slots as wide as the sum over terms of
    w * 2**P, summed, and unpacked once.

    1 + x is palindromic, so every term is palindromic of degree N, the
    number of points acted on: each factor (1 + x^k)**m is a palindrome,
    and multiplying keeps palindromes palindromic, their degrees adding.
    So only the slots up to the middle one are kept, cut back after every
    product (a product's low slots depend only on its operands' low slots),
    and the upper half is their mirror image.
    """
    degree = index.ambient_points
    slots = degree // 2 + 1
    width = _slot_width(sum(weight << cycle_type.num_parts()
                            for cycle_type, weight in index.terms.items()))
    total = 0
    for cycle_type, weight in index.terms.items():
        term_width = _slot_width(1 << cycle_type.num_parts())
        cut = (1 << 8 * term_width * slots) - 1
        term = 1
        for size, mult in cycle_type:
            top = min(mult, (slots - 1) // size)
            term = term * _pack([comb(mult, i) for i in range(top + 1)],
                                term_width * size) & cut
        total += weight * _repack(term, term_width, width, slots)
    half = _unpack(total, width, slots)
    return IntPolynomial(half + half[:degree + 1 - slots][::-1]).exact_div(index.group_order)


def plex_polynomial(p: int, n: int) -> IntPolynomial:
    """Counting polynomial for n-plexes on p points, by number of n-simplexes.

    For p < n + 1 there are no (n+1)-subsets at all, so the only n-plex is
    the empty one and the polynomial is the constant 1.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    if p < n + 1:
        return ONE
    return substitute(cycle_index_subset_action(p, n + 1))


def plex_count(p: int, n: int) -> int:
    """Total number of n-plexes on p points.

    Each cycle of the permutation induced on (n+1)-subsets is either wholly
    in an n-plex or wholly out, so a permutation fixes 2**c n-plexes, c its
    number of induced cycles, and by Burnside's lemma the total is
    (1/p!) sum_j |C_j| * 2**c(j) over the partitions j of p, |C_j| the size
    of the conjugacy class: p! / prod_k k**m_k * m_k! for multiplicities m_k,
    as partitions.permutation_count has it, but with p! computed once and
    each factor k**m * m! once per (k, m) pair, for this call only.  c(j)
    comes from the fixed (n+1)-subset counts of the powers of j (see
    cycle_index._cycle_count), so no induced cycle type or cycle index is
    built; one cycle_index._PowerTables, which packs every power's profile
    index into one int per partition, serves all the partitions and lives
    for this call only.  The total must agree with plex_polynomial(p, n) at
    x = 1, and a remainder in the division by p! raises ArithmeticError.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    if p < n + 1:
        return 1
    tables = _PowerTables(p, n + 1)
    group_order = factorial(p)
    centralizers: dict[tuple[int, int], int] = {}
    doubled = 0
    for base in partitions_of(p):
        centralizer = 1
        for part in base:
            factor = centralizers.get(part)
            if factor is None:
                size, mult = part
                factor = centralizers[part] = size**mult * factorial(mult)
            centralizer *= factor
        doubled += group_order // centralizer << _cycle_count(base, tables)
    quotient, remainder = divmod(doubled, group_order)
    if remainder:
        raise ArithmeticError(
            f"orbit total {doubled} is not divisible by group order {group_order}")
    return quotient
