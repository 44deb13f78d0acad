"""Counting polynomials for n-plexes via substitution into cycle indices.

An n-plex on p points is determined by its set of n-simplexes, i.e. by a set
of (n+1)-element subsets, so counting n-plexes up to isomorphism is counting
orbits of S_p on those subset families.  Substituting 1 + x into the cycle
index of the action on (n+1)-subsets yields the counting polynomial whose
x^k coefficient is the number of n-plexes with exactly k n-simplexes.
"""

from __future__ import annotations

from typing import Iterable

from .cycle_index import CycleIndex, cycle_index_subset_action


class IntPolynomial:
    """Dense univariate polynomial with exact (unbounded) integer coefficients.

    Stored as a tuple of coefficients indexed by exponent, with no trailing
    zeros; the zero polynomial is the empty tuple.  Immutable and hashable.

    Multiply and power use Kronecker substitution: each operand is packed
    into one big integer with every coefficient in a fixed-width byte slot,
    so a product is a single big-integer multiply (or power) followed by
    unpacking.  Slot widths come from a proven bound on the result's largest
    coefficient, which holds only for nonnegative coefficients; both
    operations raise ValueError on a negative one.
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

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def coefficient_sum(self) -> int:
        """Sum of all coefficients, i.e. the value at x = 1."""
        return sum(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        _require_nonnegative(a)
        _require_nonnegative(b)
        if not a or not b:
            return IntPolynomial()
        # every product coefficient is a sum of at most min(len) terms,
        # each at most max(a) * max(b)
        bits = max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()
        width = (bits + 7) // 8
        return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1)

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        a = self.coeffs
        _require_nonnegative(a)
        if exponent == 0:
            return IntPolynomial((1,))
        if not a:
            return IntPolynomial()
        # with nonnegative coefficients none exceeds the value at x = 1
        width = ((sum(a) ** exponent).bit_length() + 7) // 8
        return _unpack(_pack(a, width) ** exponent, width, (len(a) - 1) * exponent + 1)

    def scale(self, factor: int) -> "IntPolynomial":
        return IntPolynomial(c * factor for c in self.coeffs)

    def stretch(self, step: int) -> "IntPolynomial":
        """Substitute x**step for x (spreads coefficients, no evaluation)."""
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        out = [0] * (len(self.coeffs) * step)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return IntPolynomial(out)

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


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """Kronecker substitution: coefficient i fills bytes [i*width, (i+1)*width)."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _unpack(packed: int, width: int, length: int) -> IntPolynomial:
    """Inverse of _pack for ``length`` slots; exact when no slot overflowed."""
    data = packed.to_bytes(width * length, "little")
    return IntPolynomial([int.from_bytes(data[i:i + width], "little")
                          for i in range(0, len(data), width)])


ONE = IntPolynomial((1,))
ONE_PLUS_X = IntPolynomial((1, 1))


def substitute(index: CycleIndex, figure: IntPolynomial) -> IntPolynomial:
    """Substitute figure(x^k) for the k-th cycle-index variable and average.

    Each term with cycle type of multiplicities m_k and weight w contributes
    w * prod_k figure(x^k)**m_k; the sum over terms is divided coefficient by
    coefficient by the group order.  For a genuine cycle index and an integer
    figure polynomial that division is exact; a remainder is an internal
    error and raises ArithmeticError.
    """
    total: list[int] = []
    for cycle_type, weight in index.terms.items():
        term = ONE
        for size, mult in cycle_type:
            # powering before spreading keeps the packed operand short
            term = term * (figure ** mult).stretch(size)
        if len(total) < len(term.coeffs):
            total.extend([0] * (len(term.coeffs) - len(total)))
        for exponent, c in enumerate(term.coeffs):
            total[exponent] += weight * c
    return IntPolynomial(total).exact_div(index.group_order)


def plex_polynomial(p: int, n: int) -> IntPolynomial:
    """Counting polynomial for n-plexes on p points, by number of n-simplexes.

    For p < n + 1 there are no (n+1)-subsets at all, so the only n-plex is
    the empty one and the polynomial is the constant 1.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    if p < n + 1:
        return ONE
    return substitute(cycle_index_subset_action(p, n + 1), ONE_PLUS_X)


def plex_count(p: int, n: int) -> int:
    """Total number of n-plexes on p points.

    Computed by putting 2 straight into every cycle-index variable (each
    cycle of the induced permutation is either wholly in or wholly out),
    which must agree with plex_polynomial(p, n) evaluated at x = 1.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    if p < n + 1:
        return 1
    index = cycle_index_subset_action(p, n + 1)
    doubled = sum(weight * 2 ** cycle_type.num_parts()
                  for cycle_type, weight in index.terms.items())
    quotient, remainder = divmod(doubled, index.group_order)
    if remainder:
        raise ArithmeticError(
            f"orbit total {doubled} is not divisible by group order {index.group_order}")
    return quotient
