"""Polynomial arithmetic, substitution, and counting results."""

from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plexcount import counting
from plexcount.counting import ONE, IntPolynomial, plex_count, plex_polynomial, substitute
from plexcount.cycle_index import CycleIndex, cycle_index_subset_action
from plexcount.partitions import Partition, permutation_count

# totals for 1 <= p <= 9, 1 <= n <= 3, frozen reference values
KNOWN_COUNTS = {
    (1, 1): 1, (1, 2): 1, (1, 3): 1,
    (2, 1): 2, (2, 2): 1, (2, 3): 1,
    (3, 1): 4, (3, 2): 2, (3, 3): 1,
    (4, 1): 11, (4, 2): 5, (4, 3): 2,
    (5, 1): 34, (5, 2): 34, (5, 3): 6,
    (6, 1): 156, (6, 2): 2136, (6, 3): 156,
    (7, 1): 1044, (7, 2): 7013320, (7, 3): 7013320,
    (8, 1): 12346, (8, 2): 1788782616656, (8, 3): 29281354514767168,
    (9, 1): 274668, (9, 2): 53304527811667897248,
    (9, 3): 234431745534048922731115555415680,
}


def test_polynomial_trailing_zeros_stripped():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == ()
    assert IntPolynomial().coeffs == ()


def test_polynomial_degree_and_coefficients():
    f = IntPolynomial((1, 0, 3))
    assert f.degree == 2
    assert f.coeffs[0] == 1
    assert f.coeffs[1] == 0
    assert f.coeffs[2] == 3
    assert f.coefficient_sum() == 4
    assert IntPolynomial().degree == -1
    assert not IntPolynomial()
    assert IntPolynomial((5,))


def test_polynomial_mul():
    f = IntPolynomial((1, 2))
    g = IntPolynomial((3, 0, 1))
    assert (f * g).coeffs == (3, 6, 1, 2)
    assert (f * IntPolynomial()).coeffs == ()


def _convolve(a, b):
    """Schoolbook product of coefficient sequences: the reference for __mul__."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for k, d in enumerate(b):
            out[i + k] += c * d
    return IntPolynomial(out)


# zeros, small values and values up to a few hundred bits, mixed within one
# polynomial; all-ones values fill their bit width, which tests the slot bound
COEFFS = st.integers(1, 400).flatmap(lambda bits: st.lists(
    st.one_of(st.just(0), st.integers(0, 9), st.just(2 ** bits - 1),
              st.integers(0, 2 ** bits - 1)),
    max_size=12))


@given(COEFFS, COEFFS)
# the middle coefficient, 2 * 255 * 255, needs a third byte: a slot width
# taken from max(a) * max(b) alone would let it carry into the next slot
@example([255, 255], [255, 255])
def test_polynomial_mul_matches_convolution(a, b):
    assert IntPolynomial(a) * IntPolynomial(b) == _convolve(a, b)


@given(COEFFS, COEFFS, st.data())
def test_polynomial_mul_rejects_negative_coefficients(a, b, data):
    position = data.draw(st.integers(0, len(a)))
    negative = IntPolynomial(a[:position] + [data.draw(st.integers(-2 ** 300, -1))]
                             + a[position:])
    with pytest.raises(ValueError):
        negative * IntPolynomial(b)
    with pytest.raises(ValueError):
        IntPolynomial(b) * negative


def _naive_substitute(index, figure):
    total = []
    for cycle_type, weight in index.terms.items():
        term = (1,)
        for size, mult in cycle_type:
            spread = [0] * (len(figure) * size)
            spread[::size] = figure
            for _ in range(mult):
                term = _convolve(term, spread).coeffs
        total += [0] * (len(term) - len(total))
        for exponent, c in enumerate(term):
            total[exponent] += weight * c
    assert all(c % index.group_order == 0 for c in total)
    return IntPolynomial(c // index.group_order for c in total)


def test_substitute_matches_term_by_term_reference():
    # C(p, r) points take both parities, so the mirrored upper half has the
    # same length as the lower one or one slot less
    parities = set()
    for p in range(1, 8):
        for r in range(1, p + 1):
            index = cycle_index_subset_action(p, r)
            parities.add(index.ambient_points % 2)
            assert substitute(index) == _naive_substitute(index, (1, 1))
    assert parities == {0, 1}
    # no points at all: the one term is the empty product
    assert substitute(CycleIndex({Partition(()): 1}, 1, 0)) == ONE


def test_inexact_division_raises(monkeypatch):
    # weights sum to the group order 3, but the weighted totals are not
    # multiples of it: 2 * (1+x)^2 + (1+x^2) = 3 + 4x + 3x^2
    bad = CycleIndex({Partition({1: 2}): 2, Partition({2: 1}): 1}, 3, 2)
    monkeypatch.setattr(counting, "cycle_index_subset_action", lambda p, r: bad)
    with pytest.raises(ArithmeticError):
        plex_polynomial(2, 1)
    with pytest.raises(ArithmeticError):
        substitute(bad)
    # plex_count(3, 1) sums 2 * 2^1 + 3 * 2^2 + 1 * 2^3 = 24 over the classes
    # {3: 1}, {1: 1, 2: 1} and {1: 3}; one identity too many makes it 32,
    # not a multiple of 3! = 6
    monkeypatch.setattr(counting, "permutation_count",
                        lambda j: permutation_count(j) + (j == Partition({1: 3})))
    with pytest.raises(ArithmeticError, match="orbit total 32 is not divisible by group order 6"):
        plex_count(3, 1)


# Schwartz-Zippel: a polynomial of degree D that is wrong in any coefficient
# agrees with the right one at no more than D of the q points mod q
MODULUS = 2 ** 61 - 1
POINTS = (3, 1 << 40 | 1, 1234567890123456789)


@pytest.mark.parametrize("p, n", [(11, 5), (12, 3), (11, 4), (18, 1), (14, 3), (22, 1)])
def test_plex_polynomial_agrees_with_cycle_index_at_points_mod_q(p, n):
    index = cycle_index_subset_action(p, n + 1)
    coeffs = plex_polynomial(p, n).coeffs
    inverse_order = pow(index.group_order, -1, MODULUS)
    for x0 in POINTS:
        left = 0
        for c in reversed(coeffs):
            left = (left * x0 + c) % MODULUS
        right = 0
        for cycle_type, weight in index.terms.items():
            term = weight
            for size, mult in cycle_type:
                term = term * pow(1 + pow(x0, size, MODULUS), mult, MODULUS) % MODULUS
            right = (right + term) % MODULUS
        assert left == right * inverse_order % MODULUS


def test_polynomial_exact_div():
    assert IntPolynomial((2, 4, 6)).exact_div(2).coeffs == (1, 2, 3)
    with pytest.raises(ArithmeticError):
        IntPolynomial((2, 3)).exact_div(2)


def test_polynomial_evaluation():
    f = IntPolynomial((1, 1, 2, 3, 2, 1, 1))
    assert f(1) == 11
    assert f(0) == 1
    assert f(2) == 1 + 2 + 8 + 24 + 32 + 32 + 64


def test_polynomial_equality_hash():
    assert IntPolynomial((1, 1)) == IntPolynomial((1, 1, 0))
    assert len({IntPolynomial((1, 1)), IntPolynomial((1, 1, 0)), ONE}) == 2


def test_substitute_examples():
    assert substitute(cycle_index_subset_action(2, 2)).coeffs == (1, 1)
    assert substitute(cycle_index_subset_action(3, 2)).coeffs == (1, 1, 1, 1)
    assert substitute(cycle_index_subset_action(4, 2)).coeffs == (1, 1, 2, 3, 2, 1, 1)


def test_plex_polynomial_examples():
    assert plex_polynomial(4, 1).coeffs == (1, 1, 2, 3, 2, 1, 1)
    assert plex_polynomial(5, 2).coefficient_sum() == 34
    assert plex_polynomial(2, 3) == ONE


def test_plex_polynomial_shape():
    for p in range(1, 10):
        for n in range(1, 4):
            poly = plex_polynomial(p, n)
            if p < n + 1:
                assert poly == ONE
                continue
            assert poly.degree == comb(p, n + 1)
            assert poly.coeffs[0] == 1
            assert poly.coeffs[poly.degree] == 1
            assert all(c >= 0 for c in poly.coeffs)


def test_plex_polynomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        plex_polynomial(0, 1)
    with pytest.raises(ValueError):
        plex_polynomial(3, 0)
    with pytest.raises(ValueError):
        plex_count(0, 1)
    with pytest.raises(ValueError):
        plex_count(3, 0)


def test_plex_count_known_values():
    for (p, n), expected in KNOWN_COUNTS.items():
        assert plex_count(p, n) == expected


def test_plex_count_coincidence_7():
    assert plex_count(7, 2) == plex_count(7, 3) == 7013320


def test_plex_count_equals_coefficient_sum():
    # plex_count's Burnside cycle counts against substitution into the cycle index
    cases = [(p, n) for p in range(1, 10) for n in range(1, 4)]
    for p, n in cases + [(11, 5), (12, 3), (11, 4), (18, 1)]:
        assert plex_count(p, n) == plex_polynomial(p, n).coefficient_sum()


def test_plex_polynomial_palindromic():
    # complementing the chosen subsets is an equivariant involution
    for p in range(1, 10):
        for n in range(1, 4):
            coeffs = plex_polynomial(p, n).coeffs
            assert coeffs == coeffs[::-1]


def test_plex_count_duality():
    for p in range(1, 10):
        for n in range(1, 4):
            mirror = p - n - 2
            if mirror >= 1:
                assert plex_count(p, n) == plex_count(p, mirror)


def test_graph_count_column():
    assert tuple(plex_count(p, 1) for p in range(1, 10)) == (
        1, 2, 4, 11, 34, 156, 1044, 12346, 274668)
