"""Polynomial arithmetic, substitution, and counting results."""

from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plexcount.counting import (ONE, ONE_PLUS_X, IntPolynomial, plex_count,
                                plex_polynomial, substitute)
from plexcount.cycle_index import cycle_index_subset_action

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
    assert f.coefficient(0) == 1
    assert f.coefficient(1) == 0
    assert f.coefficient(2) == 3
    assert f.coefficient(99) == 0
    assert f.coefficient_sum() == 4
    assert IntPolynomial().degree == -1
    assert not IntPolynomial()
    assert IntPolynomial((5,))


def test_polynomial_add_and_mul():
    f = IntPolynomial((1, 2))
    g = IntPolynomial((3, 0, 1))
    assert (f + g).coeffs == (4, 2, 1)
    assert (f * g).coeffs == (3, 6, 1, 2)
    assert (f + IntPolynomial((-1, -2))).coeffs == ()
    assert (f * IntPolynomial()).coeffs == ()


def test_polynomial_pow():
    assert (ONE_PLUS_X ** 0) == ONE
    assert (ONE_PLUS_X ** 4).coeffs == (1, 4, 6, 4, 1)
    assert (ONE_PLUS_X ** 10).coeffs == tuple(comb(10, k) for k in range(11))
    with pytest.raises(ValueError):
        ONE_PLUS_X ** -1


def _convolve(a, b):
    """Schoolbook product of coefficient sequences: the reference for __mul__."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for k, d in enumerate(b):
            out[i + k] += c * d
    return IntPolynomial(out)


def _power(a, exponent):
    result = (1,)
    for _ in range(exponent):
        result = _convolve(result, a).coeffs
    return IntPolynomial(result)


# zeros, small values and values up to a few hundred bits, mixed within one
# polynomial; all-ones values fill their bit width, which tests the slot bound
COEFFS = st.integers(1, 400).flatmap(lambda bits: st.lists(
    st.one_of(st.just(0), st.integers(0, 9), st.just(2 ** bits - 1),
              st.integers(0, 2 ** bits - 1)),
    max_size=12))


@given(COEFFS, COEFFS)
def test_polynomial_mul_matches_convolution(a, b):
    assert IntPolynomial(a) * IntPolynomial(b) == _convolve(a, b)


@given(COEFFS, st.integers(0, 6))
@example([], 0)
@example([0, 2 ** 200, 0, 7], 0)
def test_polynomial_pow_matches_repeated_convolution(a, exponent):
    assert IntPolynomial(a) ** exponent == _power(a, exponent)


@given(COEFFS, COEFFS, st.data())
def test_polynomial_mul_and_pow_reject_negative_coefficients(a, b, data):
    position = data.draw(st.integers(0, len(a)))
    negative = IntPolynomial(a[:position] + [data.draw(st.integers(-2 ** 300, -1))]
                             + a[position:])
    with pytest.raises(ValueError):
        negative * IntPolynomial(b)
    with pytest.raises(ValueError):
        IntPolynomial(b) * negative
    with pytest.raises(ValueError):
        negative ** data.draw(st.integers(0, 4))


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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p))),
       st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=4))
def test_substitute_matches_term_by_term_reference(pr, figure):
    index = cycle_index_subset_action(*pr)
    assert substitute(index, IntPolynomial(figure)) == _naive_substitute(index, figure)


def test_polynomial_scale_and_stretch():
    f = IntPolynomial((1, 2, 1))
    assert f.scale(3).coeffs == (3, 6, 3)
    assert f.scale(0).coeffs == ()
    assert f.stretch(1) == f
    assert f.stretch(3).coeffs == (1, 0, 0, 2, 0, 0, 1)
    with pytest.raises(ValueError):
        f.stretch(0)


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
    assert IntPolynomial((1, 1)) == ONE_PLUS_X
    assert len({IntPolynomial((1, 1)), ONE_PLUS_X, ONE}) == 2


def test_substitute_examples():
    assert substitute(cycle_index_subset_action(2, 2), ONE_PLUS_X) == ONE_PLUS_X
    assert substitute(cycle_index_subset_action(3, 2), ONE_PLUS_X).coeffs == (1, 1, 1, 1)
    assert substitute(cycle_index_subset_action(4, 2),
                      ONE_PLUS_X).coeffs == (1, 1, 2, 3, 2, 1, 1)


def test_substitute_constant_one_normalizes():
    for p in range(1, 11):
        for r in range(1, p + 1):
            assert substitute(cycle_index_subset_action(p, r), ONE) == ONE


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
            assert poly.coefficient(0) == 1
            assert poly.coefficient(poly.degree) == 1
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
    for p in range(1, 10):
        for n in range(1, 4):
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
