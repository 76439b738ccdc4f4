"""The sum-of-products primitive against a plain fold of ``+`` and ``*``.

``Accumulator`` adds raw integer products per output key, each times an
integer factor, and divides each sum by one denominator and normalises it
once.  Canonical form is unique, so every sum must be the very Scalar the
fold ``acc[key] = acc[key] + k * x * y``, divided by the denominator, builds,
down to its two numerator maps, common denominator, extension and hash, and
it must raise ExtensionMismatch on exactly the inputs where the fold does.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ahtorsion.scalars import Accumulator, ExtensionMismatch, Scalar, ZERO

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def scalars(draw, extensions=(3,), params=("p", "q")):
    """Sums of up to three terms c * r^e * monomial, r the sqrt of one extension."""
    d = draw(st.sampled_from(extensions))
    s = ZERO
    for _ in range(draw(st.integers(0, 3))):
        term = Scalar.rational(draw(fractions))
        if draw(st.booleans()):
            term = term * Scalar.root(d)
        for name in params:
            for _ in range(draw(st.integers(0, 2))):
                term = term * Scalar.parameter(name)
        s = s + term
    return s


@st.composite
def term_lists(draw, extensions=(3,)):
    """(key, x, y or None, sign) terms over a few keys; some repeat an earlier
    term with the opposite sign, so that sums cancel to zero."""
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        if terms and draw(st.integers(0, 3)) == 0:
            key, x, y, sign = draw(st.sampled_from(terms))
            terms.append((key, x, y, -sign))
            continue
        key = draw(st.sampled_from([(0,), (1,), (0, 1)]))
        x = draw(scalars(extensions))
        y = draw(st.none() | scalars(extensions))
        terms.append((key, x, y, draw(st.sampled_from([1, -1]))))
    return terms


def fold(terms, den=1):
    acc = {}
    for key, x, y, sign in terms:
        p = x if y is None else x * y
        if sign == -1:
            p = -p
        elif sign != 1:
            p = Scalar.rational(sign) * p
        acc[key] = acc[key] + p if key in acc else p
    inv = Scalar.rational(Fraction(1, den))
    return {key: v * inv for key, v in acc.items() if not v.is_zero()}


def accumulate(terms, den=1):
    acc = Accumulator()
    for key, x, y, sign in terms:
        acc.add(key, x, y, sign)
    return acc.result(den)


@st.composite
def factor_cases(draw, extensions=(3,)):
    """Terms whose factors are +-1, 2, 3 or 6, and two denominators."""
    terms = [(key, x, y, sign * draw(st.sampled_from([1, 2, 3, 6])))
             for key, x, y, sign in draw(term_lists(extensions))]
    return terms, draw(st.integers(1, 12)), draw(st.integers(1, 12))


def assert_identical(got, want):
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        assert (g._a, g._b, g._den, g.d, g.terms) == (w._a, w._b, w._den, w.d, w.terms)
        assert g == w and hash(g) == hash(w)


@settings(max_examples=150, deadline=None)
@given(term_lists())
def test_sums_equal_the_fold(terms):
    assert_identical(accumulate(terms), fold(terms))


@settings(max_examples=150, deadline=None)
@given(term_lists(extensions=(2, 3)))
def test_mixed_extensions_raise_where_the_fold_raises(terms):
    try:
        want = fold(terms)
    except ExtensionMismatch:
        with pytest.raises(ExtensionMismatch):
            accumulate(terms)
    else:
        assert_identical(accumulate(terms), want)


@settings(max_examples=100, deadline=None)
@given(factor_cases())
def test_integer_factors_over_one_denominator_equal_the_fold(case):
    terms, den, later = case
    assert_identical(accumulate(terms, den), fold(terms, den))
    # a result divides its output, not the sums: later terms add to the
    # undivided sums, whichever denominator the next result takes
    half = len(terms) // 2
    acc = Accumulator()
    for key, x, y, sign in terms[:half]:
        acc.add(key, x, y, sign)
    assert_identical(acc.result(den), fold(terms[:half], den))
    for key, x, y, sign in terms[half:]:
        acc.add(key, x, y, sign)
    assert_identical(acc.result(later), fold(terms, later))
    assert_identical(acc.result(), fold(terms))


@settings(max_examples=100, deadline=None)
@given(factor_cases(extensions=(2, 3)))
def test_integer_factors_raise_where_the_fold_raises(case):
    terms, den, _ = case
    try:
        want = fold(terms, den)
    except ExtensionMismatch:
        with pytest.raises(ExtensionMismatch):
            accumulate(terms, den)
    else:
        assert_identical(accumulate(terms, den), want)


def test_examples():
    r3, q = Scalar.root(3), Scalar.parameter("q")
    half = Scalar.rational(Fraction(1, 2))
    third = Scalar.rational(Fraction(1, 3))
    # the sqrt parts cancel, so a later sqrt(2) term is no mismatch
    terms = [("a", r3, None, 1), ("a", r3, half, -1), ("a", half, r3, -1),
             ("a", Scalar.root(2), third, 1)]
    assert_identical(accumulate(terms), fold(terms))
    assert accumulate(terms)["a"] == Scalar.root(2, Fraction(1, 3))
    # (q + r)(q - r) = q^2 - 3 carries no sqrt part either
    terms = [("b", q + r3, q - r3, 1), ("b", Scalar.root(2), None, 1)]
    assert_identical(accumulate(terms), fold(terms))
    # a live sqrt(3) part meets sqrt(2)
    with pytest.raises(ExtensionMismatch):
        accumulate([("c", r3, half, 1), ("c", Scalar.root(2), None, 1)])
    with pytest.raises(ExtensionMismatch):
        accumulate([("c", r3, Scalar.root(2), 1)])
    # sums that cancel are dropped; zero operands add nothing
    assert accumulate([("d", q, third, 1), ("d", third, q, -1), ("e", ZERO, q, 1)]) == {}
    # a factor of 3 over 3 gives the term itself; over 2, half of it
    assert accumulate([("f", q, None, 3)], 3) == {"f": q}
    assert accumulate([("f", q, third, 3), ("f", r3, None, -2)], 2) == {
        "f": (q - 2 * r3) * Scalar.rational(Fraction(1, 2))}
