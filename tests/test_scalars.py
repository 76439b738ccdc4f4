"""Ring axioms, literal grammar, and root handling of the scalar type."""

import bisect
import math
import os
import pickle
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import ahtorsion
from ahtorsion.scalars import (
    MAX_EXPONENT,
    MAX_EXTENSION,
    Accumulator,
    ExtensionMismatch,
    ONE,
    Scalar,
    ScalarError,
    ZERO,
    constant_sign,
    format_scalar,
    is_square_free,
    parse_scalar,
    rational_roots,
    scalar_sqrt,
    _EMPTY,
    _canonical,
    _negated,
    _rational_roots_of,
)

PARAMS = ("p", "q", "s")  # three parameters; r is the grammar's sqrt(d)


fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


@st.composite
def scalars(draw, d=3, params=PARAMS):
    s = Scalar()
    for _ in range(draw(st.integers(0, 4))):
        term = Scalar.rational(draw(fractions))
        if draw(st.booleans()):
            term = term * Scalar.root(d)
        for name in params:
            for _ in range(draw(st.integers(0, 2))):
                term = term * Scalar.parameter(name)
        s = s + term
    return s


class TestRingAxioms:
    @given(scalars(), scalars(), scalars())
    def test_addition_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(scalars(), scalars(), scalars())
    def test_multiplication_associative_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(scalars())
    def test_units_and_negation(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert (a - a).is_zero()
        assert a + (-a) == ZERO

    @given(scalars())
    def test_division_inverts_constant_multiplication(self, a):
        c = Scalar.rational(Fraction(3, 7)) + Scalar.root(3, Fraction(1, 2))
        assert (a * c).divide_by_constant(c) == a


# -- reference model: a scalar as a dict monomial -> (p, q) of Fractions.  The
# integer representation must agree with it operation by operation, including
# the canonical ``terms`` view.

MONOMIALS = [(), (("q", 1),), (("q", 2),), (("p", 1),), (("p", 1), ("q", 1)),
             (("s", 1),), (("p", 2), ("s", 1)), (("p", 1), ("q", 1), ("s", 3))]


def model_canon(terms):
    return {m: pq for m, pq in terms.items() if pq != (0, 0)}


def model_d(terms, d):
    return d if any(q != 0 for _, q in terms.values()) else 0


def model_add(x, y, sign=1):
    out = dict(x)
    for m, (p, q) in y.items():
        p0, q0 = out.get(m, (Fraction(0), Fraction(0)))
        out[m] = (p0 + sign * p, q0 + sign * q)
    return model_canon(out)


def model_mul(x, y, d):
    out = {}
    for m1, (p1, q1) in x.items():
        for m2, (p2, q2) in y.items():
            m = tuple(sorted((Counter(dict(m1)) + Counter(dict(m2))).items()))
            p0, q0 = out.get(m, (Fraction(0), Fraction(0)))
            out[m] = (p0 + p1 * p2 + d * q1 * q2, q0 + p1 * q2 + q1 * p2)
    return model_canon(out)


def model_inverse(c, d):
    p, q = c.get((), (Fraction(0), Fraction(0)))
    norm = p * p - d * q * q
    return {(): (p / norm, -q / norm)}


@st.composite
def term_dicts(draw, d):
    """(terms, d) with zero pairs allowed; d = 0 forces every q to 0."""
    use_root = d and draw(st.booleans())
    terms = {}
    for mono in draw(st.lists(st.sampled_from(MONOMIALS), max_size=4, unique=True)):
        q = draw(fractions) if use_root else Fraction(0)
        terms[mono] = (draw(fractions), q)
    return terms, (d if use_root else 0)


class TestIntegerRepresentation:
    @given(term_dicts(3), term_dicts(3), term_dicts(3))
    def test_operations_match_fraction_pair_model(self, x, y, c):
        (tx, dx), (ty, dy), (tc, dc) = x, y, c
        a, b = Scalar(tx, d=dx), Scalar(ty, d=dy)
        d = max(dx, dy)
        mx, my = model_canon(tx), model_canon(ty)
        assert dict(a.terms) == mx and a.d == model_d(mx, dx)
        expected = {
            "+": model_add(mx, my),
            "-": model_add(mx, my, -1),
            "*": model_mul(mx, my, d),
        }
        got = {"+": a + b, "-": a - b, "*": a * b}
        for op, want in expected.items():
            assert dict(got[op].terms) == want, op
            assert got[op].d == model_d(want, d), op
            assert got[op] == Scalar(want, d=d) and hash(got[op]) == hash(Scalar(want, d=d))
        divisor = Scalar({(): tc.get((), (Fraction(1), Fraction(0)))}, d=dc)
        if not divisor.is_zero():
            dd = max(dx, dc)
            want = model_mul(mx, model_inverse(dict(divisor.terms), dd), dd)
            quotient = a / divisor
            assert dict(quotient.terms) == want
            assert quotient.d == model_d(want, dd)

    def test_same_value_by_different_routes(self):
        half = Scalar.rational(Fraction(1, 2))
        r = Scalar.root(3)
        routes = [
            half * 2,
            half + half,
            Scalar({(): (Fraction(3, 3), 0)}),
            (r * r) / 3,
            (r + half) - r + half,
            parse_scalar("2/2"),
            ONE.divide_by_constant(ONE),
        ]
        for s in routes:
            assert s.terms == ONE.terms
            assert s == ONE and hash(s) == hash(ONE)
            assert s.d == 0
        assert (r * r).d == 0

    def test_zero_is_equal_whatever_its_extension(self):
        zeros = [
            Scalar.root(3) - Scalar.root(3),
            Scalar.root(5) + Scalar.root(5, -1),
            Scalar({(): (0, 0)}, d=3),
            Scalar.root(3) * ZERO,
            Scalar.parameter("q") - Scalar.parameter("q"),
        ]
        for z in zeros:
            assert z == ZERO and hash(z) == hash(ZERO)
            assert z.is_zero() and not z and z.d == 0
            assert dict(z.terms) == {}

    def test_root_listing_ignores_common_factors(self):
        q = Scalar.parameter("q")
        poly = (q - 2) * (q + Scalar.rational(Fraction(1, 3)))
        for factor in (Scalar.rational(Fraction(7, 5)), Scalar.root(3, 4) + 6):
            assert rational_roots([poly * factor]) == {Fraction(2), Fraction(-1, 3)}

    def test_terms_is_read_only(self):
        s = Scalar.root(3, Fraction(1, 2)) + Scalar.parameter("q")
        with pytest.raises(TypeError):
            s.terms[()] = (Fraction(1), Fraction(0))
        assert s.terms[()] == (Fraction(0), Fraction(1, 2))


class TestBirth:
    """Every Scalar is born in one place and cannot be changed afterwards."""

    def births(self):
        p, r = Scalar.parameter("p"), Scalar.root(3)
        [pm] = p._a  # p's packed monomial
        acc = Accumulator()
        acc.add("sum", p, r)
        acc.add("sum", ONE)
        acc.add("ratio", p, None, 2)
        sums = acc.result(3)
        return {
            "Scalar(...)": Scalar({(("p", 1),): (Fraction(1, 2), 3)}, d=3),
            "rational": Scalar.rational(Fraction(-2, 3)),
            "rational int": Scalar.rational(5),
            "parameter": p,
            "root": r,
            "_canonical": _canonical({0: 2, pm: 0}, {pm: 4}, 6, 3),
            "_negated": _negated(p + r),
            "times_ratio": (p + r).times_ratio(2, 7),
            "one-monomial __mul__": p * r,
            "Accumulator.result": sums["sum"],
            "Accumulator.result ratio": sums["ratio"],
            "parse_scalar": parse_scalar("-1/2 + 1/2*r*q", d=3, parameters=("q",)),
        }

    def test_every_site_gives_an_immutable_scalar(self):
        for site, s in self.births().items():
            assert type(s) is Scalar, site
            assert not hasattr(s, "__dict__"), site
            assert pickle.loads(pickle.dumps(s)) == s, site
            for slot in ("d", "_a", "_b", "_den"):
                before = getattr(s, slot)
                with pytest.raises(AttributeError):
                    setattr(s, slot, before)
                with pytest.raises(AttributeError):
                    delattr(s, slot)
                assert getattr(s, slot) is before, (site, slot)
            with pytest.raises(AttributeError):
                s.extra = 1

    def test_sites_give_canonical_values(self):
        got = {site: format_scalar(s) for site, s in self.births().items()}
        assert got == {
            "Scalar(...)": "1/2*p + 3*r*p",
            "rational": "-2/3",
            "rational int": "5",
            "parameter": "p",
            "root": "r",
            "_canonical": "1/3 + 2/3*r*p",
            "_negated": "-r - p",
            "times_ratio": "2/7*r + 2/7*p",
            "one-monomial __mul__": "r*p",
            "Accumulator.result": "1/3 + 1/3*r*p",
            "Accumulator.result ratio": "2/3*p",
            "parse_scalar": "-1/2 + 1/2*r*q",
        }

    @pytest.mark.parametrize("a, b", [
        ({0: 0}, {}),
        ({0: 0, 1: 0}, _EMPTY),
        ({}, {0: 0}),
        ({}, {0: 0, 1: 0}),
        ({0: 0}, {1: 0}),
        ({0: 0, 1: 0}, {0: 0, 1: 0}),
    ], ids=["rational", "rational, shared empty", "root", "root, two keys",
            "both", "both, two keys"])
    def test_a_cancelled_sum_is_the_zero_object(self, a, b):
        for den, d in ((1, 0), (6, 3)):
            assert _canonical(dict(a), dict(b), den, d) is ZERO
        assert a == {k: 0 for k in a} and b == {k: 0 for k in b}  # not mutated

    def test_a_partial_cancellation_keeps_the_rest(self):
        s = _canonical({0: 0}, {0: 2, 1: 0}, 4, 3)
        assert s == Scalar.root(3, Fraction(1, 2)) and s._b == {0: 1} and s._den == 2


class TestNegation:
    @given(scalars(params=("p", "q")), scalars(params=("p", "q")), st.integers(0, 5))
    def test_agrees_with_a_vanishing_sum(self, x, y, how):
        # y itself, or a value made to be or to miss -x
        y = [y, -x, x, ZERO, -x + Fraction(1, 7), (-x).divide_by_constant(3) * 3][how]
        assert x.is_negation_of(y) == (x + y).is_zero()
        assert y.is_negation_of(x) == x.is_negation_of(y)

    def test_examples(self):
        p, r = Scalar.parameter("p"), Scalar.root(3)
        half, third = Scalar.rational(Fraction(1, 2)), Scalar.rational(Fraction(1, 3))
        cases = [
            (p, p, False),  # equal
            (ZERO, ZERO, True),  # zero is its own negation
            (p, ZERO, False),
            (ZERO, -p, False),
            (half, -half, True),
            (half, -third, False),  # different denominators
            (half * p, -third * p, False),
            (r * p, -r * p, True),  # sqrt(3) parts only
            (r * p, r * p, False),
            (r, Scalar.rational(-1), False),  # same numerator, other part
            (r + p, -r - p, True),
            (r + p, -r + p, False),
            (r + p, -r, False),
        ]
        for x, y, want in cases:
            assert x.is_negation_of(y) is want, (x, y)
            assert (x + y).is_zero() is want, (x, y)


def _odd_primes(limit: int) -> list:
    sieve = bytearray([1]) * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(3, limit + 1, 2) if sieve[p]]


ODD_PRIME_SQUARES = [p * p for p in _odd_primes(math.isqrt(MAX_EXTENSION))]


def square_free_by_trial_division(d: int) -> bool:
    """The former rule: neither 4 nor any odd k^2 with k <= sqrt(d) divides d.
    k runs over the odd primes only, as an odd composite's square divides d
    only where a prime's square does."""
    if d < 0:
        return False
    if d in (0, 1):
        return d == 0
    squares = ODD_PRIME_SQUARES[: bisect.bisect_right(ODD_PRIME_SQUARES, d)]
    return d % 4 != 0 and all(map(d.__mod__, squares))


class TestExtension:
    def test_root_squares_to_radicand(self):
        r = Scalar.root(5)
        assert r * r == Scalar.rational(5)

    def test_mixed_extensions_rejected(self):
        with pytest.raises(ExtensionMismatch):
            Scalar.root(2) + Scalar.root(3)

    def test_non_square_free_rejected(self):
        with pytest.raises(ScalarError):
            Scalar.root(12)

    def test_extension_at_the_bound_is_refused_promptly(self):
        # trial division is bounded: an 18-digit radicand is refused at once
        start = time.perf_counter()
        with pytest.raises(ScalarError, match=r"extension 1000000000000000003 is not below 2\^40"):
            Scalar.root(1000000000000000003)
        with pytest.raises(ScalarError):
            Scalar.root(MAX_EXTENSION)
        assert Scalar.root(MAX_EXTENSION - 2).d == MAX_EXTENSION - 2  # square-free
        assert time.perf_counter() - start < 10

    def test_square_free_agrees_with_trial_division_to_the_square_root(self):
        rng = random.Random(40)
        primes = (1048573, 1000003, 999983)
        inputs = [*range(-3, 20000), *(rng.randrange(MAX_EXTENSION) for _ in range(300)),
                  *primes, *(p * p for p in primes), *(2 * p for p in primes)]
        for d in inputs:
            assert is_square_free(d) is square_free_by_trial_division(d), d

    def test_pure_rational_forgets_extension(self):
        r = Scalar.root(3)
        assert (r * r).d == 0
        assert r * r + Scalar.root(5) == Scalar.rational(3) + Scalar.root(5)


@st.composite
def literals(draw, d=3, params=PARAMS):
    """A literal drawn term by term from the grammar, with random whitespace,
    and the Scalar its factors multiply and its terms add up to."""
    def ws():
        return draw(st.sampled_from(["", "", " ", "  ", "\t"]))

    text, value = ws(), Scalar()
    for k in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["+", "-"] if k else ["", "+", "-"]))
        term, factors = Scalar.rational(-1 if sign == "-" else 1), []
        for kind in draw(st.lists(st.sampled_from(["rational", "parenthesised", "parameter"]),
                                  min_size=1, max_size=4)):
            if kind == "parameter":
                name, e = draw(st.sampled_from(params)), draw(st.integers(1, 3))
                spelt_out = e > 1 or draw(st.booleans())
                factors.append(name + (f"{ws()}^{ws()}{e}" if spelt_out else ""))
                for _ in range(e):
                    term = term * Scalar.parameter(name)
                continue
            c = draw(fractions)
            body = str(abs(c.numerator))
            if c.denominator > 1 or draw(st.booleans()):
                body += f"{ws()}/{ws()}{c.denominator}"
            if kind == "parenthesised" or c < 0:
                sign_in = "-" if c < 0 else draw(st.sampled_from(["", "+"]))
                body = f"({ws()}{sign_in}{ws()}{body}{ws()})"
            factors.append(body)
            term = term * Scalar.rational(c)
        if draw(st.booleans()):
            factors.insert(draw(st.integers(0, len(factors))), "r")
            term = term * Scalar.root(d)
        text += (f"{sign}{ws()}" if sign else "") + f"{ws()}*{ws()}".join(factors) + ws()
        value = value + term
    return text, value


class TestLiteralGrammar:
    @given(literals())
    def test_literal_denotes_the_arithmetic_of_its_factors(self, drawn):
        text, value = drawn
        assert parse_scalar(text, d=3, parameters=PARAMS) == value

    @given(literals(), st.data())
    def test_one_character_mutation_parses_or_is_a_scalar_error(self, drawn, data):
        text = drawn[0]
        pos = data.draw(st.integers(0, len(text)))
        char = data.draw(st.sampled_from("0123456789rpqx_()+-*/^ .$\t"))
        edit = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        mutant = text[:pos] + ("" if edit == "delete" else char) + text[pos + (edit != "insert"):]
        try:
            parse_scalar(mutant, d=3, parameters=PARAMS)
        except ScalarError:
            pass

    def test_nested_parentheses_are_not_a_factor(self):
        for lit in ("((1))", "(-(-1))", "(" * 3000 + "1" + ")" * 3000):
            with pytest.raises(ScalarError, match="only a signed rational may stand in parentheses"):
                parse_scalar(lit)

    def test_whitespace_in_parentheses_is_read_in_linear_time(self):
        start = time.perf_counter()
        with pytest.raises(ScalarError, match="only a signed rational may stand in parentheses"):
            parse_scalar("(" + " " * 10 ** 5 + "q)", parameters=("q",))
        assert time.perf_counter() - start < 1

    def test_signs_stand_at_the_start_and_between_terms(self):
        assert parse_scalar("+1") == ONE
        assert parse_scalar("- 1 - 1") == Scalar.rational(-2)
        for lit in ("1 + -2", "--1", "2*-1", "*1", "1 *", "1 2"):
            with pytest.raises(ScalarError):
                parse_scalar(lit)

    @given(scalars())
    def test_format_parse_round_trip(self, s):
        assert parse_scalar(format_scalar(s), d=3, parameters=PARAMS) == s

    def test_examples(self):
        q = Scalar.parameter("q")
        assert parse_scalar("-1/2 + 1/2*r", d=3) == Scalar.rational(
            Fraction(-1, 2)
        ) + Scalar.root(3, Fraction(1, 2))
        assert parse_scalar("3/4*q^2", parameters=("q",)) == Scalar.rational(
            Fraction(3, 4)
        ) * q * q
        assert parse_scalar("-q", parameters=("q",)) == -q

    def test_rejections(self):
        with pytest.raises(ScalarError):
            parse_scalar("r")  # no extension declared
        with pytest.raises(ScalarError):
            parse_scalar("x", parameters=("q",))  # undeclared parameter
        with pytest.raises(ScalarError):
            parse_scalar("1 +")
        with pytest.raises(ScalarError):
            parse_scalar("1.5")

    def test_readme_literals_parse(self):
        # the backticked literals of the README's sentence on the grammar
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = text.index("Scalar literals use a small grammar:")
        literals = re.findall(r"`([^`]*)`", text[start : text.index(" where", start)])
        assert literals == ["-5/2 - 1/2*q^2", "(-1/2)*r*q"]
        for lit in literals:
            parse_scalar(lit, d=3, parameters=("q",))
        assert parse_scalar("(-1/2)*r*q", d=3, parameters=("q",)) == (
            Scalar.root(3, Fraction(-1, 2)) * Scalar.parameter("q"))

    def test_parentheses_hold_only_a_signed_rational(self):
        assert parse_scalar("2*(-3/4)") == Scalar.rational(Fraction(-3, 2))
        only = "only a signed rational may stand in parentheses"
        for lit in ("2*(1/2*r)", "(1/2 + 1)", "(-1)*(2 q)"):
            with pytest.raises(ScalarError, match=only):
                parse_scalar(lit, d=3, parameters=("q",))
        with pytest.raises(ScalarError, match="unbalanced parenthesis"):
            parse_scalar("2*(1/2", d=3)


class TestRoots:
    def test_scalar_sqrt_in_extension(self):
        s = Scalar.rational(Fraction(3, 4))
        root = scalar_sqrt(s, ambient_d=3)
        assert root is not None and root * root == s

    def test_scalar_sqrt_missing(self):
        assert scalar_sqrt(Scalar.rational(2)) is None

    @pytest.mark.parametrize("text, d, root", [
        ("4 - 2*r", 3, "-1 + r"),
        ("7 - 4*r", 3, "2 - r"),
        ("3/4", 3, "1/2*r"),
        ("2", 0, None),
        ("-4 + 2*r", 3, None),
        ("2", 3, None),  # sqrt(2) is not in Q(sqrt(3))
        ("1 + r", 3, None),  # positive, of norm -2
    ])
    def test_scalar_sqrt_is_the_nonnegative_root(self, text, d, root):
        got = scalar_sqrt(parse_scalar(text, d=d), ambient_d=d)
        assert (None if got is None else format_scalar(got)) == root

    def test_scalar_sqrt_of_seeded_squares_is_nonnegative(self):
        def nonnegative(z: Scalar) -> bool:  # x + y sqrt(d) >= 0, exactly
            x, y = z.constant_pair()
            if x >= 0 and y >= 0:
                return True
            if x <= 0 and y <= 0:
                return False
            return (x * x > z.d * y * y) == (x > 0)

        rng = random.Random(7)
        for _ in range(400):
            d = rng.choice([2, 3, 5, 7])
            x, y = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
            z = Scalar({(): (x, y)}, d=d)
            root = scalar_sqrt(z * z, ambient_d=d)
            assert root in (z, -z) and nonnegative(root), (z, root)
            assert constant_sign(z) == (1 if nonnegative(z) and z else -1 if z else 0)

    @staticmethod
    def exact_sign(x: Fraction, y: Fraction, d: int) -> int:
        """The sign of x + y*sqrt(d), from x against -y*sqrt(d) by their squares."""
        u, v = x, -y  # x + y*sqrt(d) > 0 exactly when u > v*sqrt(d)
        if u >= 0 >= v or u <= 0 <= v:
            return (u > 0) - (u < 0) or (v < 0) - (v > 0)
        return 1 if (u * u > d * v * v) == (u > 0) else -1

    @given(fractions, fractions, st.sampled_from([0, 2, 3, 5]))
    def test_scalar_sqrt_of_a_square_is_its_absolute_value(self, x, y, d):
        z = Scalar({(): (x, y if d else 0)}, d=d)
        root = scalar_sqrt(z * z, ambient_d=d)
        assert root == (-z if constant_sign(z) < 0 else z)

    @given(fractions, fractions, st.sampled_from([0, 2, 3, 5]))
    def test_constant_sign_is_the_exact_sign(self, x, y, d):
        y = y if d else Fraction(0)
        assert constant_sign(Scalar({(): (x, y)}, d=d)) == self.exact_sign(x, y, d)

    def test_rational_roots_of_one_entry(self):
        q = Scalar.parameter("q")
        poly = (q - Scalar.rational(2)) * (q + Scalar.rational(Fraction(1, 3)))
        assert rational_roots([poly]) == {Fraction(2), Fraction(-1, 3)}
        assert rational_roots([ZERO]) is None
        assert rational_roots([]) is None


class TestPackedMonomials:
    def test_exponent_overflow_in_a_product_raises(self):
        q, s = Scalar.parameter("q"), Scalar.parameter("s")
        top = Scalar({(("q", MAX_EXPONENT),): (1, 0)})
        half = Scalar({(("q", 1 << 14),): (1, 0)})
        assert format_scalar(top * s) == f"q^{MAX_EXPONENT}*s"
        assert half * Scalar({(("q", (1 << 14) - 1),): (1, 0)}) == top
        for x, y in ((top, q), (half, half), (top + 1, q + s), (Scalar.root(3) * top, q)):
            with pytest.raises(ScalarError):
                x * y
            acc = Accumulator()
            with pytest.raises(ScalarError):
                acc.add("k", x, y)
        # an operand that overflows in one field leaves the others alone
        assert (top * s * s).parameters() == {"q", "s"}

    def test_literal_exponent_bound(self):
        top = parse_scalar(f"q^{MAX_EXPONENT}", parameters=("q",))
        assert dict(top.terms) == {(("q", MAX_EXPONENT),): (1, 0)}
        for text in (f"q^{MAX_EXPONENT + 1}", "q^20000*q^20000", f"2*q^{10 ** 30}"):
            with pytest.raises(ScalarError):
                parse_scalar(text, parameters=("q",))
        with pytest.raises(ScalarError):
            Scalar({(("q", MAX_EXPONENT + 1),): (1, 0)})
        with pytest.raises(ScalarError):
            Scalar({(("q", -1),): (1, 0)})

    def test_public_monomials_are_sorted_and_merged(self):
        x = Scalar({(("s", 1), ("p", 2)): (1, 0), (("p", 2), ("s", 1)): (2, 0), (("q", 0),): (5, 0)})
        assert dict(x.terms) == {(("p", 2), ("s", 1)): (3, 0), (): (5, 0)}
        assert format_scalar(x) == "5 + 3*p^2*s"
        assert x.parameters() == {"p", "s"}

    def test_overlong_number_literal_is_a_scalar_error(self):
        with pytest.raises(ScalarError, match="5001 digits"):
            parse_scalar("1" + "0" * 5000)

    def test_pickle_round_trip_across_processes(self):
        # The child process gives the parameter names their fields in another
        # order, so an unpickled Scalar that kept this process's field numbers
        # would read as a different polynomial there.
        x = parse_scalar("-1/2 + 3*p*q^2 - 1/7*r*s^3 + q", d=3, parameters=PARAMS)
        assert pickle.loads(pickle.dumps(x)) == x
        child = (
            "import pickle, sys\n"
            "from ahtorsion.scalars import Scalar, format_scalar, parse_scalar\n"
            "for name in ('zz', 's', 'q', 'p'):\n"
            "    Scalar.parameter(name)\n"
            "x = pickle.loads(sys.stdin.buffer.read())\n"
            "text = format_scalar(x)\n"
            "assert x == parse_scalar(text, d=3, parameters=('p', 'q', 's')), text\n"
            "assert x * Scalar.parameter('zz') != x * Scalar.parameter('s')\n"
            "sys.stdout.buffer.write(pickle.dumps((text, x * x)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ahtorsion.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(x),
                             capture_output=True, env=env, check=True).stdout
        text, square = pickle.loads(out)
        assert text == format_scalar(x)
        assert square == x * x
        assert pickle.loads(pickle.dumps(ZERO)) is ZERO


coefficients = st.integers(-(1 << 16), 1 << 16)


@st.composite
def affine_entries(draw):
    """Up to four entries (a0 + a1*q) + (b0 + b1*q)*sqrt(3), coefficients up to
    2^16; most parts are zero, constant, or c*(k*q - n) for one shared n/k."""
    n, k = draw(st.integers(-(1 << 8), 1 << 8)), draw(st.integers(1, 1 << 8))
    q = Scalar.parameter("q")

    def part():
        kind = draw(st.sampled_from(["zero", "constant", "shared", "shared", "any"]))
        if kind == "zero":
            return ZERO
        if kind == "constant":
            return Scalar.rational(draw(coefficients.filter(bool)))
        if kind == "shared":
            return Scalar.rational(draw(st.integers(1, 1 << 8))) * (k * q - n)
        return draw(coefficients) + draw(coefficients) * q

    entries = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = part(), part()
        if draw(st.booleans()):
            b = ZERO
        entries.append(a + b * Scalar.root(3))
    return [e for e in entries if e]


class TestRootsFromEntries:
    @settings(max_examples=60, deadline=None)
    @given(affine_entries())
    def test_entries_give_the_roots_of_the_norm(self, entries):
        norm = ZERO
        for e in entries:
            norm = norm + e * e
        if norm.is_zero():
            assert rational_roots(entries) is None
            return
        assert rational_roots(entries) == rational_roots([norm])

    def test_examples(self):
        q = Scalar.parameter("q")
        assert rational_roots([3 * q - 2, 6 * q - 4]) == {Fraction(2, 3)}
        assert rational_roots([3 * q - 2, q]) == set()
        assert rational_roots([q - 1, Scalar.root(3) * (q - 1)]) == {Fraction(1)}
        assert rational_roots([q - 1 + Scalar.root(3)]) == set()  # vanishes at 1 - sqrt(3)
        assert rational_roots([q - 1, ONE]) == set()
        assert rational_roots([q * q - 1]) == {Fraction(1), Fraction(-1)}
        assert rational_roots([q - 1, Scalar.parameter("p")]) is None
        assert rational_roots([ZERO * q]) is None

    def test_mixed_degrees(self):
        q = Scalar.parameter("q")
        assert rational_roots([q - 1, q * q - 1]) == {Fraction(1)}
        assert rational_roots([q * q - 1, q - 1]) == {Fraction(1)}
        assert rational_roots([q * q - 1, q * q * q - 1]) == {Fraction(1)}

    @pytest.fixture
    def no_bisection(self, monkeypatch):
        def refuse(sturm, x):
            raise AssertionError("Sturm bisection")
        monkeypatch.setattr(ahtorsion.scalars, "_variations", refuse)

    def test_candidates_come_from_a_part_of_least_degree(self, no_bisection):
        # the affine part lists the candidates, whatever order the parts come in
        q = Scalar.parameter("q")
        assert rational_roots([q * q - 1, q - 1]) == {Fraction(1)}
        assert rational_roots([q * q * q - 1, ONE, q * q - 1]) == set()
        assert rational_roots([q * q - 1 + Scalar.root(3) * (q - 1)]) == {Fraction(1)}

    def test_a_second_parameter_after_the_candidates_run_out(self):
        # the candidates are gone after ONE, but the entries name p and q
        q, p = Scalar.parameter("q"), Scalar.parameter("p")
        assert rational_roots([q - 1, ONE, p]) is None
        assert rational_roots([q - 1, ONE]) == set()


def trial_division_roots(coeffs: dict):
    """Rational roots of sum(coeffs[e] * x^e) with integer coefficients, by
    trying every p/q with p dividing the constant term and q the leading
    coefficient: the reference for ``_rational_roots_of``, cheap only
    while those two coefficients are small."""
    coeffs = {e: c for e, c in coeffs.items() if c != 0}
    if not coeffs:
        return None
    roots = set()
    low = min(coeffs)
    if low > 0:
        roots.add(Fraction(0))
        coeffs = {e - low: c for e, c in coeffs.items()}
    deg = max(coeffs)
    if deg == 0:
        return roots

    def divisors(m: int):
        out = []
        k = 1
        while k * k <= m:
            if m % k == 0:
                out += [k, m // k]
            k += 1
        return out

    for p in divisors(abs(coeffs[0])):
        for q in divisors(abs(coeffs[deg])):
            for u in (p, -p):
                # q^deg times the value at u/q
                if sum(c * u**e * q ** (deg - e) for e, c in coeffs.items()) == 0:
                    roots.add(Fraction(u, q))
    return roots


def _times(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def root_polynomials(draw):
    """Exponent -> integer coefficient maps, coefficients up to 2^16: random
    ones, or a constant times a power of x and linear and quadratic factors,
    each once or twice."""
    if draw(st.booleans()):
        return dict(enumerate(draw(st.lists(coefficients, min_size=1, max_size=6))))
    p = [draw(st.integers(-6, 6).filter(bool))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            f = [draw(st.integers(-16, 16)), draw(st.integers(1, 16))]
        else:
            f = [draw(st.integers(-6, 6)), draw(st.integers(-6, 6)), draw(st.integers(1, 6))]
        for _ in range(draw(st.integers(1, 2))):
            p = _times(p, f)
    assume(max(map(abs, p)) <= 1 << 16)
    shift = draw(st.integers(0, 2))
    return {e + shift: c for e, c in enumerate(p)}


class TestRationalRoots:
    @settings(max_examples=150, deadline=None)
    @given(root_polynomials())
    def test_agrees_with_trial_division(self, coeffs):
        assert _rational_roots_of(coeffs) == trial_division_roots(coeffs)

    def test_a_large_constant_term_is_no_obstacle(self):
        # trial division would run to the square root of 10^24
        q = Scalar.parameter("q")
        big = Scalar.rational(10**12)
        assert rational_roots([(q * q + big) * (q * q + big)]) == set()
        assert rational_roots([(q * q - big) * (q * q - big)]) == {Fraction(10**6), Fraction(-10**6)}
        assert rational_roots([(3 * q - 10**12) * (q * q + 2)]) == {Fraction(10**12, 3)}

    def test_irrational_and_repeated_roots(self):
        q = Scalar.parameter("q")
        assert rational_roots([q * q - 3]) == set()
        assert rational_roots([(q - Scalar.root(3)) * (q + Scalar.root(3))]) == set()
        assert rational_roots([(q - 1) * (q + Scalar.root(3))]) == {Fraction(1)}
        half = 2 * q - 1
        assert rational_roots([q * q * half * half * half * (q + 5)]) == {
            Fraction(0), Fraction(1, 2), Fraction(-5)}
