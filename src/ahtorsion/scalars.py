"""Exact coefficient ring: rationals extended by one square root, with formal parameters.

A Scalar is a polynomial in declared parameters whose coefficients live in
Q(sqrt(d)) for a single square-free d >= 0 (d = 0 means plain rationals).
All arithmetic is exact; equality is decidable by canonical form.

Coefficients are stored as integers over one common denominator, as in
FLINT's ``fmpq_poly``: each monomial maps to a pair (a, b) of integers
meaning (a + b*sqrt(d)) / den, with one positive integer ``den`` shared by
all monomials.  Each ring operation works on the integers and normalises
its result once, so ``Fraction`` objects appear only at the public edges
(``terms``, ``constant_pair``, ``as_fraction`` and the literal grammar).

Sums of many products go through ``Accumulator``: it adds the raw integer
products per monomial over a running common denominator and normalises each
sum once, where a fold of ``+`` and ``*`` normalises after every operation.
The tensor kernels build every output entry this way.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union

Monomial = tuple  # tuple of (name, exponent) pairs, sorted by name, exponent > 0
RatLike = Union[int, Fraction]


class ScalarError(ValueError):
    pass


class ExtensionMismatch(ScalarError):
    pass


def is_square_free(d: int) -> bool:
    if d < 0:
        return False
    if d in (0, 1):
        return d == 0  # d = 1 would be a disguised rational; reject
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _join_d(da: int, db: int) -> int:
    if da == 0:
        return db
    if db == 0:
        return da
    if da != db:
        raise ExtensionMismatch(f"extension mismatch: sqrt({da}) vs sqrt({db})")
    return da


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict = {}
    for name, e in m1:
        exps[name] = exps.get(name, 0) + e
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e != 0))


class Scalar:
    """Element of Q(sqrt(d))[parameters], stored canonically.

    Internally ``_num`` maps a monomial to a pair (a, b) of integers and
    ``_den`` is a positive integer; the coefficient of the monomial is
    (a + b*sqrt(d)) / _den.  The canonical form stores no (0, 0) pair, has
    gcd(_den, every a and b) = 1 (so zero is ``{}`` over 1), and carries
    d = 0 when every b is 0.  A parameter-free scalar has the single key ().

    ``Scalar(terms, d)`` validates its input: ``terms`` maps monomials to
    (p, q) pairs of rationals meaning p + q*sqrt(d).  The ``terms``
    property gives the same read-only view back, with Fractions.
    """

    __slots__ = ("d", "_num", "_den")

    def __new__(cls, terms: Optional[Mapping[Monomial, tuple]] = None, d: int = 0):
        if not is_square_free(d) and d != 0:
            raise ScalarError(f"extension {d} is not square-free")
        pairs: dict = {}
        if terms:
            for mono, (p, q) in terms.items():
                p = Fraction(p)
                q = Fraction(q)
                if d == 0 and q != 0:
                    raise ScalarError("sqrt coefficient present without an extension")
                pairs[tuple(mono)] = (p, q)
        den = math.lcm(*(c.denominator for pq in pairs.values() for c in pq))
        return _canonical(
            {
                m: (p.numerator * (den // p.denominator), q.numerator * (den // q.denominator))
                for m, (p, q) in pairs.items()
            },
            den,
            d,
        )

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def terms(self) -> Mapping[Monomial, tuple]:
        """Read-only view: monomial -> (p, q) Fractions meaning p + q*sqrt(d)."""
        den = self._den
        return MappingProxyType(
            {m: (Fraction(a, den), Fraction(b, den)) for m, (a, b) in self._num.items()}
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value: RatLike) -> "Scalar":
        if type(value) is int:
            return _make({(): (value, 0)}, 1, 0) if value else ZERO
        v = Fraction(value)
        if v == 0:
            return ZERO
        return _make({(): (v.numerator, 0)}, v.denominator, 0)

    @classmethod
    def root(cls, d: int, coeff: RatLike = 1) -> "Scalar":
        c = Fraction(coeff)
        if c == 0:
            return ZERO
        return cls({(): (Fraction(0), c)}, d=d)

    @classmethod
    def parameter(cls, name: str) -> "Scalar":
        return _make({((name, 1),): (1, 0)}, 1, 0)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return self._num.keys() <= {()}

    def is_rational(self) -> bool:
        return self.is_constant() and self.d == 0

    def parameters(self) -> set:
        names = set()
        for mono in self._num:
            for n, _ in mono:
                names.add(n)
        return names

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"not a plain rational: {self}")
        a, _ = self._num.get((), (0, 0))
        return Fraction(a, self._den)

    def constant_pair(self) -> tuple:
        """The (p, q) pair of a parameter-free scalar."""
        if not self.is_constant():
            raise ScalarError(f"not parameter-free: {self}")
        a, b = self._num.get((), (0, 0))
        return Fraction(a, self._den), Fraction(b, self._den)

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar.rational(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        d = self.d if self.d == other.d else _join_d(self.d, other.d)
        return _sum(self, other, 1, d)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _make({m: (-a, -b) for m, (a, b) in self._num.items()}, self._den, self.d)

    def __sub__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return -other
        d = self.d if self.d == other.d else _join_d(self.d, other.d)
        return _sum(self, other, -1, d)

    def __rsub__(self, other) -> "Scalar":
        return Scalar._coerce(other) - self

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self._num, other._num
        if not n1 or not n2:
            return ZERO
        d = self.d if self.d == other.d else _join_d(self.d, other.d)
        return _canonical(_product(n1, n2, d), self._den * other._den, d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.divide_by_constant(other)

    def divide_by_constant(self, c) -> "Scalar":
        c = Scalar._coerce(c)
        if not c.is_constant():
            raise ScalarError("non-constant divisor")
        if c.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        d = _join_d(self.d, c.d)
        # 1 / ((a + b*sqrt(d)) / den) = den * (a - b*sqrt(d)) / (a^2 - d*b^2)
        a, b = c._num[()]
        norm = a * a - d * b * b
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        k = c._den if norm > 0 else -c._den
        return self * _canonical({(): (k * a, -k * b)}, abs(norm), c.d)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.d == other.d and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self.d, self._den, frozenset(self._num.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, bindings: Mapping[str, RatLike]) -> "Scalar":
        missing = self.parameters() - set(bindings)
        if missing:
            raise ScalarError(f"unbound parameters: {sorted(missing)}")
        p = q = Fraction(0)
        for mono, (a, b) in self._num.items():
            factor = Fraction(1)
            for name, e in mono:
                factor *= Fraction(bindings[name]) ** e
            p += a * factor
            q += b * factor
        return Scalar({(): (p / self._den, q / self._den)}, d=self.d)

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


_new_scalar = object.__new__
_set = object.__setattr__


def _make(num: dict, den: int, d: int) -> Scalar:
    """Trusted constructor: ``num`` over ``den`` is already canonical."""
    s = _new_scalar(Scalar)
    _set(s, "_num", num)
    _set(s, "_den", den)
    _set(s, "d", d)
    return s


def _canonical(num: dict, den: int, d: int) -> Scalar:
    """Normalise integer pairs over ``den`` > 0 and wrap them without re-validation.

    Drops (0, 0) pairs, divides by gcd(den, every a and b), and sets d = 0
    when no sqrt coefficient is left.
    """
    out = {}
    g = den
    root = False
    for m, ab in num.items():
        a, b = ab
        if b:
            root = True
        elif not a:
            continue
        out[m] = ab
        if g != 1:
            g = math.gcd(g, a, b)
    if not out:
        return ZERO
    if g != 1:
        den //= g
        out = {m: (a // g, b // g) for m, (a, b) in out.items()}
    return _make(out, den, d if root else 0)


def _product(n1: dict, n2: dict, d: int) -> dict:
    """Raw integer pairs of the product of two numerator maps over Q(sqrt(d))."""
    out: dict = {}
    for m1, (a1, b1) in n1.items():
        for m2, (a2, b2) in n2.items():
            m = m2 if not m1 else m1 if not m2 else _mul_monomials(m1, m2)
            a = a1 * a2 + d * b1 * b2
            b = a1 * b2 + b1 * a2
            x = out.get(m)
            out[m] = (a, b) if x is None else (x[0] + a, x[1] + b)
    return out


def _sum(x: Scalar, y: Scalar, sign: int, d: int) -> Scalar:
    """x + sign*y for nonzero x, y over the joined extension d."""
    dx, dy = x._den, y._den
    if dx == dy:
        out = dict(x._num)
        fy = sign
    else:
        g = math.gcd(dx, dy)
        fx = dy // g
        fy = sign * (dx // g)
        dx *= fx
        out = {m: (a * fx, b * fx) for m, (a, b) in x._num.items()}
    for m, (a, b) in y._num.items():
        z = out.get(m)
        if z is None:
            out[m] = (a * fy, b * fy)
        else:
            out[m] = (z[0] + a * fy, z[1] + b * fy)
    return _canonical(out, dx, d)


ZERO = _make({}, 1, 0)
ONE = Scalar.rational(1)
HALF = Scalar.rational(Fraction(1, 2))


class Accumulator:
    """Sums of Scalars and of products of two Scalars, one sum per key.

    ``add(key, x, y, sign)`` adds sign * x * y (sign * x when y is None) to
    the sum at ``key`` without normalising it: each sum keeps raw integer
    pairs per monomial over a running common denominator, the least common
    multiple of the denominators added.  ``result()`` normalises every sum
    once and returns the nonzero ones.  Canonical form is unique, so each sum
    equals the left-to-right fold of ``+`` and ``*`` over the same terms, and
    mixing two square-root extensions raises ExtensionMismatch exactly where
    that fold would.
    """

    __slots__ = ("_sums",)

    def __init__(self):
        self._sums: dict = {}  # key -> Scalar, or [numerator map, den, d]

    def add(self, key, x: Scalar, y: Optional[Scalar] = None, sign: int = 1) -> None:
        terms = x._num
        if not terms:
            return
        if y is None:
            den, d = x._den, x.d
        else:
            if not y._num:
                return
            d = x.d if x.d == y.d else _join_d(x.d, y.d)
            den = x._den * y._den
            if len(terms) == 1 and len(y._num) == 1:
                [(m1, (a1, b1))] = terms.items()
                [(m2, (a2, b2))] = y._num.items()
                m = m2 if not m1 else m1 if not m2 else _mul_monomials(m1, m2)
                terms = {m: (a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2)}
            else:
                terms = _product(terms, y._num, d)
        s = self._sums.get(key)
        if s is None:
            if sign != 1:
                terms = {m: (-a, -b) for m, (a, b) in terms.items()}
            # a single Scalar is its own normal form until a second term comes
            self._sums[key] = (
                (x if sign == 1 else _make(terms, den, d)) if y is None else [terms, den, d]
            )
            return
        if type(s) is Scalar:
            s = self._sums[key] = [dict(s._num), s._den, s.d]
        num, sden, sd = s
        if d != sd:
            if not sd:
                s[2] = d
            elif d:
                # two extensions meet: only a sum or a term without a sqrt
                # part may take the other's, as in the fold
                if not any(b for _, b in num.values()):
                    s[2] = d
                elif any(b for _, b in terms.values()):
                    _join_d(sd, d)
        if sden == den:
            f = sign
        elif sden % den == 0:
            f = sign * (sden // den)
        else:
            lcm = sden // math.gcd(sden, den) * den
            g = lcm // sden
            for m, (a, b) in num.items():
                num[m] = (a * g, b * g)
            s[1] = lcm
            f = sign * (lcm // den)
        for m, (a, b) in terms.items():
            z = num.get(m)
            num[m] = (a * f, b * f) if z is None else (z[0] + a * f, z[1] + b * f)

    def result(self) -> dict:
        """key -> the normalised sum, for every sum that does not vanish."""
        out = {}
        for key, s in self._sums.items():
            if type(s) is not Scalar:
                s = _canonical(*s)
                if not s._num:
                    continue
            out[key] = s
        return out


def fraction_sqrt(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    n, m = f.numerator, f.denominator
    rn, rm = math.isqrt(n), math.isqrt(m)
    if rn * rn == n and rm * rm == m:
        return Fraction(rn, rm)
    return None


def scalar_sqrt(s: Scalar, ambient_d: int = 0) -> Optional[Scalar]:
    """Square root of a nonnegative parameter-free scalar inside Q(sqrt(d)), or None.

    Solves (x + y*sqrt(d))^2 = p + q*sqrt(d) exactly.  ``ambient_d`` lets a
    plain rational use the extension of the surrounding ring (for instance
    sqrt(3/4) = sqrt(3)/2 when the ring is Q(sqrt(3))).
    """
    if not s.is_constant():
        return None
    if s.is_zero():
        return ZERO
    p, q = s.constant_pair()
    d = s.d if s.d else ambient_d
    if q == 0:
        r = fraction_sqrt(p)
        if r is not None:
            return Scalar.rational(r)
        if d:
            r = fraction_sqrt(p / d)
            if r is not None:
                return Scalar.root(d, r)
        return None
    # x^2 + d y^2 = p, 2xy = q; x^2 is a root of t^2 - p t + d q^2 / 4 = 0
    disc = fraction_sqrt(p * p - d * q * q)
    if disc is None:
        return None
    for t in ((p + disc) / 2, (p - disc) / 2):
        x = fraction_sqrt(t)
        if x is not None and x != 0:
            y = q / (2 * x)
            cand = Scalar({(): (x, y)}, d=d)
            if cand * cand == s and (x > 0 or (x == 0 and y > 0)):
                return cand
            cand = -cand
            if cand * cand == s:
                px, qx = cand.constant_pair()
                if px > 0 or (px == 0 and qx > 0):
                    return cand
    return None


# -- literal grammar ----------------------------------------------------------
#
# scalar  := term (('+' | '-') term)*
# term    := ['-'] factor ('*' factor)*
# factor  := int | int '/' int | '(' coeff ')' | 'r' | name ['^' int]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    toks = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ScalarError(f"bad scalar literal near {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            toks.append(("num", int(m.group("num"))))
        elif m.group("name"):
            toks.append(("name", m.group("name")))
        else:
            toks.append(("op", m.group("op")))
    return toks


def parse_scalar(text: str, d: int = 0, parameters: Iterable[str] = ()) -> Scalar:
    """Parse the literal grammar, e.g. "-1/2 + 1/2*r", "-q", "3/4*q^2".

    ``r`` denotes sqrt(d); parameter names must be declared in ``parameters``.
    """
    params = set(parameters)
    toks = _tokenize(text)
    if not toks:
        raise ScalarError("empty scalar literal")
    i = 0

    def peek():
        return toks[i] if i < len(toks) else (None, None)

    def parse_coeff() -> Fraction:
        nonlocal i
        kind, val = peek()
        if kind == "op" and val == "(":
            i += 1
            c = parse_signed_coeff()
            kind, val = peek()
            if kind != "op" or val != ")":
                raise ScalarError("unbalanced parenthesis in scalar literal")
            i += 1
            return c
        if kind != "num":
            raise ScalarError(f"expected number in scalar literal {text!r}")
        i += 1
        num = val
        kind, val = peek()
        if kind == "op" and val == "/":
            i += 1
            kind, val = peek()
            if kind != "num":
                raise ScalarError(f"expected denominator in {text!r}")
            if val == 0:
                raise ScalarError(f"zero denominator in {text!r}")
            i += 1
            return Fraction(num, val)
        return Fraction(num)

    def parse_signed_coeff() -> Fraction:
        nonlocal i
        sign = 1
        kind, val = peek()
        if kind == "op" and val in "+-":
            i += 1
            sign = -1 if val == "-" else 1
        return sign * parse_coeff()

    def parse_term() -> Scalar:
        nonlocal i
        coeff: Optional[Fraction] = None
        has_root = False
        exps: dict = {}
        while True:
            kind, val = peek()
            if kind == "num" or (kind == "op" and val == "("):
                c = parse_coeff()
                coeff = c if coeff is None else coeff * c
            elif kind == "name":
                i += 1
                e = 1
                kind2, val2 = peek()
                if kind2 == "op" and val2 == "^":
                    i += 1
                    kind2, val2 = peek()
                    if kind2 != "num":
                        raise ScalarError(f"expected exponent in {text!r}")
                    i += 1
                    e = val2
                if val == "r":
                    if e != 1:
                        raise ScalarError("powers of r are not part of the grammar")
                    if has_root:
                        raise ScalarError("repeated r factor in one term")
                    has_root = True
                else:
                    if val not in params:
                        raise ScalarError(f"undeclared parameter {val!r}")
                    exps[val] = exps.get(val, 0) + e
            else:
                raise ScalarError(f"unexpected token in scalar literal {text!r}")
            kind, val = peek()
            if kind == "op" and val == "*":
                i += 1
                continue
            break
        c = Fraction(1) if coeff is None else coeff
        mono = tuple(sorted(exps.items()))
        if has_root:
            if d == 0:
                raise ScalarError("r used but no sqrt extension declared")
            return Scalar({mono: (Fraction(0), c)}, d=d)
        return Scalar({mono: (c, Fraction(0))})

    result = Scalar()
    sign = 1
    kind, val = peek()
    if kind == "op" and val in "+-":
        i += 1
        sign = -1 if val == "-" else 1
    while True:
        t = parse_term()
        result = result + (t if sign == 1 else -t)
        kind, val = peek()
        if kind is None:
            break
        if kind == "op" and val in "+-":
            i += 1
            sign = -1 if val == "-" else 1
        else:
            raise ScalarError(f"trailing junk in scalar literal {text!r}")
    return result


def _format_term(coeff: Fraction, root: bool, mono: Monomial) -> str:
    parts = []
    if abs(coeff) != 1 or (not root and not mono):
        parts.append(str(abs(coeff)))
    if root:
        parts.append("r")
    for name, e in mono:
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_scalar(s: Scalar) -> str:
    """Render in the literal grammar; parse_scalar inverts this exactly."""
    if s.is_zero():
        return "0"
    pieces = []
    for mono in sorted(s._num, key=lambda m: (len(m), m)):
        a, b = s._num[mono]
        if a:
            pieces.append((a < 0, _format_term(Fraction(a, s._den), False, mono)))
        if b:
            pieces.append((b < 0, _format_term(Fraction(b, s._den), True, mono)))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, text in pieces[1:]:
        out += (" - " if neg else " + ") + text
    return out


# -- univariate root listing ---------------------------------------------------


def _rational_roots_of(coeffs: dict) -> Optional[set]:
    """Rational roots of sum(coeffs[e] * x^e) with integer coefficients."""
    coeffs = {e: c for e, c in coeffs.items() if c != 0}
    if not coeffs:
        return None  # identically zero: every value is a root
    # Dividing out the content keeps the candidate divisor lists short.
    g = math.gcd(*coeffs.values())
    coeffs = {e: c // g for e, c in coeffs.items()}
    roots = set()
    low = min(coeffs)
    if low > 0:
        roots.add(Fraction(0))
        coeffs = {e - low: c for e, c in coeffs.items()}
    deg = max(coeffs)
    if deg == 0:
        return roots
    a0 = abs(coeffs[0])
    an = abs(coeffs[deg])

    def divisors(m: int):
        out = []
        k = 1
        while k * k <= m:
            if m % k == 0:
                out.append(k)
                out.append(m // k)
            k += 1
        return out

    for pnum in divisors(a0):
        for pden in divisors(an):
            for cand in (Fraction(pnum, pden), Fraction(-pnum, pden)):
                if sum(c * cand**e for e, c in coeffs.items()) == 0:
                    roots.add(cand)
    return roots


def rational_roots(s: Scalar) -> Optional[set]:
    """Rational values of the single parameter at which ``s`` vanishes.

    Returns None when ``s`` is identically zero.  Requires at most one
    parameter name in ``s``.
    """
    names = s.parameters()
    if len(names) > 1:
        raise ScalarError("root listing is univariate only")
    if s.is_zero():
        return None
    if not names:
        return set()
    # One parameter: each monomial is a distinct power of it.  The common
    # denominator does not move the roots, so the integer numerators serve.
    p_poly: dict = {}
    q_poly: dict = {}
    for mono, (a, b) in s._num.items():
        e = mono[0][1] if mono else 0
        p_poly[e] = a
        q_poly[e] = b
    rp = _rational_roots_of(p_poly)
    rq = _rational_roots_of(q_poly)
    if rp is None:
        return rq
    if rq is None:
        return rp
    return rp & rq
