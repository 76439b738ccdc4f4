"""Exact coefficient ring: rationals extended by one square root, with formal parameters.

A Scalar is a polynomial in declared parameters whose coefficients live in
Q(sqrt(d)) for a single square-free d >= 0 (d = 0 means plain rationals).
All arithmetic is exact; equality is decidable by canonical form.

A monomial is one int with packed exponents, as in Monagan and Pearce's POLY
(Maple 17): each parameter owns a 16-bit field, whose top bit is a guard
bit, and a process-wide append-only table gives each parameter name its
field in order of first use.  A monomial product is one integer addition; a
guard bit it sets is an exponent overflow, a ScalarError.  The public form of
a monomial, a tuple of (name, exponent) pairs sorted by name, appears only at
the edges: ``terms``, ``parameters()``, ``format_scalar`` and
``Scalar(terms, d)``.  Pickling goes through ``terms``, so field numbers
never leave the process.

Coefficients are integers over one common denominator, as in FLINT's
``fmpq_poly``: ``_a`` maps each monomial to the numerator of its rational
part and ``_b`` to the numerator of its sqrt(d) part, both over one positive
integer ``_den``.  Each ring operation works on the integers and normalises
its result once, so ``Fraction`` objects appear only at the public edges
(``terms``, ``constant_pair`` and the literal grammar).

A Scalar is immutable, and ``_make`` is its one birth: plain slot stores fill
an instance of the slot class ``_Body``, which then becomes a Scalar, whose
``__setattr__`` refuses every assignment.  A sum that cancels is ``ZERO``.

Sums of many products go through ``Accumulator``: it adds the integer
products straight into the two maps of each sum over a running common
denominator and normalises each sum once, where a fold of ``+`` and ``*``
normalises after every operation.  A constant rational weight p/q enters as
the integer factor p, and the one denominator q is divided out in that same
normalisation.  The tensor kernels build every output entry this way.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union

Monomial = tuple  # public form: (name, exponent) pairs, sorted by name, exponent > 0
RatLike = Union[int, Fraction]


class ScalarError(ValueError):
    pass


class ExtensionMismatch(ScalarError):
    pass


# trial division up to the cube root of d, at most about 5,200 divisors, stays prompt
MAX_EXTENSION = 1 << 40


def is_square_free(d: int) -> bool:
    if d >= MAX_EXTENSION:
        raise ScalarError(f"extension {d} is not below 2^40")
    if d < 0:
        return False
    if d in (0, 1):
        return d == 0  # d = 1 would be a disguised rational; reject
    # each prime p with p^3 <= what is left is divided out once, and divides
    # again exactly when p^2 divides d; what is left then has at most two
    # prime factors, above its cube root: square-free unless it is a square
    p = 2
    while p * p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return False
        p += 2 if p > 2 else 1
    return math.isqrt(d) ** 2 != d


def _join_d(da: int, db: int) -> int:
    if da == 0:
        return db
    if db == 0:
        return da
    if da != db:
        raise ExtensionMismatch(f"extension mismatch: sqrt({da}) vs sqrt({db})")
    return da


# -- packed monomials ------------------------------------------------------------

_BITS = 16
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1

_FIELDS: dict = {}  # parameter name -> field index, in order of first use
_NAMES: list = []  # field index -> parameter name
_GUARD = 0  # the guard bit of every field in use
_UNPACKED: dict = {0: ()}  # packed monomial -> public form


def _unit(name: str) -> int:
    """The packed monomial ``name``^1; the first use of a name gives it a field."""
    global _GUARD
    i = _FIELDS.get(name)
    if i is None:
        i = _FIELDS[name] = len(_NAMES)
        _NAMES.append(name)
        _GUARD |= 1 << (_BITS * i + _BITS - 1)
    return 1 << (_BITS * i)


def _overflow():
    raise ScalarError(f"an exponent of a product exceeds {MAX_EXPONENT}")


def _pack(mono) -> int:
    """The packed form of (name, exponent) pairs; a repeated name adds up."""
    m = 0
    for name, e in mono:
        if type(e) is not int or not 0 <= e <= MAX_EXPONENT:
            raise ScalarError(f"exponent {e!r} of {name} is not in 0..{MAX_EXPONENT}")
        m += e * _unit(name)
        if m & _GUARD:
            _overflow()
    return m


def _unpack(m: int) -> Monomial:
    t = _UNPACKED.get(m)
    if t is None:
        pairs = []
        i, k = 0, m
        while k:
            if k & _FIELD:
                pairs.append((_NAMES[i], k & _FIELD))
            k >>= _BITS
            i += 1
        t = _UNPACKED[m] = tuple(sorted(pairs))
    return t


class _Body:
    __slots__ = ("d", "_a", "_b", "_den")  # a Scalar's slots; only _make stores into them


class Scalar(_Body):
    """Element of Q(sqrt(d))[parameters], stored canonically.

    ``_a`` and ``_b`` map packed monomials to integers and ``_den`` is a
    positive integer; the coefficient of monomial m is
    (_a[m] + _b[m]*sqrt(d)) / _den, a missing key reading as 0.  The
    canonical form stores no zero value, has gcd(_den, every value) = 1 (so
    zero is two empty maps over 1), and carries d = 0 exactly when ``_b`` is
    empty.  Every Scalar without a sqrt(d) part shares one empty ``_b``,
    which is never mutated.  A parameter-free scalar has the single key 0.

    ``Scalar(terms, d)`` validates its input: ``terms`` maps monomials in
    their public form to (p, q) pairs of rationals meaning p + q*sqrt(d).
    The ``terms`` property gives the same read-only view back, with
    Fractions.

    Every Scalar is born in ``_make``, the one place that writes its slots.
    Nothing changes them afterwards (assignment raises AttributeError), so
    Scalars may share maps and serve as dict keys.
    """

    __slots__ = ()

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
                m = _pack(mono)
                if m in pairs:
                    p0, q0 = pairs[m]
                    p, q = p0 + p, q0 + q
                pairs[m] = (p, q)
        den = math.lcm(*(c.denominator for pq in pairs.values() for c in pq))
        return _canonical(
            {m: p.numerator * (den // p.denominator) for m, (p, _) in pairs.items()},
            {m: q.numerator * (den // q.denominator) for m, (_, q) in pairs.items()},
            den,
            d,
        )

    def __setattr__(self, name, value=None):
        raise AttributeError("Scalar is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Scalar, (dict(self.terms), self.d)

    @property
    def terms(self) -> Mapping[Monomial, tuple]:
        """Read-only view: monomial -> (p, q) Fractions meaning p + q*sqrt(d)."""
        den, a, b = self._den, self._a, self._b
        out = {_unpack(m): (Fraction(c, den), Fraction(b.get(m, 0), den))
               for m, c in a.items()}
        for m, c in b.items():
            if m not in a:
                out[_unpack(m)] = (Fraction(0), Fraction(c, den))
        return MappingProxyType(out)

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value: RatLike) -> "Scalar":
        if type(value) is int:
            return _make({0: value}, _EMPTY, 1, 0) if value else ZERO
        v = Fraction(value)
        if v == 0:
            return ZERO
        return _make({0: v.numerator}, _EMPTY, v.denominator, 0)

    @classmethod
    def root(cls, d: int, coeff: RatLike = 1) -> "Scalar":
        c = Fraction(coeff)
        if c == 0:
            return ZERO
        return cls({(): (Fraction(0), c)}, d=d)

    @classmethod
    def parameter(cls, name: str) -> "Scalar":
        return _make({_unit(name): 1}, _EMPTY, 1, 0)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_negation_of(self, other: "Scalar") -> bool:
        """Whether self == -other, read from the canonical forms without arithmetic."""
        xa, xb, ya, yb = self._a, self._b, other._a, other._b
        return (self._den == other._den and self.d == other.d and len(xa) == len(ya)
                and len(xb) == len(yb) and all(ya.get(m) == -c for m, c in xa.items())
                and all(yb.get(m) == -c for m, c in xb.items()))

    def is_constant(self) -> bool:
        return not any(self._a) and not any(self._b)

    def is_rational(self) -> bool:
        return self.d == 0 and not any(self._a)

    def parameters(self) -> set:
        m = 0
        for k in self._a:
            m |= k
        for k in self._b:
            m |= k
        names: set = set()
        i = 0
        while m:
            if m & _FIELD:
                names.add(_NAMES[i])
            m >>= _BITS
            i += 1
        return names

    def ratio(self) -> Optional[tuple]:
        """(numerator, denominator) of a plain rational, in lowest terms; else None."""
        return (self._a.get(0, 0), self._den) if self.is_rational() else None

    def constant_pair(self) -> tuple:
        """The (p, q) pair of a parameter-free scalar."""
        if not self.is_constant():
            raise ScalarError(f"not parameter-free: {self}")
        return Fraction(self._a.get(0, 0), self._den), Fraction(self._b.get(0, 0), self._den)

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
        if not (other._a or other._b):
            return self
        if not (self._a or self._b):
            return other
        d = self.d if self.d == other.d else _join_d(self.d, other.d)
        return _sum(self, other, 1, d)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _negated(self)

    def __sub__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not (other._a or other._b):
            return self
        if not (self._a or self._b):
            return _negated(other)
        d = self.d if self.d == other.d else _join_d(self.d, other.d)
        return _sum(self, other, -1, d)

    def __rsub__(self, other) -> "Scalar":
        return Scalar._coerce(other) - self

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        xa, ya = self._a, other._a
        xb, yb = self._b, other._b
        if not (xa or xb) or not (ya or yb):
            return ZERO
        d = self.d if self.d == other.d else _join_d(self.d, other.d)
        den = self._den * other._den
        if len(xa) + len(xb) == 1 == len(ya) + len(yb):
            # one monomial each, with a rational or a sqrt(d) coefficient
            [(m1, c1)] = (xa or xb).items()
            [(m2, c2)] = (ya or yb).items()
            m = m1 + m2
            if m & _GUARD:
                _overflow()
            c = c1 * c2
            if xb and yb:
                c *= d
            g = math.gcd(c, den)
            if bool(xb) != bool(yb):  # one sqrt(d) factor
                return _make({}, {m: c // g}, den // g, d)
            return _make({m: c // g}, _EMPTY, den // g, 0)
        a: dict = {}
        b: dict = {}
        _add_product(a, b, xa, xb, ya, yb, d, 1)
        return _canonical(a, b, den, d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.divide_by_constant(other)

    def times_ratio(self, p: int, q: int) -> "Scalar":
        """p/q times this scalar, for integers p and q > 0: the numerators
        times p over the denominator times q, normalised once."""
        a, b = self._a, self._b
        if p != 1:
            a = {m: c * p for m, c in a.items()}
            b = {m: c * p for m, c in b.items()} if b else b
        return _canonical(a, b, self._den * q, self.d)

    def divide_by_constant(self, c) -> "Scalar":
        c = Scalar._coerce(c)
        if not c.is_constant():
            raise ScalarError("non-constant divisor")
        if c.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        d = _join_d(self.d, c.d)
        # 1 / ((a + b*sqrt(d)) / den) = den * (a - b*sqrt(d)) / (a^2 - d*b^2)
        a, b = c._a.get(0, 0), c._b.get(0, 0)
        norm = a * a - d * b * b
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        k = c._den if norm > 0 else -c._den
        return self * _canonical({0: k * a}, {0: -k * b}, abs(norm), c.d)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (self.d == other.d and self._den == other._den
                and self._a == other._a and self._b == other._b)

    def __hash__(self) -> int:
        return hash((self.d, self._den, frozenset(self._a.items()), frozenset(self._b.items())))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


_new_body = object.__new__
_EMPTY: dict = {}  # the sqrt(d) map of every Scalar without one; never mutated


def _make(a: dict, b: dict, den: int, d: int) -> Scalar:
    """The one birth of every Scalar; ``a`` and ``b`` over ``den`` are already
    canonical.  Plain slot stores fill a ``_Body``, which then becomes a Scalar."""
    s = _new_body(_Body)
    s._a = a
    s._b = b
    s._den = den
    s.d = d
    s.__class__ = Scalar
    return s


def _canonical(a: dict, b: dict, den: int, d: int) -> Scalar:
    """Normalise integer maps over ``den`` > 0 and wrap them without re-validation.

    Drops zero values, divides by gcd(den, every value), and sets d = 0 and
    the shared empty ``_b`` when no sqrt coefficient is left.  Neither map
    is mutated.
    """
    if 0 in a.values():
        if not (any(a.values()) or any(b.values())):
            return ZERO  # a sum that cancels: no filtered map to build
        a = {m: c for m, c in a.items() if c}
    if b and 0 in b.values():
        b = {m: c for m, c in b.items() if c}
    if not b:
        if not a:
            return ZERO
        b, d = _EMPTY, 0
    if den != 1:
        g = math.gcd(den, *a.values(), *b.values())
        if g != 1:
            den //= g
            a = {m: c // g for m, c in a.items()}
            if b:
                b = {m: c // g for m, c in b.items()}
    return _make(a, b, den, d)


def _negated(x: Scalar) -> Scalar:
    if not (x._a or x._b):
        return x
    b = x._b
    return _make({m: -c for m, c in x._a.items()},
                 {m: -c for m, c in b.items()} if b else _EMPTY, x._den, x.d)


def _add_product(a: dict, b: dict, xa: dict, xb: dict, ya: dict, yb: dict, d: int, f: int):
    """Add f * x * y into the integer maps ``a`` (rational part) and ``b``
    (sqrt(d) part), x and y given by their maps; ``b`` is written only when
    x or y has a sqrt(d) part."""
    guard = _GUARD
    for m1, c1 in xa.items():
        c1 *= f
        for m2, c2 in ya.items():
            m = m1 + m2
            if m & guard:
                _overflow()
            a[m] = a.get(m, 0) + c1 * c2
        for m2, c2 in yb.items():
            m = m1 + m2
            if m & guard:
                _overflow()
            b[m] = b.get(m, 0) + c1 * c2
    for m1, c1 in xb.items():
        c1 *= f
        for m2, c2 in ya.items():
            m = m1 + m2
            if m & guard:
                _overflow()
            b[m] = b.get(m, 0) + c1 * c2
        c1 *= d
        for m2, c2 in yb.items():
            m = m1 + m2
            if m & guard:
                _overflow()
            a[m] = a.get(m, 0) + c1 * c2


def _sum(x: Scalar, y: Scalar, sign: int, d: int) -> Scalar:
    """x + sign*y for nonzero x, y over the joined extension d."""
    dx, dy = x._den, y._den
    xb, yb = x._b, y._b
    if dx == dy:
        a = x._a.copy()
        b = xb.copy() if yb else xb
        fy = sign
    else:
        g = math.gcd(dx, dy)
        fx = dy // g
        fy = sign * (dx // g)
        dx *= fx
        a = {m: c * fx for m, c in x._a.items()}
        b = {m: c * fx for m, c in xb.items()} if xb or yb else _EMPTY
    for m, c in y._a.items():
        a[m] = a.get(m, 0) + c * fy
    if yb:
        for m, c in yb.items():
            b[m] = b.get(m, 0) + c * fy
    return _canonical(a, b, dx, d)


ZERO = _make({}, _EMPTY, 1, 0)
ONE = Scalar.rational(1)
HALF = Scalar.rational(Fraction(1, 2))


class Accumulator:
    """Sums of Scalars and of products of two Scalars, one sum per key.

    ``add(key, x, y, sign)`` adds sign * x * y (sign * x when y is None) to
    the sum at ``key`` without normalising it; ``sign`` is any nonzero
    integer factor.  Each sum keeps raw integer maps, as a Scalar does, over
    a running common denominator, the least common multiple of the
    denominators added, and products go straight into them; a sum of one
    term x is kept as that Scalar, and one of f * x as the pair (x, f).
    ``result(den)`` divides every sum by the positive integer ``den`` and
    normalises it, once (a lone f * x with f = +-den is +-x as it is), and
    returns the nonzero ones; the sums stay undivided.  Canonical form is
    unique, so each sum equals the left-to-right fold of ``+`` and ``*`` over
    the same terms, and mixing two square-root extensions raises
    ExtensionMismatch exactly where that fold would.
    """

    __slots__ = ("_sums",)

    def __init__(self):
        self._sums: dict = {}  # key -> Scalar, (Scalar, factor), or [a map, b map, den, d]

    def add(self, key, x: Scalar, y: Optional[Scalar] = None, sign: int = 1) -> None:
        xa, xb = x._a, x._b
        if not (xa or xb):
            return
        sums = self._sums
        s = sums.get(key)
        if y is None:
            if s is None:
                sums[key] = x if sign == 1 else (x, sign)
                return
            den, d = x._den, x.d
        else:
            ya, yb = y._a, y._b
            if not (ya or yb):
                return
            d = x.d if x.d == y.d else _join_d(x.d, y.d)
            den = x._den * y._den
        if s is None:
            sa: dict = {}
            sb: dict = {}
            sums[key] = [sa, sb, den, d]
            f = sign
        else:
            if type(s) is not list:
                s = sums[key] = ([s._a.copy(), s._b.copy(), s._den, s.d] if type(s) is Scalar
                                 else _raw(*s))
            sa, sb, sden, sd = s
            if d != sd:
                if not sd:
                    s[3] = d
                elif d:
                    # two extensions meet: only a sum or a term without a sqrt
                    # part may take the other's, as in the fold
                    if not any(sb.values()):
                        s[3] = d
                    elif xb if y is None else _product_has_root(xa, xb, ya, yb, d):
                        _join_d(sd, d)
            if sden == den:
                f = sign
            elif sden % den == 0:
                f = sign * (sden // den)
            else:
                lcm = sden // math.gcd(sden, den) * den
                g = lcm // sden
                for m in sa:
                    sa[m] *= g
                for m in sb:
                    sb[m] *= g
                s[2] = lcm
                f = sign * (lcm // den)
        if y is None:
            for m, c in xa.items():
                sa[m] = sa.get(m, 0) + c * f
            if xb:
                for m, c in xb.items():
                    sb[m] = sb.get(m, 0) + c * f
        elif not d:
            if len(xa) == 1 == len(ya):
                [(m1, c1)] = xa.items()
                [(m2, c2)] = ya.items()
                m = m1 + m2
                if m & _GUARD:
                    _overflow()
                sa[m] = sa.get(m, 0) + f * c1 * c2
            else:
                guard = _GUARD
                for m1, c1 in xa.items():
                    c1 *= f
                    for m2, c2 in ya.items():
                        m = m1 + m2
                        if m & guard:
                            _overflow()
                        sa[m] = sa.get(m, 0) + c1 * c2
        elif len(xa) + len(xb) == 1 == len(ya) + len(yb):
            # one monomial each, with a rational or a sqrt(d) coefficient
            [(m1, c1)] = (xa or xb).items()
            [(m2, c2)] = (ya or yb).items()
            m = m1 + m2
            if m & _GUARD:
                _overflow()
            if xb and yb:
                c1 *= d
            t = sb if bool(xb) != bool(yb) else sa  # sb: one sqrt(d) factor
            t[m] = t.get(m, 0) + f * c1 * c2
        else:
            _add_product(sa, sb, xa, xb, ya, yb, d, f)

    def result(self, den: int = 1) -> dict:
        """key -> the sum divided by ``den``, normalised, for every sum that
        does not vanish.

        A sum's maps may be held by the Scalar returned, so the sum is kept
        as that Scalar times ``den``, and a later ``add`` copies it first."""
        out = {}
        sums = self._sums
        for key, s in sums.items():
            if type(s) is list:
                s = _canonical(s[0], s[1], s[2] * den, s[3])
                sums[key] = s if den == 1 and s is not ZERO else (s, den)
            elif type(s) is Scalar:
                if den != 1:
                    s = _canonical(s._a, s._b, s._den * den, s.d)
            else:
                x, f = s
                if f == den or f == -den:
                    s = x if f == den else _negated(x)
                else:
                    s = x.times_ratio(f, den)
            if s is not ZERO:
                out[key] = s
        return out


def _raw(x: Scalar, f: int) -> list:
    """The raw sum of the one term f * x: new maps, over x's denominator."""
    return [{m: c * f for m, c in x._a.items()},
            {m: c * f for m, c in x._b.items()} if x._b else {}, x._den, x.d]


def _product_has_root(xa: dict, xb: dict, ya: dict, yb: dict, d: int) -> bool:
    """Whether x * y keeps a nonzero sqrt(d) part."""
    b: dict = {}
    _add_product({}, b, xa, xb, ya, yb, d, 1)
    return any(b.values())


def _sign(p: int, q: int, d: int) -> int:
    """The exact sign of p + q*sqrt(d): where p and q differ in sign, the
    larger of p^2 and d*q^2 decides."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > d * q * q else sq


def constant_sign(s: Scalar) -> int:
    """The exact sign of a parameter-free scalar, read from its numerators."""
    if not s.is_constant():
        raise ScalarError(f"not parameter-free: {s}")
    return _sign(s._a.get(0, 0), s._b.get(0, 0), s.d)


def scalar_sqrt(s: Scalar, ambient_d: int = 0) -> Optional[Scalar]:
    """The nonnegative square root of a parameter-free scalar in Q(sqrt(d)), or None.

    s = (P + Q*sqrt(d)) / den^2 with P = a*den and Q = b*den, and as d is
    square-free a root is (x + y*sqrt(d)) / den for integers x and y with
    x^2 + d*y^2 = P and 2*x*y = Q: x^2 and d*y^2 are (P +- isqrt(P^2 - d*Q^2))/2,
    and y has the sign of Q when x >= 0.  ``ambient_d`` lets a plain rational use the
    ring's extension (sqrt(3/4) = sqrt(3)/2 in Q(sqrt(3))).
    """
    if not s.is_constant():
        return None
    a, b, den = s._a.get(0, 0), s._b.get(0, 0), s._den
    d = s.d or ambient_d
    P, Q = a * den, b * den
    disc = P * P - d * Q * Q
    if _sign(a, b, d) < 0 or disc < 0:
        return None
    r = math.isqrt(disc)
    if r * r != disc or (P - r) % 2:
        return None
    for x2 in ((P + r) // 2, (P - r) // 2):
        x, dy2 = math.isqrt(x2), P - x2
        # over Q (d = 0) only y = 0 is available
        y = math.isqrt(dy2 // d) if d else 0
        if x * x == x2 and d * y * y == dy2:
            y = y if Q >= 0 else -y
            sign = 1 if _sign(x, y, d) >= 0 else -1
            return _canonical({0: sign * x}, {0: sign * y}, den, d)
    return None


# -- literal grammar ----------------------------------------------------------
#
# scalar := ['+' | '-'] term (('+' | '-') term)*
# term   := factor ('*' factor)*
# factor := int ['/' int] | '(' ['+' | '-'] int ['/' int] ')' | 'r' | name ['^' int]
#
# The grammar is regular, so parse_scalar is one flat loop: a factor is one
# match of _FACTOR and a separator one match of _SEP.  No two \s* of a pattern
# can share one run of whitespace, so a failed match backtracks in linear time.
# Digits and whitespace are ASCII only.  A diagnostic quotes _QUOTE characters.

NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_FACTOR = re.compile(
    r"\s*(?:(?:(?P<open>\(\s*)(?:(?P<sign>[-+])\s*)?)?(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?"
    rf"(?(open)\s*\))|(?P<name>{NAME.pattern})(?:\s*\^\s*(?P<exp>\d+))?)", re.ASCII
)
_SIGN = re.compile(r"\s*([-+]?)", re.ASCII)
_SEP = re.compile(r"\s*([-+*]?)", re.ASCII)
_QUOTE = 40


def _quote(text: str, pos: int = 0) -> str:
    """text quoted, cut to _QUOTE characters from just before pos, "..." marking a cut."""
    start = max(0, min(pos - 10, len(text) - _QUOTE))
    end = start + _QUOTE
    return "..." * (start > 0) + repr(text[start:end]) + "..." * (end < len(text))


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int-string limit
        raise ScalarError(
            f"number of {len(digits)} digits in scalar literal is too long"
        ) from None


def _factor_error(text: str, pos: int) -> ScalarError:
    rest = text[pos:].lstrip()
    if rest.startswith("("):
        if ")" in rest:
            return ScalarError(
                f"only a signed rational may stand in parentheses in {_quote(text, pos)}")
        return ScalarError(f"unbalanced parenthesis in scalar literal {_quote(text, pos)}")
    if rest:
        return ScalarError(f"bad scalar literal near {_quote(rest)}")
    return ScalarError(f"scalar literal {_quote(text, pos)} ends before a factor"
                       if text.strip() else "empty scalar literal")


def parse_scalar(text: str, d: int = 0, parameters: Iterable[str] = ()) -> Scalar:
    """Parse the literal grammar, e.g. "-1/2 + 1/2*r", "-q", "3/4*q^2".

    ``r`` denotes sqrt(d); parameter names must be declared in ``parameters``.
    """
    params = set(parameters)
    result = ZERO
    lead = _SIGN.match(text)
    op, pos = lead.group(1) or "+", lead.end()
    while op:
        if op != "*":  # a term starts: its sign goes into the numerator
            num, den, has_root, exps = -1 if op == "-" else 1, 1, False, {}
        f = _FACTOR.match(text, pos)
        if f is None:
            raise _factor_error(text, pos)
        _, sign, p, q, name, e = f.groups()
        if name is None:
            q = _int(q) if q else 1
            if q == 0:
                raise ScalarError(f"zero denominator in {_quote(text, pos)}")
            num, den = num * (-_int(p) if sign == "-" else _int(p)), den * q
        else:
            e = _int(e) if e else 1
            if e > MAX_EXPONENT:
                raise ScalarError(f"exponent {e} exceeds {MAX_EXPONENT}")
            if name != "r":
                if name not in params:
                    raise ScalarError(f"undeclared parameter {_quote(name)}")
                exps[name] = exps.get(name, 0) + e
            elif e != 1:
                raise ScalarError("powers of r are not part of the grammar")
            elif has_root:
                raise ScalarError("repeated r factor in one term")
            elif d == 0:
                raise ScalarError("r used but no sqrt extension declared")
            elif not is_square_free(d):
                raise ScalarError(f"extension {d} is not square-free")
            else:
                has_root = True
        sep = _SEP.match(text, f.end())
        op, pos = sep.group(1), sep.end()
        if op != "*":  # the term ends
            m = _pack(exps.items())
            if num:
                g = math.gcd(num, den)
                num, den = num // g, den // g
                result = result + (
                    _make({}, {m: num}, den, d) if has_root else _make({m: num}, _EMPTY, den, 0))
    if pos < len(text):
        raise ScalarError(f"trailing junk in scalar literal {_quote(text, pos)}")
    return result


def _format_order(m: int) -> tuple:
    mono = _unpack(m)
    return len(mono), mono


def format_scalar(s: Scalar) -> str:
    """Render in the literal grammar; parse_scalar inverts this exactly."""
    if s.is_zero():
        return "0"
    pieces = []
    sa, sb, den = s._a, s._b, s._den
    keys = sa.keys() | sb.keys() if sb else sa.keys()
    if len(keys) > 1:
        keys = sorted(keys, key=_format_order)
    for m in keys:
        names = [name if e == 1 else f"{name}^{e}" for name, e in _unpack(m)] if m else []
        for c, root in ((sa.get(m), []), (sb.get(m), ["r"])):
            if c:
                g = math.gcd(c, den)
                num, q = abs(c) // g, den // g
                coeff = [] if num == q == 1 and (root or names) else [
                    str(num) if q == 1 else f"{num}/{q}"]
                pieces.append((c < 0, "*".join(coeff + root + names)))
    return join_signed(pieces)


def join_signed(pieces) -> str:
    """The sum of (is_negative, text) pieces, as "-a + b - c"."""
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, text in pieces[1:]:
        out += (" - " if neg else " + ") + text
    return out


# -- univariate root listing ---------------------------------------------------


def _divmod_poly(a: list, b: list) -> tuple:
    """Quotient and remainder of a by b over Q, each a coefficient list from the
    constant term up; a and b end in nonzero entries, and so do both results."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        c = q[shift] = r[-1] / b[-1]
        for i, x in enumerate(b):
            r[shift + i] -= c * x
        while r and not r[-1]:
            r.pop()
    return q, r


def _primitive(p: list) -> list:
    """The positive rational multiple of ``p`` with coprime integer coefficients."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _sign_at(p: list, x: Fraction) -> int:
    """The sign of p(x), read from the integer v^deg p(u/v) for x = u/v."""
    u, v = x.numerator, x.denominator
    h, w = p[-1], 1
    for c in reversed(p[:-1]):
        w *= v
        h = h * u + c * w
    return (h > 0) - (h < 0)


def _variations(sturm: list, x: Fraction) -> int:
    """Sign changes along the Sturm sequence at x, zeros skipped."""
    signs = [s for s in (_sign_at(p, x) for p in sturm) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _rational_roots_of(coeffs: dict) -> Optional[set]:
    """Rational roots of sum(coeffs[e] * x^e) with integer coefficients.

    A factor x^k gives the root 0, and what is left of degree 1, f0 + f1*x,
    its one root -f0/f1.  Above degree 1, the square-free part p = f /
    gcd(f, f') has f's roots, each simple, and its Sturm sequence counts them
    on (lo, hi] as V(lo) - V(hi).  Bisecting within Cauchy's bound isolates
    each real root in an interval narrower than 1/(2 a^2), a the leading
    coefficient of p over Z.  A rational root's denominator divides a, and
    two fractions with denominators at most a lie at least 1/a^2 apart, so
    the nearest of them to the interval's end is the one candidate, checked
    exactly.  The cost is polynomial in the degree and in the coefficients'
    bit length (Collins and Akritas, SYMSAC 1976, isolate by Descartes' rule
    instead).
    """
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        return None  # identically zero: every value is a root
    low = min(coeffs)
    f = [coeffs.get(e, 0) for e in range(low, max(coeffs) + 1)]  # f / x^low
    roots = {Fraction(0)} if low else set()
    if len(f) == 1:
        return roots
    if len(f) == 2:
        return roots | {Fraction(-f[0], f[1])}
    g, h = f, [e * c for e, c in enumerate(f)][1:]
    while h:
        g, h = h, _divmod_poly(g, h)[1]
    p = _primitive(_divmod_poly(f, g)[0])
    sturm = [p, _primitive([e * c for e, c in enumerate(p)][1:])]
    while True:
        r = _divmod_poly(sturm[-2], sturm[-1])[1]
        if not r:
            break
        sturm.append(_primitive([-c for c in r]))
    a = abs(p[-1])
    narrow = Fraction(1, 2 * a * a)
    bound = Fraction(2 + max(abs(c) for c in p[:-1]) // a)
    intervals = [(-bound, _variations(sturm, -bound), bound, _variations(sturm, bound))]
    while intervals:
        lo, v_lo, hi, v_hi = intervals.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and hi - lo < narrow:
            x = hi.limit_denominator(a)
            if not _sign_at(p, x):
                roots.add(x)
            continue
        mid = (lo + hi) / 2
        v_mid = _variations(sturm, mid)
        intervals += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return roots


def rational_roots(entries: Iterable[Scalar]) -> Optional[set]:
    """Rational values of the one parameter at which every entry vanishes.

    At a rational value an entry vanishes where both its rational and its
    sqrt(d) part do, and the common denominator does not move the roots, so
    each part's integer numerators serve.  The candidates are the rational
    roots of a part of least degree (``_rational_roots_of``), so a quadratic
    part read before an affine one costs no bisection; each later part keeps
    those at which it vanishes, read exactly by ``_sign_at``, and the reading
    stops as soon as none is left.  Returns None when the entries name more
    than one parameter and when no entry is nonzero.
    """
    parts = [part for s in entries for part in (s._a, s._b) if part]
    m = 0
    for part in parts:
        for k in part:
            m |= k
    # one parameter: each monomial is a power of it, k >> shift its exponent
    shift = (m.bit_length() - 1) // _BITS * _BITS if m else 0
    if not parts or m & ((1 << shift) - 1):
        return None
    parts.sort(key=max)  # by degree: a monomial's key grows with its exponent
    roots = None
    for part in parts:
        poly = {k >> shift: c for k, c in part.items()}
        if roots is None:
            roots = list(_rational_roots_of(poly))
        else:
            p = [poly.get(e, 0) for e in range(max(poly) + 1)]
            roots = [x for x in roots if not _sign_at(p, x)]
        if not roots:
            break
    return set(roots)
