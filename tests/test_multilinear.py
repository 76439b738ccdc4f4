"""Exterior algebra, differentials, and Hodge duality on Lie algebras."""

import itertools
import math
import random

import pytest

from ahtorsion.audit import random_rotation
from ahtorsion.catalog import get, names, structure_from_data
from ahtorsion.multilinear import (
    Form,
    GeometryError,
    LieAlgebra,
    Tensor,
    codifferential,
    exterior_derivative,
    gram_schmidt,
    hodge_star,
    sort_with_sign,
    transform_algebra,
)
from ahtorsion.scalars import ONE, Accumulator, Fraction, Scalar
from ahtorsion.structure import build_structure, transform_form
from test_audit import SUM_AUDITS, SUM_IDS, direct_sum

R = Scalar.rational


def random_form(L, degree, rng):
    import itertools

    out = Form(L.dim, degree)
    for idx in itertools.combinations(range(L.dim), degree):
        if rng.random() < 0.5:
            c = R(rng.randrange(-3, 4))
            if not c.is_zero():
                out.coeffs[idx] = c
    return out


@pytest.fixture(params=names())
def structure(request):
    return get(request.param).build()


class TestWedge:
    def test_graded_anticommutativity(self):
        rng = random.Random(11)
        L = get("example-5.4").build().L
        for p, q in ((1, 1), (1, 2), (2, 2), (2, 3)):
            a = random_form(L, p, rng)
            b = random_form(L, q, rng)
            sign = R((-1) ** (p * q))
            assert a.wedge(b) == b.wedge(a).scaled(sign)

    def test_wedge_associative(self):
        rng = random.Random(12)
        L = get("example-5.4").build().L
        a, b, c = (random_form(L, 1, rng) for _ in range(3))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


class TestDifferential:
    def test_d_squared_is_zero(self, structure):
        rng = random.Random(13)
        L = structure.L
        for degree in (1, 2):
            alpha = random_form(L, degree, rng)
            dd = exterior_derivative(L, exterior_derivative(L, alpha))
            assert dd.is_zero()

    def test_leibniz_rule(self, structure):
        rng = random.Random(14)
        L = structure.L
        a = random_form(L, 1, rng)
        b = random_form(L, 2, rng)
        lhs = exterior_derivative(L, a.wedge(b))
        rhs = exterior_derivative(L, a).wedge(b) - a.wedge(
            exterior_derivative(L, b)
        )
        assert lhs == rhs


def frame_volume(dim):
    """e^{1...2n}: the orientation the Hodge star uses."""
    return Form(dim, dim, {tuple(range(dim)): ONE})


class TestHodge:
    def test_wedge_with_star_gives_inner_product(self, structure):
        rng = random.Random(15)
        L = structure.L
        vol = frame_volume(L.dim)
        for degree in (1, 2):
            a = random_form(L, degree, rng)
            b = random_form(L, degree, rng)
            assert a.wedge(hodge_star(b)) == vol.scaled(a.inner(b))

    def test_star_is_involutive_up_to_sign(self, structure):
        rng = random.Random(16)
        dim = structure.L.dim
        for degree in (1, 2, 3):
            if degree > dim - 1:
                continue
            a = random_form(structure.L, degree, rng)
            sign = R((-1) ** (degree * (dim - degree)))
            assert hodge_star(hodge_star(a)) == a.scaled(sign)

    def test_codifferential_is_minus_star_d_star(self, structure):
        rng = random.Random(17)
        L = structure.L
        a = random_form(L, 2, rng)
        direct = codifferential(L, a)
        by_hand = hodge_star(exterior_derivative(L, hodge_star(a))).scaled(R(-1))
        assert direct == by_hand


def kaehler_volume(omega, n):
    """Vol = (-1)^(n(n+1)/2) omega^n / n!, by n - 1 wedges."""
    acc = omega
    for _ in range(n - 1):
        acc = acc.wedge(omega)
    sign = -1 if (n * (n + 1) // 2) % 2 else 1
    return acc.scaled(R(Fraction(sign, math.factorial(n))))


def star_on(alpha, vol):
    """The star of a ^ *b = <a, b> vol, for vol a constant multiple of e^{1...2n}."""
    (v,) = vol.coeffs.values()
    out = {}
    for idx, val in alpha.coeffs.items():
        comp = tuple(k for k in range(alpha.dim) if k not in idx)
        out[comp] = v * val * R(sort_with_sign(idx + comp)[1])
    return Form(alpha.dim, alpha.dim - alpha.rank, out)


def volume_cases():
    """(id, structure): the catalog, a copy of each in a frame moved by
    d(d-1)/2 Givens factors, and the audited direct sums at n = 4 to 6."""
    for name in names():
        S = get(name).build()
        yield name, S
        d = S.L.dim
        P = random_rotation(d, random.Random(11), d * (d - 1) // 2)
        yield f"{name}-copy", build_structure(
            transform_algebra(S.L, P, [list(col) for col in zip(*P)]),
            transform_form(S.omega, P))
    for (first, second, _, _, _), sum_id in zip(SUM_AUDITS, SUM_IDS):
        yield sum_id, structure_from_data(direct_sum(get(first).document,
                                                     get(second).document))


VOLUME_CASES = list(volume_cases())


@pytest.mark.parametrize("S", [S for _, S in VOLUME_CASES],
                         ids=[case_id for case_id, _ in VOLUME_CASES])
def test_kaehler_volume_sign_cancels_in_the_codifferential(S):
    # the Kaehler volume is +-e^{1...2n} with a constant sign, and d* taken
    # against it agrees with d* on the frame's own orientation
    L, d = S.L, S.L.dim
    vol = kaehler_volume(S.omega, S.n)
    (v,) = vol.coeffs.values()
    assert v in (ONE, -ONE)
    assert vol == frame_volume(d).scaled(v)
    rng = random.Random(18)
    for a in (S.omega, random_form(L, 1, rng), random_form(L, 2, rng), random_form(L, 3, rng)):
        assert codifferential(L, a) == -star_on(exterior_derivative(L, star_on(a, vol)), vol)


def ref_jacobi_check(L):
    """The triple loop ``jacobi_check`` replaced: the first failing triple
    i < j < k in increasing order, with its least failing component l."""
    for i, j, k in itertools.combinations(range(L.dim), 3):
        acc = Accumulator()
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, v in L.bracket(a, b).items():
                for l, w in L.bracket(m, c).items():
                    acc.add(l, v, w)
        nonzero = acc.result()
        if nonzero:
            return False, (i, j, k, min(nonzero))
    return True, None


class TestLieAlgebra:
    def test_jacobi_failure_has_witness(self):
        # "anti" sphere relations do not close into a Lie algebra
        L = LieAlgebra(
            4,
            {
                (0, 1): {0: ONE},
                (1, 2): {1: ONE},
                (0, 2): {2: -ONE},
            },
        )
        ok, witness = L.jacobi_check()
        assert not ok and witness is not None
        assert witness == ref_jacobi_check(L)[1]

    def test_jacobi_witness_matches_the_triple_loop(self):
        # random sparse tables, most failing, some pairs given in both orders,
        # some coefficients in a parameter; and tables that satisfy Jacobi:
        # the catalog's algebras, and almost abelian and 2-step nilpotent ones
        rng = random.Random(21)
        q = Scalar.parameter("q")
        coefficients = [R(1), R(-1), R(2), R(Fraction(1, 3)), q]
        tables = [get(name).build().L for name in names()]
        for _ in range(300):
            d = rng.choice((4, 6, 8))
            brackets = {}
            for _ in range(rng.randint(1, 6)):
                i, j = rng.sample(range(d), 2)
                brackets[(i, j)] = {k: rng.choice(coefficients) for k in rng.sample(range(d), 2)}
            tables.append(LieAlgebra(d, brackets))
        for d in (4, 6, 8):
            tables.append(LieAlgebra(d, {(i, d - 1): {k: rng.choice(coefficients)
                                                      for k in rng.sample(range(d - 1), 2)}
                                         for i in range(d - 1)}))
            tables.append(LieAlgebra(d, {(i, j): {k: rng.choice(coefficients) for k in (d - 2, d - 1)}
                                         for i in range(d - 2) for j in range(i + 1, d - 2)}))
        outcomes = [L.jacobi_check() for L in tables]
        assert outcomes == [ref_jacobi_check(L) for L in tables]
        assert sum(ok for ok, _ in outcomes) >= 10 and sum(not ok for ok, _ in outcomes) >= 100

    def test_bracket_antisymmetry(self):
        L = get("nearly-kaehler-s3s3").build().L
        for i in range(6):
            for j in range(6):
                assert L.bracket(i, j) == {
                    k: -v for k, v in L.bracket(j, i).items()
                }

    def test_odd_dimension_rejected(self):
        with pytest.raises(GeometryError):
            LieAlgebra(3, {})


class TestGramSchmidt:
    @pytest.mark.parametrize("entry, d", [(Scalar.rational(-4), 0),
                                          (ONE - Scalar.root(3), 3)], ids=["-4", "1-r"])
    def test_indefinite_metric_is_not_positive_definite(self, entry, d):
        # diag(1, entry, 1, 1); 1 - sqrt(3) < 0 is read exactly, not as a missing root
        diagonal = [ONE, entry, ONE, ONE]
        G = [[diagonal[i] if i == j else Scalar.rational(0) for j in range(4)] for i in range(4)]
        with pytest.raises(GeometryError, match="metric is not positive definite"):
            gram_schmidt(G, d)


class TestTensor:
    def test_form_tensor_round_trip(self):
        rng = random.Random(18)
        L = get("example-5.1").build().L
        a = random_form(L, 2, rng)
        assert a.to_tensor().antisymmetrize_to_form() == a

    def test_inner_matches_form_inner_on_one_forms(self):
        rng = random.Random(19)
        L = get("example-5.1").build().L
        a = random_form(L, 1, rng)
        b = random_form(L, 1, rng)
        assert a.to_tensor().inner(b.to_tensor()) == a.inner(b)


class TestSharedEntries:
    """Forms and tensors share one base; its operations take operands of one
    class, dimension and rank."""

    FORM = Form(4, 2, {(0, 1): ONE, (2, 3): R(2)})
    MISMATCHED = [
        (FORM, FORM.to_tensor()),
        (FORM.to_tensor(), FORM),
        (FORM, Form(4, 1, {(0,): ONE})),
        (FORM, Form(6, 2, {(0, 1): ONE})),
        (FORM.to_tensor(), Tensor(4, 3, {(0, 1, 2): ONE})),
        (FORM.to_tensor(), Tensor(6, 2, {(0, 1): ONE})),
    ]
    OPERATIONS = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "inner": lambda a, b: a.inner(b),
    }

    @pytest.mark.parametrize("op", OPERATIONS.values(), ids=OPERATIONS.keys())
    @pytest.mark.parametrize("a, b", MISMATCHED, ids=[
        "form-tensor", "tensor-form", "form-rank", "form-dim", "tensor-rank", "tensor-dim"])
    def test_mismatched_operands_raise(self, op, a, b):
        with pytest.raises(GeometryError):
            op(a, b)

    def test_a_form_never_equals_a_tensor(self):
        for f, t in ((Form(4, 2), Tensor(4, 2)), (self.FORM, self.FORM.to_tensor())):
            assert (f == t) is False and (t == f) is False and f != t

    def test_arithmetic_keeps_the_class_and_rank(self):
        f, t = self.FORM, self.FORM.to_tensor()
        for x in (f, t):
            for y in (x + x, x - x, -x, x.scaled(R(3))):
                assert type(y) is type(x) and (y.dim, y.rank) == (4, 2)
        assert (f + f) == f.scaled(R(2)) and (f - f).is_zero() and -f + f == Form(4, 2)
        assert f.inner(f) == R(5) and t.inner(t) == R(10)
