"""Torsion component split, Lee form, and the U(n)-splits of small tensors."""

import random

import pytest

from ahtorsion import audit, multilinear, scalars
from ahtorsion.audit import rotated_structure
from ahtorsion.catalog import get, names, structure_from_data
from ahtorsion.curvature import analyze
from ahtorsion.decomposition import (
    _combine,
    classify,
    domega_from_torsion,
    split_bilinear,
    split_two_form,
)
from ahtorsion.multilinear import Form, Tensor
from ahtorsion.scalars import HALF, Fraction, Scalar, ZERO

R = Scalar.rational


@pytest.fixture(params=names())
def analysis(request):
    return analyze(get(request.param).build())


class TestLeeForm:
    def test_routes_agree_by_construction(self, analysis):
        # the audit's F7 fails when the codifferential and trace routes split
        S = analysis.structure
        dim = S.L.dim
        two = R(Fraction(2, S.n - 1))
        trace = Form(dim, 1)
        for k in range(dim):
            acc = sum((analysis.xi(i, i, k) for i in range(dim)), ZERO)
            if not acc.is_zero():
                trace.coeffs[(k,)] = two * acc
        assert trace == analysis.theta

    def test_zero_iff_lee_component_zero(self, analysis):
        assert analysis.theta.is_zero() == analysis.torsion.xi4.is_zero()


class TestTorsionSplit:
    def test_components_reassemble_and_are_orthogonal(self, analysis):
        dec = analysis.torsion
        assert dec.xi1 + dec.xi2 + dec.xi3 + dec.xi4 == analysis.xi
        parts = [p for _, p in dec.parts()]
        for a in range(4):
            for b in range(a + 1, 4):
                assert parts[a].inner(parts[b]).is_zero()

    def test_lee_component_norm_relation(self, analysis):
        dec = analysis.torsion
        n = analysis.structure.n
        tn = dec.theta.inner(dec.theta)
        assert dec.norms["W4"] == R(Fraction(n - 1, 2)) * tn

    def test_dimension_four_kills_w1_w3(self):
        for name in ("example-5.1", "example-5.2", "flat-kaehler-torus"):
            dec = analyze(get(name).build()).torsion
            assert dec.xi1.is_zero() and dec.xi3.is_zero()

    def test_domega_reconstruction(self, analysis):
        S = analysis.structure
        assert domega_from_torsion(S, analysis.xi) == analysis.domega


class TestClassification:
    def test_catalog_labels(self):
        expected = {
            "example-5.1": "locally conformal Kaehler",
            "example-5.2": "locally conformal Kaehler",
            "example-5.4": "Hermitian",
            "flat-kaehler-torus": "Kaehler",
            "nearly-kaehler-s3s3": "nearly Kaehler",
        }
        for name, label in expected.items():
            dec = analyze(get(name).build()).torsion
            assert classify(dec).label == label

    def test_parameter_degenerations_are_reported(self):
        # the parameterized surface stays in W4 for every q, but its norms
        # never vanish, so no special values should be listed
        dec = analyze(get("example-5.2").build()).torsion
        gh = classify(dec)
        assert gh.nonzero == ("W4",)
        assert gh.special_parameters == {}

    @staticmethod
    def _solvable_file(brackets):
        """A four-dimensional file in q: [e_i, e_4] = sum_j coeffs[j] e_j."""
        return structure_from_data({
            "name": "solvable", "dimension": 4, "parameters": ["q"],
            "brackets": [{"i": i, "j": 4, "coeffs": coeffs} for i, coeffs in brackets],
            "kaehler_form": [{"i": 1, "j": 2, "c": "1"}, {"i": 3, "j": 4, "c": "1"}],
        })

    @pytest.fixture
    def no_bisection(self, monkeypatch):
        def refuse(sturm, x):
            raise AssertionError("Sturm bisection")
        monkeypatch.setattr(scalars, "_variations", refuse)

    def test_30_bit_coefficients_are_read_from_the_entries(self, no_bisection):
        # every entry is affine in q: each gives its root with one division
        big = "998244353 + 1000000007*q"
        gh = analyze(self._solvable_file([(1, {"1": big, "2": "1"}), (3, {"1": "1"})])).gh_class
        assert gh.nonzero == ("W2", "W4")
        assert gh.special_parameters == {}
        gh = analyze(self._solvable_file([(1, {"1": big})])).gh_class
        assert gh.special_parameters == {"-998244353/1000000007": ["W2", "W4"]}

    @pytest.mark.parametrize("factors", [6, 15])
    def test_mixed_rotations_are_read_from_the_entries(self, no_bisection, factors):
        base = get("example-5.2").build()
        S = audit.rotated_structure(base, random.Random(3), "mixed", factors=factors)
        gh = analyze(S).gh_class
        assert gh.nonzero == ("W2", "W4")
        assert gh.special_parameters == {}

    def test_entries_not_affine_are_listed_by_bisection(self):
        gh = analyze(self._solvable_file([(1, {"1": "q^2 - 1"})])).gh_class
        assert gh.special_parameters == {"-1": ["W2", "W4"], "1": ["W2", "W4"]}


class TestTwoFormSplit:
    def test_pieces_reassemble(self, analysis):
        S = analysis.structure
        alpha = analysis.dtheta.dtheta
        sp = split_two_form(S, alpha)
        assert sp.r_omega_part + sp.lambda0_part + sp.lambda20_part == alpha

    def test_projection_idempotent(self, analysis):
        S = analysis.structure
        sp = split_two_form(S, analysis.dtheta.dtheta)
        again = split_two_form(S, sp.lambda20_part)
        assert again.lambda20_part == sp.lambda20_part
        assert again.r_omega_part.is_zero() and again.lambda0_part.is_zero()

    def test_omega_is_pure_trace(self, analysis):
        S = analysis.structure
        sp = split_two_form(S, S.omega)
        assert sp.r_omega_part == S.omega
        assert sp.lambda0_part.is_zero() and sp.lambda20_part.is_zero()


def eager_split(S, b):
    """The five parts (trace, sym invariant, sym anti, skew invariant, skew
    anti) computed all at once, each half rotated once: the reference for
    the symmetric parts ``split_bilinear`` computes on demand and for the
    split of the skew half by ``split_two_form``.  Each half is rotated
    here, on one slot at a time."""
    dim = S.L.dim
    flipped = b.transpose((1, 0))
    sym = _combine((HALF, b), (HALF, flipped))
    skew = _combine((HALF, b), (-HALF, flipped))

    sym_rot = sym.apply_J(0, S.J).apply_J(1, S.J)
    sym_inv = _combine((HALF, sym), (HALF, sym_rot))
    sym_anti = _combine((HALF, sym), (-HALF, sym_rot))
    tr = sum((sym_inv(i, i) for i in range(dim)), ZERO)
    trace_part = Tensor(dim, 2)
    coeff = tr * Scalar.rational(Fraction(1, dim))
    if not coeff.is_zero():
        for i in range(dim):
            trace_part.set((i, i), coeff)
    sym_inv0 = sym_inv - trace_part

    skew_rot = skew.apply_J(0, S.J).apply_J(1, S.J)
    skew_inv = _combine((HALF, skew), (HALF, skew_rot))
    skew_anti = _combine((HALF, skew), (-HALF, skew_rot))
    return trace_part, sym_inv0, sym_anti, skew_inv, skew_anti


PARTS = ("trace_part", "sym_invariant_part", "sym_anti_part")


def split_parts(S, b):
    """``split_bilinear``'s three symmetric parts, then the [lambda^{1,1}] and
    [[lambda^{2,0}]] parts of b's skew half as ``split_two_form`` splits that
    2-form, as tensors in ``eager_split``'s order."""
    sp = split_bilinear(S, b)
    skew = _combine((HALF, b), (-HALF, b.transpose((1, 0)))).antisymmetrize_to_form()
    two = split_two_form(S, skew)
    return tuple(getattr(sp, name) for name in PARTS) + (
        (two.r_omega_part + two.lambda0_part).to_tensor(), two.lambda20_part.to_tensor())


def dense_bilinear(dim: int, rng: random.Random) -> Tensor:
    b = Tensor(dim, 2)
    for i in range(dim):
        for j in range(dim):
            b.set((i, j), R(rng.randrange(-3, 4)))
    return b


class TestBilinearSplit:
    def test_five_pieces_reassemble(self):
        rng = random.Random(31)
        S = get("example-5.4").build()
        b = dense_bilinear(S.L.dim, rng)
        parts = split_parts(S, b)
        assert parts == eager_split(S, b)
        assert sum(parts[1:], parts[0]) == b
        sym_inv, skew_anti = parts[1], parts[4]
        assert sym_inv == sym_inv.transpose((1, 0))
        assert skew_anti == skew_anti.transpose((1, 0)).scaled(R(-1))

    @pytest.fixture(scope="class")
    def rotated(self):
        # a generic frame: J is not a signed permutation and b has no zero entry
        rng = random.Random(41)
        S = rotated_structure(get("example-5.4").build(), rng, "lazy")
        assert S.J.signed_perm is None
        b = dense_bilinear(S.L.dim, rng)
        b.set((0, 1), b(0, 1) + Scalar.parameter("q"))
        return S, b

    def test_parts_are_computed_on_first_read(self, rotated, monkeypatch):
        S, b = rotated
        calls = []
        add_rotated = multilinear.add_rotated

        def counted(add, coeffs, f, slots, J):
            if slots:
                calls.append(slots)
            return add_rotated(add, coeffs, f, slots, J)

        monkeypatch.setattr(multilinear, "add_rotated", counted)
        sp = split_bilinear(S, b)
        assert calls == []
        anti = sp.sym_anti_part
        assert len(calls) == 1
        # read again, or read the other symmetric parts: no further rotation
        assert sp.sym_anti_part is anti
        parts = tuple(getattr(sp, name) for name in PARTS)
        assert len(calls) == 1
        assert parts == eager_split(S, b)[:3]

    def test_parts_reassemble_over_a_rotated_frame(self, rotated):
        S, b = rotated
        parts = split_parts(S, b)
        assert sum(parts[1:], parts[0]) == b
        assert parts[3:] == eager_split(S, b)[3:]

    @pytest.mark.parametrize("which", ["diff_split", "comb_split"])
    def test_curvature_splits_match_the_reference(self, analysis, which):
        sp = getattr(analysis.curvature, which)
        assert split_parts(analysis.structure, sp.b) == eager_split(analysis.structure, sp.b)


class TestDThetaReport:
    def test_trace_part_always_zero(self, analysis):
        assert analysis.dtheta.split.r_omega_part.is_zero()

    # the residuals of the two displayed identities are built by P3.4H and P3.4S

    def test_residuals_vanish_above_dimension_four(self):
        for name in ("example-5.4", "nearly-kaehler-s3s3"):
            A = analyze(get(name).build())
            assert not A.dtheta.trivial_at_n2
            b = audit.Bundle(A)
            assert audit.witness(audit.check_p34h(b)) is None
            assert audit.witness(audit.check_p34s(b)) is None

    def test_degenerate_flag_in_dimension_four(self):
        A = analyze(get("example-5.1").build())
        assert A.dtheta.trivial_at_n2
        assert audit._needs_nondegenerate_dtheta(audit.Bundle(A)) is not None

    def test_rotated_structures_keep_residuals_zero(self):
        rng = random.Random(37)
        base = get("example-5.4").build()
        for tag in range(2):
            b = audit.Bundle(analyze(rotated_structure(base, rng, str(tag))))
            assert audit.witness(audit.check_p34h(b)) is None
            assert audit.witness(audit.check_p34s(b)) is None
