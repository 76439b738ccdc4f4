"""Structure validation, the natural connections, and the intrinsic torsion."""

import random

import pytest

from ahtorsion.audit import rotated_structure
from ahtorsion.catalog import get, names
from ahtorsion.multilinear import Form, Tensor
from ahtorsion.scalars import ONE, Scalar, ZERO
from ahtorsion.structure import (
    StructureError,
    build_structure,
    check_torsion_tensor,
    chern_connection,
    intrinsic_torsion,
    levi_civita,
    minimal_connection,
    nijenhuis,
)

R = Scalar.rational


@pytest.fixture(params=names())
def structure(request):
    return get(request.param).build()


class TestBuild:
    def test_almost_complex_axioms(self, structure):
        dim = structure.L.dim
        J = structure.J
        for i in range(dim):
            for j in range(dim):
                sq = sum((J[i][m] * J[m][j] for m in range(dim)), ZERO)
                assert sq == (R(-1) if i == j else ZERO)
                ortho = sum((J[m][i] * J[m][j] for m in range(dim)), ZERO)
                assert ortho == (ONE if i == j else ZERO)

    def test_degenerate_kaehler_form_rejected(self):
        L = get("flat-kaehler-torus").build().L
        bad = Form(4, 2, {(0, 1): ONE})  # rank 2, not almost complex
        with pytest.raises(StructureError):
            build_structure(L, bad)

    def test_non_isometric_kaehler_form_rejected(self):
        L = get("flat-kaehler-torus").build().L
        bad = Form(4, 2, {(0, 1): R(2), (2, 3): ONE})
        with pytest.raises(StructureError):
            build_structure(L, bad)


class TestConnections:
    def test_levi_civita_is_metric_and_torsion_free(self, structure):
        conn = levi_civita(structure)
        assert conn.is_metric()
        assert conn.torsion(structure.L).is_zero()

    def test_minimal_connection_is_unitary(self, structure):
        nabla = levi_civita(structure)
        xi = intrinsic_torsion(structure, nabla)
        mc = minimal_connection(structure, nabla, xi)
        assert mc.is_metric()
        assert mc.covariant_derivative(structure.omega.to_tensor()).is_zero()
        assert mc.derive_endomorphism(structure.J).is_zero()

    def test_chern_connection_unitary_iff_integrable(self, structure):
        nabla = levi_civita(structure)
        xi = intrinsic_torsion(structure, nabla)
        _, unitary = chern_connection(structure, nabla, xi)
        assert unitary == nijenhuis(structure).is_zero()

    def test_covariant_derivative_leibniz(self, structure):
        rng = random.Random(23)
        dim = structure.L.dim
        conn = levi_civita(structure)

        def random_vector_tensor():
            return Tensor(dim, 1, {(k,): R(rng.randrange(-3, 4)) for k in range(dim)})

        a = random_vector_tensor()
        b = random_vector_tensor()
        lhs = conn.covariant_derivative(a.tensor(b))
        da = conn.covariant_derivative(a)
        db = conn.covariant_derivative(b)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    rhs = da(i, j) * b(k) + a(j) * db(i, k)
                    assert lhs(i, j, k) == rhs


class TestIntrinsicTorsion:
    def test_invariants(self, structure):
        nabla = levi_civita(structure)
        xi = intrinsic_torsion(structure, nabla)
        assert xi.is_antisymmetric_pair(1, 2)
        assert check_torsion_tensor(structure, xi) is None

    def test_connection_difference(self, structure):
        nabla = levi_civita(structure)
        xi = intrinsic_torsion(structure, nabla)
        mc = minimal_connection(structure, nabla, xi)
        assert mc.gamma - nabla.gamma == xi

    def test_vanishes_exactly_on_kaehler(self):
        S = get("flat-kaehler-torus").build()
        assert intrinsic_torsion(S, levi_civita(S)).is_zero()
        S = get("example-5.1").build()
        assert not intrinsic_torsion(S, levi_civita(S)).is_zero()


class TestRotatedStructures:
    def test_random_compatible_forms_stay_valid(self):
        rng = random.Random(29)
        for name in ("example-5.1", "example-5.4"):
            base = get(name).build()
            for tag in range(3):
                S = rotated_structure(base, rng, str(tag))
                nabla = levi_civita(S)
                assert nabla.is_metric()
                xi = intrinsic_torsion(S, nabla)
                assert check_torsion_tensor(S, xi) is None
