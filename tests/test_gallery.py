"""Structures whose Gray-Hervella class the literature states.

The catalog holds the paper's own examples, whose classes were computed by
the pipeline the audit checks.  A class stated in a published source is an
oracle outside the code's conventions: it catches a W3/W4 mix-up or a sign
of theta that both sides of an audited identity share.  The structure
equations below are typed in, so each document is first checked against the
properties its source states (the Jacobi identity, d omega, N) before its
class is asserted.

Brackets follow the file convention d e^k = -sum_{i<j} c^k_ij e^{ij}, so a
structure equation d e^k = e^{ij} is the bracket [e_i, e_j] = -e_k.
"""

from ahtorsion.audit import run_suite
from ahtorsion.catalog import structure_from_data
from ahtorsion.curvature import analyze
from ahtorsion.multilinear import Form
from ahtorsion.scalars import Scalar


def document(name, dim, brackets, omega):
    """A structure file: ``brackets`` maps (i, j) to {k: c} for [e_i, e_j] =
    sum c e_k and ``omega`` lists the pairs (i, j) of omega = sum e^{ij},
    all 1-based."""
    return {
        "name": name,
        "dimension": dim,
        "brackets": [{"i": i, "j": j, "coeffs": {str(k): str(c) for k, c in row.items()}}
                     for (i, j), row in brackets.items()],
        "kaehler_form": [{"i": i, "j": j, "c": "1"} for i, j in omega],
    }


def form(dim, terms):
    """sum c e^K over (K, c) with 1-based K."""
    return Form(dim, len(terms[0][0]), {tuple(i - 1 for i in K): Scalar.rational(c)
                                        for K, c in terms})


def checked(doc):
    """The structure and its analysis, after the Jacobi identity holds."""
    S = structure_from_data(doc)
    assert S.L.jacobi_check() == (True, None)
    return S, analyze(S)


def audit_counts(S, A):
    rep = run_suite(S, A)
    assert rep.ok, [(c.identifier, c.detail) for c in rep.failures]
    return rep.counts()


# The Iwasawa manifold, (0, 0, 0, 0, 13 - 24, 14 + 23): the complex
# Heisenberg group, complex parallelizable, whose standard Hermitian
# structure omega = e12 + e34 + e56 is balanced and not Kaehler, class W3
# (Abbena and Grassi, Boll. UMI 1986; Salamon, J. Pure Appl. Algebra 157,
# 2001).
IWASAWA = document("iwasawa", 6, {
    (1, 3): {5: -1}, (2, 4): {5: 1}, (1, 4): {6: -1}, (2, 3): {6: -1},
}, [(1, 2), (3, 4), (5, 6)])

# The Kodaira-Thurston algebra (0, 0, 0, 12), the Lie algebra of the primary
# Kodaira surface.  With omega = e12 + e34 it is the surface's locally
# conformal Kaehler (indeed Vaisman) structure, class W4 with theta != 0
# (Belgun, Math. Ann. 317, 2000); with omega = e13 + e24 it is Thurston's
# symplectic structure, almost Kaehler and not Kaehler, class W2 (Thurston,
# Proc. AMS 55, 1976; Abbena, Boll. UMI 1984).
KODAIRA_THURSTON = {(1, 2): {4: -1}}
KODAIRA_LCK = document("kodaira-lck", 4, KODAIRA_THURSTON, [(1, 2), (3, 4)])
KODAIRA_THURSTON_SYMPLECTIC = document("kodaira-thurston", 4, KODAIRA_THURSTON,
                                       [(1, 3), (2, 4)])


def test_iwasawa_manifold_is_balanced_hermitian():
    S, A = checked(IWASAWA)
    # complex parallelizable, so J is integrable; balanced: d(omega^2) =
    # 2 domega ^ omega vanishes while domega does not
    assert A.nijenhuis_tensor.is_zero()
    assert A.domega == form(6, [((1, 3, 6), 1), ((2, 4, 6), -1), ((1, 4, 5), -1),
                                ((2, 3, 5), -1)])
    assert A.domega.wedge(S.omega).is_zero()
    assert A.gh_class.nonzero == ("W3",) and A.gh_class.label == "balanced Hermitian"
    assert A.theta.is_zero()
    assert audit_counts(S, A) == {"pass": 30, "fail": 0, "skip": 9}


def test_primary_kodaira_surface_is_locally_conformal_kaehler():
    S, A = checked(KODAIRA_LCK)
    # a complex surface, and domega = theta ^ omega with theta = -e^3 closed
    theta = form(4, [((3,), -1)])
    assert A.nijenhuis_tensor.is_zero()
    assert A.domega == form(4, [((1, 2, 3), -1)]) == theta.wedge(S.omega)
    assert A.gh_class.nonzero == ("W4",) and A.gh_class.label == "locally conformal Kaehler"
    assert A.theta == theta and A.dtheta.dtheta.is_zero()
    assert audit_counts(S, A) == {"pass": 32, "fail": 0, "skip": 7}


def test_kodaira_thurston_symplectic_structure_is_almost_kaehler():
    S, A = checked(KODAIRA_THURSTON_SYMPLECTIC)
    # symplectic, and not Kaehler: J is not integrable
    assert A.domega.is_zero()
    assert not A.nijenhuis_tensor.is_zero()
    assert A.gh_class.nonzero == ("W2",) and A.gh_class.label == "almost Kaehler"
    assert A.theta.is_zero()
    assert audit_counts(S, A) == {"pass": 26, "fail": 0, "skip": 13}
