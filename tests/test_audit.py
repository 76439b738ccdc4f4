"""The identity audit: coverage, determinism, and failure reporting."""

import copy
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import pytest

from ahtorsion import audit, curvature, decomposition
from ahtorsion.audit import (
    AuditReport,
    Bundle,
    IdentityCheck,
    identifiers,
    random_rotation,
    random_suite,
    rotated_structure,
    run_suite,
)
from ahtorsion.catalog import ENTRIES, get, structure_from_data
from ahtorsion.curvature import analyze
from ahtorsion.decomposition import TwoFormSplit
from ahtorsion.multilinear import Form, Tensor, gram_schmidt
from ahtorsion.scalars import ONE, Accumulator, Scalar, ZERO
from ahtorsion.structure import Connection

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import generate  # noqa: E402

R = Scalar.rational


def with_torsion(levi_civita):
    """levi_civita with Gamma_123 += 1 and Gamma_132 -= 1: metric, not torsion-free."""

    def corrupted(S):
        conn = levi_civita(S)
        delta = Tensor(conn.dim, 3, {(0, 1, 2): ONE, (0, 2, 1): -ONE})
        return Connection(conn.dim, conn.gamma + delta, kind="levi_civita")

    return corrupted


class TestCatalogAudit:
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
    def test_all_checks_pass(self, entry):
        rep = run_suite(entry.build())
        assert rep.ok, [(c.identifier, c.detail) for c in rep.failures]

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
    def test_every_identity_appears_exactly_once(self, entry):
        rep = run_suite(entry.build())
        assert [c.identifier for c in rep.checks] == identifiers()

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
    def test_skips_carry_reasons(self, entry):
        rep = run_suite(entry.build())
        for c in rep.checks:
            if c.status == "skip":
                assert c.detail


class TestRandomizedAudit:
    def test_small_randomized_run_passes(self):
        reports = random_suite(5, seed=11)
        assert len(reports) == 5
        for rep in reports:
            assert rep.ok, [(c.identifier, c.detail) for c in rep.failures]

    def test_deterministic_given_seed(self):
        first = [(r.structure, r.counts()) for r in random_suite(3, seed=4)]
        second = [(r.structure, r.counts()) for r in random_suite(3, seed=4)]
        assert first == second

    def test_rotations_are_exactly_orthogonal(self):
        rng = random.Random(101)
        for dim in (4, 6):
            M = random_rotation(dim, rng, 5)
            for i in range(dim):
                for j in range(dim):
                    dot = sum((M[m][i] * M[m][j] for m in range(dim)), ZERO)
                    assert dot == (ONE if i == j else ZERO)

    def test_rotated_structure_changes_the_class(self):
        # a generic rotation of the torus form on the solvable algebra should
        # leave the pure Lee class; the audit must still pass there
        rng = random.Random(55)
        base = get("example-5.1").build()
        S = rotated_structure(base, rng, "x")
        rep = run_suite(S)
        assert rep.ok


def direct_sum(a: dict, b: dict) -> dict:
    """The structure file of the direct sum of two: b's basis follows a's, its
    brackets and Kaehler form shifted, the metrics in blocks, the parameter
    names joined.  The two share one square-root extension, or one has none.
    The complex volume is dropped: the identities that read it are stated at
    n = 3."""
    shift = a["dimension"]
    extensions = {a.get("sqrt_extension", 0), b.get("sqrt_extension", 0)} - {0}
    if len(extensions) > 1:
        raise ValueError(f"two square-root extensions: {sorted(extensions)}")

    def moved(doc, s):
        brackets = [{"i": e["i"] + s, "j": e["j"] + s,
                     "coeffs": {str(int(k) + s): c for k, c in e["coeffs"].items()}}
                    for e in doc.get("brackets", [])]
        return brackets, [{**e, "i": e["i"] + s, "j": e["j"] + s} for e in doc["kaehler_form"]]

    def metric(doc):
        n, m = doc["dimension"], doc.get("metric", "identity")
        return m if m != "identity" else [["1" if i == j else "0" for j in range(n)]
                                          for i in range(n)]

    brackets_a, omega_a = moved(a, 0)
    brackets_b, omega_b = moved(b, shift)
    doc = {
        "name": f"{a['name']}+{b['name']}",
        "dimension": shift + b["dimension"],
        "parameters": list(dict.fromkeys(a.get("parameters", []) + b.get("parameters", []))),
        "sqrt_extension": extensions.pop() if extensions else 0,
        "brackets": brackets_a + brackets_b,
        "kaehler_form": omega_a + omega_b,
    }
    if "metric" in a or "metric" in b:
        doc["metric"] = ([row + ["0"] * b["dimension"] for row in metric(a)]
                         + [["0"] * shift + row for row in metric(b)])
    return doc


# (first, second, n, passed, skipped) of each sum the audit is pinned on
SUM_AUDITS = [
    ("example-5.2", "example-5.1", 4, 30, 9),
    ("example-5.2", "example-5.4", 5, 30, 9),
    ("example-5.4", "example-5.4", 6, 30, 9),
    ("nearly-kaehler-s3s3", "flat-kaehler-torus", 5, 31, 8),
]
SUM_IDS = ["5.2+5.1", "5.2+5.4", "5.4+5.4", "s3s3+torus"]


class TestDirectSums:
    """Past n = 3: many identities carry coefficients in n, which two values
    of n cannot pin down; sums of catalog entries reach n = 4 to 6."""

    @pytest.mark.parametrize("first, second, n, passed, skipped", SUM_AUDITS, ids=SUM_IDS)
    def test_sum_audits_ok(self, first, second, n, passed, skipped):
        S = structure_from_data(direct_sum(get(first).document, get(second).document))
        assert S.n == n
        rep = run_suite(S)
        assert rep.ok, [(c.identifier, c.detail) for c in rep.failures]
        assert rep.counts() == {"pass": passed, "fail": 0, "skip": skipped}

    def test_rotated_sum_audits_ok(self):
        # omega moved by d(d-1)/2 = 28 Givens factors: every class is present
        S = structure_from_data(direct_sum(get("example-5.2").document,
                                           get("example-5.1").document))
        T = rotated_structure(S, random.Random(3), "mixed", factors=28)
        assert T.n == 4 and T.omega != S.omega
        rep = run_suite(T)
        assert rep.ok, [(c.identifier, c.detail) for c in rep.failures]
        assert rep.counts() == {"pass": 26, "fail": 0, "skip": 13}

    def test_sum_of_two_extensions_is_refused(self):
        other = dict(get("example-5.4").document, sqrt_extension=2)
        with pytest.raises(ValueError, match="two square-root extensions"):
            direct_sum(get("example-5.4").document, other)


def standard_form(d: int) -> list:
    """The ``kaehler_form`` entries of omega = e12 + e34 + ... in dimension d."""
    return [{"i": i, "j": i + 1, "c": "1"} for i in range(1, d, 2)]


# (i, j) -> (c7, c8) for [e_i, e_j] = c7 e7 + c8 e8, i < j <= 6 (1-based)
NIL8_KAPPA = {
    (1, 2): (1, 1), (1, 3): (-1, -1), (1, 4): (-1, 1), (1, 5): (-1, -1), (1, 6): (-1, 1),
    (2, 3): (-1, 1), (2, 4): (1, 1), (2, 5): (-1, 1), (2, 6): (1, 1),
    (3, 4): (1, 1), (3, 5): (-1, -1), (3, 6): (-1, 1),
    (4, 5): (-1, 1), (4, 6): (1, 1), (5, 6): (1, 1),
}


def test_p43i_reads_its_dtheta_coefficient_at_n4():
    # P4.3i multiplies dtheta^{2,0} by (n+1)/6, which no direct sum pins past
    # n = 3: there the term vanishes in P4.3i's classes.  This 2-step
    # nilpotent algebra with centre <e7, e8> and omega = e12 + e34 + e56 + e78
    # is W1 + W2 + W4 with dtheta^{2,0} != 0, so a kappa(n) that agrees only
    # at n = 2 and 3 fails P4.3i here.
    S = structure_from_data({
        "name": "nil8-kappa",
        "dimension": 8,
        "brackets": [{"i": i, "j": j, "coeffs": {"7": str(c7), "8": str(c8)}}
                     for (i, j), (c7, c8) in NIL8_KAPPA.items()],
        "kaehler_form": standard_form(8),
    })
    A = analyze(S)
    assert S.n == 4 and A.gh_class.nonzero == ("W1", "W2", "W4")
    assert not A.dtheta.split.lambda20_part.is_zero()
    rep = run_suite(S, A)
    assert rep.ok, [(c.identifier, c.detail) for c in rep.failures]
    assert rep.counts() == {"pass": 27, "fail": 0, "skip": 12}
    assert next(c for c in rep.checks if c.identifier == "P4.3i").status == "pass"


def antisymmetric_plus_lee(n: int) -> dict:
    """The structure file of the almost abelian R^{2n-1} x| R with
    [e_{2k-1}, e_{2n}] = e_{2k-1} for k < n and omega = e12 + e34 + ...,
    which is W2 + W4 for n >= 3."""
    d = 2 * n
    return {
        "name": f"almost-abelian-w2w4-{d}",
        "dimension": d,
        "brackets": [{"i": i, "j": d, "coeffs": {str(i): "1"}} for i in range(1, d - 1, 2)],
        "kaehler_form": [{"i": i, "j": i + 1, "c": "1"} for i in range(1, d, 2)],
    }


class TestAntisymmetricPlusLee:
    """W2 + W4 at n >= 3, the class of P3.6i (a closed Lee form), which no
    catalog entry, rotated sample or direct sum reaches: the almost abelian
    R^{2n-1} x| R with [e_{2k-1}, e_{2n}] = e_{2k-1} for k < n and omega =
    e12 + e34 + ... .  Direct sums do not reach it: a summand with a Lee
    form has a W4 part that is not the sum's, and the difference is a W3
    part (this family plus a flat torus, or plus itself, is W2 + W3 + W4)."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_lee_form_check_passes(self, n):
        S = structure_from_data(antisymmetric_plus_lee(n))
        assert analyze(S).gh_class.nonzero == ("W2", "W4")
        rep = run_suite(S)
        assert rep.ok, [(c.identifier, c.detail) for c in rep.failures]
        assert rep.counts() == {"pass": 28, "fail": 0, "skip": 11}
        assert next(c for c in rep.checks if c.identifier == "P3.6i").status == "pass"


def assert_flat_torus_audits_ok(d: int, metric: Optional[int] = None):
    """With ``metric`` c, the torus takes the metric c*I and omega = c*(e12 +
    e34 + ...), which Gram-Schmidt brings to the standard frame."""
    doc = {
        "name": f"flat-torus-{d}",
        "dimension": d,
        "brackets": [],
        "kaehler_form": standard_form(d),
    }
    if metric is not None:
        doc["metric"] = [[str(metric) if i == j else "0" for j in range(d)] for i in range(d)]
        doc["kaehler_form"] = [dict(entry, c=str(metric)) for entry in doc["kaehler_form"]]
    S = structure_from_data(doc)
    assert S.n == d // 2
    A = analyze(S)
    assert A.gh_class.nonzero == () and A.theta.is_zero()
    rep = run_suite(S)
    assert rep.ok, [(c.identifier, c.detail) for c in rep.failures]
    assert rep.counts() == {"pass": 34, "fail": 0, "skip": 5}


def test_flat_torus_in_dimension_64_audits_ok():
    # building takes no volume form, so it is polynomial in the dimension
    assert_flat_torus_audits_ok(64)


def test_flat_torus_in_dimension_256_audits_ok():
    # Jacobi reads only stored brackets and E3.1 only stored entries, so a
    # bracket-free algebra costs little whatever its dimension
    assert_flat_torus_audits_ok(256)


def test_flat_torus_with_a_metric_in_dimension_128_audits_ok():
    # Gram-Schmidt reads the metric's stored entries, so the diagonal 4*I
    # costs little more than the identity
    assert_flat_torus_audits_ok(128, metric=4)


def test_gram_schmidt_of_a_diagonal_metric_works_on_stored_entries(monkeypatch):
    # each f_i meets no earlier f_j, so no projection is summed: a few
    # products and adds per vector, not a sweep of the d x d metric
    d = 128
    four = Scalar.rational(4)
    G = [[four if i == j else ZERO for j in range(d)] for i in range(d)]
    calls = []
    real_mul, real_add = Scalar.__mul__, Accumulator.add
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: calls.append(1) or real_mul(x, y))
    monkeypatch.setattr(Accumulator, "add",
                        lambda acc, *args: calls.append(1) or real_add(acc, *args))
    P, inverse = gram_schmidt(G)
    monkeypatch.undo()
    half, two = Scalar.rational(Fraction(1, 2)), Scalar.rational(2)
    assert P == [[half if i == j else ZERO for j in range(d)] for i in range(d)]
    assert inverse == [[two if i == j else ZERO for j in range(d)] for i in range(d)]
    assert len(calls) <= 4 * d * d


def test_sparse_almost_abelian_in_dimension_128_audits_ok():
    # R^127 x| R with e_128 acting diagonally by 1, 2, 3, 1, 2, 3, ...: the
    # audit's sums scatter from stored entries, and E3.1 reads the stored
    # entries of its 4-tensor, not the C(128, 4) quadruples
    d = 128
    S = structure_from_data({
        "name": f"almost-abelian-{d}",
        "dimension": d,
        "brackets": [{"i": i, "j": d, "coeffs": {str(i): str(1 + i % 3)}} for i in range(1, d)],
        "kaehler_form": standard_form(d),
    })
    assert analyze(S).gh_class.nonzero == ("W2", "W3", "W4")
    rep = run_suite(S)
    assert rep.ok, [(c.identifier, c.detail) for c in rep.failures]
    assert rep.counts() == {"pass": 26, "fail": 0, "skip": 13}


class TestReporting:
    def test_failure_is_reported_not_raised(self, monkeypatch):
        broken = ("XX", "always fails", audit._always, lambda b: [("forced witness", False)])
        monkeypatch.setattr(audit, "CHECKS", audit.CHECKS + [broken])
        rep = run_suite(get("flat-kaehler-torus").build())
        assert not rep.ok
        assert rep.failures[-1].identifier == "XX"
        assert rep.failures[-1].detail == "forced witness"

    def test_unexpected_exception_fails_one_check_only(self, monkeypatch):
        S = get("example-5.1").build()
        before = run_suite(S).checks

        def explode(b):
            raise ZeroDivisionError("forced")

        checks = list(audit.CHECKS)
        pos = 5
        ident, desc, _guard, _fn = checks[pos]
        checks[pos] = (ident, desc, audit._always, explode)
        monkeypatch.setattr(audit, "CHECKS", checks)
        after = run_suite(S).checks
        assert len(after) == len(before) == 39
        assert after[pos].status == "fail"
        assert after[pos].detail == "error: ZeroDivisionError: forced"
        assert after[:pos] + after[pos + 1 :] == before[:pos] + before[pos + 1 :]

    def test_counts_add_up(self):
        rep = run_suite(get("example-5.4").build())
        counts = rep.counts()
        assert sum(counts.values()) == len(rep.checks)

    def test_report_shape(self):
        rep = run_suite(get("example-5.1").build())
        assert isinstance(rep, AuditReport)
        assert all(isinstance(c, IdentityCheck) for c in rep.checks)
        assert all(c.status in ("pass", "fail", "skip") for c in rep.checks)


class TestCheckOwners:
    """The pipeline computes; the audit alone verifies these invariants."""

    def test_f6_reports_a_component_outside_its_class(self):
        b = audit.Bundle(analyze(get("example-5.1").build()))
        assert audit.witness(audit.check_f6(b)) is None
        # skew in the last two slots but not anticommuting with J, added to
        # xi and xi2 alike so that the components still sum to xi
        delta = Tensor(4, 3, {(0, 0, 1): ONE, (0, 1, 0): -ONE})
        b.xi, b.xi2 = b.xi + delta, b.xi2 + delta
        assert audit.witness(audit.check_f6(b)) == (
            "component W2: xi does not anticommute with J in the target slot"
        )

    def test_f6_reports_w3_in_dimension_four(self):
        b = audit.Bundle(analyze(get("example-5.1").build()))
        b.xi3, b.xi4 = b.xi3 + b.xi4, Tensor(4, 3)
        assert audit.witness(audit.check_f6(b)) == "W1 and W3 must vanish in dimension four"

    def test_p34r_alone_reports_an_omega_trace_in_dtheta(self, monkeypatch):
        real = decomposition.split_two_form

        def with_trace(S, alpha):
            sp = real(S, alpha)
            return TwoFormSplit(sp.r_omega_part + S.omega, sp.lambda0_part, sp.lambda20_part)

        S = get("example-5.1").build()
        monkeypatch.setattr(decomposition, "split_two_form", with_trace)
        A = analyze(S)
        monkeypatch.undo()
        rep = run_suite(S, A)
        assert [(c.identifier, c.detail) for c in rep.failures] == [
            ("P3.4R", "coefficient (1, 3): -1")
        ]

    def test_f2_reports_a_levi_civita_connection_with_torsion(self, monkeypatch):
        # the pipeline no longer re-checks Levi-Civita output: F2 owns it
        monkeypatch.setattr(curvature, "levi_civita", with_torsion(curvature.levi_civita))
        S = get("example-5.1").build()
        f2 = next(c for c in run_suite(S, analyze(S)).checks if c.identifier == "F2")
        assert (f2.status, f2.detail) == ("fail", "not torsion-free")

    def test_f2_reports_a_curvature_off_the_first_bianchi_identity(self):
        b = audit.Bundle(analyze(get("example-5.4").build()))
        assert audit.witness(audit.check_f2(b)) is None
        # skew in both pairs and pair-symmetric, so only the cyclic sum is off
        delta = {}
        for (i, j, k, l) in ((0, 1, 2, 3), (2, 3, 0, 1)):
            for a, c, s in ((i, j, 1), (j, i, -1)):
                for e, f, t in ((k, l, 1), (l, k, -1)):
                    delta[(a, c, e, f)] = R(s * t)
        b.curv.Rm = b.curv.Rm + Tensor(6, 4, delta)
        assert audit.witness(audit.check_f2(b)) == "first Bianchi identity: entry (1, 2, 3, 4): 1"

    def test_f3_reports_a_minimal_connection_that_moves_omega(self, monkeypatch):
        # the pipeline no longer re-checks the minimal connection: F3 owns it
        real = curvature.minimal_connection

        def moved(S, nabla, xi):
            conn = real(S, nabla, xi)
            delta = Tensor(conn.dim, 3, {(0, 0, 2): ONE, (0, 2, 0): -ONE})
            return Connection(conn.dim, conn.gamma + delta, kind="minimal")

        monkeypatch.setattr(curvature, "minimal_connection", moved)
        S = get("example-5.4").build()
        f3 = next(c for c in run_suite(S, analyze(S)).checks if c.identifier == "F3")
        assert (f3.status, f3.detail) == ("fail", "omega not parallel: entry (1, 1, 2): -1/2*r")

    def test_analyze_returns_for_a_non_metric_minimal_connection(self, monkeypatch):
        # the Ricci forms project their tensors onto forms without re-checking
        # antisymmetry, so the report is built and F3 names the fault
        real = curvature.minimal_connection

        def non_metric(S, nabla, xi):
            conn = real(S, nabla, xi)
            delta = Tensor(conn.dim, 3, {(0, 1, 1): ONE})
            return Connection(conn.dim, conn.gamma + delta, kind="minimal")

        monkeypatch.setattr(curvature, "minimal_connection", non_metric)
        S = get("example-5.4").build()
        f3 = next(c for c in run_suite(S, analyze(S)).checks if c.identifier == "F3")
        assert (f3.status, f3.detail) == ("fail", "not metric")

    @pytest.mark.parametrize("name, field, key, p34h, p34s", [
        ("example-5.4", "xi1", (0, 1, 2), None, "entry (1, 6): -1/4"),
        ("example-5.4", "xi3", (0, 1, 4), "entry (1, 2): 3/2*r", "entry (2, 1): -1/4*r"),
        ("example-5.4", "xi2", (1, 0, 3), None, "entry (2, 6): 1/8"),
        ("nearly-kaehler-s3s3", "xi1", (0, 1, 2), None, "entry (2, 2): -2"),
        ("nearly-kaehler-s3s3", "xi3", (0, 1, 4), "entry (2, 3): 2/3*r", "entry (2, 6): -2/3"),
    ])
    def test_p34h_p34s_report_the_dtheta_residuals_of_a_corrupted_torsion(
        self, name, field, key, p34h, p34s
    ):
        # witnesses pinned from the residuals dtheta_report built when it owned them
        A = analyze(get(name).build())
        part = getattr(A.torsion, field)
        setattr(A.torsion, field, part + Tensor(part.dim, 3, {key: R(2)}))
        b = audit.Bundle(A)
        assert (audit.witness(audit.check_p34h(b)),
                audit.witness(audit.check_p34s(b))) == (p34h, p34s)

    def test_f7_reports_a_lee_form_off_the_torsion_trace(self, monkeypatch):
        real = curvature.lee_form
        monkeypatch.setattr(curvature, "lee_form", lambda S: real(S) + Form(4, 1, {(0,): ONE}))
        S = get("example-5.1").build()
        rep = run_suite(S, analyze(S))
        f7 = next(c for c in rep.checks if c.identifier == "F7")
        assert (f7.status, f7.detail) == ("fail", "coefficient (1,): -1")

    @pytest.mark.parametrize("name, seed, f1, f3", [
        ("example-5.4", 7, "omega/J mismatch at (1,2)", "J not parallel in direction e_1"),
        ("example-5.1", 3, "omega/J mismatch at (1,2)", "J not parallel in direction e_3"),
        ("nearly-kaehler-s3s3", 5, "omega/J mismatch at (2,3)",
         "J not parallel in direction e_2"),
    ])
    def test_f1_f3_report_a_J_that_omega_does_not_define(self, name, seed, f1, f3):
        # witnesses pinned from the matrix loops F1 and F3 ran before J acted
        # only through Tensor.apply_J
        b = audit.Bundle(analyze(get(name).build()))
        other = rotated_structure(b.S, random.Random(seed), "foreign-J")
        b.S = copy.copy(b.S)
        b.S.J = other.J
        assert (audit.witness(audit.check_f1(b)), audit.witness(audit.check_f3(b))) == (f1, f3)

    def test_f2_reports_a_curvature_not_skew_in_its_last_pair(self):
        # riemann no longer asserts (k, l)-skewness: F2 owns it
        b = audit.Bundle(analyze(get("example-5.1").build()))
        assert audit.witness(audit.check_f2(b)) is None
        b.curv.Rm = b.curv.Rm + Tensor(4, 4, {(0, 1, 2, 3): ONE})
        assert audit.witness(audit.check_f2(b)) == "curvature not skew in (k, l): entry (1, 2, 3, 4): 1"

    def test_riemann_returns_for_a_non_metric_connection_that_f3_reports(self):
        A = analyze(get("example-5.4").build())
        mc = A.minimal
        A.minimal = Connection(mc.dim, mc.gamma + Tensor(mc.dim, 3, {(0, 1, 1): ONE}),
                               kind="minimal")
        assert not curvature.riemann(A.structure.L, A.minimal).is_antisymmetric_pair(2, 3)
        assert audit.witness(audit.check_f3(audit.Bundle(A))) == "not metric"


# -- applicability guards against the hand-written ones they replaced ----------
# The functions below are the audit's guards before they were built from
# (condition, reason) tables; they test the torsion components directly.


def _always(b: Bundle) -> Optional[str]:
    return None


def _needs_n3(b: Bundle) -> Optional[str]:
    if b.n <= 2:
        return "needs complex dimension at least 3"
    return None


def _needs_nondegenerate_dtheta(b: Bundle) -> Optional[str]:
    if b.A.dtheta.trivial_at_n2:
        return "both sides carry the factor n - 2 and degenerate in dimension four"
    return None


def _needs_w2w4(b: Bundle) -> Optional[str]:
    msg = _needs_n3(b)
    if msg:
        return msg
    if not (b.xi1.is_zero() and b.xi3.is_zero()):
        return "structure is not of the class with only xi2 and xi4"
    return None


def _needs_w1w4_n3(b: Bundle) -> Optional[str]:
    msg = _needs_n3(b)
    if msg:
        return msg
    if not (b.xi2.is_zero() and b.xi3.is_zero()):
        return "structure is not of the class with only xi1 and xi4"
    return None


def _needs_pure_w1w4(b: Bundle) -> Optional[str]:
    msg = _needs_w1w4_n3(b)
    if msg:
        return msg
    if b.xi1.is_zero():
        return "the cyclic component vanishes, nothing to force"
    return None


def _needs_su3(b: Bundle) -> Optional[str]:
    if b.n != 3:
        return "needs complex dimension 3"
    if not (b.xi2.is_zero() and b.xi3.is_zero()):
        return "needs only the cyclic and Lee components"
    if b.A.su is None:
        return "no complex volume data in the scalar ring"
    return None


def _needs_su(b: Bundle) -> Optional[str]:
    if b.A.su is None:
        return "no complex volume data in the scalar ring"
    return None


def _needs_hermitian(b: Bundle) -> Optional[str]:
    if not (b.xi1.is_zero() and b.xi2.is_zero()):
        return "structure is not integrable"
    return None


def _needs_hermitian_chern(b: Bundle) -> Optional[str]:
    msg = _needs_hermitian(b)
    if msg:
        return msg
    if b.curv.chern is None:
        return "Chern connection is not unitary"  # pragma: no cover
    return None


def _needs_no_w3(b: Bundle) -> Optional[str]:
    if not b.xi3.is_zero():
        return "the Hermitian non-Lee component is present"
    return None


def _needs_w1w4_any(b: Bundle) -> Optional[str]:
    if not (b.xi2.is_zero() and b.xi3.is_zero()):
        return "structure is not of the class with only xi1 and xi4"
    return None


def _needs_no_w3_n2(b: Bundle) -> Optional[str]:
    if b.n != 2:
        return "only stated in dimension four"
    return None


def _needs_hermitian_n2(b: Bundle) -> Optional[str]:
    msg = _needs_hermitian(b)
    if msg:
        return msg
    if b.n != 2:
        return "only stated in dimension four"
    return None


def _needs_class_p44(b: Bundle) -> Optional[str]:
    w1w4 = b.xi2.is_zero() and b.xi3.is_zero()
    w3w4 = b.xi1.is_zero() and b.xi2.is_zero()
    if not (w1w4 or w3w4):
        return "needs the Lee component together with only one other"
    return None


REFERENCE_GUARDS = {
    "P3.4H": _needs_nondegenerate_dtheta,
    "P3.4S": _needs_nondegenerate_dtheta,
    "P3.6i": _needs_w2w4,
    "P3.6ii": _needs_w1w4_n3,
    "P3.6c": _needs_pure_w1w4,
    "SU3": _needs_su3,
    "P4.3i": _needs_no_w3,
    "P4.3ia": _needs_w1w4_any,
    "P4.3ib": _needs_no_w3_n2,
    "P4.3iia": _needs_hermitian,
    "P4.3iib": _needs_hermitian_n2,
    "P4.4": _needs_class_p44,
    "P4.8i": _needs_hermitian_chern,
    "P4.8ii": _needs_hermitian_chern,
    "R4.7": _needs_su,
}
LABELS = ("W1", "W2", "W3", "W4")


def reference_guard(ident):
    return REFERENCE_GUARDS.get(ident, _always)


def stand_in_bundle(nonzero, n, su, chern, trivial_at_n2):
    """The fields the guards read, with a class verdict that matches xi1..xi4."""
    parts = {
        label: Tensor(2 * n, 3, {(0, 0, 1): ONE} if label in nonzero else {})
        for label in LABELS
    }
    A = SimpleNamespace(
        gh_class=SimpleNamespace(nonzero=nonzero),
        dtheta=SimpleNamespace(trivial_at_n2=trivial_at_n2),
        su=object() if su else None,
    )
    return SimpleNamespace(
        A=A, n=n, curv=SimpleNamespace(chern=object() if chern else None),
        xi1=parts["W1"], xi2=parts["W2"], xi3=parts["W3"], xi4=parts["W4"],
    )


STAND_INS = [
    stand_in_bundle(tuple(label for label, on in zip(LABELS, mask) if on), n, su, chern, trivial)
    for mask in itertools.product((False, True), repeat=4)
    for n in (2, 3, 4)
    for su, chern, trivial in itertools.product((False, True), repeat=3)
]


def real_bundles():
    structures = [e.build() for e in ENTRIES]
    bases = list(structures)
    for seed in (7, 11):
        rng = random.Random(seed)
        structures += [rotated_structure(bases[k % len(bases)], rng, str(k)) for k in range(5)]
    structures += [structure_from_data(doc) for doc in generate.documents(7)]
    return [audit.Bundle(analyze(S)) for S in structures]


class TestGuards:
    def test_stand_ins_reach_every_reason(self):
        reached = {reference_guard(ident)(b) for ident in identifiers() for b in STAND_INS}
        assert len(reached - {None}) == 13

    @pytest.mark.parametrize("row", audit.CHECKS, ids=lambda row: row[0])
    def test_guard_matches_the_reference_on_stand_ins(self, row):
        ident, _desc, guard, _check = row
        ref = reference_guard(ident)
        verdicts = [(guard(b), ref(b)) for b in STAND_INS]
        assert [new for new, _ in verdicts] == [old for _, old in verdicts]
        if ident in REFERENCE_GUARDS:
            assert {old is None for _, old in verdicts} == {True, False}

    def test_guards_match_the_references_on_real_bundles(self):
        bundles = real_bundles()
        assert len(bundles) == len(ENTRIES) + 10 + 32
        for b in bundles:
            assert tuple(b.A.gh_class.nonzero) == tuple(
                label for label, part in b.A.torsion.parts() if not part.is_zero()
            )
            for ident, _desc, guard, _check in audit.CHECKS:
                assert guard(b) == reference_guard(ident)(b), (b.S.name, ident)
