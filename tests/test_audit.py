"""The identity audit: coverage, determinism, and failure reporting."""

import random

import pytest

from ahtorsion import audit
from ahtorsion.audit import (
    AuditReport,
    IdentityCheck,
    identifiers,
    random_rotation,
    random_suite,
    rotated_structure,
    run_suite,
)
from ahtorsion.catalog import ENTRIES, get
from ahtorsion.scalars import ONE, Scalar, ZERO

R = Scalar.rational


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


class TestReporting:
    def test_failure_is_reported_not_raised(self, monkeypatch):
        broken = ("XX", "always fails", audit._always, lambda b: "forced witness")
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
