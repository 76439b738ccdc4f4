"""The specialization oracle: analysis commutes with substituting parameters.

A parametric file F analyzed once and evaluated at a rational point q must
give analyze(F(q)) entry by entry: the polynomial pipeline (the parser,
polynomial Scalar arithmetic, root listing) against the rational one on the
same algebra.  The class at q is the parametric class less the components
listed as vanishing at q.
"""

import copy
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ahtorsion.audit import run_suite
from ahtorsion.catalog import get, structure_from_data
from ahtorsion.cli import report_data
from ahtorsion.curvature import analyze
from ahtorsion.scalars import ZERO, Scalar, format_scalar, parse_scalar

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import generate  # noqa: E402

GRID = tuple(Fraction(q) for q in ("-2", "0", "1/2", "3/2", "3"))
DOCUMENTS = generate.documents(7) + [get("example-5.2").document]
# sections that can exist at a point but not for the family
POINT_ONLY = (("ricci_forms", "chern"), ("su_refinement",))


def at_point(s: Scalar, values: dict) -> Scalar:
    """s with each parameter named in ``values`` replaced by its rational
    value, term by term through ``Scalar.terms``."""
    out = ZERO
    for mono, (p, q) in s.terms.items():
        f = math.prod(Fraction(values[name]) ** e for name, e in mono if name in values)
        rest = tuple((name, e) for name, e in mono if name not in values)
        out = out + Scalar({rest: (p * f, q * f)}, s.d)
    return out


def specialize(doc: dict, values: dict) -> dict:
    """The structure file with the parameters in ``values`` substituted into
    every literal, each written back with ``format_scalar``."""
    d, params = doc.get("sqrt_extension", 0), doc.get("parameters", [])

    def sub(literal: str) -> str:
        return format_scalar(at_point(parse_scalar(literal, d, params), values))

    out = copy.deepcopy(doc)
    out["parameters"] = [p for p in params if p not in values]
    for entry in out.get("brackets", []):
        entry["coeffs"] = {k: sub(v) for k, v in entry["coeffs"].items()}
    for entry in out["kaehler_form"] + out.get("complex_volume", {}).get("psi_plus", []):
        entry["c"] = sub(entry["c"])
    if isinstance(out.get("metric"), list):
        out["metric"] = [[sub(x) for x in row] for row in out["metric"]]
    return out


def report_literals(data, path=()):
    """(key, literal) for every scalar literal of a JSON report outside its
    classification and audit; a term's key is its path and its indices."""
    if isinstance(data, str):
        yield path, data
    elif isinstance(data, list):
        for item in data:
            yield from report_literals(item, path)
    elif isinstance(data, dict):
        if "c" in data:
            yield path + (repr({k: v for k, v in data.items() if k != "c"}),), data["c"]
            return
        for k, v in data.items():
            if path or k not in ("name", "classification", "audit"):
                yield from report_literals(v, path + (k,))


def report(doc: dict):
    S = structure_from_data(doc)
    A = analyze(S)
    audit = run_suite(S, A)
    return A, audit, report_data(A, audit)


@pytest.mark.parametrize("doc", DOCUMENTS, ids=[doc["name"] for doc in DOCUMENTS])
def test_analysis_commutes_with_specialization(doc):
    d, params = doc.get("sqrt_extension", 0), doc["parameters"]
    (name,) = params
    A, _, data = report(doc)
    family = dict(report_literals(data))
    absent = [s for s in POINT_ONLY if all(key[: len(s)] != s for key in family)]
    special = {Fraction(v): members for v, members in A.gh_class.special_parameters.items()}
    for q in sorted(set(GRID) | set(special)):
        values = {name: q}
        point_A, point_audit, point_data = report(specialize(doc, values))
        assert point_audit.ok, (q, point_audit.counts())
        point = {key: literal for key, literal in report_literals(point_data)
                 if not any(key[: len(s)] == s for s in absent)}
        for key in family.keys() | point.keys():
            want = at_point(parse_scalar(family.get(key, "0"), d, params), values)
            assert parse_scalar(point.get(key, "0"), d) == want, (q, key)
        listed = special.get(q, [])
        assert point_A.gh_class.nonzero == tuple(
            c for c in A.gh_class.nonzero if c not in listed), q


def test_point_only_sections_are_left_out_where_the_oracle_meets_them():
    # seed-7 file 06 is integrable at q = 3/2 only: the Chern Ricci forms
    # exist at that point and not for the family
    doc = generate.documents(7)[6]
    assert report(doc)[2]["ricci_forms"]["chern"] is None
    assert report(specialize(doc, {"q": Fraction(3, 2)}))[2]["ricci_forms"]["chern"] is not None
