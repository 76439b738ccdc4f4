"""Self-tests of the benchmark: span arithmetic, generator, goldens, tracer hygiene."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_child_coverage_and_scalar_time():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping, 5 s covered)
    # and [9, 12] (clipped to 1 s); 0.5 s of aggregated scalar time on root.
    # The first child has a grandchild [2, 3] and 0.25 s of scalar time.
    spans = [
        ("root", 0.0, 10.0, -1, "s", 0.5),
        ("a", 1.0, 4.0, 0, "s", 0.25),
        ("b", 3.0, 6.0, 0, "s", 0.0),
        ("b", 9.0, 12.0, 0, "s", 0.0),
        ("a", 2.0, 3.0, 1, "s", 0.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["root"] == pytest.approx(10 - 6 - 0.5)
    assert selfs["a"] == pytest.approx((3 - 1 - 0.25) + 1)
    assert selfs["b"] == pytest.approx(3 + 3)
    incl = tracing.inclusive_times(spans)
    assert incl["a"] == pytest.approx(3.0)  # the nested "a" is not counted twice
    assert incl["root"] == pytest.approx(10.0)


def test_generator_is_deterministic_per_seed(tmp_path):
    first = [p.read_bytes() for p in generate.write_directory(3, tmp_path / "one")]
    again = [p.read_bytes() for p in generate.write_directory(3, tmp_path / "two")]
    other = [p.read_bytes() for p in generate.write_directory(4, tmp_path / "three")]
    assert first == again
    assert first != other
    assert len(first) == generate.FILES
    dims = [json.loads(b)["dimension"] for b in first]
    assert dims == [6] * generate.SIX_DIMENSIONAL + [4] * (generate.FILES - generate.SIX_DIMENSIONAL)
    assert all(json.loads(b)["parameters"] == ["q"] for b in first)


def test_golden_comparator_flags_a_one_byte_change():
    golden = (run.GOLDEN / "catalog" / "example-5.1.json").read_bytes()
    assert run.first_difference(golden, golden) is None
    pos = len(golden) // 2
    changed = golden[:pos] + bytes([golden[pos] ^ 1]) + golden[pos + 1:]
    assert f"byte {pos}" in run.first_difference(golden, changed)
    assert run.first_difference(golden, golden[:-1]) is not None


def test_batch_golden_splits_into_one_section_per_file():
    text = (run.GOLDEN / f"batch-seed{run.DEFAULT_AUDIT_SEED}.txt").read_text()
    sections = run.file_sections(text)
    names = [doc["name"] + ".json" for doc in generate.documents(run.DEFAULT_AUDIT_SEED)]
    assert list(sections) == names
    assert "".join(sections.values()) == text
    assert all(part.startswith(f"== <dir>/{name} ok ==\n") for name, part in sections.items())


def test_calibrated_time_scales_by_the_reference_pass():
    op = run.Op(wall_s=2.0, structures=1, scale=run.REFERENCE_PASS_S / 0.1)
    assert op.ref_s == pytest.approx(1.0)  # a machine at half the reference speed


def _bindings():
    """Every package-level binding, class attribute and table entry the tracer patches."""
    from ahtorsion import audit, catalog, cli  # noqa: F401 - the tracer patches cli too
    from ahtorsion.scalars import Scalar

    names = {}
    for modname, mod in sys.modules.items():
        if modname == "ahtorsion" or modname.startswith("ahtorsion."):
            for attr, value in vars(mod).items():
                if callable(value):
                    names[(modname, attr)] = value
    for cls in (Scalar, audit.Bundle):
        for attr, value in vars(cls).items():
            names[(cls.__name__, attr)] = value
    names["checks"] = list(audit.CHECKS)
    names["builds"] = [e.build for e in catalog.ENTRIES]
    return names


def test_traced_run_restores_every_original():
    from ahtorsion import audit, catalog, curvature
    from ahtorsion.multilinear import Tensor
    from ahtorsion.scalars import Scalar

    before = _bindings()
    mul, apply_j = Scalar.__mul__, Tensor.apply_J
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert Scalar.__mul__ is not mul
        S = catalog.get("flat-kaehler-torus").build()
        report = audit.run_suite(S, curvature.analyze(S))
    finally:
        tracer.restore()
    assert report.ok
    assert Scalar.__mul__ is mul and Tensor.apply_J is apply_j
    assert _bindings() == before
    names = {span[0] for span in tracer.spans}
    assert {"catalog.build", "curvature.analyze", "audit.run_suite", "audit.check.P4.6ii"} <= names
    assert tracer.aggregates()[tracing.ARITH][0] > 0
    assert tracer.counts["audit.checks.pass"] + tracer.counts["audit.checks.skip"] == 39


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    from ahtorsion import audit

    assert run.CHECK_IDS == audit.identifiers()
