"""Structure files, report emission, and the command line entry points."""

import json
from pathlib import Path

import pytest

from ahtorsion.catalog import ENTRIES, get, structure_from_data
from ahtorsion.cli import FileFormatError, load_structure, main
from ahtorsion.scalars import parse_scalar

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "catalog"


def minimal_file(**overrides):
    data = {
        "name": "test",
        "dimension": 4,
        "brackets": [],
        "kaehler_form": [
            {"i": 1, "j": 2, "c": "1"},
            {"i": 3, "j": 4, "c": "1"},
        ],
    }
    data.update(overrides)
    return data


def structure_file(name: str) -> str:
    return json.dumps(get(name).document, indent=2) + "\n"


class TestParsing:
    def test_minimal_file_builds_flat_torus(self):
        S = structure_from_data(minimal_file())
        assert S.L.dim == 4 and S.n == 2

    def test_odd_dimension_rejected(self):
        with pytest.raises(FileFormatError, match="dimension"):
            structure_from_data(minimal_file(dimension=5))

    def test_out_of_range_index_rejected(self):
        bad = minimal_file(
            kaehler_form=[{"i": 1, "j": 9, "c": "1"}, {"i": 3, "j": 4, "c": "1"}]
        )
        with pytest.raises(FileFormatError, match="not in 1..4"):
            structure_from_data(bad)

    def test_float_scalar_rejected(self):
        bad = minimal_file(
            kaehler_form=[{"i": 1, "j": 2, "c": 0.5}, {"i": 3, "j": 4, "c": "1"}]
        )
        with pytest.raises(FileFormatError, match="literal strings"):
            structure_from_data(bad)

    def test_jacobi_failure_rejected_with_witness(self):
        bad = minimal_file(
            brackets=[
                {"i": 1, "j": 2, "coeffs": {"1": "1"}},
                {"i": 2, "j": 3, "coeffs": {"2": "1"}},
                {"i": 1, "j": 3, "coeffs": {"3": "-1"}},
            ]
        )
        with pytest.raises(FileFormatError, match="Jacobi"):
            structure_from_data(bad)

    def test_jacobi_witness_names_the_file_indices_under_a_metric(self):
        # [e1, e2] = e1 and [e1, e3] = e4 fail Jacobi on (e1, e2, e3) in the e4
        # component.  The metric's orthonormal frame has f4 = e4 - e1, where
        # the first failing component would be f1; the witness stays in the
        # file's basis.
        bad = minimal_file(
            brackets=[
                {"i": 1, "j": 2, "coeffs": {"1": "1"}},
                {"i": 1, "j": 3, "coeffs": {"4": "1"}},
            ],
            metric=[["1", "0", "0", "1"], ["0", "1", "0", "0"],
                    ["0", "0", "1", "0"], ["1", "0", "0", "2"]],
        )
        with pytest.raises(FileFormatError) as info:
            structure_from_data(bad, source="bad.json")
        assert str(info.value) == "bad.json: Jacobi identity fails at indices (1, 2, 3, 4)"

    def test_duplicate_bracket_rejected(self):
        bad = minimal_file(
            brackets=[
                {"i": 1, "j": 2, "coeffs": {"3": "1"}},
                {"i": 1, "j": 2, "coeffs": {"4": "1"}},
            ]
        )
        with pytest.raises(FileFormatError, match="duplicate"):
            structure_from_data(bad)

    def test_psi_plus_of_mixed_type_rejected(self):
        # omega has type (1,1), so J_(1) omega is the symmetric -g, not a form
        doc = dict(get("example-5.1").document)
        doc["complex_volume"] = {"psi_plus": [
            {"indices": [e["i"], e["j"]], "c": e["c"]} for e in doc["kaehler_form"]
        ]}
        with pytest.raises(FileFormatError, match=r"J_\(1\) psi_plus is not a form"):
            structure_from_data(doc)

    def test_malformed_json_gets_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 4,\n  "brackets": [')
        with pytest.raises(FileFormatError, match=r":2:\d+"):
            load_structure(str(path))


class TestCommands:
    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        for entry in ENTRIES:
            assert entry.name in out

    def test_analyze_text_report(self, capsys):
        assert main(["analyze", "--catalog", "example-5.1", "--report", "text"]) == 0
        out = capsys.readouterr().out
        assert "theta = -e^1 - 2*e^4" in out
        assert "s = -13/2" in out
        assert "class: locally conformal Kaehler" in out

    def test_analyze_json_report_round_trips_scalars(self, capsys):
        assert main(["analyze", "--catalog", "example-5.2", "--report", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scalar_curvatures"]["s"] == "-5/2 - 1/2*q^2"
        # every scalar in the report must parse back in the literal grammar
        def walk(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    if key == "c" or key.startswith("s"):
                        if isinstance(value, str):
                            parse_scalar(value, d=3, parameters=("q",))
                    walk(value)
            elif isinstance(node, list):
                for item in node:
                    walk(item)

        walk(data)

    def test_analyze_file_target(self, tmp_path, capsys):
        path = tmp_path / "example-5.4.json"
        path.write_text(structure_file("example-5.4"))
        assert main(["analyze", str(path), "--report", "text"]) == 0
        out = capsys.readouterr().out
        assert "theta = -(1/2*r)*e^5" in out

    def test_analyze_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--catalog",
                "flat-kaehler-torus",
                "--report",
                "json",
                "--out",
                str(target),
            ]
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["classification"]["label"] == "Kaehler"

    def test_unwritable_out_file_is_an_error_not_a_traceback(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code = main(
            ["analyze", "--catalog", "flat-kaehler-torus", "--report", "json", "--out", str(target)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"{target}: No such file or directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
    def test_json_report_matches_the_golden_bytes(self, entry, tmp_path):
        target = tmp_path / "report.json"
        assert main(["analyze", "--catalog", entry.name, "--report", "json", "--out", str(target)]) == 0
        assert target.read_bytes() == (GOLDEN / f"{entry.name}.json").read_bytes()

    def test_analyze_broken_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["analyze", str(path)]) == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"brackets": 3}, "brackets must be a list"),
        ({"parameters": 5}, "parameters must be a list of names"),
        ({"complex_volume": {"psi_plus": 3}}, "complex_volume must hold a psi_plus list"),
        ({"kaehler_form": [{"i": 1, "j": 2, "c": "1/0"}, {"i": 3, "j": 4, "c": "1"}]},
         "kaehler_form[0]: zero denominator in '1/0'"),
        ({"sqrt_extension": True}, "sqrt_extension must be a nonnegative integer"),
        ({"dimension": True}, "dimension must be an even integer >= 4"),
        ({"kaehler_form": [{"i": True, "j": 2, "c": "1"}, {"i": 3, "j": 4, "c": "1"}]},
         "kaehler_form[0]: index True is not an integer"),
        ({"brackets": [{"i": 1, "j": True, "coeffs": {"2": "1"}}]},
         "brackets[0]: index True is not an integer"),
        ({"complex_volume": {"psi_plus": [{"indices": [1, False], "c": "1"}]}},
         "complex_volume.psi_plus[0]: index False is not an integer"),
        ({"kaehler_form": [{"i": 1, "j": 2, "c": "1" + "0" * 5000}, {"i": 3, "j": 4, "c": "1"}]},
         "kaehler_form[0]: number of 5001 digits in scalar literal is too long"),
        ({"parameters": ["q"],
          "kaehler_form": [{"i": 1, "j": 2, "c": "q^32768"}, {"i": 3, "j": 4, "c": "1"}]},
         "kaehler_form[0]: exponent 32768 exceeds 32767"),
    ], ids=["brackets", "parameters", "psi_plus", "zero-denominator", "sqrt_extension-true",
            "dimension-true", "index-true", "bracket-index-true", "psi_plus-index-false",
            "overlong-number", "exponent-bound"])
    def test_analyze_mistyped_field_names_it(self, tmp_path, capsys, overrides, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_file(**overrides)))
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{path}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "audit"])
    def test_unknown_catalog_entry_prints_the_plain_message(self, command, capsys):
        assert main([command, "--catalog", "bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("no catalog entry named 'bogus'; known: example-5.1, ")
        assert err.endswith("nearly-kaehler-s3s3\n")

    def test_audit_catalog_entry(self, capsys):
        assert main(["audit", "--catalog", "example-5.1"]) == 0
        assert "example-5.1: ok" in capsys.readouterr().out

    def test_audit_all_with_samples(self, capsys):
        assert main(["audit", "--catalog", "all", "--samples", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == len(ENTRIES) + 2

    def test_batch_reports_per_file_and_exit_status(self, tmp_path, capsys):
        for name in ("example-5.1", "flat-kaehler-torus"):
            (tmp_path / f"{name}.json").write_text(structure_file(name))
        assert main(["batch", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ==") == 2

        (tmp_path / "broken.json").write_text("not json")
        assert main(["batch", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "broken.json FAIL" in out

    def test_two_parameter_file_analyzes_and_audits_ok(self, tmp_path, capsys):
        path = tmp_path / "two-parameter.json"
        path.write_text(
            json.dumps(
                minimal_file(
                    parameters=["p", "q"],
                    brackets=[
                        {"i": 1, "j": 4, "coeffs": {"1": "-p"}},
                        {"i": 2, "j": 4, "coeffs": {"2": "-q"}},
                        {"i": 3, "j": 4, "coeffs": {"3": "-1"}},
                    ],
                )
            )
        )
        assert main(["analyze", str(path), "--report", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        classification = data["classification"]
        assert classification["special_parameters"] == {}
        assert classification["special_parameters_unlisted"] == ["W2", "W4"]
        assert main(["analyze", str(path), "--report", "text"]) == 0
        assert "special values not listed for W2, W4" in capsys.readouterr().out
        assert main(["audit", str(path)]) == 0
        assert "test: ok" in capsys.readouterr().out

    def test_batch_empty_directory(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "metric, message",
        [
            ([["q", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
             "metric matrix must be parameter-free"),
            ([["1", "1", "0", "0"], ["1", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
             "metric is degenerate"),
        ],
        ids=["parametric", "degenerate"],
    )
    def test_rejected_metric_is_a_file_error(self, tmp_path, capsys, metric, message):
        path = tmp_path / "bad-metric.json"
        path.write_text(json.dumps(minimal_file(parameters=["q"], metric=metric)))
        with pytest.raises(FileFormatError, match=message):
            load_structure(str(path))
        for command in ("analyze", "audit"):
            assert main([command, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"{path}: {message}\n"
            assert "Traceback" not in captured.out + captured.err

        # one bad file leaves the reports of the others in the directory
        (tmp_path / "flat-kaehler-torus.json").write_text(structure_file("flat-kaehler-torus"))
        assert main(["batch", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"== {path} FAIL ==\nerror: {path}: {message}\n" in out
        assert "flat-kaehler-torus.json ok ==" in out

    def test_corrupted_connection_gives_a_failing_report_not_a_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        from ahtorsion import curvature
        from ahtorsion.multilinear import Tensor
        from ahtorsion.scalars import ONE
        from ahtorsion.structure import Connection

        real = curvature.levi_civita

        def with_torsion(S):
            conn = real(S)
            delta = Tensor(conn.dim, 3, {(0, 1, 2): ONE, (0, 2, 1): -ONE})
            return Connection(conn.dim, conn.gamma + delta, kind="levi_civita")

        monkeypatch.setattr(curvature, "levi_civita", with_torsion)
        path = tmp_path / "example-5.1.json"
        path.write_text(structure_file("example-5.1"))
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert "  FAIL F2 (" in captured.out and "): not torsion-free\n" in captured.out
        assert "Traceback" not in captured.out + captured.err


class TestDefinitions:
    def test_definitions_are_valid_json_documents(self):
        for entry in ENTRIES:
            assert json.loads(structure_file(entry.name)) == entry.document

    def test_build_returns_a_fresh_structure(self):
        entry = get("example-5.1")
        entry.build().omega.coeffs.clear()
        assert not entry.build().omega.is_zero()
