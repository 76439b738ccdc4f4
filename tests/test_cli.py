"""Structure files, report emission, and the command line entry points."""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ahtorsion
from ahtorsion.catalog import ENTRIES, get, structure_from_data
from ahtorsion.cli import FileFormatError, load_structure, main
from ahtorsion.scalars import MAX_EXTENSION, Scalar, parse_scalar

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


SQRT_EXTENSION = "sqrt_extension must be 0 or a square-free integer in [2, 2^40)"


def structure_file(name: str) -> str:
    return json.dumps(get(name).document, indent=2) + "\n"


class TestParsing:
    def test_minimal_file_builds_flat_torus(self):
        S = structure_from_data(minimal_file())
        assert S.L.dim == 4 and S.n == 2

    def test_many_root_terms_at_the_largest_extension_load_promptly(self, tmp_path):
        # each term holding r checks that the extension is square-free
        d = MAX_EXTENSION - 2
        path = tmp_path / "roots.json"
        literal = " + ".join(f"{k}*r" for k in range(1, 51))
        path.write_text(json.dumps(minimal_file(
            sqrt_extension=d, brackets=[{"i": 1, "j": 4, "coeffs": {"1": literal}}])))
        start = time.perf_counter()
        S = load_structure(str(path))
        assert time.perf_counter() - start < 2
        assert S.L.bracket(0, 3) == {0: Scalar.rational(1275) * Scalar.root(d)}

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

    @pytest.mark.parametrize("name, message", [
        ("example-5.1", "psi_plus fails the volume relation psi^2 = -2 Vol"),
        ("example-5.4", "psi fails the volume relation -1/4 psi+ ^ psi- = Vol"),
    ])
    def test_psi_plus_off_the_volume_is_rejected(self, name, message):
        # 2 psi+ still has type (n,0)+(0,n), but it is off the volume by 4
        doubled = {"1": "2", "-1": "-2", "-1/2": "-1", "1/2*r": "r", "-1/2*r": "-r"}
        doc = dict(get(name).document)
        doc["complex_volume"] = {"psi_plus": [
            {"indices": e["indices"], "c": doubled[e["c"]]}
            for e in doc["complex_volume"]["psi_plus"]
        ]}
        with pytest.raises(FileFormatError) as info:
            structure_from_data(doc, source="doubled.json")
        assert str(info.value) == f"doubled.json: {message}"

    @pytest.mark.parametrize("field, zero", [
        ("kaehler_form", {"i": 1, "j": 2, "c": "0"}),
        ("psi_plus", {"indices": [1, 3], "c": "0"}),
    ])
    def test_zero_entry_reports_as_without_it(self, tmp_path, capsys, field, zero):
        doc = copy.deepcopy(get("example-5.1").document)
        entries = doc[field] if field == "kaehler_form" else doc["complex_volume"][field]
        reports = []
        for tag in ("without", "with"):
            if tag == "with":
                entries.append(zero)
            path = tmp_path / tag / "example.json"
            path.parent.mkdir()
            path.write_text(json.dumps(doc))
            assert main(["analyze", str(path), "--report", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("field, entries", [
        ("kaehler_form", [{"i": 1, "j": 2, "c": "0"}, {"i": 2, "j": 1, "c": "1"}]),
        ("psi_plus", [{"indices": [1, 3], "c": "0"}, {"indices": [3, 1], "c": "1"}]),
    ])
    def test_duplicate_after_a_zero_entry_rejected(self, field, entries):
        doc = copy.deepcopy(get("example-5.1").document)
        target = doc[field] if field == "kaehler_form" else doc["complex_volume"][field]
        target.extend(entries)
        with pytest.raises(FileFormatError, match="duplicate entry"):
            structure_from_data(doc)

    def test_asymmetric_metric_rejected(self):
        metric = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
        metric[0][1] = "1/2"
        with pytest.raises(FileFormatError) as info:
            structure_from_data(minimal_file(metric=metric), source="bad.json")
        assert str(info.value) == "bad.json: metric matrix must be symmetric"

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
        ({"sqrt_extension": 1000000000000000003,
          "brackets": [{"i": 1, "j": 4, "coeffs": {"1": "r"}}]}, SQRT_EXTENSION),
        ({"sqrt_extension": 1000000000000000003}, SQRT_EXTENSION),
        ({"sqrt_extension": 1 << 40}, SQRT_EXTENSION),
        ({"sqrt_extension": 12}, SQRT_EXTENSION),
        ({"sqrt_extension": 1}, SQRT_EXTENSION),
        ({"parameters": ["r"], "sqrt_extension": 3,
          "brackets": [{"i": 1, "j": 4, "coeffs": {"1": "-r"}}]},
         "parameters: 'r' is reserved for sqrt(d)"),
        ({"parameters": ["q q"]}, "parameters: 'q q' is not a name"),
        ({"parameters": [""]}, "parameters: '' is not a name"),
        ({"parameters": ["1a"]}, "parameters: '1a' is not a name"),
        ({"brackets": [{"i": 1, "j": 4, "coeffs": {"\u0662": "1"}}]},
         "brackets[0]: coefficient key '\u0662' is not an index"),
        ({"brackets": [{"i": 1, "j": 4, "coeffs": {" 2 ": "1"}}]},
         "brackets[0]: coefficient key ' 2 ' is not an index"),
        ({"brackets": [{"i": 1, "j": 4, "coeffs": {"0_2": "1"}}]},
         "brackets[0]: coefficient key '0_2' is not an index"),
        ({"kaehler_form": [{"i": 1, "j": 2, "c": "\u0663\u0663"}, {"i": 3, "j": 4, "c": "1"}]},
         "kaehler_form[0]: bad scalar literal near '\u0663\u0663'"),
    ], ids=["brackets", "parameters", "psi_plus", "zero-denominator", "sqrt_extension-true",
            "dimension-true", "index-true", "bracket-index-true", "psi_plus-index-false",
            "overlong-number", "exponent-bound", "sqrt_extension-huge-with-r",
            "sqrt_extension-huge", "sqrt_extension-bound", "sqrt_extension-square-factor",
            "sqrt_extension-one", "parameter-r", "parameter-with-space", "parameter-empty",
            "parameter-digit-first", "key-arabic-indic-digit", "key-spaces", "key-underscore",
            "literal-arabic-indic-digits"])
    def test_analyze_mistyped_field_names_it(self, tmp_path, capsys, overrides, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_file(**overrides)))
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{path}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "batch"])
    def test_deeply_nested_literal_names_its_field(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        literal = "(" * 3000 + "1" + ")" * 3000
        path.write_text(json.dumps(minimal_file(
            kaehler_form=[{"i": 1, "j": 2, "c": literal}, {"i": 3, "j": 4, "c": "1"}])))
        assert main([command, str(path if command == "analyze" else tmp_path)]) == 1
        captured = capsys.readouterr()
        report = captured.err if command == "analyze" else captured.out
        assert "deep.json: kaehler_form[0]: only a signed rational may stand in parentheses" in report
        assert "RecursionError" not in captured.err + captured.out
        # the diagnostic quotes a few characters of the literal, not all 6,001
        [line] = [line for line in report.splitlines() if "kaehler_form[0]" in line]
        assert len(line.replace(str(tmp_path), "")) < 200

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

    @pytest.mark.parametrize("sign, listed", [
        ("+", {}),
        ("-", {"-1000000": ["W2"], "1000000": ["W2"]}),
    ])
    def test_root_listing_finishes_on_a_large_constant_term(self, tmp_path, sign, listed):
        # W2's entries have the constant term 10^12: root listing must not
        # walk that term's divisors
        path = tmp_path / "large.json"
        path.write_text(json.dumps(minimal_file(
            parameters=["q"],
            brackets=[{"i": 1, "j": 4, "coeffs": {"2": f"q^2 {sign} 1000000000000"}}],
        )))
        env = dict(os.environ, PYTHONPATH=str(Path(ahtorsion.__file__).resolve().parents[1]))
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "ahtorsion.cli", "analyze", str(path), "--report", "json"],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        classification = json.loads(out.stdout)["classification"]
        assert classification["nonzero_components"] == ["W2"]
        # in ascending order, as the text report prints them
        assert list(classification["special_parameters"].items()) == list(listed.items())
        assert time.perf_counter() - start < 30

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
        assert ("  special values not listed for W2, W4: entries name more than one parameter"
                in capsys.readouterr().out.splitlines())
        assert main(["audit", str(path)]) == 0
        assert "test: ok" in capsys.readouterr().out

    def test_batch_empty_directory(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path)]) == 1

    def test_batch_prints_the_same_for_any_jobs(self, tmp_path, capsys):
        # every catalog document, a flat torus and one malformed file
        for entry in ENTRIES:
            (tmp_path / f"{entry.name}.json").write_text(structure_file(entry.name))
        (tmp_path / "torus.json").write_text(json.dumps(minimal_file()))
        (tmp_path / "broken.json").write_text("not json")
        runs = []
        for jobs in ("1", "2", "3"):
            status = main(["batch", str(tmp_path), "--jobs", jobs])
            runs.append((status, capsys.readouterr().out))
        assert runs[0] == runs[1] == runs[2]
        status, out = runs[0]
        assert status == 1 and out.count("ok ==") == len(ENTRIES) + 1
        assert out.count("FAIL ==") == 1 and "broken.json FAIL" in out

    def test_batch_redirected_to_a_file_prints_each_line_once(self, tmp_path):
        files = tmp_path / "files"
        files.mkdir()
        for name in ("example-5.1", "flat-kaehler-torus", "example-5.4"):
            (files / f"{name}.json").write_text(structure_file(name))
        env = dict(os.environ, PYTHONPATH=str(Path(ahtorsion.__file__).resolve().parents[1]))
        # the last run leaves a line in this process's buffer before the fork
        printed_first = (
            "import sys; from ahtorsion.cli import main; print('first');"
            f" main(['batch', {str(files)!r}, '--jobs', '2'])"
        )
        outputs = []
        for argv in (["-m", "ahtorsion.cli", "batch", str(files), "--jobs", "1"],
                     ["-m", "ahtorsion.cli", "batch", str(files), "--jobs", "2"],
                     ["-c", printed_first]):
            out = tmp_path / "out.txt"
            with open(out, "w") as fh:
                subprocess.run([sys.executable, *argv], stdout=fh, env=env, check=True, timeout=120)
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        assert outputs[2] == "first\n" + outputs[0]
        assert outputs[0].count("ok ==") == 3

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_reports_an_unexpected_error_as_that_files_failure(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        from ahtorsion import cli

        real = cli.analyze

        def failing(S):
            if S.name == "example-5.1":
                raise ZeroDivisionError("division by zero")
            return real(S)

        # forked workers inherit the patch
        monkeypatch.setattr(cli, "analyze", failing)
        for name in ("example-5.1", "flat-kaehler-torus"):
            (tmp_path / f"{name}.json").write_text(structure_file(name))
        assert main(["batch", str(tmp_path), "--jobs", jobs]) == 1
        out = capsys.readouterr().out
        path = tmp_path / "example-5.1.json"
        assert f"== {path} FAIL ==\nerror: ZeroDivisionError: division by zero\n" in out
        assert "flat-kaehler-torus.json ok ==" in out

    def test_batch_worker_that_dies_fails_only_its_files(self, tmp_path, capsys, monkeypatch):
        from ahtorsion import cli

        real = cli._batch_one
        parent = os.getpid()
        died = tmp_path / "died"

        def dying(path):
            if os.getpid() != parent:
                if path.endswith("d.json"):
                    died.touch()
                    os._exit(3)
            else:
                # hold this process's first file until the worker has died,
                # so that the worker claims d.json
                deadline = time.monotonic() + 60
                while not died.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return real(path)

        monkeypatch.setattr(cli, "_batch_one", dying)
        files = tmp_path / "files"
        files.mkdir()
        for name in "abcde":
            (files / f"{name}.json").write_text(json.dumps(minimal_file(name=name)))
        assert main(["batch", str(files), "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        lost = "FAIL ==\nerror: worker process exited with code 3\n"
        sections = {
            name: captured.out.split(f"== {files / name}.json ")[1].split("\n== ")[0]
            for name in "abcde"
        }
        assert sections["d"] + "\n" == lost
        assert sections["e"].startswith("ok ==\nstructure e ")
        # this process's first file is one of a, b and c; the worker's
        # results for the others died with it
        first = [name for name in "abc" if sections[name].startswith("ok ==")]
        assert len(first) == 1
        assert captured.out.count(lost) == 3
        assert "Traceback" not in captured.err

    def test_batch_starts_no_more_workers_than_files(self, tmp_path, capsys, monkeypatch):
        from ahtorsion import cli

        started = []

        class IdleWorker:
            """Stands in for a worker process and its pipe; it claims no file."""

            exitcode = 0

            def recv(self):
                return []

            def close(self):
                pass

            def join(self):
                pass

        def start(ctx, paths, claim):
            started.append(paths)
            worker = IdleWorker()
            return worker, worker

        monkeypatch.setattr(cli, "_start_worker", start)
        (tmp_path / "flat-kaehler-torus.json").write_text(structure_file("flat-kaehler-torus"))
        # this process analyses files too: one file needs no worker
        assert main(["batch", str(tmp_path), "--jobs", "64"]) == 0
        assert started == []
        (tmp_path / "example-5.1.json").write_text(structure_file("example-5.1"))
        assert main(["batch", str(tmp_path), "--jobs", "64"]) == 0
        assert len(started) == 1
        assert capsys.readouterr().out.count("ok ==") == 3

    def test_batch_processes_claim_each_file_once(self, monkeypatch):
        # more processes than cores, racing for the shared counter: a lost
        # update would hand one index to two processes
        import multiprocessing
        from functools import partial

        from ahtorsion import cli

        monkeypatch.setattr(cli, "_batch_one", lambda path: (True, ""))
        paths = [str(i) for i in range(3000)]
        ctx = multiprocessing.get_context()
        claim = partial(cli._claim_next, ctx.Value("i", 0))
        workers = [cli._start_worker(ctx, paths, claim) for _ in range(3)]
        claimed = [i for i, _, _ in cli._batch_share(paths, claim)]
        for proc, recv in workers:
            assert recv.poll(60)
            claimed += [i for i, _, _ in recv.recv()]
            proc.join(60)
            assert proc.exitcode == 0
        assert sorted(claimed) == list(range(len(paths)))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_batch_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", str(tmp_path), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["-1", "-3"])
    def test_audit_negative_samples_is_a_usage_error(self, capsys, samples):
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", "--catalog", "example-5.1", "--samples", samples])
        assert exit_info.value.code == 2
        assert "--samples must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "audit"])
    @pytest.mark.parametrize("catalog", ["example-5.1", "all"])
    def test_file_and_catalog_together_are_refused(self, tmp_path, capsys, command, catalog):
        # neither target is silently dropped for the other
        path = tmp_path / "example-5.4.json"
        path.write_text(structure_file("example-5.4"))
        assert main([command, str(path), "--catalog", catalog]) == 1
        captured = capsys.readouterr()
        assert captured.err == "give a file path or --catalog, not both\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, source", [
        (["analyze", "FILE"], "FILE"),
        (["audit", "--catalog", "example-5.1"], "example-5.1"),
    ], ids=["analyze-file", "audit-catalog"])
    def test_unexpected_error_prints_its_source_and_type(
        self, tmp_path, capsys, monkeypatch, argv, source
    ):
        from ahtorsion import cli

        def failing(S):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "analyze", failing)
        path = tmp_path / "test.json"
        path.write_text(json.dumps(minimal_file()))
        argv = [str(path) if a == "FILE" else a for a in argv]
        source = str(path) if source == "FILE" else source
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{source}: ZeroDivisionError: division by zero\n"
        assert captured.out == ""

    @pytest.mark.parametrize("content, message", [
        (b'{"name": "caf\xe9"}', "not UTF-8 text"),
        (b"[" * 200_000 + b"]" * 200_000, "JSON nested too deeply"),
    ], ids=["latin-1", "deep-array"])
    @pytest.mark.parametrize("command", ["analyze", "audit"])
    def test_unreadable_file_is_one_line_not_a_traceback(
        self, tmp_path, capsys, command, content, message
    ):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{path}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "audit"])
    def test_unexpected_error_while_loading_prints_its_source_and_type(
        self, tmp_path, capsys, monkeypatch, command
    ):
        from ahtorsion import cli

        def failing(path):
            raise MemoryError("out of memory")

        monkeypatch.setattr(cli, "load_structure", failing)
        path = tmp_path / "test.json"
        path.write_text(json.dumps(minimal_file()))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{path}: MemoryError: out of memory\n"
        assert captured.out == ""

    def test_dimension_beyond_the_kaehler_form_rank_is_rejected(self):
        # three simple 2-forms have rank at most 6
        three = [{"i": 1, "j": 2, "c": "1"}, {"i": 3, "j": 4, "c": "1"},
                 {"i": 5, "j": 6, "c": "1"}]
        structure_from_data(minimal_file(dimension=6, kaehler_form=three))
        for dim in (8, 10**30):
            with pytest.raises(FileFormatError) as err:
                structure_from_data(minimal_file(dimension=dim, kaehler_form=three))
            assert str(err.value) == (
                "<data>: dimension exceeds twice the number of kaehler_form entries")

    def test_huge_dimension_is_rejected_within_a_memory_limit(self, tmp_path):
        # run in a child under RLIMIT_AS: a loader that allocated anything of
        # size dimension would exhaust the limit there, not this process
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(minimal_file(dimension=10**30)))
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ahtorsion.cli import main\n"
            "sys.exit(main(['analyze', sys.argv[1]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ahtorsion.__file__).resolve().parents[1]))
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert out.stderr == (
            f"{path}: dimension exceeds twice the number of kaehler_form entries\n")
        assert out.stdout == ""
        assert time.perf_counter() - start < 30

    def test_a_random_sample_that_raises_fails_alone(self, capsys, monkeypatch):
        from ahtorsion import audit

        expected = audit.random_suite(3, seed=3)
        real = audit.run_suite

        def failing(S, analysis=None):
            if S.name.endswith("-sample-1"):
                raise ZeroDivisionError("division by zero")
            return real(S, analysis)

        monkeypatch.setattr(audit, "run_suite", failing)
        assert main(["audit", "--catalog", "example-5.1", "--samples", "3", "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "example-5.2-sample-1: ZeroDivisionError: division by zero\n"
        # the samples either side still print, drawn from the same random stream
        lines = captured.out.splitlines()
        assert lines[0].startswith("example-5.1: ok ")
        assert lines[1:] == [
            f"{r.structure}: ok (pass={r.counts()['pass']} fail=0 skip={r.counts()['skip']})"
            for r in (expected[0], expected[2])
        ]
        assert [r.structure for r in expected] == [
            "example-5.1-sample-0", "example-5.2-sample-1", "example-5.4-sample-2"]
        with pytest.raises(ZeroDivisionError):
            audit.random_suite(3, seed=3)

    @pytest.mark.parametrize(
        "metric, message",
        [
            ([["q", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
             "metric matrix must be parameter-free"),
            ([["1", "1", "0", "0"], ["1", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
             "metric is not positive definite"),
            ([["1", "0", "0", "0"], ["0", "-4", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
             "metric is not positive definite"),
            ([["0", "1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
             "metric is not positive definite"),
        ],
        ids=["parametric", "degenerate", "indefinite", "hyperbolic"],
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
