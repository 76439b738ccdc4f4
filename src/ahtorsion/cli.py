"""Command line interface: structure files, reports, and batch runs.

A structure file is a JSON object naming a Lie algebra with an invariant
metric and Kaehler form; see DEFINITIONS below for complete examples of the
grammar.  All scalar values are exact literals in the grammar of the scalars
module, never floats.  The process exits nonzero exactly when a file fails to
parse or an identity audit fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import catalog
from .audit import AuditReport, random_suite, run_suite
from .curvature import Analysis, analyze
from .multilinear import Form, GeometryError, LieAlgebra, Matrix, Tensor, sort_with_sign
from .render import format_bilinear, format_form, format_torsion
from .scalars import ScalarError, Scalar, format_scalar, parse_scalar
from .structure import AlmostHermitianStructure, StructureError, build_structure


class FileFormatError(ValueError):
    """A structure file that does not follow the grammar."""


# -- structure files -----------------------------------------------------------


def _scalar(value, ctx: str, d: int, params) -> Scalar:
    if not isinstance(value, str):
        raise FileFormatError(f"{ctx}: scalar values must be literal strings")
    try:
        return parse_scalar(value, d=d, parameters=params)
    except ScalarError as exc:
        raise FileFormatError(f"{ctx}: {exc}") from exc


def _index(value, ctx: str, dim: int) -> int:
    if not isinstance(value, int) or not 1 <= value <= dim:
        raise FileFormatError(f"{ctx}: index {value!r} is not in 1..{dim}")
    return value - 1


def structure_from_data(data: dict, source: str = "<data>") -> AlmostHermitianStructure:
    """Validate and build a structure from decoded structure-file JSON."""
    if not isinstance(data, dict):
        raise FileFormatError(f"{source}: top level must be a JSON object")
    dim = data.get("dimension")
    if not isinstance(dim, int) or dim < 4 or dim % 2:
        raise FileFormatError(f"{source}: dimension must be an even integer >= 4")
    name = data.get("name", source)
    params = tuple(data.get("parameters", ()))
    if not all(isinstance(p, str) for p in params):
        raise FileFormatError(f"{source}: parameters must be a list of names")
    d = data.get("sqrt_extension", 0)
    if not isinstance(d, int) or d < 0:
        raise FileFormatError(f"{source}: sqrt_extension must be a nonnegative integer")

    brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for pos, entry in enumerate(data.get("brackets", [])):
        ctx = f"{source}: brackets[{pos}]"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{ctx}: expected an object")
        i = _index(entry.get("i"), ctx, dim)
        j = _index(entry.get("j"), ctx, dim)
        if i >= j:
            raise FileFormatError(f"{ctx}: requires i < j (state each bracket once)")
        if (i, j) in brackets:
            raise FileFormatError(f"{ctx}: duplicate bracket ({i + 1},{j + 1})")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, dict) or not coeffs:
            raise FileFormatError(f"{ctx}: coeffs must be a nonempty object")
        row: Dict[int, Scalar] = {}
        for key, lit in coeffs.items():
            try:
                k = int(key)
            except ValueError:
                raise FileFormatError(f"{ctx}: coefficient key {key!r} is not an index")
            k = _index(k, ctx, dim)
            row[k] = _scalar(lit, ctx, d, params)
        brackets[(i, j)] = row
    try:
        L = LieAlgebra(dim, brackets, parameters=params, extension_d=d)
    except (StructureError, ScalarError, ValueError) as exc:
        raise FileFormatError(f"{source}: {exc}") from exc
    ok, witness = L.jacobi_check()
    if not ok:
        raise FileFormatError(f"{source}: Jacobi identity fails at {witness}")

    entries = data.get("kaehler_form")
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"{source}: kaehler_form must be a nonempty list")
    omega = Form(dim, 2)
    for pos, entry in enumerate(entries):
        ctx = f"{source}: kaehler_form[{pos}]"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{ctx}: expected an object")
        i = _index(entry.get("i"), ctx, dim)
        j = _index(entry.get("j"), ctx, dim)
        if i == j:
            raise FileFormatError(f"{ctx}: repeated index {i + 1}")
        v = _scalar(entry.get("c"), ctx, d, params)
        key, sign = (i, j), v
        if i > j:
            key, sign = (j, i), -v
        if key in omega.coeffs:
            raise FileFormatError(f"{ctx}: duplicate entry for e^{key[0]+1}{key[1]+1}")
        omega.coeffs[key] = sign

    metric_data = data.get("metric", "identity")
    metric: Optional[Matrix] = None
    if metric_data != "identity":
        if (
            not isinstance(metric_data, list)
            or len(metric_data) != dim
            or any(not isinstance(row, list) or len(row) != dim for row in metric_data)
        ):
            raise FileFormatError(
                f"{source}: metric must be \"identity\" or a {dim}x{dim} matrix"
            )
        metric = [
            [
                _scalar(metric_data[i][j], f"{source}: metric[{i}][{j}]", d, params)
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        for i in range(dim):
            for j in range(dim):
                if metric[i][j] != metric[j][i]:
                    raise FileFormatError(f"{source}: metric is not symmetric")

    psi_plus = None
    cv = data.get("complex_volume")
    if cv is not None:
        if not isinstance(cv, dict) or "psi_plus" not in cv:
            raise FileFormatError(f"{source}: complex_volume must hold psi_plus")
        degree = dim // 2
        psi_plus = Form(dim, degree)
        for pos, entry in enumerate(cv["psi_plus"]):
            ctx = f"{source}: complex_volume.psi_plus[{pos}]"
            idx = entry.get("indices") if isinstance(entry, dict) else None
            if not isinstance(idx, list) or len(idx) != degree:
                raise FileFormatError(f"{ctx}: indices must list {degree} entries")
            raw = tuple(_index(k, ctx, dim) for k in idx)
            if len(set(raw)) != degree:
                raise FileFormatError(f"{ctx}: repeated index")
            v = _scalar(entry.get("c"), ctx, d, params)
            key, sign = sort_with_sign(raw)
            if key in psi_plus.coeffs:
                raise FileFormatError(f"{ctx}: duplicate entry")
            psi_plus.coeffs[key] = v if sign == 1 else -v

    try:
        return build_structure(L, omega, metric=metric, psi_plus=psi_plus, name=name)
    except (GeometryError, ScalarError) as exc:
        raise FileFormatError(f"{source}: {exc}") from exc


def load_structure(path: str) -> AlmostHermitianStructure:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    return structure_from_data(data, source=path)


# -- catalog definitions in the file grammar ------------------------------------

DEFINITIONS: Dict[str, dict] = {
    "example-5.1": {
        "name": "example-5.1",
        "dimension": 4,
        "brackets": [
            {"i": 1, "j": 4, "coeffs": {"1": "-1"}},
            {"i": 2, "j": 4, "coeffs": {"3": "-1"}},
            {"i": 3, "j": 4, "coeffs": {"3": "-1"}},
        ],
        "kaehler_form": [
            {"i": 3, "j": 1, "c": "1"},
            {"i": 4, "j": 2, "c": "1"},
        ],
        "complex_volume": {
            "psi_plus": [
                {"indices": [1, 2], "c": "1"},
                {"indices": [4, 3], "c": "1"},
            ]
        },
    },
    "example-5.2": {
        "name": "example-5.2",
        "dimension": 4,
        "parameters": ["q"],
        "brackets": [
            {"i": 2, "j": 3, "coeffs": {"1": "-1"}},
            {"i": 2, "j": 4, "coeffs": {"2": "-1"}},
            {"i": 3, "j": 4, "coeffs": {"1": "-q", "3": "1"}},
        ],
        "kaehler_form": [
            {"i": 2, "j": 1, "c": "1"},
            {"i": 4, "j": 3, "c": "1"},
        ],
        "complex_volume": {
            "psi_plus": [
                {"indices": [1, 3], "c": "1"},
                {"indices": [2, 4], "c": "-1"},
            ]
        },
    },
    "example-5.4": {
        "name": "example-5.4",
        "dimension": 6,
        "sqrt_extension": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"5": "-1"}},
            {"i": 1, "j": 4, "coeffs": {"6": "-1"}},
            {"i": 2, "j": 3, "coeffs": {"6": "-1"}},
        ],
        "kaehler_form": [
            {"i": 6, "j": 5, "c": "1"},
            {"i": 3, "j": 1, "c": "-1/2"},
            {"i": 4, "j": 1, "c": "1/2*r"},
            {"i": 4, "j": 2, "c": "1/2"},
            {"i": 3, "j": 2, "c": "1/2*r"},
        ],
        "complex_volume": {
            "psi_plus": [
                {"indices": [1, 2, 5], "c": "1"},
                {"indices": [3, 4, 5], "c": "1"},
                {"indices": [1, 4, 6], "c": "-1/2"},
                {"indices": [2, 3, 6], "c": "-1/2"},
                {"indices": [2, 4, 6], "c": "1/2*r"},
                {"indices": [1, 3, 6], "c": "-1/2*r"},
            ]
        },
    },
    "flat-kaehler-torus": {
        "name": "flat-kaehler-torus",
        "dimension": 4,
        "brackets": [],
        "kaehler_form": [
            {"i": 1, "j": 2, "c": "1"},
            {"i": 3, "j": 4, "c": "1"},
        ],
        "complex_volume": {
            "psi_plus": [
                {"indices": [1, 3], "c": "1"},
                {"indices": [4, 2], "c": "1"},
            ]
        },
    },
    "nearly-kaehler-s3s3": {
        "name": "nearly-kaehler-s3s3",
        "dimension": 6,
        "sqrt_extension": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"3": "1"}},
            {"i": 2, "j": 3, "coeffs": {"1": "1"}},
            {"i": 1, "j": 3, "coeffs": {"2": "-1"}},
            {"i": 4, "j": 5, "coeffs": {"6": "1"}},
            {"i": 5, "j": 6, "coeffs": {"4": "1"}},
            {"i": 4, "j": 6, "coeffs": {"5": "-1"}},
        ],
        "metric": [
            ["1", "0", "0", "-1/2", "0", "0"],
            ["0", "1", "0", "0", "-1/2", "0"],
            ["0", "0", "1", "0", "0", "-1/2"],
            ["-1/2", "0", "0", "1", "0", "0"],
            ["0", "-1/2", "0", "0", "1", "0"],
            ["0", "0", "-1/2", "0", "0", "1"],
        ],
        "kaehler_form": [
            {"i": 1, "j": 4, "c": "-1/2*r"},
            {"i": 2, "j": 5, "c": "-1/2*r"},
            {"i": 3, "j": 6, "c": "-1/2*r"},
        ],
    },
}


def emit_structure_file(name: str) -> str:
    return json.dumps(DEFINITIONS[name], indent=2) + "\n"


# -- reports --------------------------------------------------------------------


def _form_terms(f: Form) -> List[dict]:
    return [
        {"indices": [i + 1 for i in idx], "c": format_scalar(f.coeffs[idx])}
        for idx in sorted(f.coeffs)
        if not f.coeffs[idx].is_zero()
    ]


def _bilinear_terms(t: Tensor) -> List[dict]:
    return [
        {"i": i + 1, "j": j + 1, "c": format_scalar(v)}
        for (i, j), v in sorted(t.coeffs.items())
        if not v.is_zero()
    ]


def _connection_forms(cc) -> Optional[dict]:
    if cc is None:
        return None
    return {"rho": _form_terms(cc.rho), "r": _form_terms(cc.r)}


def report_data(analysis: Analysis, audit: AuditReport) -> dict:
    S = analysis.structure
    gh = analysis.gh_class
    curv = analysis.curvature
    dec = analysis.torsion
    data: dict = {
        "name": S.name,
        "dimension": S.L.dim,
        "complex_dimension": S.n,
        "classification": {
            "label": gh.label,
            "nonzero_components": list(gh.nonzero),
            "special_parameters": gh.special_parameters,
        },
        "lee_form": _form_terms(analysis.theta),
        "d_omega": _form_terms(analysis.domega),
        "d_theta": {
            "full": _form_terms(analysis.dtheta.dtheta),
            "lambda0_invariant": _form_terms(analysis.dtheta.split.lambda0_part),
            "lambda20_anti_invariant": _form_terms(
                analysis.dtheta.split.lambda20_part
            ),
        },
        "torsion_norms": {k: format_scalar(v) for k, v in sorted(dec.norms.items())},
        "scalar_curvatures": {
            "s": format_scalar(curv.s),
            "s_star": format_scalar(curv.s_star),
            "s_from_torsion": format_scalar(curv.s_from_torsion),
            "s_star_from_torsion": format_scalar(curv.s_star_from_torsion),
        },
        "ricci": _bilinear_terms(curv.ric),
        "ricci_star": _bilinear_terms(curv.ric_star),
        "ricci_components": {
            "diff_trace": _bilinear_terms(curv.diff_split.trace_part),
            "diff_sym_invariant": _bilinear_terms(curv.diff_split.sym_invariant_part),
            "diff_sym_anti": _bilinear_terms(curv.diff_split.sym_anti_part),
            "comb_trace": _bilinear_terms(curv.comb_split.trace_part),
            "comb_sym_invariant": _bilinear_terms(curv.comb_split.sym_invariant_part),
        },
        "ricci_forms": {
            "levi_civita": {
                "rho": _form_terms(curv.rho),
                "r": _form_terms(curv.r),
            },
            "minimal": _connection_forms(curv.minimal),
            "chern": _connection_forms(curv.chern),
        },
        "audit": {
            "counts": audit.counts(),
            "failures": [
                {"id": c.identifier, "description": c.description, "detail": c.detail}
                for c in audit.checks
                if c.status == "fail"
            ],
            "skipped": [
                {"id": c.identifier, "reason": c.detail}
                for c in audit.checks
                if c.status == "skip"
            ],
        },
    }
    if gh.special_unlisted:
        data["classification"]["special_parameters_unlisted"] = list(gh.special_unlisted)
    if analysis.su is not None:
        su = analysis.su
        data["su_refinement"] = {
            "w1_plus": format_scalar(su.w1_plus),
            "eta": _form_terms(su.eta),
            "eta_hat": _form_terms(su.eta_hat),
            "psi_plus": _form_terms(su.psi_plus),
            "psi_minus": _form_terms(su.psi_minus),
            "auto_built": su.auto_built,
        }
    else:
        data["su_refinement"] = None
    return data


def report_text(analysis: Analysis, audit: AuditReport) -> str:
    S = analysis.structure
    gh = analysis.gh_class
    curv = analysis.curvature
    dec = analysis.torsion
    lines = [
        f"structure {S.name} (dimension {S.L.dim}, n = {S.n})",
        f"class: {gh.label} [{', '.join(gh.nonzero) or 'none'}]",
    ]
    for value, members in sorted(gh.special_parameters.items()):
        lines.append(f"  degenerates at {value}: {', '.join(members)} vanish")
    if gh.special_unlisted:
        lines.append(
            f"  special values not listed for {', '.join(gh.special_unlisted)}:"
            " norm has more than one parameter"
        )
    lines.append(f"theta = {format_form(analysis.theta)}")
    lines.append(f"d omega = {format_form(analysis.domega)}")
    lines.append(f"d theta = {format_form(analysis.dtheta.dtheta)}")
    lines.append(
        "  lambda0 part = " + format_form(analysis.dtheta.split.lambda0_part)
    )
    lines.append(
        "  lambda20 part = " + format_form(analysis.dtheta.split.lambda20_part)
    )
    for label, part in dec.parts():
        lines.append(f"xi({label}) = {format_torsion(part)}")
        lines.append(f"  |xi({label})|^2 = {format_scalar(dec.norms[label])}")
    lines.append(f"s = {format_scalar(curv.s)}")
    lines.append(f"s* = {format_scalar(curv.s_star)}")
    lines.append(f"Ric = {format_bilinear(curv.ric)}")
    lines.append(f"Ric* = {format_bilinear(curv.ric_star)}")
    lines.append(f"rho (Levi-Civita) = {format_form(curv.rho)}")
    lines.append(f"r (Levi-Civita) = {format_form(curv.r)}")
    lines.append(f"rho (minimal) = {format_form(curv.minimal.rho)}")
    lines.append(f"r (minimal) = {format_form(curv.minimal.r)}")
    if curv.chern is not None:
        lines.append(f"rho (Chern) = {format_form(curv.chern.rho)}")
        lines.append(f"r (Chern) = {format_form(curv.chern.r)}")
    else:
        lines.append("Chern connection: not unitary (structure not integrable)")
    if analysis.su is not None:
        su = analysis.su
        lines.append(f"w1+ = {format_scalar(su.w1_plus)}")
        lines.append(f"eta = {format_form(su.eta)}")
        lines.append(f"eta_hat = {format_form(su.eta_hat)}")
    counts = audit.counts()
    lines.append(
        f"audit: {counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skip']} skipped"
    )
    for c in audit.checks:
        if c.status == "fail":
            lines.append(f"  FAIL {c.identifier} ({c.description}): {c.detail}")
    return "\n".join(lines) + "\n"


# -- commands -------------------------------------------------------------------


def _resolve_targets(args) -> List[AlmostHermitianStructure]:
    if args.catalog is not None:
        if args.catalog == "all":
            return [e.build() for e in catalog.ENTRIES]
        return [catalog.get(args.catalog).build()]
    if args.file is None:
        raise FileFormatError("either a file path or --catalog is required")
    return [load_structure(args.file)]


def cmd_analyze(args) -> int:
    try:
        structures = _resolve_targets(args)
    except (FileFormatError, KeyError) as exc:
        print(exc, file=sys.stderr)
        return 1
    status = 0
    docs = []
    for S in structures:
        analysis = analyze(S)
        audit = run_suite(S, analysis)
        if not audit.ok:
            status = 1
        if args.report == "json":
            docs.append(json.dumps(report_data(analysis, audit), indent=2))
        else:
            docs.append(report_text(analysis, audit))
    out = "\n".join(docs) + ("\n" if args.report == "json" else "")
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    return status


def _print_audit(rep: AuditReport) -> None:
    counts = rep.counts()
    mark = "ok" if rep.ok else "FAIL"
    print(
        f"{rep.structure}: {mark} "
        f"(pass={counts['pass']} fail={counts['fail']} skip={counts['skip']})"
    )
    for c in rep.failures:
        print(f"  FAIL {c.identifier} ({c.description}): {c.detail}")


def cmd_audit(args) -> int:
    try:
        structures = _resolve_targets(args)
    except (FileFormatError, KeyError) as exc:
        print(exc, file=sys.stderr)
        return 1
    status = 0
    for S in structures:
        rep = run_suite(S)
        _print_audit(rep)
        if not rep.ok:
            status = 1
    if args.samples:
        for rep in random_suite(args.samples, args.seed):
            _print_audit(rep)
            if not rep.ok:
                status = 1
    return status


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in catalog.ENTRIES:
            print(f"{entry.name}: {entry.description}")
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


def _batch_one(path: str) -> Tuple[str, bool, str]:
    try:
        S = load_structure(path)
        analysis = analyze(S)
        audit = run_suite(S, analysis)
        return path, audit.ok, report_text(analysis, audit)
    except (FileFormatError, GeometryError, ScalarError) as exc:
        return path, False, f"error: {exc}\n"


def cmd_batch(args) -> int:
    paths = sorted(str(p) for p in Path(args.directory).glob("*.json"))
    if not paths:
        print(f"no .json structure files in {args.directory}", file=sys.stderr)
        return 1
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_batch_one, paths))
    else:
        results = [_batch_one(p) for p in paths]
    status = 0
    for path, ok, text in results:
        print(f"== {path} {'ok' if ok else 'FAIL'} ==")
        sys.stdout.write(text)
        if not ok:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahtorsion",
        description="exact torsion and curvature analysis of invariant "
        "almost Hermitian structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one structure")
    p.add_argument("file", nargs="?", help="structure file (JSON)")
    p.add_argument("--catalog", help="built-in structure name, or 'all'")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("audit", help="run the identity audit")
    p.add_argument("file", nargs="?", help="structure file (JSON)")
    p.add_argument("--catalog", help="built-in structure name, or 'all'")
    p.add_argument("--samples", type=int, default=0, help="extra randomized forms")
    p.add_argument("--seed", type=int, default=0, help="seed for the random forms")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("catalog", help="inspect the built-in structures")
    p.add_argument("action", choices=("list",))
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("batch", help="analyze every structure file in a directory")
    p.add_argument("directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(fn=cmd_batch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
