"""Command line interface: reports, audits and batch runs over structure files.

The structure-file grammar and the catalog documents, which are complete
examples of it, live in the catalog module.  The process exits nonzero
exactly when a file fails to parse, a report cannot be written, or an
identity audit fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import List, Optional, Tuple

from . import catalog
from .audit import AuditReport, random_suite, run_suite
from .catalog import FileFormatError, load_structure
from .curvature import Analysis, analyze
from .multilinear import Form, GeometryError, Tensor
from .render import format_bilinear, format_form, format_torsion
from .scalars import ScalarError, format_scalar
from .structure import AlmostHermitianStructure


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
        # the plain message: str() of a KeyError quotes it
        print(*exc.args, file=sys.stderr)
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
        try:
            Path(args.out).write_text(out)
        except OSError as exc:
            print(f"{args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
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
        # the plain message: str() of a KeyError quotes it
        print(*exc.args, file=sys.stderr)
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
