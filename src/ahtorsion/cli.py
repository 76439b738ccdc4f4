"""Command line interface: reports, audits and batch runs over structure files.

The structure-file grammar and the catalog documents, which are complete
examples of it, live in the catalog module.  The process exits nonzero
exactly when a file fails to parse, a report cannot be written, an identity
audit fails, or an error stops a structure's analysis.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import multiprocessing
import sys
from functools import partial
from pathlib import Path
from typing import List, Optional, Tuple

from . import catalog
from .audit import AuditReport, random_audits, run_suite
from .catalog import FileFormatError, load_structure
from .curvature import Analysis, analyze
from .multilinear import Form, GeometryError, Tensor
from .render import format_bilinear, format_form, format_torsion
from .scalars import ScalarError, format_scalar
from .structure import AlmostHermitianStructure

# batch uses no pool; bench/tracing.py still wraps this name when it traces a run
ProcessPoolExecutor = concurrent.futures.ProcessPoolExecutor


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
        if args.file is not None:
            raise FileFormatError("give a file path or --catalog, not both")
        if args.catalog == "all":
            return [e.build() for e in catalog.ENTRIES]
        return [catalog.get(args.catalog).build()]
    if args.file is None:
        raise FileFormatError("either a file path or --catalog is required")
    return [load_structure(args.file)]


def _error_text(exc: Exception) -> str:
    """An error's message, after its type unless it is one of the library's."""
    if isinstance(exc, (FileFormatError, GeometryError, ScalarError)):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _source(args, S: AlmostHermitianStructure) -> str:
    return S.name if args.catalog is not None else args.file


def _print_error(source: str, exc: Exception) -> None:
    """The error boundary's report: one line, never a traceback."""
    print(f"{source}: {_error_text(exc)}", file=sys.stderr)


def _load_targets(args) -> Optional[List[AlmostHermitianStructure]]:
    """The structures to analyse, or None after printing in one line why not."""
    try:
        return _resolve_targets(args)
    except (FileFormatError, KeyError) as exc:
        print(*exc.args, file=sys.stderr)  # the plain message: str() of a KeyError quotes it
    except Exception as exc:
        _print_error(args.file if args.catalog is None else args.catalog, exc)
    return None


def cmd_analyze(args) -> int:
    structures = _load_targets(args)
    if structures is None:
        return 1
    status = 0
    docs = []
    for S in structures:
        try:
            analysis = analyze(S)
            audit = run_suite(S, analysis)
        except Exception as exc:
            _print_error(_source(args, S), exc)
            status = 1
            continue
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
    structures = _load_targets(args)
    if structures is None:
        return 1
    status = 0
    for S in structures:
        try:
            rep = run_suite(S, analyze(S))
        except Exception as exc:
            _print_error(_source(args, S), exc)
            status = 1
            continue
        _print_audit(rep)
        if not rep.ok:
            status = 1
    if args.samples:
        try:
            # each sample prints when it is done; one that raises fails alone
            for name, outcome in random_audits(args.samples, args.seed):
                if isinstance(outcome, Exception):
                    _print_error(name, outcome)
                    status = 1
                    continue
                _print_audit(outcome)
                if not outcome.ok:
                    status = 1
        except Exception as exc:
            _print_error(f"random samples (seed {args.seed})", exc)
            return 1
    return status


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in catalog.ENTRIES:
            print(f"{entry.name}: {entry.description}")
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


def _batch_one(path: str) -> Tuple[bool, str]:
    """One file's report, or the error that stopped it: a file that cannot be
    loaded, analysed or audited fails alone, and the other reports print."""
    try:
        S = load_structure(path)
        analysis = analyze(S)
        audit = run_suite(S, analysis)
        return audit.ok, report_text(analysis, audit)
    except Exception as exc:
        return False, f"error: {_error_text(exc)}\n"


def _claim_next(counter) -> int:
    """The next unclaimed file index, from the counter every process shares."""
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i


def _batch_share(paths: List[str], claim) -> List[Tuple[int, bool, str]]:
    """Analyse the files whose indices `claim` hands out, until none is left."""
    done = []
    i = claim()
    while i < len(paths):
        done.append((i, *_batch_one(paths[i])))
        i = claim()
    return done


def _batch_worker(paths: List[str], claim, conn) -> None:
    conn.send(_batch_share(paths, claim))
    conn.close()


def _start_worker(ctx, paths: List[str], claim):
    """Start one daemonic worker process; return it and the end of its pipe
    that receives its results."""
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_batch_worker, args=(paths, claim, send), daemon=True)
    proc.start()
    send.close()  # the worker holds the only write end, so its death reads as EOF
    return proc, recv


def cmd_batch(args) -> int:
    paths = sorted(str(p) for p in Path(args.directory).glob("*.json"))
    if not paths:
        print(f"no .json structure files in {args.directory}", file=sys.stderr)
        return 1
    # `--jobs` processes share the files, this one included, and each claims
    # the next file in path order when it is free
    processes = min(args.jobs, len(paths))
    workers = []
    if processes > 1:
        ctx = multiprocessing.get_context()
        claim = partial(_claim_next, ctx.Value("i", 0))
        workers = [_start_worker(ctx, paths, claim) for _ in range(processes - 1)]
    else:
        claim = itertools.count().__next__
    results = {i: (ok, text) for i, ok, text in _batch_share(paths, claim)}
    dead = []
    for proc, recv in workers:
        try:
            results.update((i, (ok, text)) for i, ok, text in recv.recv())
        except EOFError:
            dead.append(proc)
        recv.close()
        proc.join()
    # what a dead worker had claimed has no result
    codes = " or ".join(sorted({str(proc.exitcode) for proc in dead}))
    lost = (False, f"error: worker process exited with code {codes}\n")
    status = 0
    for i, path in enumerate(paths):
        ok, text = results.get(i, lost)
        print(f"== {path} {'ok' if ok else 'FAIL'} ==")
        sys.stdout.write(text)
        if not ok:
            status = 1
    return status


def _count(option: str, least: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"{option} must be at least {least}")
    return value


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
    p.add_argument("--samples", type=partial(_count, "--samples", 0), default=0,
                   help="extra randomized forms")
    p.add_argument("--seed", type=int, default=0, help="seed for the random forms")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("catalog", help="inspect the built-in structures")
    p.add_argument("action", choices=("list",))
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("batch", help="analyze every structure file in a directory")
    p.add_argument("directory")
    p.add_argument("--jobs", type=partial(_count, "--jobs", 1), default=1,
                   help="files analysed at once, by this process and workers")
    p.set_defaults(fn=cmd_batch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
