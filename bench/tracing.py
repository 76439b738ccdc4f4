"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the library from outside:
each target is replaced at its defining attribute and at every name another
``ahtorsion`` module bound to it, and ``restore`` puts the originals back.
Untraced runs never construct a Tracer, so they run the library untouched.

Calls into most targets become spans ``(name, start, end, parent, sid,
hot_child_s)`` kept in memory.  The scalar-level targets (ring arithmetic,
literal parsing and formatting, root listing) run hundreds of thousands of
times per structure, so they are aggregated per name instead: their call
count and self time are summed, and their duration is charged to the
enclosing span as ``hot_child_s`` so that span's self time excludes it.
Only the outermost ``Scalar`` operator call is timed and counted; operators
that call other operators internally (``a - b`` is ``a + (-b)``) count once.

Worker processes forked by ``batch --jobs`` inherit the wrappers.  An
after-fork hook clears the inherited state in the worker and arranges for
the worker to dump its spans and aggregates to ``child_dir`` when it exits;
``merge_children`` folds those dumps back in.  This relies on the ``fork``
start method, the default on Linux for the Python versions this repository
supports.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

PACKAGE = "ahtorsion"

# (metric name, module, attribute path) for span targets.
SPAN_TARGETS: List[Tuple[str, str, str]] = [
    ("multilinear.exterior_derivative", "multilinear", "exterior_derivative"),
    ("multilinear.hodge_star", "multilinear", "hodge_star"),
    ("multilinear.codifferential", "multilinear", "codifferential"),
    ("multilinear.Form.wedge", "multilinear", "Form.wedge"),
    ("multilinear.Tensor.apply_J", "multilinear", "Tensor.apply_J"),
    ("multilinear.Tensor.contract", "multilinear", "Tensor.contract"),
    ("multilinear.Tensor.inner", "multilinear", "Tensor.inner"),
    ("multilinear.LieAlgebra.jacobi_check", "multilinear", "LieAlgebra.jacobi_check"),
    ("structure.covariant_derivative", "structure", "Connection.covariant_derivative"),
    ("structure.levi_civita", "structure", "levi_civita"),
    ("structure.intrinsic_torsion", "structure", "intrinsic_torsion"),
    ("structure.minimal_connection", "structure", "minimal_connection"),
    ("structure.chern_connection", "structure", "chern_connection"),
    ("structure.build_structure", "structure", "build_structure"),
    ("decomposition.lee_form", "decomposition", "lee_form"),
    ("decomposition.split_torsion", "decomposition", "split_torsion"),
    ("decomposition.classify", "decomposition", "classify"),
    ("decomposition.dtheta_report", "decomposition", "dtheta_report"),
    ("decomposition.split_bilinear", "decomposition", "split_bilinear"),
    ("decomposition.split_two_form", "decomposition", "split_two_form"),
    ("curvature.analyze", "curvature", "analyze"),
    ("curvature.riemann", "curvature", "riemann"),
    ("curvature.ricci_pair", "curvature", "ricci_pair"),
    ("curvature.ricci_form", "curvature", "ricci_form"),
    ("curvature.transposed_ricci_form", "curvature", "transposed_ricci_form"),
    ("curvature.connection_curvature", "curvature", "connection_curvature"),
    ("curvature.su_refinement", "curvature", "su_refinement"),
    ("curvature.curvature_report", "curvature", "curvature_report"),
    ("audit.run_suite", "audit", "run_suite"),
    ("audit.bundle", "audit", "Bundle.__init__"),
    ("cli.load_structure", "cli", "load_structure"),
    ("cli.report_data", "cli", "report_data"),
    ("cli.report_text", "cli", "report_text"),
    ("render.format", "render", "format_form"),
    ("render.format", "render", "format_bilinear"),
    ("render.format", "render", "format_torsion"),
]

# Aggregated (not span-recorded) scalar-level targets.
HOT_TARGETS: List[Tuple[str, str, str]] = [
    ("scalars.parse", "scalars", "parse_scalar"),
    ("scalars.format", "scalars", "format_scalar"),
    ("scalars.rational_roots", "scalars", "rational_roots"),
]
ARITH_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__neg__",
)
ARITH = "scalars.arith"

# Span names whose result size is counted as ``<name>.out_nnz``.
OUT_NNZ = ("structure.covariant_derivative", "curvature.riemann")


def self_times(spans: Sequence[tuple]) -> Dict[str, float]:
    """Self time per span name: duration minus the part its children cover.

    A span's children are the spans naming it as parent; the union of their
    intervals, clipped to the parent's, is subtracted, and so is the
    aggregated scalar-level time recorded on the span itself.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _sid, _hot in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, float] = {}
    for idx, (name, start, end, _parent, _sid, hot) in enumerate(spans):
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[name] = out.get(name, 0.0) + (end - start) - covered - hot
    return out


def inclusive_times(spans: Sequence[tuple]) -> Dict[str, float]:
    """Summed duration of the spans of each name not nested in one of the same name."""
    out: Dict[str, float] = {}
    for name, start, end, parent, _sid, _hot in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def coefficient_growth(obj, seen: Optional[set] = None) -> Tuple[int, int]:
    """(max rational terms in one scalar, max denominator bits) reachable from obj."""
    from ahtorsion.scalars import Scalar

    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0, 0
    seen.add(id(obj))
    if isinstance(obj, Scalar):
        terms, bits = 0, 0
        for p, q in obj.terms.values():
            for c in (p, q):
                if c != 0:
                    terms += 1
                    bits = max(bits, Fraction(c).denominator.bit_length())
        return terms, bits
    if isinstance(obj, dict):
        items: Iterable = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0, 0
    terms, bits = 0, 0
    for item in items:
        t, b = coefficient_growth(item, seen)
        terms, bits = max(terms, t), max(bits, b)
    return terms, bits


class Tracer:
    """Spans, aggregates and exact counts for one traced run."""

    def __init__(self, child_dir: Optional[Path] = None):
        self.spans: List[Optional[tuple]] = []
        self.stack: List[list] = []  # frames: [span index or -1, hot child seconds]
        self.hot: Dict[str, List[float]] = {}  # name -> [calls, self seconds]
        self.counts: Dict[str, int] = {}
        self.sid: str = ""
        self.child_dir = child_dir
        self._arith_depth = 0
        self.arith_calls = 0
        self.arith_s = 0.0
        self._patches: List[Tuple[object, object, object]] = []  # owner, key, original
        self._installed = False
        if child_dir is not None:
            multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None,
             sid_from_path: bool = False) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if sid_from_path and not stack and args:
                tracer.sid = Path(str(args[0])).name
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.sid, frame[1])
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            frame = [-1, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                agg = tracer.hot.setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    def arith(self, fn: Callable) -> Callable:
        tracer = self

        def traced(*args):
            if tracer._arith_depth:
                return fn(*args)
            tracer._arith_depth = 1
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - start
                tracer._arith_depth = 0
                tracer.arith_calls += 1
                tracer.arith_s += dur
                stack = tracer.stack
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapped) -> None:
        """Replace ``original`` wherever a package module bound it by name."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        import ahtorsion.audit as audit
        import ahtorsion.catalog as catalog
        import ahtorsion.cli as cli
        from ahtorsion.scalars import Scalar

        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in (
            "scalars", "multilinear", "structure", "decomposition",
            "curvature", "audit", "catalog", "cli", "render")}

        after = {name: _count_nnz(name) for name in OUT_NNZ}
        after["curvature.analyze"] = _record_growth
        after["audit.run_suite"] = _record_verdicts
        for name, mod, path in SPAN_TARGETS:
            owner = mods[mod]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.span(name, original, after.get(name),
                                sid_from_path=(name == "cli.load_structure"))
            if owner_path:
                self._set(owner, attr, wrapped)
            else:
                self._rebind(original, wrapped)
        for name, mod, attr in HOT_TARGETS:
            original = getattr(mods[mod], attr)
            self._rebind(original, self.aggregate(name, original))
        for attr in ARITH_METHODS:
            self._set(Scalar, attr, self.arith(vars(Scalar)[attr]))

        # run_suite reads its checks from a list of tuples, not module names
        for pos, (ident, desc, guard, fn) in enumerate(list(audit.CHECKS)):
            self._set_item(audit.CHECKS, pos,
                           (ident, desc, guard, self.span(f"audit.check.{ident}", fn)))
        for entry in catalog.ENTRIES:
            self._set(entry, "build", self.span("catalog.build", entry.build))
        self._set(cli, "ProcessPoolExecutor", _traced_pool(self, cli.ProcessPoolExecutor))

    def _set_item(self, seq: list, pos: int, value) -> None:
        self._patches.append((seq, pos, seq[pos]))
        seq[pos] = value

    def restore(self) -> None:
        """Put every patched attribute and list entry back, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(key, int):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed = False

    # -- worker processes ----------------------------------------------------

    def _after_fork(self) -> None:
        if not self._installed:
            return
        self.spans, self.stack, self.hot, self.counts = [], [], {}, {}
        self.arith_calls, self.arith_s = 0, 0.0
        self.sid = ""
        multiprocessing.util.Finalize(None, self._dump_child, exitpriority=100)

    def _dump_child(self) -> None:
        path = self.child_dir / f"child-{os.getpid()}.json"
        path.write_text(json.dumps(
            {"spans": self.spans, "hot": self.aggregates(), "counts": self.counts}))

    def merge_children(self) -> None:
        """Fold the dumps of exited worker processes into this tracer."""
        for path in sorted(self.child_dir.glob("child-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            base = len(self.spans)
            for name, start, end, parent, sid, hot in data["spans"]:
                self.spans.append(
                    (name, start, end, parent + base if parent >= 0 else -1, sid, hot))
            for name, (calls, secs) in data["hot"].items():
                if name == ARITH:
                    self.arith_calls += calls
                    self.arith_s += secs
                else:
                    agg = self.hot.setdefault(name, [0, 0.0])
                    agg[0] += calls
                    agg[1] += secs
            for name, value in data["counts"].items():
                if name in MAX_COUNTS:
                    self.maximum(name, value)
                else:
                    self.count(name, value)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, then the aggregates and counts."""
        with open(path, "w") as fh:
            for name, start, end, parent, sid, hot in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "sid": sid,
                                     "hot_child_s": hot}) + "\n")
            fh.write(json.dumps({"aggregates": self.aggregates(), "counts": self.counts}) + "\n")

    def aggregates(self) -> Dict[str, List[float]]:
        """[calls, self seconds] per aggregated name, ring arithmetic included."""
        return {**self.hot, ARITH: [self.arith_calls, self.arith_s]}


MAX_COUNTS = ("scalars.max_terms", "scalars.max_den_bits")


def _count_nnz(name: str) -> Callable:
    def after(tracer: Tracer, result) -> None:
        tracer.count(f"{name}.out_nnz", len(result.coeffs))
    return after


def _record_growth(tracer: Tracer, analysis) -> None:
    outputs = {k: v for k, v in vars(analysis).items() if k != "structure"}
    terms, bits = coefficient_growth(outputs)
    tracer.maximum("scalars.max_terms", terms)
    tracer.maximum("scalars.max_den_bits", bits)


def _record_verdicts(tracer: Tracer, report) -> None:
    for check in report.checks:
        tracer.count(f"audit.checks.{check.status}")


def _traced_pool(tracer: Tracer, base: type) -> type:
    """The executor class with the parent's blocking time recorded as a span."""

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            wait = tracer.span("cli.batch.pool_wait",
                               lambda: list(super(TracedPool, self).map(fn, *iterables, **kwargs)))
            return iter(wait())

        def shutdown(self, *args, **kwargs):
            return tracer.span("cli.batch.pool_wait",
                               lambda: super(TracedPool, self).shutdown(*args, **kwargs))()

    return TracedPool
