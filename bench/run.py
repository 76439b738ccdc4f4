"""End-to-end benchmark of ahtorsion, with an optional traced run per layer.

Run from the repository root:

    python3 bench/run.py --workload catalog-report --seed 1 --seconds 40 --trace 0

The benchmark drives the library from outside through its public entry
points, checks every output against the goldens in ``bench/golden`` (or,
where no golden exists for a seed, against the audit verdict), and prints a
header, one line per metric with its unit and sample count, and as the last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs one round untraced and the same round traced, and reports the
per-layer metrics plus the tracing overhead.  Spans of traced runs are
written to ``.bench_work/traces/``.

Workloads (one process, closed loop: each op starts when the previous one
has finished; ``batch`` itself uses two worker processes):

* ``catalog-report``: one op is ``analyze --catalog <name> --report json``
  for one catalog entry; a round is the five entries in a seeded order.
  This is what users run first; the tensors are small and sparse.
* ``rotated-audit``: one op is one sample of ``audit --samples N --seed S``
  (``rotated_structure`` plus ``run_suite``), reproducing ``random_suite``'s
  random sequence exactly; a round is the first five samples (one per
  catalog algebra) of the stream of ``--audit-seed``, in ``random_suite``'s
  order.  ``--seed`` does not change this workload: one rotated
  six-dimensional sample takes 4 s to 15 s depending on its rotation, so a
  seed-dependent sample set could not give steady figures.  The default
  audit seed 7 is the Tier-1 gate's stream; 11 is held out for checking
  claims.  This workload is run by hand and is not in ``BENCHMARK.json``:
  over ten runs on a shared two-core Xeon with Python 3.11 its median and
  tail per structure, in raw seconds, spread by 0.24 to 0.39 of their
  medians, beyond the largest bound a benchmark metric may have; and a
  round of it takes longer than a run may.
* ``parametric-batch``: the seed's 32 single-parameter structure files from
  ``generate.py`` are split into eight directories of one six- and three
  four-dimensional file each, so that the two workers finish together; one
  op is ``batch <dir> --jobs 2`` over one directory, and a round is the
  eight directories.  It is the only workload with file parsing,
  multi-monomial scalars, root listing and the process pool on its path,
  and the bypass case for a parameter-free fast path.  Per-structure times
  are a round's time divided by its 32 files, because the pool hides each
  file's own time; with two or three rounds in a run, the median is the
  mean round's share and the "tail" the slowest round's.

A run repeats rounds until ``--seconds`` have passed and at least the
workload's minimum number of rounds is done.  ``catalog-report`` needs
thirteen: with eleven, its tail percentile falls on the slowest entry's
fastest time, which varies more from run to run than its third fastest.  In
``rotated-audit`` a sample that takes less than five seconds is repeated
until its repetitions take five, and its time is the fastest repetition:
the median structure is a single four-dimensional sample of about 2 s, and
back-to-back repetitions of it on a shared two-core Xeon differed by up to
a third.  Round and throughput figures are computed from these per-op
times.

End-to-end times are in reference seconds; the traced run's per-layer
times are raw seconds, as they compare within one run.  The shared host
this was written on changes speed by a third within seconds and by half
over minutes, for any Python code alike, so raw seconds of one run do not
compare with another run's.  After each op and each set-up the benchmark times a calibration
loop (fixed ``Fraction`` arithmetic that calls no library code), and
scales the op's time by ``REFERENCE_PASS_S`` over the mean of the loop's
times either side of it: a reference second is a second on a machine where
the loop takes ``REFERENCE_PASS_S``.  A change to the library moves these
figures as it moves raw seconds; the machine's speed does not.  The raw
seconds are printed too, as ``raw.*``, but are not in the result line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
WORK = Path(".bench_work")

DEFAULT_AUDIT_SEED = 7
HELD_OUT_SEED = 11
ROTATED_SAMPLES = 5
BATCH_JOBS = 2
TIME_CAP_S = 140  # stop starting rounds after this, whatever the minimum

CALIBRATION_TERMS = 6000

# A reference second is a second on a machine where one pass of the
# calibration loop takes REFERENCE_PASS_S (Python 3.11 on a 2 GHz Xeon).
REFERENCE_PASS_S = 0.05

END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("struct_per_s", "1/s", "higher"),
    ("struct_s.p50", "s", "lower"),
    ("struct_s.tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

CHECK_IDS = [
    "F1", "F2", "F3", "F4", "F5", "F6", "F7", "L3.1a", "L3.1b", "L3.1c",
    "E3.1", "R3.3", "P3.4R", "P3.4H", "P3.4S", "P3.6i", "P3.6ii", "P3.6c",
    "SU3", "E4.1", "E4.2", "L4.1", "E4.4", "E4.5", "SIGMA", "P4.3i",
    "P4.3ia", "P4.3ib", "P4.3iia", "P4.3iib", "P4.4", "P4.6i", "P4.6ii",
    "P4.6iii", "P4.8i", "P4.8ii", "P4.10", "C4.11", "R4.7",
]

SELF_TIMED = [
    "scalars.arith", "scalars.parse", "scalars.rational_roots", "scalars.format",
    "cli.load_structure", "cli.report_data", "cli.report_text", "render.format",
    "multilinear.exterior_derivative", "multilinear.hodge_star",
    "multilinear.codifferential", "multilinear.Form.wedge",
    "multilinear.Tensor.apply_J", "multilinear.Tensor.contract",
    "multilinear.Tensor.inner", "multilinear.LieAlgebra.jacobi_check",
    "structure.covariant_derivative", "structure.levi_civita",
    "structure.intrinsic_torsion", "structure.minimal_connection",
    "structure.chern_connection", "structure.build_structure",
    "decomposition.lee_form", "decomposition.split_torsion",
    "decomposition.classify", "decomposition.dtheta_report",
    "decomposition.split_bilinear", "decomposition.split_two_form",
    "curvature.riemann", "curvature.ricci_pair", "curvature.ricci_form",
    "curvature.transposed_ricci_form", "curvature.connection_curvature",
    "curvature.su_refinement", "curvature.curvature_report",
    "audit.bundle",
] + [f"audit.check.{ident}" for ident in CHECK_IDS]
SPAN_CALLS = [
    "multilinear.Tensor.apply_J", "multilinear.exterior_derivative",
    "structure.covariant_derivative",
]
INCLUSIVE = {
    "curvature.analyze.s": "curvature.analyze",
    "audit.run_suite.s": "audit.run_suite",
    "catalog.build.s": "catalog.build",
    "cli.batch.pool_wait_s": "cli.batch.pool_wait",
}
COUNTS: List[Tuple[str, str, str]] = [
    ("scalars.arith.calls", "count", "lower"),
    ("scalars.max_terms", "count", "lower"),
    ("scalars.max_den_bits", "bits", "lower"),
    ("structure.covariant_derivative.out_nnz", "count", "lower"),
    ("curvature.riemann.out_nnz", "count", "lower"),
    ("audit.checks.pass", "count", "higher"),
    ("audit.checks.skip", "count", "lower"),
]
PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"{name}.self_s", "s", "lower") for name in SELF_TIMED]
    + [(f"{name}.calls", "count", "lower") for name in SPAN_CALLS]
    + [(name, "s", "lower") for name in INCLUSIVE]
    + COUNTS
    + [("trace.overhead_s", "s", "lower")]
)

# The metrics of the result line; ``measure`` also prints raw times in seconds.
RESULT_METRICS = {name for name, _, _ in END_TO_END + PER_LAYER}


# -- results ----------------------------------------------------------------


@dataclass
class Op:
    wall_s: float
    structures: int
    failure: Optional[str] = None
    reps: int = 1
    scale: float = 1.0  # reference seconds per second while the op ran

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    ops: List[Op] = field(default_factory=list)
    rounds: List[List[Op]] = field(default_factory=list)

    def add_round(self, ops: List[Op]) -> None:
        self.ops.extend(ops)
        self.rounds.append(ops)

    @property
    def failed(self) -> List[Op]:
        return [op for op in self.ops if op.failure is not None]


def first_difference(expected: bytes, actual: bytes) -> Optional[str]:
    """None when the bytes are identical, else where they first differ."""
    if expected == actual:
        return None
    pos = next((i for i, (a, b) in enumerate(zip(expected, actual)) if a != b),
               min(len(expected), len(actual)))
    return (f"differs from the golden at byte {pos} "
            f"(golden {len(expected)} bytes, output {len(actual)} bytes)")


def file_sections(text: str) -> Dict[str, str]:
    """``batch`` output split into each file's header and report, by file name."""
    sections = {}
    for part in re.split(r"(?m)^(?=== )", text):
        if part:
            sections[part.split(" ", 2)[1].rsplit("/", 1)[-1]] = part
    return sections


def tail(values: List[float]) -> Tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], "max (fewer than 11 samples)"
    i = len(xs) - 11
    return xs[i], f"p{100 * (i + 1) / len(xs):.0f}"


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    min_rounds = 1
    setup_repeats = 5
    repeat_s = 0.0  # an op is repeated until its repetitions take this long
    calibration_passes = 4  # passes of the calibration loop after each op
    structures_timed_by_round = False  # True: a structure takes its round's time over its files

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.rng = random.Random(args.seed)
        self.first_output: Dict[str, bytes] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def items(self) -> list:
        """The ops of one round, in the order they run."""
        raise NotImplementedError

    def op(self, item) -> Op:
        raise NotImplementedError

    @staticmethod
    def timed(fn: Callable[[], Optional[str]], structures: int = 1) -> Op:
        start = time.perf_counter()
        try:
            failure = fn()
        except Exception as exc:  # an op that raises is a failed op
            failure = f"raised {type(exc).__name__}: {exc}"
        return Op(time.perf_counter() - start, structures, failure)


class CatalogReport(Workload):
    name = "catalog-report"
    why = "the five catalog entries as JSON reports: small sparse tensors, mostly rational scalars"
    min_rounds = 13
    setup_repeats = 15
    calibration_passes = 2

    def setup(self) -> None:
        from ahtorsion import catalog

        self.names = [entry.build().name for entry in catalog.ENTRIES]
        self.golden = {n: (GOLDEN / "catalog" / f"{n}.json").read_bytes() for n in self.names}
        self.out = self.work / "report.json"

    def items(self) -> list:
        order = list(self.names)
        self.rng.shuffle(order)
        return order

    def op(self, name: str) -> Op:
        from ahtorsion import cli

        def call() -> Optional[str]:
            self.out.unlink(missing_ok=True)  # a failed op must not pass on the last report
            rc = cli.main(["analyze", "--catalog", name, "--report", "json", "--out", str(self.out)])
            diff = first_difference(self.golden[name], self.out.read_bytes())
            if rc != 0:
                return f"{name}: exit status {rc}"
            return f"{name}: report {diff}" if diff else None

        return self.timed(call)


class RotatedAudit(Workload):
    name = "rotated-audit"
    why = ("the first five samples of the seed-7 randomized audit (the Tier-1 gate) in order: "
           "dense six-dimensional Q(sqrt 3) arithmetic")
    repeat_s = 5.0

    def setup(self) -> None:
        from ahtorsion import audit, catalog

        self.bases = [entry.build() for entry in catalog.ENTRIES]
        rng = random.Random(self.args.audit_seed)
        self.states = []
        for k in range(ROTATED_SAMPLES):
            self.states.append(rng.getstate())
            audit.rotated_structure(self.bases[k % len(self.bases)], rng, str(k))
        goldens = json.loads((GOLDEN / "rotated-verdicts.json").read_text())
        self.golden = goldens.get(str(self.args.audit_seed))

    def items(self) -> list:
        return list(range(ROTATED_SAMPLES))

    def op(self, k: int) -> Op:
        from ahtorsion import audit

        def call() -> Optional[str]:
            rng = random.Random()
            rng.setstate(self.states[k])
            S = audit.rotated_structure(self.bases[k % len(self.bases)], rng, str(k))
            report = audit.run_suite(S)
            verdicts = [[c.identifier, c.status] for c in report.checks]
            if not report.ok:
                return f"sample {k}: audit failures {[c.identifier for c in report.failures]}"
            if self.golden is not None and verdicts != self.golden[k]:
                return f"sample {k}: verdicts differ from the golden"
            return None

        return self.timed(call)


class ParametricBatch(Workload):
    name = "parametric-batch"
    why = "seeded single-parameter files through batch --jobs 2: parsing, polynomial scalars, the pool"
    setup_repeats = 5
    # The pool hides each file's own time, and an op's time is mostly that of
    # its one six-dimensional file, whose cost varies by a factor of two.
    structures_timed_by_round = True

    def setup(self) -> None:
        import generate
        from ahtorsion import cli

        directory = self.work / "structures"
        shutil.rmtree(directory, ignore_errors=True)
        paths = generate.write_directory(self.args.seed, directory / "all")
        for path in paths:
            cli.load_structure(str(path))
        six, four = paths[:generate.SIX_DIMENSIONAL], paths[generate.SIX_DIMENSIONAL:]
        per_part = len(four) // len(six)
        self.parts: List[str] = []
        for k, first in enumerate(six):
            part = directory / f"part-{k}"
            part.mkdir()
            for path in [first] + four[k * per_part:(k + 1) * per_part]:
                path.rename(part / path.name)
            self.parts.append(str(part))
        self.files = {part: sorted(p.name for p in Path(part).glob("*.json")) for part in self.parts}
        golden = GOLDEN / f"batch-seed{self.args.seed}.txt"
        self.expected: Optional[Dict[str, bytes]] = None
        if golden.exists():
            sections = file_sections(golden.read_text())
            self.expected = {part: "".join(sections[name] for name in names).encode()
                             for part, names in self.files.items()}

    def items(self) -> list:
        return list(self.parts)

    def op(self, part: str) -> Op:
        from ahtorsion import cli

        def call() -> Optional[str]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["batch", part, "--jobs", str(BATCH_JOBS)])
            out = buf.getvalue().replace(part, "<dir>").encode()
            label = Path(part).name
            if rc != 0:
                return f"batch {label}: exit status {rc}"
            if self.expected is not None:
                diff = first_difference(self.expected[part], out)
                return f"batch {label}: output {diff}" if diff else None
            headers = [line for line in out.decode().splitlines() if line.startswith("== ")]
            if len(headers) != len(self.files[part]) or not all(h.endswith(" ok ==") for h in headers):
                return f"batch {label}: output does not report every file ok"
            first = self.first_output.setdefault(part, out)
            diff = first_difference(first, out)
            return f"batch {label}: output {diff} of the run's first op" if diff else None

        return self.timed(call, structures=len(self.files[part]))


WORKLOADS = {w.name: w for w in (CatalogReport, RotatedAudit, ParametricBatch)}


# -- running --------------------------------------------------------------------


def calibration_s(passes: int) -> float:
    """Mean time of one pass of the calibration loop, over ``passes`` passes.

    The loop is fixed exact arithmetic in the style of the library's sparse
    tensors (``Fraction`` products summed into a dict) and calls none of the
    library's code, so its time follows the machine's speed alone.
    """
    start = time.perf_counter()
    for _ in range(passes):
        acc: Dict[int, Fraction] = {}
        x = Fraction(1, 3)
        for i in range(CALIBRATION_TERMS):
            k = i * 7 % 101
            acc[k] = acc.get(k, Fraction(0)) + x * Fraction(i % 13 + 1, i % 11 + 2)
    return (time.perf_counter() - start) / passes


class Calibration:
    """Passes of the calibration loop between timed intervals."""

    def __init__(self, passes: int):
        self.passes = passes
        self.last = calibration_s(passes)
        self.times: List[float] = []

    def scale(self) -> float:
        """Reference seconds per second for the interval since the last call.

        Calibrates again and takes the mean of the passes either side.
        """
        after = calibration_s(self.passes)
        self.times.append((self.last + after) / 2)
        self.last = after
        return REFERENCE_PASS_S / self.times[-1]


def timed_setup(workload: Workload, clock: Calibration, repeats: int = 1) -> List[Tuple[float, float]]:
    """Set-up times, each in seconds and in reference seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup()
        raw = time.perf_counter() - start
        times.append((raw, raw * clock.scale()))
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def repeated_op(workload: Workload, item) -> Op:
    """The op, repeated until the repetitions take ``repeat_s``; its time is the fastest."""
    reps = [workload.op(item)]
    while reps[-1].failure is None and sum(r.wall_s for r in reps) < workload.repeat_s:
        reps.append(workload.op(item))
    return Op(min(r.wall_s for r in reps), reps[-1].structures, reps[-1].failure, len(reps))


def measure(workload: Workload, seconds: float) -> Tuple[Outcome, Dict[str, Metric]]:
    """End-to-end metrics in reference seconds, and the same in raw seconds as ``raw.*``."""
    clock = Calibration(workload.calibration_passes)
    setups = timed_setup(workload, clock, workload.setup_repeats)
    outcome = Outcome()
    start = time.perf_counter()
    while True:
        ops = []
        for item in workload.items():
            op = repeated_op(workload, item)
            op.scale = clock.scale()
            ops.append(op)
        outcome.add_round(ops)
        setups += timed_setup(workload, clock)  # set-up samples spread over the whole run
        elapsed = time.perf_counter() - start
        if elapsed >= TIME_CAP_S or (
            elapsed >= seconds and len(outcome.rounds) >= workload.min_rounds
        ):
            break
    ops = outcome.ops
    good = sum(op.structures for op in ops if op.failure is None)
    metrics: Dict[str, Metric] = {}
    groups = outcome.rounds if workload.structures_timed_by_round else [[op] for op in ops]
    for prefix, pick, time_of in (("", 1, lambda op: op.ref_s), ("raw.", 0, lambda op: op.wall_s)):
        rounds = [sum(map(time_of, r)) for r in outcome.rounds]
        per_struct = [sum(map(time_of, g)) / sum(op.structures for op in g) for g in groups]
        tail_value, tail_label = tail(per_struct)
        metrics.update({
            f"{prefix}setup_s": Metric(statistics.median(t[pick] for t in setups), "s", len(setups)),
            f"{prefix}wall_s": Metric(statistics.median(rounds), "s", len(rounds), "median per round"),
            f"{prefix}struct_per_s": Metric(good / sum(map(time_of, ops)), "1/s", len(ops),
                                            "correct structures per second"),
            f"{prefix}struct_s.p50": Metric(statistics.median(per_struct), "s", len(per_struct)),
            f"{prefix}struct_s.tail": Metric(tail_value, "s", len(per_struct), tail_label),
        })
    metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    metrics["calibration_pass_s"] = Metric(statistics.median(clock.times), "s", len(clock.times),
                                           "median")
    return outcome, metrics


def measure_traced(workload: Workload, trace_path: Path) -> Tuple[Outcome, Dict[str, Metric]]:
    """One round with each op run untraced and then traced.

    The pairs share their warm state, so the difference of the two sums is
    the tracing overhead.  The traced setup is recorded too, for
    ``catalog.build``.
    """
    import tracing

    workload.setup()
    children = workload.work / "trace-children"
    children.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(child_dir=children)
    tracer.install()
    try:
        tracer.sid = "setup"
        workload.setup()
    finally:
        tracer.restore()
    untraced, traced = Outcome(), Outcome()
    for item in workload.items():
        untraced.add_round([workload.op(item)])
        tracer.install()
        try:
            tracer.sid = str(item)
            traced.add_round([workload.op(item)])
        finally:
            tracer.restore()
    tracer.merge_children()
    tracer.write(trace_path)
    overhead = sum(op.wall_s for op in traced.ops) - sum(op.wall_s for op in untraced.ops)
    outcome = Outcome(untraced.ops + traced.ops)
    n_ops = len(traced.ops)

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    incl = tracing.inclusive_times(spans)
    aggregates = tracer.aggregates()
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    metrics: Dict[str, Metric] = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".self_s"):
            base = name[: -len(".self_s")]
            value = aggregates[base][1] if base in aggregates else selfs.get(base, 0.0)
            n = aggregates[base][0] if base in aggregates else calls.get(base, 0)
        elif name.endswith(".calls") and name != "scalars.arith.calls":
            base = name[: -len(".calls")]
            value = n = calls.get(base, 0)
        elif name in INCLUSIVE:
            value, n = incl.get(INCLUSIVE[name], 0.0), calls.get(INCLUSIVE[name], 0)
        elif name == "scalars.arith.calls":
            value = n = aggregates[tracing.ARITH][0]
        elif name == "trace.overhead_s":
            value, n = overhead, 2 * n_ops
        else:
            value, n = tracer.counts.get(name, 0), n_ops
        metrics[name] = Metric(value, unit, n)
    return outcome, metrics


def git_commit() -> str:
    """HEAD's commit read from .git without starting a process, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(workload: Workload, outcome: Outcome, metrics: Dict[str, Metric]) -> dict:
    print(f"# workload {workload.name}: {workload.why}")
    for name, m in metrics.items():
        note = f"  ({m.note})" if m.note else ""
        value = f"{m.value:>16d}" if isinstance(m.value, int) else f"{m.value:>16.6f}"
        print(f"{name:<44} {value} {m.unit:<6} n={m.samples}{note}")
    attempted = sum(op.reps for op in outcome.ops)
    failed = len(outcome.failed)
    print(f"{'ops_attempted':<44} {attempted:>16d} count  n=1")
    print(f"{'ops_failed_ratio':<44} {failed / attempted:>16.6f} ratio  n={attempted}")
    for op in outcome.failed[:10]:
        print(f"FAILED: {op.failure}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in metrics.items()
                    if k in RESULT_METRICS},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_AUDIT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--audit-seed", type=int, default=DEFAULT_AUDIT_SEED,
                        help=f"random_suite seed of rotated-audit ({HELD_OUT_SEED} is held out)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ahtorsion").is_dir() or not GOLDEN.is_dir():
        print("bench: run from a checkout holding src/ahtorsion and bench/golden",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))

    print(f"# ahtorsion benchmark: python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, commit {git_commit()}, seed {args.seed}, "
          f"audit seed {args.audit_seed}, seconds {args.seconds:g}, trace {args.trace}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    traces = WORK / "traces"
    results = {}
    try:
        for name in names:
            work = run_dir / name
            work.mkdir(parents=True, exist_ok=True)
            workload = WORKLOADS[name](args, work)
            if args.trace:
                traces.mkdir(parents=True, exist_ok=True)
                path = traces / f"{name}-seed{args.seed}.jsonl"
                outcome, metrics = measure_traced(workload, path)
                print(f"# spans written to {path}")
            else:
                outcome, metrics = measure(workload, args.seconds)
            results[name] = report(workload, outcome, metrics)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
