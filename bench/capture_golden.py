"""Capture the golden outputs the benchmark compares against.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/capture_golden.py

It writes ``bench/golden/catalog/<entry>.json`` (the ``analyze --report
json`` bytes of each catalog entry), ``bench/golden/rotated-verdicts.json``
(the per-check verdicts of the first samples of ``random_suite`` for the
default and the held-out audit seed) and ``bench/golden/batch-seed<N>.txt``
(the ``batch`` output for the same two seeds, with the directory replaced by
``<dir>``).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import generate  # noqa: E402
from ahtorsion import audit, catalog, cli  # noqa: E402

SEEDS = (run.DEFAULT_AUDIT_SEED, run.HELD_OUT_SEED)


def main() -> int:
    (run.GOLDEN / "catalog").mkdir(parents=True, exist_ok=True)
    for entry in catalog.ENTRIES:
        out = run.GOLDEN / "catalog" / f"{entry.name}.json"
        if cli.main(["analyze", "--catalog", entry.name, "--report", "json", "--out", str(out)]):
            raise SystemExit(f"analyze {entry.name} failed")

    verdicts = {}
    for seed in SEEDS:
        reports = audit.random_suite(run.ROTATED_SAMPLES, seed)
        if not all(r.ok for r in reports):
            raise SystemExit(f"audit seed {seed} has failing checks")
        verdicts[str(seed)] = [[[c.identifier, c.status] for c in r.checks] for r in reports]
    (run.GOLDEN / "rotated-verdicts.json").write_text(json.dumps(verdicts, indent=1) + "\n")

    for seed in SEEDS:
        directory = run.WORK / "golden-capture" / "structures"
        shutil.rmtree(directory, ignore_errors=True)
        generate.write_directory(seed, directory)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["batch", str(directory), "--jobs", str(run.BATCH_JOBS)])
        if rc:
            raise SystemExit(f"batch for seed {seed} failed")
        out = buf.getvalue().replace(str(directory), "<dir>")
        (run.GOLDEN / f"batch-seed{seed}.txt").write_text(out)
    shutil.rmtree(run.WORK / "golden-capture", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
