"""Seeded structure files for the ``parametric-batch`` workload.

Every file is a diagonal solvable Lie algebra with one formal parameter q:
``[e_i, e_d] = (a_i + b_i q) e_i`` for i < d, all other brackets zero.  The
span of e_1..e_{d-1} is an abelian ideal on which e_d acts diagonally, so
the Jacobi identity holds by construction for every choice of a_i and b_i.
The first files are six-dimensional and the rest four-dimensional; ``batch``
hands files to its workers in name order, so the large ones go first.  The
metric is the identity and the Kaehler form is ``e12 + e34 (+ e56)``
rotated by one exact Givens factor from ``audit.random_rotation``, which
keeps it compatible; a factor in one of the form's own planes would leave it
fixed, so it is drawn again.  Every literal is written with ``format_scalar``: the
literal grammar rejects hand-joined text such as ``1 + -1*q``.

Two-parameter files are left out on purpose: ``classify`` lists special
parameter values with ``rational_roots``, which raises on a norm in two
parameters, so such a file crashes ``analyze`` at this commit.  The change
that fixes this adds them to the workload as its own benchmark change.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import List

from ahtorsion.audit import random_rotation
from ahtorsion.multilinear import Form
from ahtorsion.scalars import ONE, Scalar, format_scalar
from ahtorsion.structure import transform_form

FILES = 32
SIX_DIMENSIONAL = 8  # the first files, so the pool's two workers finish together
ROTATION_FACTORS = 1


def structure_document(rng: random.Random, dim: int, name: str) -> dict:
    """One structure file's JSON content, drawn from ``rng``."""
    q = Scalar.parameter("q")
    brackets = []
    for i in range(1, dim):
        a, b = rng.randint(-2, 2), rng.choice((-1, 1))
        c = Scalar.rational(a) + Scalar.rational(b) * q
        brackets.append({"i": i, "j": dim, "coeffs": {str(i): format_scalar(c)}})
    standard = Form(dim, 2, {(2 * k, 2 * k + 1): ONE for k in range(dim // 2)})
    omega = standard
    while omega == standard:
        omega = transform_form(standard, random_rotation(dim, rng, ROTATION_FACTORS))
    return {
        "name": name,
        "dimension": dim,
        "parameters": ["q"],
        "brackets": brackets,
        "kaehler_form": [
            {"i": i + 1, "j": j + 1, "c": format_scalar(v)}
            for (i, j), v in sorted(omega.coeffs.items())
        ],
    }


def documents(seed: int) -> List[dict]:
    rng = random.Random(seed)
    return [
        structure_document(rng, 6 if k < SIX_DIMENSIONAL else 4, f"param-{seed}-{k:02d}")
        for k in range(FILES)
    ]


def write_directory(seed: int, directory: Path) -> List[Path]:
    """Write the seed's structure files into ``directory``; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in documents(seed):
        path = directory / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths.append(path)
    return paths
