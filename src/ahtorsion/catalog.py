"""Structure files and the built-in example structures.

A structure file is a JSON object naming a Lie algebra with an invariant
metric and Kaehler form; the catalog documents below are complete examples of
the grammar.  All scalar values are exact literals in the grammar of the
scalars module, never floats, and indices are 1-based.

Each catalog entry is one such document, and ``build()`` parses it afresh, so
callers can mutate the result freely.  The two solvable surfaces and the
nilmanifold carry the full golden data used in the tests; the torus and the
twisted product of two round 3-spheres cover the extreme classes (Kaehler and
nearly Kaehler).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .multilinear import Form, GeometryError, LieAlgebra, Matrix, sort_with_sign
from .scalars import MAX_EXTENSION, NAME, Scalar, ScalarError, is_square_free, parse_scalar
from .structure import AlmostHermitianStructure, StructureError, build_structure


class FileFormatError(ValueError):
    """A structure file that does not follow the grammar."""


# -- structure files -----------------------------------------------------------


def _scalar(value, ctx: str, d: int, params, parsed: Dict[str, Scalar]) -> Scalar:
    """Parse a literal once per document: ``parsed`` maps each literal seen to its
    Scalar, which is immutable and so safe to share."""
    if not isinstance(value, str):
        raise FileFormatError(f"{ctx}: scalar values must be literal strings")
    s = parsed.get(value)
    if s is None:
        try:
            s = parsed[value] = parse_scalar(value, d=d, parameters=params)
        except ScalarError as exc:
            raise FileFormatError(f"{ctx}: {exc}") from exc
    return s


def _is_int(value) -> bool:
    """Whether a decoded JSON value is an integer; JSON true and false are not,
    though Python's bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _index(value, ctx: str, dim: int) -> int:
    if not _is_int(value):
        raise FileFormatError(f"{ctx}: index {value!r} is not an integer")
    if not 1 <= value <= dim:
        raise FileFormatError(f"{ctx}: index {value!r} is not in 1..{dim}")
    return value - 1


def structure_from_data(data: dict, source: str = "<data>") -> AlmostHermitianStructure:
    """Validate and build a structure from decoded structure-file JSON."""
    if not isinstance(data, dict):
        raise FileFormatError(f"{source}: top level must be a JSON object")
    dim = data.get("dimension")
    if not _is_int(dim) or dim < 4 or dim % 2:
        raise FileFormatError(f"{source}: dimension must be an even integer >= 4")
    # k simple 2-forms have rank at most 2k: this bounds every allocation below
    entries = data.get("kaehler_form")
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"{source}: kaehler_form must be a nonempty list")
    if dim > 2 * len(entries):
        raise FileFormatError(
            f"{source}: dimension exceeds twice the number of kaehler_form entries")
    name = data.get("name", source)
    params = data.get("parameters", [])
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise FileFormatError(f"{source}: parameters must be a list of names")
    for p in params:
        if p == "r":
            raise FileFormatError(f"{source}: parameters: 'r' is reserved for sqrt(d)")
        if not NAME.fullmatch(p):
            raise FileFormatError(f"{source}: parameters: {p!r} is not a name")
    params = tuple(params)
    d = data.get("sqrt_extension", 0)
    if not _is_int(d) or d < 0:
        raise FileFormatError(f"{source}: sqrt_extension must be a nonnegative integer")
    if d and not (d < MAX_EXTENSION and is_square_free(d)):
        raise FileFormatError(
            f"{source}: sqrt_extension must be 0 or a square-free integer in [2, 2^40)")
    parsed: Dict[str, Scalar] = {}

    brackets_data = data.get("brackets", [])
    if not isinstance(brackets_data, list):
        raise FileFormatError(f"{source}: brackets must be a list")
    brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for pos, entry in enumerate(brackets_data):
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
            try:  # ASCII digits only: int() also reads " 2 ", "0_2" and Arabic-Indic digits
                if not (key.isascii() and key.isdigit()):
                    raise ValueError(key)
                k = int(key)
            except ValueError:
                raise FileFormatError(f"{ctx}: coefficient key {key!r} is not an index")
            k = _index(k, ctx, dim)
            row[k] = _scalar(lit, ctx, d, params, parsed)
        brackets[(i, j)] = row
    try:
        L = LieAlgebra(dim, brackets, extension_d=d)
    except (StructureError, ScalarError, ValueError) as exc:
        raise FileFormatError(f"{source}: {exc}") from exc

    # each entry is stored on its sorted key, zeros too, so that a duplicate
    # key is caught; Form drops the zeros
    raw: Dict[Tuple[int, ...], Scalar] = {}
    for pos, entry in enumerate(entries):
        ctx = f"{source}: kaehler_form[{pos}]"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{ctx}: expected an object")
        i = _index(entry.get("i"), ctx, dim)
        j = _index(entry.get("j"), ctx, dim)
        if i == j:
            raise FileFormatError(f"{ctx}: repeated index {i + 1}")
        v = _scalar(entry.get("c"), ctx, d, params, parsed)
        key = (min(i, j), max(i, j))
        if key in raw:
            raise FileFormatError(f"{ctx}: duplicate entry for e^{key[0]+1}{key[1]+1}")
        raw[key] = v if i < j else -v
    omega = Form(dim, 2, raw)

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
                _scalar(metric_data[i][j], f"{source}: metric[{i}][{j}]", d, params, parsed)
                for j in range(dim)
            ]
            for i in range(dim)
        ]

    psi_plus = None
    cv = data.get("complex_volume")
    if cv is not None:
        if not isinstance(cv, dict) or not isinstance(cv.get("psi_plus"), list):
            raise FileFormatError(f"{source}: complex_volume must hold a psi_plus list")
        degree = dim // 2
        raw = {}
        for pos, entry in enumerate(cv["psi_plus"]):
            ctx = f"{source}: complex_volume.psi_plus[{pos}]"
            idx = entry.get("indices") if isinstance(entry, dict) else None
            if not isinstance(idx, list) or len(idx) != degree:
                raise FileFormatError(f"{ctx}: indices must list {degree} entries")
            indices = tuple(_index(k, ctx, dim) for k in idx)
            if len(set(indices)) != degree:
                raise FileFormatError(f"{ctx}: repeated index")
            v = _scalar(entry.get("c"), ctx, d, params, parsed)
            key, sign = sort_with_sign(indices)
            if key in raw:
                raise FileFormatError(f"{ctx}: duplicate entry")
            raw[key] = v if sign == 1 else -v
        psi_plus = Form(dim, degree, raw)

    # build_structure checks the Jacobi identity before it changes frame, so a
    # witness names the file's own indices
    try:
        return build_structure(L, omega, metric=metric, psi_plus=psi_plus, name=name)
    except (GeometryError, ScalarError) as exc:
        raise FileFormatError(f"{source}: {exc}") from exc


def load_structure(path: str) -> AlmostHermitianStructure:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    return structure_from_data(data, source=path)


# -- the catalog -----------------------------------------------------------------


@dataclass
class CatalogEntry:
    description: str
    document: dict  # a structure file, decoded

    @property
    def name(self) -> str:
        return self.document["name"]

    def build(self) -> AlmostHermitianStructure:
        """A freshly built structure, parsed from the entry's document."""
        return structure_from_data(self.document, source=self.name)


ENTRIES: List[CatalogEntry] = [
    CatalogEntry(
        "solvable 4-dimensional Lie algebra, locally conformal Kaehler (W4)",
        {
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
    ),
    CatalogEntry(
        "Inoue-surface algebra with parameter q, Hermitian of type W4",
        {
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
    ),
    CatalogEntry(
        "6-dimensional nilmanifold algebra, Hermitian of type W3 + W4",
        {
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
    ),
    CatalogEntry(
        "abelian algebra with the standard Kaehler structure",
        {
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
    ),
    # su(2) + su(2) with the twisted metric and canonical J.  Basis (X1, X2,
    # X3, Y1, Y2, Y3): the metric pairs X_i with Y_i through the off-diagonal
    # block -1/2, and J X_i = (X_i + 2 Y_i)/sqrt(3), so omega(U, V) = <U, JV>
    # gives omega(X_i, Y_i) = -sqrt(3)/2.
    CatalogEntry(
        "su(2) + su(2) with the canonical nearly Kaehler structure (W1)",
        {
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
    ),
]


def names() -> List[str]:
    return [e.name for e in ENTRIES]


def get(name: str) -> CatalogEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}; known: {', '.join(names())}")
