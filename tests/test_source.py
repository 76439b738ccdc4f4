"""Static checks on the library source."""

import ast
from pathlib import Path

import pytest

from ahtorsion.catalog import get

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ahtorsion"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names a module imports but never reads, as (line, name) pairs."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "from typing import Dict, List\nimport os.path\n\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "Dict"), (2, "os")]


def scatter_folds(source: str):
    """Lines that add one term to a dict entry with its own normalisation:
    ``X[k] = X[k] + ... if k in X else ...`` (or ``-``), or ``.add_to(``.
    Kernels sum through ``scalars.Accumulator`` instead."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.value, ast.IfExp)
            and isinstance(node.value.test, ast.Compare)
            and isinstance(node.value.test.ops[0], ast.In)
            and isinstance(node.value.body, ast.BinOp)
            and isinstance(node.value.body.op, (ast.Add, ast.Sub))
        ):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_to"
        ):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_sums_through_the_accumulator(path):
    assert scatter_folds(path.read_text()) == []


def test_scatter_fold_is_found():
    source = (
        "acc = {}\n"
        "acc[k] = acc[k] + p if k in acc else p\n"
        "acc[(j, k)] = acc[(j, k)] - p if (j, k) in acc else -p\n"
        "t.add_to((i, j), v)\n"
        "x = a if k in acc else b\n"
    )
    assert scatter_folds(source) == [2, 3, 4]


def _is_J(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "J") or (
        isinstance(node, ast.Attribute) and node.attr == "J"
    )


J_TABLES = ("rows", "den", "signed_perm")


def j_matrix_reads(source: str):
    """Lines that read entries of a J matrix by hand: a subscript of ``J`` or
    ``x.J`` (``S.J[m]``, ``J[m][k]``), its unpacking (``zip(*J)``), a read of
    one of the tables ``J`` prepares (``S.J.rows``, ``J.den``), or a call of
    ``_stored_rows``.  Outside ``multilinear``, J acts only through its
    primitives: ``Tensor.apply_J``, ``Tensor.trace_J``, the rotated terms of
    ``_combine`` and ``add_rotated``, and ``_pair_xi`` with J."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Subscript, ast.Starred)) and _is_J(node.value):
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in J_TABLES and _is_J(node.value):
            lines.add(node.lineno)
        elif isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "_stored_rows")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "_stored_rows")
        ):
            lines.add(node.lineno)
    return sorted(lines)


J_CLIENTS = [p for p in MODULES if p.name != "multilinear.py"]


@pytest.mark.parametrize("path", J_CLIENTS, ids=[p.name for p in J_CLIENTS])
def test_module_acts_with_J_only_through_the_tensor_primitives(path):
    assert j_matrix_reads(path.read_text()) == []


def test_j_matrix_read_is_found():
    source = (
        "w = S.J[m][k]\n"
        "J[i][j] = v\n"
        "cols = list(zip(*self.J))\n"
        "rows = _stored_rows(M)\n"
        "t = xi.apply_J(1, S.J).trace_J(0, 2, J)\n"
        "x = K[m][k]\n"
        "rows = S.J.rows\n"
        "d = self.S.J.den\n"
        "if J.signed_perm is None: pass\n"
        "y = K.rows, b.den, J.dim\n"
        "z = _combine((1, t, (0, 1)), J=S.J)\n"
    )
    assert j_matrix_reads(source) == [1, 2, 3, 4, 7, 8, 9]


def test_j_tables_are_what_J_prepares():
    J = get("nearly-kaehler-s3s3").build().J
    assert [name for name in J_TABLES if not hasattr(J, name)] == []


def witness_text_outside_the_formatter(source: str):
    """Lines where audit code writes witness text itself: a ``check_*``
    function that returns a string constant or an f-string, or a reference
    to ``format_scalar`` outside ``witness``.  Checks return their parts and
    ``audit.witness`` alone turns them into text."""
    lines = set()
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "witness":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "format_scalar":
                lines.add(node.lineno)
        if isinstance(top, ast.FunctionDef) and top.name.startswith("check_"):
            for node in ast.walk(top):
                if isinstance(node, ast.Return) and (
                    isinstance(node.value, ast.JoinedStr)
                    or (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))
                ):
                    lines.add(node.lineno)
    return sorted(lines)


def test_audit_writes_witness_text_in_one_place():
    assert witness_text_outside_the_formatter((SOURCE / "audit.py").read_text()) == []


def test_witness_text_outside_the_formatter_is_found():
    source = (
        "from .scalars import format_scalar\n"
        "def witness(parts):\n"
        "    return format_scalar(parts[0][1])\n"
        "def check_a(b):\n"
        "    return 'not metric'\n"
        "def check_b(b):\n"
        "    return f'entry {b}'\n"
        "def check_c(b):\n"
        "    return [('label', b.x)]\n"
        "def helper(v):\n"
        "    return format_scalar(v)\n"
    )
    assert witness_text_outside_the_formatter(source) == [5, 7, 11]


def chained_rotations(source: str):
    """Lines with a ``.apply_J(...).apply_J(...)`` chain, which rotates twice
    through two accumulators.  Outside ``multilinear``, J acts on two slots
    through a rotated term of ``_combine``, ``(c, t, (a, b))``, which makes
    one pass."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "apply_J"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "apply_J"
        ):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", J_CLIENTS, ids=[p.name for p in J_CLIENTS])
def test_module_rotates_two_slots_in_one_pass(path):
    assert chained_rotations(path.read_text()) == []


def test_chained_rotation_is_found():
    source = (
        "t = b.apply_J(0, S.J).apply_J(1, S.J)\n"
        "u = _combine((1, b, (0, 1)), J=S.J)\n"
        "v = (\n"
        "    xi.apply_J(0, J)\n"
        "    .apply_J(2, J)\n"
        ")\n"
        "w = b.apply_J(0, J).trace_J(0, 1, J)\n"
        "x = b.trace_J(0, 1, J).apply_J(1, J)\n"
    )
    assert chained_rotations(source) == [1, 4]


def scalar_births(source: str):
    """(function, line) of each place that makes an object without its
    ``__new__``/``__init__`` or changes an object's class: a reference to
    ``object.__new__`` or to a module-level alias of it, and an
    assignment to ``__class__``.  Functions are named by their qualified
    name, the module level by ``<module>``.  A Scalar is born in one
    function, ``scalars._make``, and nowhere else."""
    tree = ast.parse(source)
    aliases = {}  # alias name -> the module-level assignment binding it

    def is_object_new(node):
        return (isinstance(node, ast.Attribute) and node.attr == "__new__"
                and isinstance(node.value, ast.Name) and node.value.id == "object")

    for node in tree.body:
        if isinstance(node, ast.Assign) and is_object_new(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases[target.id] = node.value
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if is_object_new(node) and node not in aliases.values():
            found.add((scope, node.lineno))
        elif (isinstance(node, ast.Name) and node.id in aliases
              and isinstance(node.ctx, ast.Load)):
            found.add((scope, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "__class__" and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            found.add((scope, node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "__class__"):
            found.add((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return sorted(found, key=lambda f: f[1])


def test_a_scalar_is_born_in_one_function():
    births = {(path.name, scope) for path in MODULES
              for scope, _ in scalar_births(path.read_text())}
    assert births == {("scalars.py", "_make")}


def test_scalar_birth_elsewhere_is_found():
    source = (
        "_new = object.__new__\n"
        "def _make(a):\n"
        "    s = _new(Body)\n"
        "    s.__class__ = Scalar\n"
        "    return s\n"
        "def other(s):\n"
        "    t = object.__new__(Scalar)\n"
        "    setattr(s, '__class__', Body)\n"
        "    return _new\n"
        "class K:\n"
        "    def f(self, x):\n"
        "        x.__class__, y = K, 1\n"
        "        return x.__class__\n"
    )
    assert scalar_births(source) == [
        ("_make", 3), ("_make", 4), ("other", 7), ("other", 8), ("other", 9), ("K.f", 12)]


def index_cube_scans(source: str):
    """Lines that walk every k-subset of an index range with k >= 3, or with
    a k that is not a literal: ``combinations(range(...), k)``, which costs
    C(d, k) whatever the structure stores.  Kernels scatter from stored
    entries instead."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "combinations"):
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Call) and getattr(first.func, "id", None) == "range"):
            continue
        sizes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "r"]
        if not (sizes and isinstance(sizes[0], ast.Constant) and sizes[0].value < 3):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_walks_no_index_subsets(path):
    assert index_cube_scans(path.read_text()) == []


def test_index_cube_scan_is_found():
    source = (
        "for quad in itertools.combinations(range(b.dim), 4): pass\n"
        "for t in combinations(range(n), 3): pass\n"
        "pairs = itertools.combinations(range(4), 2)\n"
        "subsets = combinations(range(d), r=3)\n"
        "chosen = itertools.combinations(range(d), k)\n"
        "parts = itertools.combinations(comps, 3)\n"
        "other = itertools.permutations(range(d), 3)\n"
    )
    assert index_cube_scans(source) == [1, 2, 4, 5]


SCALAR_MAPS = ("_a", "_b", "_den")


def scalar_map_reads(source: str):
    """Lines that read or write a Scalar's private maps, ``x._a``, ``x._b``
    or ``x._den``.  Outside ``scalars``, a Scalar is read through its public
    methods (``terms``, ``parameters()``, ``ratio()``, ``rational_roots``)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in SCALAR_MAPS})


SCALAR_CLIENTS = [p for p in MODULES if p.name != "scalars.py"]


@pytest.mark.parametrize("path", SCALAR_CLIENTS, ids=[p.name for p in SCALAR_CLIENTS])
def test_module_reads_scalars_through_their_public_methods(path):
    assert scalar_map_reads(path.read_text()) == []


def test_scalar_map_read_is_found():
    source = (
        "p = {m: c for m, c in s._a.items()}\n"
        "if x._b:\n"
        "    pass\n"
        "den = self.coeff._den * 2\n"
        "t._a = {}\n"
        "k = J.den, s.a, s._ab, s.terms\n"
        "getattr(s, '_a')\n"
    )
    assert scalar_map_reads(source) == [1, 2, 4, 5]


def coeffs_assignments(source: str):
    """(function, line) of each place that binds or deletes a ``.coeffs``
    attribute, in any assignment target or through ``setattr``/``delattr``.
    Functions are named by their qualified name, the module level by
    ``<module>``.  A form or tensor gets its stored entries in its
    constructor or in ``of_nonzero`` and nowhere else; writing entries into
    the map, ``t.coeffs[k] = v``, is no rebinding."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if (isinstance(node, ast.Attribute) and node.attr == "coeffs"
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            found.add((scope, node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "coeffs"):
            found.add((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(found, key=lambda f: f[1])


def test_stored_entries_are_bound_only_by_constructors():
    bindings = {(path.name, scope) for path in MODULES
                for scope, _ in coeffs_assignments(path.read_text())}
    assert bindings == {("multilinear.py", "Form.__init__"), ("multilinear.py", "Tensor.__init__"),
                        ("multilinear.py", "_Entries.of_nonzero")}


def test_coeffs_assignment_is_found():
    source = (
        "class Form:\n"
        "    def __init__(self):\n"
        "        self.coeffs = {}\n"
        "    @classmethod\n"
        "    def of_nonzero(cls, c):\n"
        "        t.dim, t.coeffs = 1, c\n"
        "def wedge(a, v):\n"
        "    out = Form(4, 2)\n"
        "    out.coeffs = acc.result()\n"
        "    out.coeffs[(0, 1)] = v\n"
        "    setattr(out, 'coeffs', {})\n"
        "    for out.coeffs in maps: pass\n"
        "    x = out.coeffs\n"
        "out.coeffs |= other\n"
        "del out.coeffs\n"
    )
    assert coeffs_assignments(source) == [
        ("Form.__init__", 3), ("Form.of_nonzero", 6), ("wedge", 9), ("wedge", 11),
        ("wedge", 12), ("<module>", 14), ("<module>", 15)]
