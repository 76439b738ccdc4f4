"""Static checks on the library source."""

import ast
from pathlib import Path

import pytest

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
