"""Every name a ``privsplit`` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "privsplit"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["os", "d"]
