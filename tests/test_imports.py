"""Every name a ``privsplit`` module imports is used in that module, every
name a module defines and every method of its classes is read by the package
or the benchmark, not only by a test, and no module reads the environment."""

import ast
from collections import Counter
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


_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """``os.<name>`` for each use or import of an ``os`` environment reader in the module.

    A run setting read from the environment changes results without showing
    on the command line, so every setting comes from a flag or the INI.
    """
    nodes = list(ast.walk(ast.parse(source)))
    uses = [n.attr for n in nodes if isinstance(n, ast.Attribute) and n.attr in _ENV_NAMES
            and isinstance(n.value, ast.Name) and n.value.id == "os"]
    imports = [a.name for n in nodes if isinstance(n, ast.ImportFrom) and n.module == "os"
               for a in n.names if a.name in _ENV_NAMES]
    return sorted(f"os.{name}" for name in uses + imports)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_reads_the_environment(module):
    assert environment_reads((SRC / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_environment_read():
    source = ("import os\nfrom os import getenv as env\n"
              "seed = os.environ.get('SEED')\nhome = os.getenv('HOME')\nos.open(os.devnull, 0)\n")
    assert environment_reads(source) == ["os.environ", "os.getenv", "os.getenv"]


PERFBENCH = SRC.parents[1] / "perfbench"


def unread_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each top-level def, class or assignment in `modules`
    (module name -> source) that no code reads outside its own binding.

    A read is a loaded ``Name`` or an attribute of that name in another
    top-level statement of `modules`, or anywhere in `readers`. Dunder names
    are protocol names and are not checked.
    """
    bound = []  # (module, name, the statement that binds it)
    reads = []  # (statement or None for a reader, names it reads)
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            bound += [(module, name, stmt) for name in names if not name.startswith("__")]
            reads.append((stmt, _read_names(stmt)))
    for source in readers:
        reads.append((None, _read_names(ast.parse(source))))
    return [f"{module}.{name}" for module, name, stmt in bound
            if not any(name in names for owner, names in reads if owner is not stmt)]


def _read_names(tree: ast.AST) -> set[str]:
    nodes = list(ast.walk(tree))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def perfbench_sources() -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))
            if not p.name.startswith("test_")]


def test_every_top_level_name_has_a_caller_outside_the_tests():
    assert unread_names(package_sources(), perfbench_sources()) == []


def test_the_scan_finds_a_helper_that_only_a_test_calls():
    modules = {"core": "from .helper import LIMIT\n\ndef run():\n    return LIMIT\n",
               "helper": "def only_tested():\n    return only_tested\n\nLIMIT = 3\n"}
    bench = "from privsplit import core\ncore.run()\n"
    test = "from privsplit.helper import only_tested\nassert only_tested() is only_tested\n"
    assert unread_names(modules, [bench]) == ["helper.only_tested"]
    assert unread_names(modules, [bench, test]) == []


def unread_members(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.Class.name`` for each method or property of a top-level class in
    `modules` (module name -> source) that no attribute read names, in
    `modules` or in `readers`, outside the member's own definition. Dunder
    methods are protocol names and are not checked.
    """
    trees = [ast.parse(source) for source in list(modules.values()) + readers]
    attributes = Counter(n.attr for tree in trees for n in ast.walk(tree)
                         if isinstance(n, ast.Attribute))
    unread = []
    for module, tree in zip(modules, trees):
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            for member in cls.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("__")):
                    own = sum(1 for n in ast.walk(member)
                              if isinstance(n, ast.Attribute) and n.attr == member.name)
                    if attributes[member.name] == own:
                        unread.append(f"{module}.{cls.name}.{member.name}")
    return unread


def test_every_method_has_a_caller_outside_the_tests():
    assert unread_members(package_sources(), perfbench_sources()) == []


def test_the_scan_finds_a_method_that_only_a_test_calls():
    modules = {"core": ("class Box:\n"
                        "    def used(self):\n        return self.size\n\n"
                        "    @property\n    def size(self):\n        return 1\n\n"
                        "    def only_tested(self):\n        return self.only_tested\n\n"
                        "    def __len__(self):\n        return 0\n")}
    bench = "from privsplit.core import Box\nBox().used()\n"
    test = "from privsplit.core import Box\nassert Box().only_tested()\n"
    assert unread_members(modules, [bench]) == ["core.Box.only_tested"]
    assert unread_members(modules, [bench, test]) == []
