"""The package holds what the program reaches: every public top-level
function and class of src/pnhybrid is referenced by the package itself or
by the benchmark (perfbench), not only by the tests.  A routine that only
tests call is a reference for them and lives in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pnhybrid"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def _module_aliases(tree) -> dict:
    """Local name -> package module, for `from . import x as y` and
    `from pnhybrid import x as y`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module is None) or node.module == "pnhybrid"):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    return aliases


def _references(path: Path) -> set:
    """(module, name) of every reference in the file: a name qualified by a
    package module's alias, or a bare name of the file's own module outside
    that name's own top-level definition."""
    tree = ast.parse(path.read_text())
    aliases = _module_aliases(tree)
    own = path.stem if path.parent == PACKAGE else None
    found = set()
    for top in tree.body:
        defined = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                found.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and own and node.id != defined:
                found.add((own, node.id))
    return found


def test_every_public_definition_is_reached_from_the_program():
    reached = set().union(*(_references(p) for p in PROGRAM))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not top.name.startswith("_")
                    and (path.stem, top.name) not in reached):
                unreached.append(f"{path.stem}.{top.name}")
    assert not unreached, f"referenced only outside the program: {unreached}"
