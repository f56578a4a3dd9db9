"""Every name the package exports is used by the program, not only by tests.

A public name that no other module of the package and no benchmark script
uses is code kept alive by its own tests.  The source is scanned with `ast`;
nothing from perfbench is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homtopo"


def uses(path: Path) -> set[str]:
    """Names read, attributes taken, names imported, and identifier strings
    (perfbench patches attributes by name) in one file; a `def`, `class`
    or assignment that defines a name does not count."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def test_every_export_has_a_caller():
    init = PACKAGE / "__init__.py"
    exported = {a.asname or a.name
                for node in ast.parse(init.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    files = [p for p in PACKAGE.rglob("*.py") if p != init]
    files += (ROOT / "perfbench").glob("*.py")
    used = set().union(*map(uses, files))
    assert sorted(exported - used) == []
