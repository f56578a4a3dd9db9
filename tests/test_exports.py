"""Every name the package exports, and every module-level function and
class, is used by the program, not only by tests; no check is an `assert`;
no module reads the environment or another object's private attributes.

A name that no other module of the package and no benchmark script uses is
code kept alive by its own tests.  The source is scanned with `ast`;
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


def definitions(path: Path) -> set[str]:
    """The module-level functions and classes of one file, dunders aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def test_every_definition_is_read():
    # the re-export in __init__ is not a read: the test above wants a
    # caller beside it
    files = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    defined = set().union(*map(definitions, files))
    bench = list((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(uses, files + bench))
    assert sorted(defined - used) == []


def package_nodes():
    """(location, node) for every syntax node of every package module."""
    for p in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if hasattr(node, "lineno"):
                yield f"{p.relative_to(ROOT)}:{node.lineno}", node


def test_no_assert_statements():
    # python -O strips assert, so a check made with one vanishes
    found = [at for at, node in package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_environment_reads():
    # the command line and the call arguments are the only inputs
    found = [at for at, node in package_nodes()
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "os"
             and node.attr in ("environ", "getenv")]
    assert found == []


def test_no_private_attribute_reads_across_objects():
    # an object's _attr is read through `self` only; others ask a method
    found = [at for at, node in package_nodes()
             if isinstance(node, ast.Attribute)
             and node.attr.startswith("_") and not node.attr.startswith("__")
             and isinstance(node.value, ast.Name) and node.value.id != "self"]
    assert found == []
