"""Every name the package exports, and every module-level function and
class, is used by the program, not only by tests; every defaulted
parameter is set by some call in the program, and left to its default by
another; every top-level import is read; no check is an `assert`;
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


def defaulted_parameters(path: Path):
    """(label, callee name, parameter, positional index or None) for every
    parameter with a default of a function, method or constructor in one
    file.  A class name stands for its constructor: its __init__, or a
    dataclass's fields in order.  The positional index does not count self;
    it is None for a keyword-only parameter."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def of_function(node, owner):
        params = node.args.posonlyargs + node.args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if owner and not static else 0
        name = owner if node.name == "__init__" else node.name
        label = ".".join(filter(None, (path.stem, owner, node.name)))
        first = len(params) - len(node.args.defaults)
        for i, a in enumerate(params[first:], first):
            yield f"{label}({a.arg})", name, a.arg, i - skip
        for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if d is not None:
                yield f"{label}({a.arg})", name, a.arg, None

    def of_class(node):
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name)]
        dataclass = any("dataclass" in ast.dump(d)
                        for d in node.decorator_list)
        for i, f in enumerate(fields if dataclass else ()):
            if f.value is not None:
                yield (f"{path.stem}.{node.name}({f.target.id})", node.name,
                       f.target.id, i)
        for s in node.body:
            if isinstance(s, ast.FunctionDef):
                yield from of_function(s, node.name)

    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    methods = {id(s) for c in classes for s in c.body}
    for node in classes:
        yield from of_class(node)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and id(node) not in methods:
            yield from of_function(node, None)


def calls(path: Path):
    """(callee name, positional arguments, keyword names) for every call in
    one file; positional arguments stop at the first *args."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else \
            f.attr if isinstance(f, ast.Attribute) else None
        starred = [isinstance(a, ast.Starred) for a in node.args] + [True]
        yield name, starred.index(True), {k.arg for k in node.keywords}


# tests drive the command line through main(argv)
UNSET_ALLOWED = {"cli.main(argv)"}


def test_every_defaulted_parameter_is_set_by_the_program():
    # a default that no call overrides is an option no workload uses
    files = sorted(PACKAGE.rglob("*.py"))
    found = [c for p in files + sorted((ROOT / "perfbench").glob("*.py"))
             for c in calls(p)]
    unset = [label for p in files
             for label, name, param, pos in defaulted_parameters(p)
             if not any(callee == name and (param in keys or pos is not None
                                            and pos < npos)
                        for callee, npos, keys in found)]
    unset = sorted(set(unset) - UNSET_ALLOWED)
    assert not unset, "no program call sets " + ", ".join(unset)


def test_no_default_that_every_program_call_overrides():
    # a default that every call replaces is a required parameter in disguise
    files = sorted(PACKAGE.rglob("*.py"))
    found = [c for p in files + sorted((ROOT / "perfbench").glob("*.py"))
             for c in calls(p)]
    always = []
    for p in files:
        for label, name, param, pos in defaulted_parameters(p):
            sets = [param in keys or pos is not None and pos < npos
                    for callee, npos, keys in found if callee == name]
            if sets and all(sets):
                always.append(label)
    assert not always, "every program call sets " + ", ".join(sorted(always))


def unread_imports(path: Path) -> list[str]:
    """The names bound by one file's top-level imports that the file never
    reads; a `from __future__` import is a directive, not a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [(a.asname or a.name).split(".")[0] for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for a in node.names]
    return [f"{path.relative_to(ROOT)}: {name}" for name in bound
            if name not in read]


def test_every_top_level_import_is_read():
    # an __init__ imports to re-export; anywhere else an unread import is
    # a dependency that nothing has
    files = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "tests").glob("*.py")
    assert [name for p in sorted(files) for name in unread_imports(p)] == []


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
