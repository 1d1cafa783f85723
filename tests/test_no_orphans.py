"""Every function, method, class and module-level constant of the package is
named somewhere, and every parameter with a default is passed somewhere.

A function, class or module-level constant defined in src/instantons is an
orphan when no name or attribute in src/ or perfbench/ refers to it: no
command, criterion or benchmark can call or read it.  A name in tests/ does
not count, since code that only tests reach is not part of the program.  The
methods in perfbench/spans.py's METHODS are looked up by string, which the
scan cannot see, so they count as named.  An assignment is not a reference,
so a constant is not named by its own definition.  Dunder names are exempt,
since Python uses them itself.  The scan is by name, so a definition that
shares its name with one in use (a method called `rank`, say) passes; it
catches the code that nothing names at all.

A parameter with a default that no call in src/ or perfbench/ passes is an
option that every caller leaves at one value: a constant written as an
option.  Calls are matched to a function by name, and to a class's __init__
by the class name.

An attribute that src/instantons assigns and that no attribute read in src/
or perfbench/ names (the METHODS names count as read) is stored for nothing
the program does.  Like the orphan scan, this one goes by name.

The reach test closes the gap the name scans leave: it runs a fixed list of
CLI commands in this process under sys.setprofile and checks that every
function and method defined in src/instantons was entered, each told apart
by its file and first line, not by its name.  A __repr__ and the METHODS
entries are exempt: Python calls the one only to show an object, and the
benchmark calls the others.  The package's function caches are emptied
first, so that a function an earlier test filled a cache from is entered
again.

The import-graph test pins the module edges that one owner per job removed:
the line geometry reads the tensor, not its display, and the pencil
determinant lives in linalg.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

from instantons import cli
from instantons.tensors import write_tensor
from oracles import beyond_small_height_q

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "instantons"
# the code whose names and calls count as use
USERS = (ROOT / "src", ROOT / "perfbench")


def _trees(*dirs: Path):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _named(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _traced_entries() -> set[tuple[str, str, str]]:
    """The (module, class, method) entries of perfbench/spans.py's METHODS."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "METHODS")
    return {(module, cls, meth) for module, cls, meth, _name in ast.literal_eval(node.value)}


def _traced_methods() -> set[str]:
    """The method names in perfbench/spans.py's METHODS."""
    return {meth for _module, _cls, meth in _traced_entries()}


def orphans() -> list[str]:
    named = _traced_methods()
    for _path, tree in _trees(*USERS):
        named |= _named(tree)
    found = []
    for path, tree in _trees(PACKAGE):
        defined = [(node.name, node) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(t.id, t) for target in targets for t in ast.walk(target)
                            if isinstance(t, ast.Name)]
        for name, node in defined:
            if not (name.startswith("__") and name.endswith("__")) and name not in named:
                found.append(f"{path.stem}.{name} (line {node.lineno})")
    return sorted(found)


def _read_attributes() -> set[str]:
    """The attribute names read (not assigned) in src/ and perfbench/, and
    the METHODS names."""
    read = _traced_methods()
    for _path, tree in _trees(*USERS):
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    return read


def unread_attributes() -> list[str]:
    read = _read_attributes()
    found = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and node.attr not in read):
                found.append(f"{path.stem}.{node.attr} (line {node.lineno})")
    return sorted(set(found))


def _calls() -> dict[str, list[ast.Call]]:
    """The calls in src/ and perfbench/ by the name they call."""
    calls: dict[str, list[ast.Call]] = {}
    for _path, tree in _trees(*USERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Does call pass the parameter named name, at position (not counting
    self; None for a keyword-only parameter)?"""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_defaults() -> list[str]:
    calls = _calls()
    found = []
    for path, tree in _trees(PACKAGE):
        owner = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner[node] if isinstance(owner[node], ast.ClassDef) else None
            name = cls.name if cls and node.name == "__init__" else node.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            skip = 1 if cls and not static else 0
            a = node.args
            positional = a.posonlyargs + a.args
            params = [(i - skip, p.arg) for i, p in enumerate(positional)
                      if i >= len(positional) - len(a.defaults)]
            params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for position, param in params:
                if not any(_passes(c, position, param) for c in calls.get(name, [])):
                    found.append(f"{path.stem}.{name}({param}) (line {node.lineno})")
    return found


# CLI commands that between them enter every function of the package; the
# files {hidden} (a rational tensor whose witness is found only by the lifted
# scan) and {exported} are written by the test
REACH_COMMANDS = (
    "certify --example thooft3 --induction",
    "certify --example degenerate-rank6 --field rational",
    "certify --example nc --field rational",
    "certify --example three-nc --field fp:7",
    "certify --example two-sum --field fp:2097143",
    "certify --sample 5,2",
    "certify --tensor {hidden} --field rational",
    "table coh --example sum-family:1,0,0,1 --field fp:11^2",
    "table lines --example thooft3 --field fp:5^2 --count 3",
    "table pencil --example thooft4 --field fp:5^2 --seed 1",
    "table pencil --example nc --field fp:2^3",
    "table lines --example nc --field rational --count 2",
    "table pencil --example thooft3 --field rational",
    "export --id nc --out {exported}",
    "table coh --tensor {exported}",
    "sample --n 3 --r 2",
    "suite",
    "suite --only thooft --field fp:7^2",
)


def _package_modules() -> list:
    return [importlib.import_module(f"instantons.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py"))]


def _definitions(module) -> dict[tuple[str, int], str]:
    """(file, first line) of every function and method the module defines,
    nested ones too, to its dotted name; a decorated function's code starts
    at its first decorator."""
    path = str(Path(module.__file__).resolve())
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[path, line] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(Path(path).read_text()), f"{module.__name__.split('.')[-1]}.")
    return found


def unentered(argvs: list[list[str]]) -> list[str]:
    """The functions and methods of the package that running the commands
    does not enter, but a __repr__ and the METHODS entries."""
    modules = _package_modules()
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(argvs)
    starts = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    exempt = {".".join(entry) for entry in _traced_entries()}
    return sorted(name for module in modules for key, name in _definitions(module).items()
                  if key not in starts and not name.endswith(".__repr__") and name not in exempt)


def test_no_orphaned_functions():
    assert orphans() == []


def test_every_default_is_passed_somewhere():
    assert unpassed_defaults() == []


def test_every_stored_attribute_is_read_somewhere():
    assert unread_attributes() == []


def test_every_function_is_entered_by_a_command(tmp_path):
    files = {"hidden": tmp_path / "hidden.json", "exported": tmp_path / "exported.json"}
    write_tensor(beyond_small_height_q(), str(files["hidden"]))
    argvs = [[arg.format(**files) for arg in command.split()] for command in REACH_COMMANDS]
    assert unentered(argvs) == []


def _imports(module: str) -> set[str]:
    """The package modules that src/instantons/<module>.py imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.module or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def test_import_graph():
    assert not _imports("geometry") & {"monads", "polys"}
    assert "geometry" not in _imports("families")


if __name__ == "__main__":
    print("\n".join(orphans()) or "no orphans")
    print("\n".join(unpassed_defaults()) or "every default is passed")
    print("\n".join(unread_attributes()) or "every stored attribute is read")
