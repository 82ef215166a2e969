"""Every top-level function, class and module-level constant in ``src`` is
used by ``src`` itself.

A helper that only tests call is code the program does not run, and a
constant nothing reads is left over.  Each module's syntax tree is read,
and a name counts as used where some code in ``src`` outside the name's
own definition reads it: bare, in its own module or where a ``from
.module import`` brings it in, or as an attribute of a module imported
with ``from . import``.  Only reads count (a ``Load`` context), so
assigning a name, at module level or to a local of the same name, is no
use of it.  Docstrings and comments do not count.  ``ALLOWED`` names what
is kept for a caller outside ``src``, with the reason.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "consrep"

ALLOWED = {
    ("repsem", "sfi"): "perfbench/tracer.py wraps it by name",
    ("lts", "calculus_raw_successors"): "perfbench/tracer.py wraps it by name",
    ("lts", "successors"): "perfbench/tracer.py wraps it by name",
    ("__init__", "__version__"): "the package's version, read by packaging "
                                 "tools and users as consrep.__version__",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _defined_names(stmt) -> list:
    """The names a top-level statement defines: a function or class, or
    the plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _definitions(trees: dict) -> set:
    return {(module, name)
            for module, tree in trees.items() for stmt in tree.body
            for name in _defined_names(stmt)}


def _references(trees: dict) -> set:
    used = set()
    for module, tree in trees.items():
        modules, imported = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if node.module is None:
                        modules[name] = alias.name
                    else:
                        imported[name] = (node.module, alias.name)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in modules):
                    used.add((modules[node.value.id], node.attr))
                elif isinstance(node, ast.Name) and node.id != own:
                    used.add(imported.get(node.id, (module, node.id)))
    return used


def test_every_definition_in_src_is_used_by_src():
    trees = _trees()
    unused = _definitions(trees) - _references(trees)
    assert sorted(unused - set(ALLOWED)) == []
    # Each allowance still names a definition nothing in src uses.
    assert set(ALLOWED) <= unused


def test_the_scan_sees_uses_of_every_kind():
    trees = {
        "a": ast.parse("from . import b as bee\nfrom .c import g, LIMIT\n"
                       "def f():\n    return bee.h() + g() + k() + LIMIT\n"
                       "def k():\n    return k() + bee.SIZE\n"),
        "b": ast.parse("def h():\n    pass\ndef unused():\n    return unused()\n"
                       "SIZE: int = 2\nLEFT, (OVER, SIZE2) = 1, (2, 3)\n"
                       "def g2():\n    LEFT = 4\n"),
        "c": ast.parse("def g():\n    pass\nLIMIT = 1\n"),
    }
    assert _definitions(trees) - _references(trees) == {
        ("a", "f"), ("b", "unused"), ("b", "LEFT"), ("b", "OVER"),
        ("b", "SIZE2"), ("b", "g2")}
