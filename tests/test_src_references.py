"""Every top-level function, class and module-level constant in ``src`` is
used by ``src`` itself.

A helper that only tests call is code the program does not run, and a
constant nothing reads is left over.  Each module's syntax tree is read,
and a name counts as used where some code in ``src`` outside the name's
own definition reads it: bare, in its own module or where a ``from
.module import`` brings it in, or as an attribute of a module imported
with ``from . import``.  Only reads count (a ``Load`` context), so
assigning a name, at module level or to a local of the same name, is no
use of it.  Names resolve by scope: a function's parameters and the names
it binds (stores, imports, nested definitions, pattern captures, handler
names; not those it declares ``global``), and a comprehension's targets,
shadow a module-level name in that function or comprehension and the
functions nested in it, so reading such a local is no use of the module's
name; a class body's names do not reach its methods.  Docstrings and
comments do not count.  ``ALLOWED`` names what is kept for a caller
outside ``src``, with the reason.
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (*_FUNCTIONS, ast.ClassDef, *_COMPREHENSIONS)


def _bound(scope) -> set:
    """The names a function, lambda, class or comprehension binds in its
    own scope; a nested scope binds only its own name there."""
    if isinstance(scope, _COMPREHENSIONS):
        return {node.id for gen in scope.generators
                for node in ast.walk(gen.target) if isinstance(node, ast.Name)}
    names, declared = set(), set()
    if isinstance(scope, _FUNCTIONS):
        args = scope.args
        names.update(arg.arg for arg in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs, args.vararg,
                                         args.kwarg) if arg)
    body = scope.body
    stack = list(body) if isinstance(body, list) else [body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, _SCOPES):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)):
            names.add(node.name)
        elif isinstance(node, ast.MatchMapping):
            names.add(node.rest)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return names - declared - {None}


def _reads(node, here=frozenset(), enclosing=frozenset()):
    """The ``Load``-context nodes under ``node`` that may read a
    module-level name: each ``Name`` that the scope it is read in does not
    bind, and each ``Attribute`` of such a name.  ``here`` holds the local
    names where ``node`` stands, ``enclosing`` those that a function
    defined there sees: a class body's names are only in the first."""
    if isinstance(node, _COMPREHENSIONS):
        # The first iterable is evaluated in the enclosing scope.
        first = node.generators[0].iter
        yield from _reads(first, here, enclosing)
        inner = enclosing | _bound(node)
        parts = [part for gen in node.generators
                 for part in (gen.target, gen.iter, *gen.ifs)]
        parts += [getattr(node, field) for field in ("elt", "key", "value")
                  if hasattr(node, field)]
        for part in parts:
            if part is not first:
                yield from _reads(part, inner, inner)
        return
    if isinstance(node, _SCOPES):
        # Decorators, bases, defaults and annotations are evaluated where
        # the definition stands; the body in the scope it opens.
        inner = enclosing | _bound(node)
        body = ((inner, enclosing) if isinstance(node, ast.ClassDef)
                else (inner, inner))
        for field, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from _reads(child, *(body if field == "body"
                                               else (here, enclosing)))
        return
    if isinstance(getattr(node, "ctx", None), ast.Load):
        name = node.value if isinstance(node, ast.Attribute) else node
        if isinstance(name, ast.Name) and name.id not in here:
            yield node
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, here, enclosing)


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
            for node in _reads(stmt):
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
                       "def g2():\n    LEFT = 4\n    return LEFT\n"
                       "def g3(OVER):\n    return [SIZE2 for SIZE2 in OVER]\n"
                       "DEEP = TOTAL = 5\nclass K:\n    DEEP = 6\n"
                       "    def m(self):\n        return DEEP\n"
                       "def g4():\n    global TOTAL\n    TOTAL = 1\n"
                       "    return TOTAL\n"),
        "c": ast.parse("def g():\n    pass\nLIMIT = 1\n"),
    }
    assert _definitions(trees) - _references(trees) == {
        ("a", "f"), ("b", "unused"), ("b", "LEFT"), ("b", "OVER"),
        ("b", "SIZE2"), ("b", "g2"), ("b", "g3"), ("b", "K"), ("b", "g4")}
