"""src/relconn holds what the CLI and the library API run.

Every public top-level function, class and constant there must be referred
to by other product code, and every public method and property of such a
class must be used as an attribute there, or be listed below with the
reason it stays.  Random inputs and oracles that only the tests use live
in tests/.
"""

from __future__ import annotations

import ast
from pathlib import Path

import relconn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relconn"

LIBRARY = "library API"
TRACER = "perfbench tracer looks it up"
# module.name -> why it stays with no caller in src
UNREFERENCED = {
    "constructions.build_F": LIBRARY,
    "constructions.build_T": LIBRARY,
    "constructions.express_m": LIBRARY,
    "cpss.project": TRACER,
    "cpss.sat_schaefer": TRACER,
    "formulas.evaluate": TRACER,
    "relations.first_unsafe_identification": LIBRARY,
    "relations.hull": LIBRARY,
    "relations.is_closed": TRACER,
    "solution_graph.components": LIBRARY,
    "solution_graph.distance": LIBRARY,
    "solution_graph.locally_minimal": LIBRARY,
    "solution_graph.solutions": LIBRARY,
}
# module.Class.member -> why it stays with no attribute use in src
UNUSED_MEMBERS = {
    "constructions.ReductionOutput.lift": LIBRARY,
    "relations.Relation.members": TRACER,
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def binds(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """Names local to a function: its parameters and every name its own
    body stores or defines; nested functions and classes bind their own."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)  # its body is a scope of its own
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return names


def loads(node: ast.AST, bound: frozenset[str] = frozenset()) -> set[str]:
    """Names read under node that no enclosing function binds: a local
    that shadows a module name, or a name that is only stored, is no use
    of it."""
    if isinstance(node, FUNCTIONS):
        bound = bound | binds(node)
    names = set()
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                and child.id not in bound):
            names.add(child.id)
        names |= loads(child, bound)
    return names


def references(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """(module, name) of every package name the module refers to: names
    imported from a sibling module, attributes of a sibling module bound
    by `from . import`, and the module's own top-level names read outside
    their own definition."""
    siblings = {}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                else:
                    refs.add((node.module, alias.name))
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        refs |= {(module, name) for name in loads(stmt) if name != own}
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings):
                refs.add((siblings[node.value.id], node.attr))
    return refs


def public_names(tree: ast.Module) -> set[str]:
    """The module's public top-level functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def unreferenced() -> set[str]:
    defined = set()
    used = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= {(path.stem, name) for name in public_names(tree)}
        if path.stem != "__init__":  # an export is not a use
            used |= references(tree, path.stem)
    return {f"{module}.{name}" for module, name in defined - used}


def unused_members() -> set[str]:
    """Public methods and properties of public classes whose name no
    attribute access in src/relconn reads."""
    defined = set()
    attributes = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defined |= {(path.stem, cls.name, node.name) for node in cls.body
                            if isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("_")}
        attributes |= {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)}
    return {".".join(member) for member in defined if member[2] not in attributes}


def test_every_public_name_is_used_or_listed():
    assert unreferenced() == set(UNREFERENCED)


def test_every_public_member_is_used_or_listed():
    assert unused_members() == set(UNUSED_MEMBERS)


def test_reasons_hold():
    tracer = (ROOT / "perfbench" / "tracing.py").read_text()
    for qualified, reason in UNREFERENCED.items():
        name = qualified.split(".")[1]
        assert reason in (LIBRARY, TRACER), qualified
        if reason == LIBRARY:
            assert hasattr(relconn, name), qualified
        else:
            assert f'"{name}"' in tracer, qualified
    for qualified, reason in UNUSED_MEMBERS.items():
        _, cls, member = qualified.split(".")
        assert reason in (LIBRARY, TRACER), qualified
        if reason == LIBRARY:
            assert hasattr(getattr(relconn, cls), member), qualified
        else:
            assert f".{member}" in tracer, qualified
