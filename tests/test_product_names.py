"""src/relconn holds what the CLI and the library API run.

Every public top-level function and class there must be referred to by
other product code, and every public method and property of such a class
must be used as an attribute there, or be listed below with the reason it
stays.  Random inputs and oracles that only the tests use live in tests/.
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
    "relations.is_closed": TRACER,
    "solution_graph.distance": LIBRARY,
    "solution_graph.solutions": LIBRARY,
}
# module.Class.member -> why it stays with no attribute use in src
UNUSED_MEMBERS = {
    "constructions.ReductionOutput.lift": LIBRARY,
    "relations.Relation.members": TRACER,
}


def references(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """(module, name) of every package name the module refers to: names
    imported from a sibling module, attributes of a sibling module bound
    by `from . import`, and the module's own top-level names used outside
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
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id != own:
                refs.add((module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings):
                refs.add((siblings[node.value.id], node.attr))
    return refs


def unreferenced() -> set[str]:
    defined = set()
    used = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
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
