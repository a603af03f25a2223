"""The text readers item by item: every name, argument and tuple checked
on its own, in the order the package's readers name their faults.  The
package checks a whole line or list in one pass and loops over the items
only to name a bad one; the tests compare its results and error messages
with these."""

from __future__ import annotations

import re
from typing import Mapping

from relconn.catalog import CATALOG, NAME_RE, is_keyword_line, read_lines
from relconn.errors import FormulaError, FormulaParseError, RelationError
from relconn.formulas import ClauseSet, CnfClause, Constraint
from relconn.relations import HORN, Relation

_CONSTRAINT_RE = re.compile(rf"({NAME_RE.pattern})\s*\(([^()]*)\)\s*\Z")


def parse_var_line(lineno: int, line: str,
                   header: tuple[str, ...] | None) -> tuple[str, ...]:
    if header is not None:
        raise FormulaParseError(f"line {lineno}: second var line")
    names = tuple(line.split()[1:])
    for v in names:
        if not NAME_RE.fullmatch(v):
            raise FormulaParseError(f"line {lineno}: bad variable name {v!r}")
    if len(set(names)) != len(names):
        raise FormulaParseError(f"line {lineno}: duplicate variable in var line")
    return names


def add_relation(library: dict[str, Relation], lineno: int, line: str) -> None:
    parts = line.split()
    if len(parts) < 4 or parts[0] != "rel" or parts[3] != ":":
        raise FormulaParseError(f"line {lineno}: bad relation line: {line!r}")
    name = parts[1]
    if not NAME_RE.fullmatch(name):
        raise FormulaParseError(f"line {lineno}: bad relation name {name!r}")
    try:
        arity = int(parts[2])
    except ValueError:
        raise FormulaParseError(
            f"line {lineno}: bad arity in relation line: {line!r}") from None
    try:
        rel = Relation.from_tuples(arity, parts[4:], name)
    except RelationError as exc:
        raise FormulaParseError(f"line {lineno}: bad relation line {line!r}: {exc}") from None
    if library.get(name, rel) != rel:
        raise FormulaParseError(f"line {lineno}: relation {name!r} redefined")
    library[name] = rel


def parse_relations(text: str) -> dict[str, Relation]:
    out: dict[str, Relation] = {}
    for lineno, line in read_lines(text):
        add_relation(out, lineno, line)
    return out


def check_formula(variables: tuple[str, ...], constraints: tuple[Constraint, ...],
                  library: Mapping[str, Relation]) -> None:
    """Formula's checks: raises FormulaError naming the first fault."""
    if not constraints:
        raise FormulaError("formula needs at least one constraint")
    declared = set(variables)
    if len(declared) != len(variables):
        raise FormulaError("duplicate variable in variable list")
    for v in variables:
        if not NAME_RE.fullmatch(v):
            raise FormulaError(f"bad variable name {v!r}")
    for c in constraints:
        rel = library.get(c.relation)
        if rel is None:
            raise FormulaError(f"unknown relation {c.relation!r}")
        if len(c.args) != rel.arity:
            raise FormulaError(f"{c}: relation {c.relation!r} has arity {rel.arity}")
        for a in c.args:
            if a in ("0", "1"):
                continue
            if a not in declared:
                raise FormulaError(f"{c}: variable {a!r} not declared")


def parse_formula(text: str, extra_relations: Mapping[str, Relation] | None = None
                  ) -> tuple[tuple[str, ...], tuple[Constraint, ...], dict[str, Relation]]:
    """(variables, constraints, library) of a formula text."""
    library: dict[str, Relation] = dict(CATALOG)
    if extra_relations:
        for name, rel in extra_relations.items():
            if name in library and library[name] != rel:
                raise FormulaParseError(f"relation {name!r} conflicts with catalog")
            library[name] = rel
    header: tuple[str, ...] | None = None
    constraints: list[Constraint] = []
    for lineno, line in read_lines(text):
        if is_keyword_line(line, "rel"):
            add_relation(library, lineno, line)
            continue
        if is_keyword_line(line, "var"):
            header = parse_var_line(lineno, line, header)
            continue
        m = _CONSTRAINT_RE.match(line)
        if not m:
            raise FormulaParseError(f"line {lineno}: cannot parse {line!r}")
        name, argtext = m.groups()
        args = tuple(a.strip() for a in argtext.split(",")) if argtext.strip() else ()
        for a in args:
            if a in ("0", "1"):
                continue
            if not NAME_RE.fullmatch(a):
                raise FormulaParseError(f"line {lineno}: bad argument {a!r}")
        if not args:
            raise FormulaParseError(f"line {lineno}: constraint with no arguments")
        constraints.append(Constraint(name, args))
    if header is None:
        header = tuple(dict.fromkeys(v for c in constraints for v in c.variables()))
    try:
        check_formula(header, tuple(constraints), library)
    except FormulaError as exc:
        raise FormulaParseError(str(exc)) from None
    return header, tuple(constraints), library


def parse_horn(text: str) -> ClauseSet:
    header: tuple[str, ...] | None = None
    clauses: list[CnfClause] = []
    seen: dict[str, None] = {}

    def note(v: str, lineno: int) -> str:
        if not NAME_RE.fullmatch(v):
            raise FormulaParseError(f"line {lineno}: bad variable name {v!r}")
        seen.setdefault(v)
        return v

    for lineno, line in read_lines(text):
        if is_keyword_line(line, "var"):
            header = parse_var_line(lineno, line, header)
            continue
        toks = line.split()
        if line.startswith("- ") or all(t.startswith("-") for t in toks):
            names = toks[1:] if toks[0] == "-" else [t[1:] for t in toks]
            clauses.append(CnfClause(frozenset(), frozenset(note(v, lineno) for v in names)))
            continue
        if "|" in line:
            left, _, right = line.partition("|")
            head = left.strip()
            if not head:
                raise FormulaParseError(f"line {lineno}: missing head before |")
            body = set()
            for t in right.split():
                if not t.startswith("-"):
                    raise FormulaParseError(
                        f"line {lineno}: body literal {t!r} must be negative")
                body.add(note(t[1:], lineno))
            clauses.append(CnfClause(frozenset({note(head, lineno)}), frozenset(body)))
            continue
        if len(toks) == 1:
            clauses.append(CnfClause(frozenset({note(toks[0], lineno)}), frozenset()))
            continue
        raise FormulaParseError(f"line {lineno}: cannot parse clause {line!r}")
    variables = header if header is not None else tuple(seen)
    return ClauseSet(HORN, variables, tuple(clauses))
