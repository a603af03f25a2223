"""Built-in relations and the `rel` text format.

Text format, one relation per line:

    rel NAME ARITY : tuple tuple ...

Tuples are bitstrings of length ARITY (first coordinate first); `#` starts
a comment.  A relation may have no tuples (empty relation).
"""

from __future__ import annotations

import re

from .errors import FormulaParseError, RelationError
from .relations import Relation

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _rel(name: str, arity: int, tuples: str) -> Relation:
    return Relation.from_tuples(arity, tuples.split(), name)


# Small relations that come up again and again: OR/NAND as the expressibility
# targets, P/N as the satisfiability-hard pair, M/K/L as the connectivity
# gadgets, and four named examples used in tests and docs.
CATALOG: dict[str, Relation] = {
    "OR": _rel("OR", 2, "01 10 11"),
    "NAND": _rel("NAND", 2, "00 01 10"),
    "P": _rel("P", 3, "001 010 011 100 101 110 111"),
    "N": _rel("N", 2, "00 01 10"),
    # M = (x OR NOT y OR NOT z) AND (NOT x OR z)
    "M": _rel("M", 3, "000 001 010 101 111"),
    # K = x OR NOT y OR NOT z
    "K": _rel("K", 3, "000 001 010 100 101 110 111"),
    # L = K minus 110
    "L": _rel("L", 3, "000 001 010 100 101 111"),
    "R_coNP": _rel("R_coNP", 4, "0000 0100 1100 0011 1011"),
    "R_PSPA": _rel("R_PSPA", 4, "0001 0010 1100 1110 1101"),
    "R_NAE": _rel("R_NAE", 3, "001 010 011 100 101 110"),
    "R_NAZ": _rel("R_NAZ", 3, "001 010 011 100 101 110 111"),
}


def parse_relation_line(line: str) -> Relation:
    """Parse one `rel NAME ARITY : tuples` line."""
    parts = line.split()
    if len(parts) < 4 or parts[0] != "rel" or parts[3] != ":":
        raise FormulaParseError(f"bad relation line: {line!r}")
    name = parts[1]
    if not NAME_RE.match(name):
        raise FormulaParseError(f"bad relation name {name!r}")
    try:
        arity = int(parts[2])
    except ValueError:
        raise FormulaParseError(f"bad arity in relation line: {line!r}") from None
    try:
        return Relation.from_tuples(arity, parts[4:], name)
    except RelationError as exc:
        raise FormulaParseError(f"bad relation line {line!r}: {exc}") from None


def strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_relations(text: str) -> dict[str, Relation]:
    """Parse a relation file into an ordered name -> Relation mapping."""
    out: dict[str, Relation] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        try:
            rel = parse_relation_line(line)
        except FormulaParseError as exc:
            raise FormulaParseError(f"line {lineno}: {exc}") from None
        if rel.name in out and out[rel.name] != rel:
            raise FormulaParseError(f"line {lineno}: relation {rel.name!r} redefined")
        out[rel.name] = rel
    return out


def format_relation(rel: Relation, name: str | None = None) -> str:
    name = name or rel.name
    if not name:
        raise ValueError("relation has no name to format")
    return f"rel {name} {rel.arity} : " + " ".join(rel.tuples()) if rel.mask \
        else f"rel {name} {rel.arity} :"
