"""Built-in relations, the `rel` text format, and the front end that the
`.rel`, `.cnfs` and `.horn` readers share: one line reader, one name
pattern, one keyword test, one `var` line parser and one `rel` line parser.

Text format, one relation per line:

    rel NAME ARITY : tuple tuple ...

Tuples are bitstrings of length ARITY (first coordinate first); `#` starts
a comment.  A relation may have no tuples (empty relation).
"""

from __future__ import annotations

import re
from typing import Iterator

from .errors import FormulaParseError, RelationError
from .relations import Relation

# relation and variable names; use with fullmatch
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def read_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line that is not blank once
    its `#` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def is_keyword_line(line: str, keyword: str) -> bool:
    """Whether a stripped line is `keyword` alone or `keyword` followed by
    whitespace of any kind, as `var` and `rel` lines are."""
    return line.startswith(keyword) and (len(line) == len(keyword)
                                         or line[len(keyword)].isspace())


def parse_var_line(lineno: int, line: str,
                   header: tuple[str, ...] | None) -> tuple[str, ...]:
    """The names of a `var` line; header holds an earlier var line's names."""
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
    """Parse a `rel NAME ARITY : tuples` line into library; a name the
    library binds to another relation is an error."""
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
    """Parse a relation file into an ordered name -> Relation mapping."""
    out: dict[str, Relation] = {}
    for lineno, line in read_lines(text):
        add_relation(out, lineno, line)
    return out


def format_relation(rel: Relation) -> str:
    if not rel.name:
        raise ValueError("relation has no name to format")
    return f"rel {rel.name} {rel.arity} : " + " ".join(rel.tuples()) if rel.mask \
        else f"rel {rel.name} {rel.arity} :"
