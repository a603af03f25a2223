"""Conjunctive formulas whose atoms are applications of stored relations.

A constraint is a relation name applied to arguments that are variable
names or the constants 0/1; repeated variables are allowed.  A formula is
a conjunction of constraints plus the library resolving relation names.

Text format:

    # comment
    var x y z          optional, fixes variable order; otherwise first use
    rel IMP 2 : 00 10 11   optional inline relation definitions
    IMP(x,y)
    M(x,0,z)

Constraint relations are built by bitspace.conjunction_space, the one
routine that plugs a relation into its arguments; clause_item makes a
clause one of its items.  CnfClause is the package's one clause type and
ClauseSet its one clause-set type: cnf_implicates returns clauses,
to_clausal returns a formula's clause set in a Schaefer class, and module
horn reads the Horn structure off the clause sets of class HORN.

The same folded relation recurs within one formula (39% of to_clausal's
constraints on the `cpss` benchmark workload, with every cache emptied
before each command), so to_clausal reads a folded relation's class check
and its prime clauses (or XOR basis) over coordinates once, keeps them in
_TEMPLATES and renames them per constraint.  _TEMPLATES holds at most
TEMPLATES_KEPT = 1024 entries of at most TEMPLATE_CLAUSES_MAX = 8 clauses
each, about 1.2 MiB.

cnf_implicates reads a relation's prime clauses of one shape (bijunctive,
Horn, dual Horn) off its mask with one candidate table per (width, shape):
each row holds a clause's falsifying cell and the rows of its clauses one
literal shorter, so a call is one pass of cell tests.  The tables of widths
up to TABLES_KEPT_WIDTH_MAX = 8 are built once and kept (1.6 MiB for all
three shapes); wider rows are made as a call reads them and kept nowhere.

parse_formula reads a blank-free constraint line with good arguments by one
regex fullmatch; any other line goes through the keyword tests and the
per-argument loop, which names the fault.  Formula checks its variables by
one catalog.all_names match and each constraint's arguments by one set
test, and loops over the items only to name a bad one.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from . import catalog
from .bitspace import (conjunction_space, coord_mask, full_mask, gf2_reduce,
                       iter_bits)
from .errors import ClauseExtractionError, FormulaError, FormulaParseError
from .relations import (AFFINE, BIJUNCTIVE, DUAL_HORN, HORN, Relation,
                        check_property)

_CONSTRAINT_RE = re.compile(rf"({catalog.NAME_RE.pattern})\s*\(([^()]*)\)\s*\Z")
# a blank-free constraint line with good arguments; use with fullmatch.  It
# holds no blank, so it is no `rel` or `var` line.
_ARG = rf"(?:{catalog.NAME_RE.pattern}|0|1)"
_PLAIN_CONSTRAINT_RE = re.compile(rf"({catalog.NAME_RE.pattern})\(({_ARG}(?:,{_ARG})*)\)")

CONSTANTS = frozenset(("0", "1"))


@dataclass(frozen=True)
class Constraint:
    relation: str
    args: tuple[str, ...]

    def variables(self) -> tuple[str, ...]:
        """Distinct argument variables in order of first appearance."""
        seen: dict[str, None] = {}
        for a in self.args:
            if a not in ("0", "1"):
                seen.setdefault(a)
        return tuple(seen)

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.args)})"


@dataclass(eq=False)
class Formula:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    library: dict[str, Relation] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.constraints:
            raise FormulaError("formula needs at least one constraint")
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise FormulaError("duplicate variable in variable list")
        if not catalog.all_names(self.variables):
            for v in self.variables:
                if not catalog.NAME_RE.fullmatch(v):
                    raise FormulaError(f"bad variable name {v!r}")
        allowed = declared | CONSTANTS
        for c in self.constraints:
            rel = self.library.get(c.relation)
            if rel is None:
                raise FormulaError(f"unknown relation {c.relation!r}")
            if len(c.args) != rel.arity:
                raise FormulaError(
                    f"{c}: relation {c.relation!r} has arity {rel.arity}")
            if allowed.issuperset(c.args):
                continue
            for a in c.args:
                if a not in allowed:
                    raise FormulaError(f"{c}: variable {a!r} not declared")

    @property
    def n(self) -> int:
        return len(self.variables)

    def relation_of(self, c: Constraint) -> Relation:
        return self.library[c.relation]

    def used_relations(self) -> list[Relation]:
        """Distinct relations referenced by constraints, in first-use order."""
        seen: dict[str, Relation] = {}
        for c in self.constraints:
            seen.setdefault(c.relation, self.library[c.relation])
        return list(seen.values())

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.constraints)


def make_formula(constraints: Iterable[Constraint],
                 library: Mapping[str, Relation],
                 variables: Iterable[str] | None = None) -> Formula:
    """Build a formula; variable order defaults to first appearance."""
    cons = tuple(constraints)
    if variables is None:
        seen: dict[str, None] = {}
        for c in cons:
            for v in c.variables():
                seen.setdefault(v)
        variables = tuple(seen)
    return Formula(tuple(variables), cons, dict(library))


def parse_formula(text: str,
                  extra_relations: Mapping[str, Relation] | None = None) -> Formula:
    """Parse formula text; relation names resolve against inline `rel` lines,
    then `extra_relations`, then the built-in catalog."""
    library: dict[str, Relation] = dict(catalog.CATALOG)
    if extra_relations:
        for name, rel in extra_relations.items():
            if name in library and library[name] != rel:
                raise FormulaParseError(f"relation {name!r} conflicts with catalog")
            library[name] = rel
    header: tuple[str, ...] | None = None
    constraints: list[Constraint] = []
    for lineno, line in catalog.read_lines(text):
        m = _PLAIN_CONSTRAINT_RE.fullmatch(line)
        if m:
            name, argtext = m.groups()
            constraints.append(Constraint(name, tuple(argtext.split(","))))
            continue
        if catalog.is_keyword_line(line, "rel"):
            catalog.add_relation(library, lineno, line)
            continue
        if catalog.is_keyword_line(line, "var"):
            header = catalog.parse_var_line(lineno, line, header)
            continue
        m = _CONSTRAINT_RE.match(line)
        if not m:
            raise FormulaParseError(f"line {lineno}: cannot parse {line!r}")
        name, argtext = m.groups()
        args = tuple(a.strip() for a in argtext.split(",")) if argtext.strip() else ()
        for a in args:
            if a in ("0", "1"):
                continue
            if not catalog.NAME_RE.fullmatch(a):
                raise FormulaParseError(f"line {lineno}: bad argument {a!r}")
        if not args:
            raise FormulaParseError(f"line {lineno}: constraint with no arguments")
        constraints.append(Constraint(name, args))
    try:
        return make_formula(constraints, library, header)
    except FormulaError as exc:
        raise FormulaParseError(str(exc)) from None


def format_formula(phi: Formula) -> str:
    """Self-contained text for a formula: each relation inlined under the
    library key its constraints use, whatever the relation's own name."""
    names = dict.fromkeys(c.relation for c in phi.constraints)
    lines = [catalog.format_relation(phi.library[name].renamed(name)) for name in names]
    lines.append("var " + " ".join(phi.variables))
    lines.extend(str(c) for c in phi.constraints)
    return "\n".join(lines) + "\n"


def holds_on_constants(phi: Formula, c: Constraint) -> bool:
    """Truth of a constraint of phi whose arguments are all constants."""
    return bool(phi.relation_of(c).mask >> int("".join(c.args), 2) & 1)


def evaluate(phi: Formula, assignment: Mapping[str, int]) -> bool:
    """Truth of the formula under a total assignment."""
    for c in phi.constraints:
        rel = phi.relation_of(c)
        idx = 0
        for a in c.args:
            if a == "0":
                bit = 0
            elif a == "1":
                bit = 1
            else:
                try:
                    bit = assignment[a]
                except KeyError:
                    raise FormulaError(f"assignment misses variable {a!r}") from None
            idx = (idx << 1) | (1 if bit else 0)
        if not (rel.mask >> idx) & 1:
            return False
    return True


def clause_item(c: CnfClause) -> tuple[int, int, list[str]]:
    """The clause as a conjunction_space item over (*pos, *neg): every
    tuple but the falsifying one, pos 0 and neg 1."""
    args = [*c.pos, *c.neg]
    return full_mask(len(args)) ^ (1 << ((1 << len(c.neg)) - 1)), len(args), args


def constraint_relation(phi: Formula, i: int) -> tuple[tuple[str, ...], Relation]:
    """Relation of constraint i over its distinct variables, in name order.

    Constants and repeats in the argument list are folded in, so the result
    ranges over the sorted distinct variables of the constraint.  Distinct
    variables already in name order, with no constant, fold to the
    relation itself.
    """
    c = phi.constraints[i]
    rel = phi.relation_of(c)
    vars_sorted = tuple(sorted(c.variables()))
    if not vars_sorted:
        raise FormulaError(f"{c}: constraint has no variables")
    if c.args == vars_sorted:
        return vars_sorted, Relation(len(vars_sorted), rel.mask)
    return vars_sorted, Relation(len(vars_sorted), conjunction_space(
        vars_sorted, [(rel.mask, rel.arity, c.args)]))


@dataclass(frozen=True)
class CnfClause:
    """Disjunction of literals over variable names: OR(pos) OR NOT(neg).

    The package's one clause type; a ClauseSet holds the ones of its
    class's shape.
    """
    pos: frozenset[str]
    neg: frozenset[str]

    def variables(self) -> frozenset[str]:
        return self.pos | self.neg

    def __str__(self) -> str:
        lits = sorted(self.pos) + ["-" + v for v in sorted(self.neg)]
        return " ".join(lits) if lits else "<empty>"


@dataclass(frozen=True)
class XorEquation:
    """GF(2) equation: sum of the variables equals rhs."""
    vars: frozenset[str]
    rhs: int


# Schaefer class -> does a clause of (positive, negative) literal counts fit it
_FITS = {BIJUNCTIVE: lambda p, n: p + n <= 2, HORN: lambda p, n: p <= 1,
         DUAL_HORN: lambda p, n: n <= 1, AFFINE: lambda p, n: False}


@dataclass(frozen=True)
class ClauseSet:
    """Clauses (or, if affine, equations) of one Schaefer class.  From
    to_clausal, constraint_relations holds per constraint the (variables,
    relation) pair of constraint_relation they were read off; ((), None)
    for one on constants alone.  Module horn works on those of class HORN.

    Built once, checked once: an unknown class or a clause outside the
    class raises ClauseExtractionError, an undeclared variable FormulaError.
    """
    schaefer_class: str
    variables: tuple[str, ...]
    clauses: tuple[CnfClause, ...] = ()
    equations: tuple[XorEquation, ...] = ()
    constraint_relations: tuple[tuple[tuple[str, ...], Relation | None], ...] = ()

    def __post_init__(self) -> None:
        cls = self.schaefer_class
        if cls not in _FITS:
            raise ClauseExtractionError(f"unknown clause class {cls!r}")
        fits, declared = _FITS[cls], set(self.variables)
        for c in self.clauses:
            if not fits(len(c.pos), len(c.neg)):
                raise ClauseExtractionError(f"clause {c} is not {cls}")
            if not c.variables() <= declared:
                raise FormulaError(f"clause {c} uses undeclared "
                                   f"{sorted(c.variables() - declared)}")
        for e in self.equations:
            if not e.vars <= declared:
                raise FormulaError(f"equation uses undeclared {sorted(e.vars - declared)}")

    @property
    def n(self) -> int:
        return len(self.variables)

    def has_positive_units(self) -> bool:
        return any(c.pos and not c.neg for c in self.clauses)

    def restraint_sets(self) -> list[frozenset[str]]:
        return [c.neg for c in self.clauses if c.neg and not c.pos]


# Widths whose candidate tables stay cached for the life of the process.
# Under CPython 3.11, tracemalloc puts the tables of all three shapes at
# 0.25 MiB for widths up to 6, 1.6 MiB up to 8 and 10 MiB up to 10.  A
# wider call walks the rows as _candidate_rows makes them and keeps none,
# so it never holds all its 2^k-bit cells at once.
TABLES_KEPT_WIDTH_MAX = 8
# a candidate row: cell, positive and negative coordinates, shorter rows
_Row = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]
# (width, shape) -> the rows of _candidate_rows
_TABLES: dict[tuple[int, str], tuple[_Row, ...]] = {}


def _candidate_rows(k: int, shape: str) -> Iterator[_Row]:
    """The candidate clauses of the shape over k coordinates, in
    cnf_implicates' order, one row each: the clause's cell, the tuples with
    coordinate 0 under every positive literal and 1 under every negative
    one; its positive and negative coordinates; and the indexes of the rows
    of its clauses one literal shorter.

    Rows come by width and, within a width, by coordinate selection in
    combinations order, each selection's rows in one run.  So dropping
    literal j of a clause on sel lands in the run of less[j], sel less
    sel[j], which starts at subs[j].
    """
    full = full_mask(k)
    ones = [coord_mask(k, k - 1 - c) for c in range(k)]
    zeros = [full ^ m for m in ones]
    yield full, (), (), ()
    first = {(): 0}  # coordinate selection -> index of its first row
    i = 1
    for width in ((1, 2) if shape == BIJUNCTIVE else range(1, k + 1)):
        for sel in combinations(range(k), width):
            first[sel] = i
            less = [sel[:j] + sel[j + 1:] for j in range(width)]
            subs = [first[t] for t in less]
            if shape == BIJUNCTIVE:
                # bit b of signs makes sel[b] positive; runs are in signs order
                run = [(tuple(c for b, c in enumerate(sel) if signs >> b & 1),
                        tuple(c for b, c in enumerate(sel) if not signs >> b & 1),
                        tuple(subs[j] + ((signs >> (j + 1) << j) | (signs & ((1 << j) - 1)))
                              for j in range(width)))
                       for signs in range(1 << width)]
                cells = []
                for pos, neg, _ in run:
                    cell = full
                    for c in pos:
                        cell &= zeros[c]
                    for c in neg:
                        cell &= ones[c]
                    cells.append(cell)
            else:
                # all-negative, then each single-positive choice; the head
                # sel[h] is coordinate h - 1 of less[j] for j < h and h for
                # j > h, behind the run's all-negative row
                run = [((), sel, tuple(subs))] + [
                    ((sel[h],), less[h],
                     (subs[h], *[s + h for s in subs[:h]], *[s + h + 1 for s in subs[h + 1:]]))
                    for h in range(width)]
                many, one = ones, zeros
                if shape == DUAL_HORN:
                    run = [(neg, pos, shorter) for pos, neg, shorter in run]
                    many, one = zeros, ones
                # the rows share every literal of the many-literal sign but
                # the head's: with the prefix and suffix ANDs of those, each
                # cell takes two ANDs, not a chain of width
                prefix = [full]
                for c in sel:
                    prefix.append(prefix[-1] & many[c])
                suffix = [full]
                for c in reversed(sel):
                    suffix.append(suffix[-1] & many[c])
                cells = [prefix[width]] + [prefix[h] & one[sel[h]] & suffix[width - 1 - h]
                                           for h in range(width)]
            for cell, (pos, neg, shorter) in zip(cells, run):
                yield cell, pos, neg, shorter
            i += len(run)


def _candidate_table(k: int, shape: str) -> Iterable[_Row]:
    """The rows of width k and the shape, kept in _TABLES up to
    TABLES_KEPT_WIDTH_MAX and made lazily, kept nowhere, above it.  Callers
    read `_TABLES.get((k, shape)) or _candidate_table(k, shape)`."""
    if shape not in (BIJUNCTIVE, HORN, DUAL_HORN):
        raise ClauseExtractionError(f"no clause shape for {shape!r}")
    rows = _candidate_rows(k, shape)
    if k > TABLES_KEPT_WIDTH_MAX:
        return rows
    table = _TABLES[k, shape] = tuple(rows)
    return table


def cnf_implicates(vars_: tuple[str, ...], mask: int, shape: str) -> list[CnfClause]:
    """Prime implicates of the given shape.

    shape: 'bijunctive' caps clause width at 2; 'horn' allows at most one
    positive literal; 'dual_horn' at most one negative.  A clause holds iff
    its cell, the tuples with coordinate 0 under every positive literal and
    1 under every negative one, misses the mask.  Each shape is closed under
    dropping literals and candidates come by width, so a clause is prime
    iff it holds and no clause one literal shorter holds.

    The candidates of a (width, shape) pair are the rows of one table,
    built once by _candidate_rows: each row holds the clause's cell and the
    rows of its clauses one literal shorter, so a call is one pass of cell
    tests and set probes.  The tables up to width TABLES_KEPT_WIDTH_MAX (8;
    1.6 MiB for all three shapes) are kept in _TABLES; wider rows are made
    as the pass reads them.
    """
    return _named_clauses(vars_, _prime_rows(mask, len(vars_), shape))


# a clause over coordinates: its positive and its negative coordinates
_CoordClause = tuple[tuple[int, ...], tuple[int, ...]]


def _prime_rows(mask: int, k: int, shape: str) -> list[_CoordClause]:
    """cnf_implicates over the coordinates 0..k-1."""
    valid: set[int] = set()
    prime: list[_CoordClause] = []
    for i, (cell, pos, neg, shorter) in enumerate(
            _TABLES.get((k, shape)) or _candidate_table(k, shape)):
        if cell & mask:
            continue
        valid.add(i)
        if valid.isdisjoint(shorter):
            prime.append((pos, neg))
    return prime


def _named_clauses(vars_: tuple[str, ...], rows: Iterable[_CoordClause]) -> list[CnfClause]:
    """The clauses over coordinates with coordinate j renamed vars_[j]."""
    return [CnfClause(frozenset([vars_[c] for c in pos]), frozenset([vars_[c] for c in neg]))
            for pos, neg in rows]


def _xor_basis(vars_: tuple[str, ...],
               mask: int) -> list[tuple[frozenset[str], int]]:
    """Basis of all GF(2) equations satisfied by every member tuple."""
    k = len(vars_)
    # a member t is the row (t, 1); the equations are the vectors orthogonal
    # to every row, bit c >= 1 the coefficient of vars_[k - c], bit 0 the rhs
    pivots, _ = gf2_reduce(((t << 1) | 1, 0) for t in iter_bits(mask))
    out: list[tuple[frozenset[str], int]] = []
    for f in range(k + 1):
        if f in pivots:
            continue
        v = (1 << f) | sum(1 << p for p, (bits, _) in pivots.items()
                           if (bits >> f) & 1)
        names = frozenset(vars_[k - c] for c in range(1, k + 1) if (v >> c) & 1)
        out.append((names, v & 1))
    return out


# (mask, arity, class) of a folded relation -> its templates, as
# _clause_templates reads them; the oldest entry is dropped first.  Only
# relations of arity up to TABLES_KEPT_WIDTH_MAX, as for the candidate
# tables, and with at most TEMPLATE_CLAUSES_MAX clauses or equations are
# kept: a clause shares its coordinate tuples with its candidate row, and
# under CPython 3.11 tracemalloc puts an entry of arity 8 at about 1.1 KiB
# with 7 or 8 equations and 0.6 KiB with 7 or 8 Horn clauses, so the
# TEMPLATES_KEPT entries hold at most about 1.2 MiB.  A wider relation or
# a longer translation is read again for each constraint.
TEMPLATES_KEPT = 1024
TEMPLATE_CLAUSES_MAX = 8
_TEMPLATES: OrderedDict[tuple[int, int, str], list | None] = OrderedDict()
_UNREAD = object()  # a key _TEMPLATES does not hold


def _clause_templates(rel: Relation, cls: str) -> list | None:
    """None when check_property puts rel outside the class; otherwise its
    prime clauses of the class's shape, as (positive, negative) coordinate
    tuples, or its XOR basis, as (coordinates, rhs): the translation of
    every constraint whose folded relation is rel, over coordinates.  Read
    from _TEMPLATES, or read and kept there."""
    key = (rel.mask, rel.arity, cls)
    templates = _TEMPLATES.get(key, _UNREAD)
    if templates is not _UNREAD:
        return templates
    if not check_property(rel, cls):
        templates = None
    elif cls == AFFINE:
        templates = [(tuple(coords), rhs)
                     for coords, rhs in _xor_basis(range(rel.arity), rel.mask)]
    else:
        templates = _prime_rows(rel.mask, rel.arity, cls)
    if rel.arity <= TABLES_KEPT_WIDTH_MAX and len(templates or ()) <= TEMPLATE_CLAUSES_MAX:
        if len(_TEMPLATES) >= TEMPLATES_KEPT:
            _TEMPLATES.popitem(last=False)
        _TEMPLATES[key] = templates
    return templates


def to_clausal(phi: Formula, schaefer_class: str) -> ClauseSet:
    """Rewrite every constraint as clauses/equations of the given class.

    A constraint on constants alone becomes no clause when it is true and
    the empty clause (the equation 0 = 1) when it is false.  Each other
    constraint becomes the prime clauses of the class's shape (or the XOR
    basis) of its relation.  Those define the relation's hull in the class
    (Schaefer 1978), so they define the relation itself exactly when
    check_property puts it in the class; a relation outside the class
    raises ClauseExtractionError "constraint ... is not <class>".  An
    unknown class raises ClauseExtractionError "no clause shape".

    The check and the clauses depend on the folded relation alone, so
    _clause_templates reads them over coordinates, once per relation while
    _TEMPLATES keeps it, and they are renamed per constraint.
    """
    if schaefer_class not in _FITS:
        raise ClauseExtractionError(f"no clause shape for {schaefer_class!r}")
    affine = schaefer_class == AFFINE
    clauses: list[CnfClause] = []
    equations: list[XorEquation] = []
    pairs = []
    for i, c in enumerate(phi.constraints):
        if CONSTANTS.issuperset(c.args):
            # nothing when it holds, else the equation 0 = 1 or the empty clause
            vars_, rel = (), None
            templates = () if holds_on_constants(phi, c) else (((), 1 if affine else ()),)
        else:
            vars_, rel = constraint_relation(phi, i)
            templates = _clause_templates(rel, schaefer_class)
            if templates is None:
                raise ClauseExtractionError(f"constraint {c} is not {schaefer_class}")
        pairs.append((vars_, rel))
        if affine:
            equations.extend(XorEquation(frozenset([vars_[j] for j in coords]), rhs)
                             for coords, rhs in templates)
        else:
            clauses.extend(_named_clauses(vars_, templates))
    return ClauseSet(schaefer_class, phi.variables, tuple(clauses),
                     tuple(equations), tuple(pairs))
