"""Horn clause sets: implication closure, self-implicating sets, normal form.

The functions here take a formulas.ClauseSet of class HORN: parse_horn's,
or to_clausal(phi, HORN) of a formula.  In text, `x | -y -z` is the
clause x OR NOT y OR NOT z (head x, body {y, z}), a bare `x` is a
positive unit, `- y z` (or `-y -z`) is a restraint clause (all literals
negative) and a lone `-` is the empty clause.  The negative literals of a
restraint clause are its restraint set.

Implication is syntactic: Imp(U) is the least superset of U containing
every positive unit and closed under firing implication clauses whose
body it contains.  U is self-implicating when every member is implied by
the rest of U, and maximal when additionally Imp(U) = U.  For clause sets
without positive units the components of the solution graph correspond
one-to-one to the maximal self-implicating sets that contain no restraint
set, which is what maximal_self_implicating_sets computes and verifies.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from . import bitspace
from .bitspace import conjunction_space
from .catalog import NAME_RE, is_keyword_line, parse_var_line, read_lines
from .errors import FormulaParseError, HornStructureError
from .formulas import ClauseSet, CnfClause, clause_item
from .relations import HORN


_N = NAME_RE.pattern
# with good names, `x`, `x |` or `x | -y -z` (_CLAUSE_RE, groups head and
# body) and `- y z` or `-y -z` (_RESTRAINT_RE); use with fullmatch.  Names
# hold no `-`, so blanking out every `-` leaves the names of the body or
# of the restraint clause.
_CLAUSE_RE = re.compile(rf"({_N})(?:\s*\|\s*((?:-{_N}(?:\s+-{_N})*)?))?")
_RESTRAINT_RE = re.compile(rf"-(?: \s*{_N}(?:\s+{_N})*)?|-{_N}(?:\s+-{_N})*")


def parse_horn(text: str) -> ClauseSet:
    """Parse the clause text format (see module docstring); `#` comments.

    A clause line with good names is read by one regex fullmatch; any other
    line goes through the per-token code, which names the fault."""
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
        m = _CLAUSE_RE.fullmatch(line)
        if m:
            head, body = m.groups()
            names = body.replace("-", " ").split() if body else []
            seen.update(dict.fromkeys(names))
            seen.setdefault(head)
            clauses.append(CnfClause(frozenset((head,)), frozenset(names)))
            continue
        if _RESTRAINT_RE.fullmatch(line):
            names = line.replace("-", " ").split()
            seen.update(dict.fromkeys(names))
            clauses.append(CnfClause(frozenset(), frozenset(names)))
            continue
        toks = line.split()
        if line.startswith("- ") or all(t.startswith("-") for t in toks):
            # `- y z` lists names, `-y -z` negative literals of one `-` each
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


def format_clause(c: CnfClause) -> str:
    """A Horn clause in the text format: `x | -y -z`, `x`, `- y z` or `-`."""
    if not c.pos:
        return " ".join(["-", *sorted(c.neg)])
    (head,) = c.pos
    if not c.neg:
        return head
    return head + " | " + " ".join("-" + v for v in sorted(c.neg))


def format_horn(view: ClauseSet) -> str:
    lines = ["var " + " ".join(view.variables)]
    lines.extend(format_clause(c) for c in view.clauses)
    return "\n".join(lines) + "\n"


def _imp_over(clauses: Sequence[CnfClause], start: Iterable[str]) -> frozenset[str]:
    current = set(start)
    rules = []
    for c in clauses:
        for head in c.pos:  # at most one
            if c.neg:
                rules.append((head, c.neg))
            else:
                current.add(head)
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in current and body <= current:
                current.add(head)
                changed = True
    return frozenset(current)


def imp(view: ClauseSet, start: Iterable[str]) -> frozenset[str]:
    """Least fixpoint of the implication clauses over `start`.

    Seeds with the start set, adds every positive-unit head, then fires any
    implication clause whose body is contained in the current set.
    """
    return _imp_over(view.clauses, start)


def is_implied(view: ClauseSet, x: str) -> bool:
    """Is x implied by all the other variables?"""
    return x in imp(view, set(view.variables) - {x})


def is_self_implicating(view: ClauseSet, subset: Iterable[str]) -> bool:
    """Every member is implied by the remaining members (empty set: yes)."""
    u = frozenset(subset)
    return all(x in imp(view, u - {x}) for x in u)


def is_maximal_self_implicating(view: ClauseSet, subset: Iterable[str]) -> bool:
    u = frozenset(subset)
    return is_self_implicating(view, u) and imp(view, u) == u


def has_restraint_subset(view: ClauseSet, subset: Iterable[str]) -> bool:
    u = frozenset(subset)
    return any(r <= u for r in view.restraint_sets())


def solution_space(view: ClauseSet) -> int:
    """Bitmask of satisfying assignments, same index convention as formulas."""
    return conjunction_space(view.variables, map(clause_item, view.clauses))


def ones_set(view: ClauseSet, idx: int) -> frozenset[str]:
    """The variables set to 1 by assignment index idx."""
    n = view.n
    return frozenset(v for j, v in enumerate(view.variables)
                     if (idx >> (n - 1 - j)) & 1)


def maximal_self_implicating_sets(view: ClauseSet) -> list[frozenset[str]]:
    """The 1-sets of the per-component minimum solutions, verified.

    Requires a clause set without positive units.  Each returned set is
    checked to be maximal self-implicating and to contain no restraint set;
    the empty set stands for the component of the all-zero solution.
    """
    if view.has_positive_units():
        raise HornStructureError("clause set has positive units")
    out = []
    for comp in bitspace.component_masks(solution_space(view), view.n):
        lower = bitspace.minimum(comp, view.n)
        if lower is None:
            raise HornStructureError("component without a minimum solution")
        u = ones_set(view, lower)
        if not is_maximal_self_implicating(view, u) or has_restraint_subset(view, u):
            raise HornStructureError(
                f"component minimum {sorted(u)} fails the structure check")
        out.append(u)
    return out


# --- normal form ---------------------------------------------------------
#
# Rules, applied to a fixpoint in deterministic scan order (clauses by
# index, body literals by the view's variable order):
#   (a) constants do not occur in a Horn clause set: to_clausal and
#       express-m's pinning fold them into the relation before its clauses
#       are read
#   (b) a clause whose head also occurs negated is a tautology: drop it
#   (c) an implication clause whose head is implied by its body via the
#       other clauses is redundant: drop it
#   (d) an implication clause whose variable set implies a restraint set
#       can never fire: keep only its restraint part
#   (e) a negated variable implied by the remaining negated variables of a
#       multi-implication or restraint clause is redundant: drop the literal
#
# Only the solution set is promised to be preserved; 500-case equivalence
# checks live in the tests.


def _rule_b(view: ClauseSet, i: int, c: CnfClause):
    if not c.pos.isdisjoint(c.neg):
        return _without(view, i)
    return None


def _rule_c(view: ClauseSet, i: int, c: CnfClause):
    if c.pos and c.neg:
        others = view.clauses[:i] + view.clauses[i + 1:]
        if c.pos <= _imp_over(others, c.neg):
            return _without(view, i)
    return None


def _rule_d(view: ClauseSet, i: int, c: CnfClause):
    if c.pos and c.neg:
        reach = imp(view, c.variables())
        if any(r <= reach for r in view.restraint_sets()):
            return _replace_at(view, i, CnfClause(frozenset(), c.neg))
    return None


def _rule_e(view: ClauseSet, i: int, c: CnfClause):
    if len(c.neg) > len(c.pos):  # a multi-implication or a restraint
        order = {v: j for j, v in enumerate(view.variables)}
        for y in sorted(c.neg, key=order.__getitem__):
            if y in imp(view, c.neg - {y}):
                return _replace_at(view, i, CnfClause(c.pos, c.neg - {y}))
    return None


def _without(view: ClauseSet, i: int) -> ClauseSet:
    return ClauseSet(HORN, view.variables, view.clauses[:i] + view.clauses[i + 1:])


def _replace_at(view: ClauseSet, i: int, clause: CnfClause) -> ClauseSet:
    return ClauseSet(HORN, view.variables,
                     view.clauses[:i] + (clause,) + view.clauses[i + 1:])


def normalize(view: ClauseSet) -> ClauseSet:
    """Apply the normal-form rules until none fires."""
    rules = (_rule_b, _rule_c, _rule_d, _rule_e)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for i, c in enumerate(view.clauses):
                new = rule(view, i, c)
                if new is not None:
                    view = new
                    changed = True
                    break
            if changed:
                break
    return view
