"""Checks of the clause translation and the Schaefer engines against the
relations they come from: each constraint's group of to_clausal clauses or
equations defines the constraint's relation, every sat_schaefer model
satisfies every clause and equation, and every projection lies inside its
constraint's relation.  The package trusts these facts (the prime clauses
of a Schaefer class's shape, or the XOR basis, define a relation's hull in
the class); the tests check them."""

from __future__ import annotations

from typing import Collection, Mapping

from relconn.bitspace import conjunction_space, coord_mask, full_mask
from relconn.cpss import Projection
from relconn.formulas import (ClauseSet, CnfClause, Constraint, Formula,
                              XorEquation, clause_item, holds_on_constants,
                              make_formula, to_clausal)


def equation_item(vars_: Collection[str], rhs: int) -> tuple[int, int, list[str]]:
    """XOR(vars_) = rhs as a conjunction_space item: the tuples of parity rhs."""
    k = len(vars_)
    odd = 0
    for p in range(k):
        odd ^= coord_mask(k, p)
    return odd if rhs else full_mask(k) ^ odd, k, list(vars_)


def first_difference(vars_: tuple[str, ...], want: int,
                     clauses: Collection[CnfClause],
                     equations: Collection[XorEquation]) -> dict[str, int] | None:
    """The first assignment to vars_ on which the mask `want`, a
    constraint's relation over its k distinct variables, and the
    conjunction_space of its clauses or equations differ; None when they
    agree.

    The formula and the clause set are conjunctions of these per-constraint
    groups, so agreement on every group makes them define the same
    solutions, at any number of variables.
    """
    got = conjunction_space(vars_, [clause_item(cl) for cl in clauses]
                            + [equation_item(e.vars, e.rhs) for e in equations])
    diff = got ^ want
    if not diff:
        return None
    a = (diff & -diff).bit_length() - 1
    return {v: (a >> (len(vars_) - 1 - j)) & 1 for j, v in enumerate(vars_)}


def first_group_difference(phi: Formula,
                           kind: str) -> tuple[Constraint, dict[str, int]] | None:
    """The first constraint whose group of to_clausal(phi, kind) differs
    from its relation, with the first assignment where they differ; None
    when every group agrees.

    Each group is to_clausal of the constraint alone; together, in
    constraint order, they must make up to_clausal of the whole formula.
    """
    clauses: list[CnfClause] = []
    equations: list[XorEquation] = []
    for c in phi.constraints:
        one = to_clausal(make_formula([c], phi.library, phi.variables), kind)
        ((vars_, rel),) = one.constraint_relations
        want = int(holds_on_constants(phi, c)) if rel is None else rel.mask
        asg = first_difference(vars_, want, one.clauses, one.equations)
        if asg is not None:
            return c, asg
        clauses.extend(one.clauses)
        equations.extend(one.equations)
    whole = to_clausal(phi, kind)
    assert (whole.clauses, whole.equations) == (tuple(clauses), tuple(equations))
    return None


def is_model(cs: ClauseSet, model: Mapping[str, int]) -> bool:
    """Does the assignment satisfy every clause and equation of cs?"""
    return (all(any(model[v] for v in c.pos) or any(not model[v] for v in c.neg)
                for c in cs.clauses)
            and all(sum(model[v] for v in e.vars) % 2 == e.rhs for e in cs.equations))


def projection_inside(cs: ClauseSet, p: Projection) -> bool:
    """Does the projection lie inside its constraint's own relation, as
    to_clausal recorded it in cs?"""
    vars_, own = cs.constraint_relations[p.constraint_index]
    return p.variables == vars_ and not p.relation.mask & ~own.mask
