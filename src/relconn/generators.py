"""Seeded random generators for relations, formulas and clause sets.

Everything takes an explicit random.Random so runs are reproducible.  A
relation of a polymorphism class comes out as relations.hull of a random
relation, so it is in its class by construction.
"""

from __future__ import annotations

import random
from typing import Sequence

from .classify import profile
from .errors import RelconnError
from .formulas import Constraint, Formula, make_formula
from .horn import HornClause, HornView
from .relations import (AFFINE, BIJUNCTIVE, HORN, IHSB_MINUS, IHSB_PLUS,
                        Relation, hull)


def random_relation(rng: random.Random, arity: int, density: float = 0.5,
                    nonempty: bool = True) -> Relation:
    size = 1 << arity
    while True:
        mask = 0
        for i in range(size):
            mask |= (rng.random() < density) << i
        if mask or not nonempty:
            return Relation(arity, mask)


# pool kind -> (density of the random relation, the class whose hull it takes)
_POOL_HULLS = {
    "bijunctive": (0.4, BIJUNCTIVE),
    "affine": (0.3, AFFINE),
    "horn": (0.4, IHSB_MINUS),
    "dual_horn": (0.4, IHSB_PLUS),
}


def random_cpss_pool(rng: random.Random, kind: str, count: int,
                     arity_max: int = 4) -> list[Relation]:
    """Relations that make a CPSS set of the given kind.

    kind: 'bijunctive' | 'horn' | 'dual_horn' | 'affine'.  The horn and
    dual_horn kinds take IHSB- and IHSB+ hulls, which are Horn and dual
    Horn and, by relations.SAFE_SHORTCUTS, safely componentwise IHSB- and
    IHSB+, so any mix drawn from one pool is CPSS.
    """
    try:
        density, prop = _POOL_HULLS[kind]
    except KeyError:
        raise RelconnError(f"unknown pool kind {kind!r}") from None
    return [hull(random_relation(rng, rng.randint(2, arity_max), density), prop)
            for _ in range(count)]


def random_formula(rng: random.Random, relations: Sequence[Relation],
                   max_vars: int, max_constraints: int,
                   const_prob: float = 0.1) -> Formula:
    """Random conjunction over the given relations; repeats and constants
    in argument lists are deliberately common."""
    n = rng.randint(2, max_vars)
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    library = {}
    for j, rel in enumerate(relations):
        library[rel.name or f"REL{j}"] = rel.renamed(rel.name or f"REL{j}")
    names = list(library)
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        name = rng.choice(names)
        arity = library[name].arity
        while True:
            args = tuple(
                rng.choice(("0", "1")) if rng.random() < const_prob
                else rng.choice(variables)
                for _ in range(arity))
            if any(a not in ("0", "1") for a in args):
                break
        constraints.append(Constraint(name, args))
    return make_formula(constraints, library, variables)


def random_horn_view(rng: random.Random, n_vars: int, n_clauses: int,
                     allow_positive_units: bool = False,
                     restraint_prob: float = 0.3) -> HornView:
    variables = tuple(f"v{i}" for i in range(1, n_vars + 1))
    clauses = []
    for _ in range(n_clauses):
        roll = rng.random()
        if allow_positive_units and roll < 0.15:
            clauses.append(HornClause(rng.choice(variables), frozenset()))
            continue
        size = rng.randint(1, min(3, n_vars))
        body = frozenset(rng.sample(variables, size))
        if roll < restraint_prob:
            clauses.append(HornClause(None, body))
        else:
            head_choices = [v for v in variables if v not in body]
            if not head_choices:
                clauses.append(HornClause(None, body))
            else:
                clauses.append(HornClause(rng.choice(head_choices), body))
    return HornView(variables, tuple(clauses))


def random_horn_relation(rng: random.Random, arity: int,
                         density: float = 0.35) -> Relation:
    """Random relation closed under AND (so Horn)."""
    return hull(random_relation(rng, arity, density), HORN)


def random_horn_not_safely_cw_ihsb_minus(rng: random.Random,
                                         arity_max: int = 6,
                                         tries: int = 20000) -> Relation:
    """Random Horn relation that is not safely componentwise IHSB-."""
    for _ in range(tries):
        rel = random_horn_relation(rng, rng.randint(3, arity_max))
        if profile(rel).safely_componentwise_ihsb_minus is False:
            return rel
    raise RelconnError("could not find a qualifying Horn relation")


def random_safely_cw_bijunctive(rng: random.Random, arity_max: int = 4) -> Relation:
    """Random bijunctive relation, hence safely componentwise bijunctive
    (relations.SAFE_SHORTCUTS)."""
    return hull(random_relation(rng, rng.randint(2, arity_max), 0.4), BIJUNCTIVE)
