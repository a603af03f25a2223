"""Seeded random relations, formulas and Horn clause sets for the tests.

Everything takes an explicit random.Random so runs are reproducible.  A
relation of a polymorphism class comes out as relations.hull of a random
relation, so it is in its class by construction.  random_formula lives in
relconn.cpss, next to the separation search that draws from it.
"""

from __future__ import annotations

import random

from relconn.classify import profile
from relconn.errors import RelconnError
from relconn.formulas import ClauseSet, CnfClause
from relconn.relations import (AFFINE, BIJUNCTIVE, HORN, IHSB_MINUS, IHSB_PLUS,
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
    IHSB+, so any mix drawn from one pool is CPSS.  A bijunctive relation is
    safely componentwise bijunctive by the same table.
    """
    try:
        density, prop = _POOL_HULLS[kind]
    except KeyError:
        raise RelconnError(f"unknown pool kind {kind!r}") from None
    return [hull(random_relation(rng, rng.randint(2, arity_max), density), prop)
            for _ in range(count)]


def random_horn_view(rng: random.Random, n_vars: int, n_clauses: int,
                     allow_positive_units: bool = False,
                     restraint_prob: float = 0.3) -> ClauseSet:
    variables = tuple(f"v{i}" for i in range(1, n_vars + 1))
    clauses = []
    for _ in range(n_clauses):
        roll = rng.random()
        if allow_positive_units and roll < 0.15:
            clauses.append(CnfClause(frozenset({rng.choice(variables)}), frozenset()))
            continue
        size = rng.randint(1, min(3, n_vars))
        body = frozenset(rng.sample(variables, size))
        if roll < restraint_prob:
            clauses.append(CnfClause(frozenset(), body))
        else:
            head_choices = [v for v in variables if v not in body]
            if not head_choices:
                clauses.append(CnfClause(frozenset(), body))
            else:
                clauses.append(CnfClause(frozenset({rng.choice(head_choices)}), body))
    return ClauseSet(HORN, variables, tuple(clauses))


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
