"""Seeded random generators for relations, formulas and clause sets.

Everything takes an explicit random.Random so runs are reproducible; the
pool builders use rejection sampling against the classifier, which keeps
them honest at the price of a few retries.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .bitspace import iter_bits
from .classify import profile
from .errors import RelconnError
from .formulas import Constraint, Formula, make_formula
from .horn import HornClause, HornView
from .relations import (Relation, op_and, op_maj, op_or, op_x_and_or,
                        op_x_or_and, op_xor3)


def random_relation(rng: random.Random, arity: int, density: float = 0.5,
                    nonempty: bool = True) -> Relation:
    size = 1 << arity
    while True:
        mask = 0
        for i in range(size):
            mask |= (rng.random() < density) << i
        if mask or not nonempty:
            return Relation(arity, mask)


def close_under(rel: Relation, ops: Sequence[Callable[..., int]]) -> Relation:
    """Smallest superset of rel closed under the given bitwise operations."""
    mask = rel.mask
    while True:
        members = list(iter_bits(mask))
        new: set[int] = set()
        for op in ops:
            if op.__code__.co_argcount == 2:
                new.update(op(a, b) for a in members for b in members)
            else:
                new.update(op(a, b, c) for a in members for b in members
                           for c in members)
        grown = mask
        for t in new:
            grown |= 1 << t
        if grown == mask:
            return Relation(rel.arity, mask)
        mask = grown


def _pool(rng: random.Random, arity_max: int, count: int,
          make: Callable[[random.Random, int], Relation],
          accept: Callable[[Relation], bool], tries: int = 10000) -> list[Relation]:
    out: list[Relation] = []
    for _ in range(tries):
        if len(out) >= count:
            return out
        arity = rng.randint(2, arity_max)
        rel = make(rng, arity)
        if accept(rel):
            out.append(rel)
    raise RelconnError("generator could not fill the requested pool")


def random_cpss_pool(rng: random.Random, kind: str, count: int,
                     arity_max: int = 4) -> list[Relation]:
    """Relations that make a CPSS set of the given kind.

    kind: 'bijunctive' | 'horn' | 'dual_horn' | 'affine'.  The horn and
    dual_horn kinds also demand the safe componentwise condition, checked
    through the profile, so any mix drawn from one pool is CPSS.
    """
    if kind == "bijunctive":
        return _pool(rng, arity_max, count,
                     lambda r, a: close_under(random_relation(r, a, 0.4), [op_maj]),
                     lambda rel: True)
    if kind == "affine":
        return _pool(rng, arity_max, count,
                     lambda r, a: close_under(random_relation(r, a, 0.3), [op_xor3]),
                     lambda rel: True)
    if kind == "horn":
        return _pool(rng, arity_max, count,
                     lambda r, a: close_under(random_relation(r, a, 0.4),
                                              [op_and, op_x_and_or]),
                     lambda rel: profile(rel).safely_componentwise_ihsb_minus is True)
    if kind == "dual_horn":
        return _pool(rng, arity_max, count,
                     lambda r, a: close_under(random_relation(r, a, 0.4),
                                              [op_or, op_x_or_and]),
                     lambda rel: profile(rel).safely_componentwise_ihsb_plus is True)
    raise RelconnError(f"unknown pool kind {kind!r}")


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
    return close_under(random_relation(rng, arity, density), [op_and])


def random_horn_not_safely_cw_ihsb_minus(rng: random.Random,
                                         arity_max: int = 6,
                                         tries: int = 20000) -> Relation:
    """Random Horn relation that is not safely componentwise IHSB-."""
    for _ in range(tries):
        arity = rng.randint(3, arity_max)
        rel = random_horn_relation(rng, arity)
        p = profile(rel)
        if p.horn and p.safely_componentwise_ihsb_minus is False:
            return rel
    raise RelconnError("could not find a qualifying Horn relation")


def random_safely_cw_bijunctive(rng: random.Random, arity_max: int = 4,
                                tries: int = 20000) -> Relation:
    for _ in range(tries):
        arity = rng.randint(2, arity_max)
        rel = close_under(random_relation(rng, arity, 0.4), [op_maj])
        if profile(rel).safely_componentwise_bijunctive is True:
            return rel
    raise RelconnError("could not find a safely componentwise bijunctive relation")
