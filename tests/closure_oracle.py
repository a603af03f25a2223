"""The polymorphisms as functions on tuple indices, and the op loop that
closes a relation over its member tuples: the oracle for relations.hull
and for the generators built on it."""

from __future__ import annotations

from typing import Callable, Sequence

from relconn.bitspace import iter_bits
from relconn.relations import Relation


def op_maj(a: int, b: int, c: int) -> int:
    return (a & b) | (b & c) | (a & c)


def op_and(a: int, b: int) -> int:
    return a & b


def op_or(a: int, b: int) -> int:
    return a | b


def op_xor3(a: int, b: int, c: int) -> int:
    return a ^ b ^ c


def op_x_and_or(a: int, b: int, c: int) -> int:
    return a & (b | c)


def op_x_or_and(a: int, b: int, c: int) -> int:
    return a | (b & c)


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
