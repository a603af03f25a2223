"""Horn clause-set queries the tests check the structure results against."""

from __future__ import annotations

from typing import Iterable

from relconn import bitspace
from relconn.formulas import ClauseSet
from relconn.horn import imp, solution_space


def locally_minimal_solutions(view: ClauseSet) -> list[int]:
    """Solutions none of whose 1-coordinates can be flipped down."""
    return list(bitspace.iter_bits(
        bitspace.locally_minimal(solution_space(view), view.n)))


def maximum_self_implicating_subset(view: ClauseSet,
                                    ground: Iterable[str]) -> frozenset[str]:
    """Largest self-implicating subset of `ground` (unions stay self-implicating,
    so the maximum is unique); computed by peeling unsupported members."""
    u = set(ground)
    changed = True
    while changed:
        changed = False
        for x in sorted(u):
            if x not in imp(view, u - {x}):
                u.discard(x)
                changed = True
    return frozenset(u)
