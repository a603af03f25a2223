"""Identifications of variables by the definition: one apply_pattern per
set partition of the coordinates.  The oracle for
relations.walk_identifications and the sweeps built on it."""

from __future__ import annotations

from typing import Iterator

from relconn.relations import ArgPattern, Relation, apply_pattern


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n items as restricted-growth label vectors.

    Labels are block numbers in order of first appearance, so blocks come
    out ordered by their least element.  Lexicographic order; the single
    block (0,...,0) is first and the identity partition is last.
    """
    labels = [0] * n

    def rec(i: int, maxl: int):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(maxl + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxl, lab))

    if n:
        yield from rec(1, 0)


def enumerate_identifications(rel: Relation) -> Iterator[Relation]:
    """Every relation obtained from rel by identifying variables.

    One per set partition, in `set_partitions` order, so rel itself is the
    last item.
    """
    for labels in set_partitions(rel.arity):
        yield apply_pattern(rel, ArgPattern(labels))
