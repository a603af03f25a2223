"""The Jacobi bitmask search that bitspace's two routes replaced: one
round of n shifted ORs of the whole 2^n-bit mask per BFS level.  The
oracle for bitspace.neighbors, spread, component_masks and bfs_levels
and for the solution_graph queries built on them."""

from __future__ import annotations

from relconn.bitspace import coord_mask, full_mask


def neighbors(s: int, n: int) -> int:
    """Union of all single-bit flips of the members of s."""
    out = 0
    for pos in range(n):
        step = 1 << pos
        hi = coord_mask(n, pos)
        lo = full_mask(n) ^ hi
        out |= ((s & lo) << step) | ((s & hi) >> step)
    return out


def spread(seed: int, space: int, n: int) -> int:
    """Connected component(s) of `space` reachable from the seed set."""
    comp = seed & space
    while True:
        grown = comp | (neighbors(comp, n) & space)
        if grown == comp:
            return comp
        comp = grown


def component_masks(space: int, n: int) -> list[int]:
    """Connected components of `space`, ordered by smallest member index."""
    comps = []
    rest = space
    while rest:
        seed = rest & -rest
        comp = spread(seed, rest, n)
        comps.append(comp)
        rest ^= comp
    return comps


def bfs_levels(seed: int, space: int, n: int, stop: int = 0) -> list[int]:
    """Level sets of a breadth-first search from the seed set inside `space`,
    ending with the first level that meets `stop`."""
    levels = [seed & space]
    seen = levels[0]
    while not levels[-1] & stop:
        frontier = neighbors(levels[-1], n) & space & ~seen
        if not frontier:
            break
        levels.append(frontier)
        seen |= frontier
    return levels


def st_path(space: int, n: int, s: int, t: int) -> list[int] | None:
    """Shortest path from s to t inside `space`, walking back from t by the
    lowest-index neighbour one level closer to s; None if unreachable."""
    levels = bfs_levels(1 << s, space, n, 1 << t)
    if not (levels[-1] >> t) & 1:
        return None
    path = [t]
    cur = t
    for d in range(len(levels) - 2, -1, -1):
        prev = neighbors(1 << cur, n) & levels[d]
        cur = (prev & -prev).bit_length() - 1
        path.append(cur)
    return path[::-1]
