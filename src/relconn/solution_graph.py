"""Exhaustive analysis of the solution graph of a formula.

The solution graph has the satisfying assignments as vertices, adjacent
iff they differ in exactly one variable.  This module is the one query
layer over solution bitmasks: every query on a formula or a Horn clause
set (see horn) materialises the full assignment space once as a bitmask
(see bitspace) with bitspace.conjunction_space and reads it here.  It is
exact and fast up to BRUTE_VARS_MAX variables.  An unsatisfiable formula
counts as connected and as having diameter 0.  The queries that list
every solution (component_listing, components, report, export_dot) raise
VarsLimitError before formatting any when there are more than
LISTING_SOLUTIONS_MAX.

Connectivity, components and st-paths pick one of bitspace's two routes
per call: bitmask sweeps or BFS rounds over the whole 2^n-bit mask while
they cost less than the explicit route, then a hash-set search over
single-bit flips whose cost follows the component rather than the cube.

The diameter is a sum over factors: groups of variables that share no
constraint.  The solution graph of a conjunction over disjoint variable
sets is the Cartesian product of the factors' graphs, where distances
add, so its diameter is the sum of each factor's largest component
diameter, and 0 when some factor is unsatisfiable.  A variable in no
constraint is a K2 factor and adds 1; a constraint on constants only
either drops out or makes the formula unsatisfiable.  Each other factor's
space is built over its own variables, and all BFS sources of each of its
components run at once, as the bits of one reach int per vertex: D rounds
of 2|E| ORs of ints about |C|/2 bits wide, for a component of |C|
vertices, |E| edges and diameter D, with the reach ints held to
REACH_BITS_MAX bits by running the sources in batches.  A factor's
component of more than DIAMETER_VERTICES_MAX vertices raises
DiameterLimitError before any neighbour list is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import bitspace
from .bitspace import BRUTE_VARS_MAX, conjunction_space
from .errors import DiameterLimitError, NotASolutionError, VarsLimitError
from .formulas import Constraint, Formula
from .relations import Relation

# Bits of the reach ints that the diameter pass holds at once (16 MiB):
# one batch per side while a component has at most 16,384 vertices.
REACH_BITS_MAX = 1 << 27
# Largest component of one factor that the diameter pass takes: its
# neighbour lists hold about 300 bytes per vertex and its time grows with
# the square of the vertex count (16,640 vertices take about 0.9 s on a
# 2-core host).  A product of small factors passes whatever its size.
DIAMETER_VERTICES_MAX = 1 << 17
# Most solutions that components, report and export_dot list, one string
# each: 2^18 of them took 0.13 s and 75 MB in report on a 2-core host.
# The dense 16-variable formulas (at most 2^16 solutions) list.
LISTING_SOLUTIONS_MAX = 1 << 17


def solution_space(phi: Formula) -> int:
    """Bitmask over all 2^n assignments; bit i set iff assignment i satisfies
    phi, the first of phi.variables being the most significant bit of i."""
    return conjunction_space(phi.variables, _items(phi, phi.constraints))


def _items(phi: Formula, constraints: Iterable[Constraint]
           ) -> Iterator[tuple[int, int, tuple[str, ...]]]:
    """Constraints of phi as conjunction_space items."""
    return ((phi.relation_of(c).mask, len(c.args), c.args) for c in constraints)


def solutions(phi: Formula) -> list[int]:
    """Satisfying assignment indices, ascending."""
    return list(bitspace.iter_bits(solution_space(phi)))


def formula_relation(phi: Formula) -> Relation:
    """The set of solutions as a relation over the variables in name order."""
    order = sorted(phi.variables)
    return Relation(len(order), conjunction_space(order, _items(phi, phi.constraints)))


def component_spaces(phi: Formula) -> list[int]:
    """Connected components as bitmasks, ordered by smallest assignment."""
    return bitspace.component_masks(solution_space(phi), phi.n)


def _check_listing(count: int) -> None:
    """Raise VarsLimitError when more than LISTING_SOLUTIONS_MAX solutions
    would be listed; callers check before they format any of them."""
    if count > LISTING_SOLUTIONS_MAX:
        raise VarsLimitError(f"{count} solutions exceed the listing bound "
                             f"{LISTING_SOLUTIONS_MAX}")


def component_listing(phi: Formula) -> list[int]:
    """component_spaces, once they have passed the listing bound: more
    than LISTING_SOLUTIONS_MAX solutions raise VarsLimitError.  A caller
    that writes the listing as text formats each mask itself (see
    bitspace.joined_tuples)."""
    comps = component_spaces(phi)
    _check_listing(sum(map(int.bit_count, comps)))
    return comps


def components(phi: Formula) -> list[list[str]]:
    """Each component's solutions as bitstrings; more than
    LISTING_SOLUTIONS_MAX solutions raise VarsLimitError."""
    n = phi.n
    return [bitspace.tuples_of(m, n) for m in component_listing(phi)]


def is_connected(phi: Formula) -> bool:
    """At most one connected component (so unsatisfiable counts as connected)."""
    space = solution_space(phi)
    if not space:
        return True
    comp = bitspace.spread(space & -space, space, phi.n)
    return comp == space


def _index_of(phi: Formula, assignment: str) -> int:
    n = phi.n
    if len(assignment) != n or any(ch not in "01" for ch in assignment):
        raise NotASolutionError(
            f"assignment {assignment!r} is not a bitstring over {n} variables")
    return int(assignment, 2) if n else 0


def _search(phi: Formula, s: str, t: str
            ) -> tuple[int, int | None, Callable[[int, int], bool] | None]:
    """Breadth-first search from solution s towards solution t.

    Returns the index of t, its distance from s, and a test of whether an
    index lies at a given distance below that one; None and None when t is
    unreachable.

    Bitmask rounds (bitspace.bfs_levels, n steps each) run while they cost
    less than the explicit route (bitspace.step_budget); a search still
    open then is run again by the explicit route.  The endpoints must
    satisfy the formula, otherwise NotASolutionError.
    """
    n = phi.n
    space = solution_space(phi)
    si, ti = _index_of(phi, s), _index_of(phi, t)
    for name, idx in (("s", si), ("t", ti)):
        if not (space >> idx) & 1:
            raise NotASolutionError(f"{name} does not satisfy the formula")
    rounds = bitspace.step_budget(space, n) // max(n, 1)
    masks = bitspace.bfs_levels(1 << si, space, n, 1 << ti, rounds)
    if (masks[-1] >> ti) & 1:
        return ti, len(masks) - 1, lambda w, d: (masks[d] >> w) & 1
    if len(masks) <= rounds:  # ran dry within its rounds
        return ti, None, None
    unseen = set(bitspace.iter_bits(space))
    sets = [set(level) for level in bitspace.flip_levels((si,), unseen, n, ti)]
    hit = len(sets) - 1 if ti in sets[-1] else None
    return ti, hit, lambda w, d: w in sets[d]


def st_connected(phi: Formula, s: str, t: str) -> tuple[bool, list[str] | None]:
    """Are two solutions in the same component?  Returns a shortest path too:
    walking back from t, each step takes the lowest-index neighbour one
    level closer to s.

    The endpoints must satisfy the formula, otherwise NotASolutionError.
    """
    n = phi.n
    ti, hit, at_level = _search(phi, s, t)
    if hit is None:
        return False, None
    path = [ti]
    cur = ti
    for d in range(hit - 1, -1, -1):
        cur = min(w for w in (cur ^ (1 << pos) for pos in range(n)) if at_level(w, d))
        path.append(cur)
    path.reverse()
    return True, [bitspace.tuple_of_index(i, n) for i in path]


def distance(phi: Formula, s: str, t: str) -> int | None:
    """Shortest-path distance between two solutions, None if disconnected."""
    return _search(phi, s, t)[1]


def _adjacency(comp: int, n: int) -> tuple[list[list[int]], list[int]]:
    """Neighbour lists of the members of comp, by rank in ascending order,
    read off one edge mask per dimension, and the parity of each member."""
    verts = list(bitspace.iter_bits(comp))
    rank = {v: i for i, v in enumerate(verts)}
    adj: list[list[int]] = [[] for _ in verts]
    for pos in range(n):
        step = 1 << pos
        for v in bitspace.iter_bits(bitspace.edge_starts(comp, n, pos)):
            i, j = rank[v], rank[v + step]
            adj[i].append(j)
            adj[j].append(i)
    return adj, [v.bit_count() & 1 for v in verts]


def _eccentricity_max(adj: list[list[int]], side: list[int]) -> int:
    """Largest eccentricity in a connected bipartite graph, given its
    neighbour lists and the side of each vertex.

    All sources on one side run at once as bits: after round r, reach[i]
    holds the sources within r steps of vertex i, and the rounds stop once
    every reach[i] holds every source.  The sources at distance exactly r
    from i all lie on one side, so round r grows only the vertices on the
    other side, from neighbours that the round leaves alone: one list of
    reach ints is updated in place.  The two sides' passes take D rounds
    of 2|E| ORs in all.  Sources go in batches so that the reach ints stay
    within REACH_BITS_MAX bits.
    """
    size = len(adj)
    batch = max(1, REACH_BITS_MAX // size)
    best = 0
    for q in (0, 1):
        sources = [i for i in range(size) if side[i] == q]
        for lo in range(0, len(sources), batch):
            chunk = sources[lo:lo + batch]
            full = (1 << len(chunk)) - 1
            reach = [0] * size
            for b, i in enumerate(chunk):
                reach[i] = 1 << b
            pending = [[i for i in range(size) if side[i] == p and reach[i] != full]
                       for p in (0, 1)]
            rounds = 0
            while pending[0] or pending[1]:
                rounds += 1
                grow = pending[(q + rounds) & 1]
                for i in grow:
                    r = reach[i]
                    for j in adj[i]:
                        r |= reach[j]
                    reach[i] = r
                grow[:] = [i for i in grow if reach[i] != full]
            best = max(best, rounds)
    return best


def _diameter(comps: list[int], n: int) -> int:
    """Largest eccentricity of any vertex within its component.

    One all-sources pass per component (_eccentricity_max), D rounds of
    2|E| ORs of ints about |C|/2 bits wide, in place of a BFS over the
    whole 2^n-bit cube from each of its |C| vertices.  Every component is
    checked against DIAMETER_VERTICES_MAX before the first pass.
    """
    size = max((comp.bit_count() for comp in comps), default=0)
    if size > DIAMETER_VERTICES_MAX:
        raise DiameterLimitError(
            f"a component of {size} solutions exceeds the diameter bound "
            f"{DIAMETER_VERTICES_MAX}")
    return max((_eccentricity_max(*_adjacency(comp, n)) for comp in comps),
               default=0)


def _factors(phi: Formula) -> list[tuple[tuple[str, ...], list[Constraint]]]:
    """phi's variables split into factors, groups that share no constraint
    (union-find over each constraint's variables), each with its
    constraints, both in phi's order.  The constraints on constants only,
    if any, form a factor of no variables."""
    root = {v: v for v in phi.variables}

    def find(v: str) -> str:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for c in phi.constraints:
        vs = c.variables()
        for v in vs[1:]:
            root[find(v)] = find(vs[0])
    groups: dict[str, tuple[list[str], list[Constraint]]] = {}
    for c in phi.constraints:
        vs = c.variables()
        groups.setdefault(find(vs[0]) if vs else "", ([], []))[1].append(c)
    for v in phi.variables:
        groups.setdefault(find(v), ([], []))[0].append(v)
    return [(tuple(names), cons) for names, cons in groups.values()]


def _factored_diameter(phi: Formula, whole: list[int] | None = None) -> int:
    """The diameter as a sum over phi's factors (see the module docstring).

    `whole`, phi's components when the caller has them, stands in for the
    components of a factor that holds every variable.  Every factor's
    components are found, and an unsatisfiable factor answers 0, before
    any diameter pass.
    """
    total = 0
    factors = []
    for names, cons in _factors(phi):
        k = len(names)
        if not cons:
            total += 1  # a variable in no constraint: a K2 factor
            continue
        comps = (whole if whole is not None and k == phi.n else
                 bitspace.component_masks(
                     conjunction_space(names, _items(phi, cons)), k))
        if not comps:
            return 0
        factors.append((comps, k))
    return total + sum(_diameter(comps, k) for comps, k in factors)


def diameter(phi: Formula) -> int:
    """Max over components of the largest shortest-path distance inside it."""
    return _factored_diameter(phi)


def locally_minimal(phi: Formula) -> list[str]:
    """Solutions with no neighbouring solution of smaller Hamming weight."""
    n = phi.n
    return bitspace.tuples_of(bitspace.locally_minimal(solution_space(phi), n), n)


@dataclass(frozen=True)
class SolutionGraphReport:
    n_variables: int
    n_solutions: int
    connected: bool
    diameter: int
    components: tuple[tuple[str, ...], ...]
    minimums: tuple[str | None, ...]
    locally_minimal: tuple[tuple[str, ...], ...]


def report(phi: Formula) -> SolutionGraphReport:
    """Counts, connectivity, diameter and every component listed.  The
    diameter bound is checked before the listing bound."""
    n = phi.n
    space = solution_space(phi)
    comps = bitspace.component_masks(space, n)
    diam = _factored_diameter(phi, comps)
    _check_listing(space.bit_count())
    loc_min = bitspace.locally_minimal(space, n)
    comp_tuples = []
    minimums = []
    loc_by_comp = []
    for m in comps:
        comp_tuples.append(tuple(bitspace.tuples_of(m, n)))
        lower = bitspace.minimum(m, n)
        minimums.append(None if lower is None else bitspace.tuple_of_index(lower, n))
        loc_by_comp.append(tuple(bitspace.tuples_of(m & loc_min, n)))
    return SolutionGraphReport(
        n_variables=n,
        n_solutions=space.bit_count(),
        connected=len(comps) <= 1,
        diameter=diam,
        components=tuple(comp_tuples),
        minimums=tuple(minimums),
        locally_minimal=tuple(loc_by_comp),
    )


def export_dot(phi: Formula) -> str:
    """Solution graph in DOT format, vertices labelled by assignment.

    Vertices come in ascending order, then edges ordered by their lower
    endpoint and the flipped bit position.  More than
    LISTING_SOLUTIONS_MAX solutions raise VarsLimitError.
    """
    n = phi.n
    space = solution_space(phi)
    _check_listing(space.bit_count())
    label = {idx: bitspace.tuple_of_index(idx, n)
             for idx in bitspace.iter_bits(space)}
    edges = sorted((idx, pos) for pos in range(n) for idx in
                   bitspace.iter_bits(bitspace.edge_starts(space, n, pos)))
    lines = ["graph solutions {"]
    lines += [f'  "{text}";' for text in label.values()]
    lines += [f'  "{label[idx]}" -- "{label[idx | 1 << pos]}";'
              for idx, pos in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
