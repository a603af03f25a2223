"""Independent answers for the benchmark's operations.

Nothing here imports relconn.  Formula and Horn texts are read by the
parsers below, solution sets come from vectorised enumeration with numpy,
and components, st-distances and diameters from scipy's sparse-graph
routines; the benchmark's tests check those against networkx.  Assignment
indices follow the program's convention: the first declared variable is
the most significant bit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

M_MEMBERS = frozenset(int(t, 2) for t in ("000", "001", "010", "101", "111"))
ENUM_VARS_MAX = 20
DIAMETER_SOLUTIONS_MAX = 4000

_CONSTRAINT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*\Z")


@dataclass(frozen=True)
class Rel:
    arity: int
    members: frozenset[int]


@dataclass(frozen=True)
class Cnf:
    """A conjunction of relation applications, as read from formula text."""
    variables: tuple[str, ...]
    constraints: tuple[tuple[str, tuple[str, ...]], ...]
    relations: dict[str, Rel]

    @property
    def n(self) -> int:
        return len(self.variables)


def parse_relation_line(line: str) -> tuple[str, Rel]:
    parts = line.split()
    if len(parts) < 4 or parts[0] != "rel" or parts[3] != ":":
        raise ValueError(f"bad relation line {line!r}")
    arity = int(parts[2])
    if any(len(t) != arity or set(t) - {"0", "1"} for t in parts[4:]):
        raise ValueError(f"bad tuple in {line!r}")
    return parts[1], Rel(arity, frozenset(int(t, 2) for t in parts[4:]))


def parse_relations(text: str) -> dict[str, Rel]:
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, rel = parse_relation_line(line)
            out[name] = rel
    return out


def parse_cnf(text: str) -> Cnf:
    """Formula text with inline `rel` lines and a `var` line."""
    relations: dict[str, Rel] = {}
    variables: tuple[str, ...] | None = None
    constraints = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("rel "):
            name, rel = parse_relation_line(line)
            relations[name] = rel
        elif line.split()[0] == "var":
            variables = tuple(line.split()[1:])
        else:
            m = _CONSTRAINT_RE.match(line)
            if not m:
                raise ValueError(f"cannot parse {line!r}")
            args = tuple(a.strip() for a in m.group(2).split(","))
            constraints.append((m.group(1), args))
    if variables is None:
        raise ValueError("formula text has no var line")
    for name, args in constraints:
        if name not in relations or relations[name].arity != len(args):
            raise ValueError(f"constraint {name}{args} does not fit its relation")
        if any(a not in ("0", "1") and a not in variables for a in args):
            raise ValueError(f"constraint {name}{args} uses an undeclared variable")
    return Cnf(variables, tuple(constraints), relations)


def format_cnf(cnf: Cnf) -> str:
    used = dict.fromkeys(name for name, _ in cnf.constraints)
    lines = []
    for name in used:
        rel = cnf.relations[name]
        tuples = " ".join(format(t, f"0{rel.arity}b") for t in sorted(rel.members))
        lines.append(f"rel {name} {rel.arity} : {tuples}".rstrip())
    lines.append("var " + " ".join(cnf.variables))
    lines.extend(f"{name}({','.join(args)})" for name, args in cnf.constraints)
    return "\n".join(lines) + "\n"


def evaluate(cnf: Cnf, index: int) -> bool:
    """Does the assignment with this index satisfy every constraint?"""
    n = cnf.n
    value = {v: (index >> (n - 1 - j)) & 1 for j, v in enumerate(cnf.variables)}
    value["0"], value["1"] = 0, 1
    for name, args in cnf.constraints:
        t = 0
        for a in args:
            t = (t << 1) | value[a]
        if t not in cnf.relations[name].members:
            return False
    return True


def _check_enum(n: int) -> None:
    if n > ENUM_VARS_MAX:
        raise ValueError(f"{n} variables exceed the oracle's enumeration bound")


@functools.lru_cache(maxsize=2)
def _coordinate_bits(n: int) -> tuple[np.ndarray, ...]:
    """Value of each coordinate, first coordinate first, at every index."""
    _check_enum(n)
    idx = np.arange(1 << n, dtype=np.uint32)
    return tuple((idx >> np.uint32(n - 1 - j)) & np.uint32(1) for j in range(n))


def solution_table(cnf: Cnf) -> np.ndarray:
    """Boolean array over all 2^n assignment indices."""
    n = cnf.n
    bits = dict(zip(cnf.variables, _coordinate_bits(n)))
    sat = np.ones(1 << n, dtype=bool)
    for name, args in cnf.constraints:
        rel = cnf.relations[name]
        lut = np.zeros(1 << rel.arity, dtype=bool)
        lut[sorted(rel.members)] = True
        t = np.zeros(1 << n, dtype=np.uint32)
        for a in args:
            t <<= np.uint32(1)
            if a == "1":
                t |= np.uint32(1)
            elif a != "0":
                t |= bits[a]
        sat &= lut[t]
    return sat


def horn_table(variables: tuple[str, ...],
               clauses: list[tuple[str | None, frozenset[str]]]) -> np.ndarray:
    """Boolean array of the assignments satisfying (head, body) Horn clauses."""
    n = len(variables)
    bit = {v: b.astype(bool) for v, b in zip(variables, _coordinate_bits(n))}
    sat = np.ones(1 << n, dtype=bool)
    for head, body in clauses:
        clause = np.zeros(1 << n, dtype=bool)
        if head is not None:
            clause |= bit[head]
        for v in body:
            clause |= ~bit[v]
        sat &= clause
    return sat


def parse_horn_clause(text: str) -> tuple[str | None, frozenset[str]]:
    """One clause in the program's Horn text format."""
    line = text.strip()
    if line == "-":
        return None, frozenset()
    toks = line.split()
    if toks[0] == "-" or all(t.startswith("-") for t in toks):
        return None, frozenset(t.lstrip("-") for t in toks if t != "-")
    if "|" in line:
        head, _, body = line.partition("|")
        return head.strip(), frozenset(t[1:] for t in body.split())
    if len(toks) == 1:
        return toks[0], frozenset()
    raise ValueError(f"cannot parse Horn clause {text!r}")


def table_digest(sat: np.ndarray) -> str:
    return hashlib.sha1(np.packbits(sat).tobytes()).hexdigest()


class SolutionGraph:
    """The solutions as graph vertices, edges between Hamming neighbours,
    held as a scipy sparse adjacency matrix."""

    def __init__(self, sat: np.ndarray, n: int):
        self.n = n
        self.sols = np.flatnonzero(sat).astype(np.int64)
        pos = np.full(1 << n, -1, dtype=np.int64)
        pos[self.sols] = np.arange(len(self.sols))
        self.pos = pos
        rows, cols = [], []
        for p in range(n):
            other = self.sols ^ (1 << p)
            keep = sat[other]
            rows.append(pos[self.sols[keep]])
            cols.append(pos[other[keep]])
        r = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        c = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
        size = len(self.sols)
        self.adj = coo_matrix((np.ones(len(r)), (r, c)), shape=(size, size)).tocsr()

    @functools.cached_property
    def components(self) -> list[list[int]]:
        """Components as ascending index lists, ordered by smallest member."""
        if not len(self.sols):
            return []
        count, labels = connected_components(self.adj, directed=False)
        return sorted(self.sols[labels == k].tolist() for k in range(count))

    def distance(self, s: int, t: int) -> int | None:
        dist = shortest_path(self.adj, unweighted=True, directed=False,
                             indices=int(self.pos[s]))
        d = dist[self.pos[t]]
        return int(d) if np.isfinite(d) else None

    def diameter(self) -> int:
        """Largest finite distance, by all-pairs breadth-first search."""
        if len(self.sols) > DIAMETER_SOLUTIONS_MAX:
            raise ValueError("too many solutions for the all-pairs diameter oracle")
        if not len(self.sols):
            return 0
        dist = shortest_path(self.adj, unweighted=True, directed=False)
        return int(dist[np.isfinite(dist)].max())


def components(sat: np.ndarray, n: int) -> list[list[int]]:
    return SolutionGraph(sat, n).components


def canonical_components(comps: list[list[str]]) -> str:
    """Order-free digest of components given as assignment bitstrings."""
    text = json.dumps(sorted(sorted(c) for c in comps), separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def components_digest(comps: list[list[int]], n: int) -> str:
    return canonical_components([[format(i, f"0{n}b") for i in c] for c in comps])


# --- relation-level oracles ------------------------------------------------

def is_and_closed(members: frozenset[int]) -> bool:
    items = sorted(members)
    return all(a & b in members for i, a in enumerate(items) for b in items[i + 1:])


def is_or_closed(members: frozenset[int]) -> bool:
    items = sorted(members)
    return all(a | b in members for i, a in enumerate(items) for b in items[i + 1:])


def pair_hull(members: frozenset[int], k: int) -> frozenset[int]:
    """Tuples whose every two-coordinate projection occurs in the relation.

    A relation is bijunctive exactly when it equals this hull.
    """
    proj = {}
    for i in range(k):
        for j in range(i, k):
            proj[i, j] = {((t >> (k - 1 - i)) & 1, (t >> (k - 1 - j)) & 1)
                          for t in members}
    return frozenset(
        t for t in range(1 << k)
        if all(((t >> (k - 1 - i)) & 1, (t >> (k - 1 - j)) & 1) in pr
               for (i, j), pr in proj.items()))


def span_coset(members: frozenset[int]) -> frozenset[int]:
    """Smallest affine subspace (coset) of GF(2)^k containing the members."""
    if not members:
        return frozenset()
    a0 = min(members)
    basis: list[int] = []
    for t in members:
        v = t ^ a0
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    span = {0}
    for b in basis:
        span |= {x ^ b for x in span}
    return frozenset(x ^ a0 for x in span)


def schaefer_kinds(rels: list[Rel]) -> list[str]:
    """Clause classes shared by every relation, in the program's order.

    Bijunctive and affine are decided by their classic characterisations
    (pair hull, coset) rather than by closure under majority and xor3.
    """
    kinds = []
    if all(r.members == pair_hull(r.members, r.arity) for r in rels):
        kinds.append("bijunctive")
    if all(is_and_closed(r.members) for r in rels):
        kinds.append("horn")
    if all(is_or_closed(r.members) for r in rels):
        kinds.append("dual_horn")
    if all(r.members == span_coset(r.members) for r in rels):
        kinds.append("affine")
    return kinds


def expresses_m(formula_text: str, source: Rel) -> bool:
    """Is the text a formula over `source` alone whose solutions over x y z are M?"""
    cnf = parse_cnf(formula_text)
    if cnf.variables != ("x", "y", "z"):
        return False
    if any(cnf.relations[name] != source for name, _ in cnf.constraints):
        return False
    return frozenset(i for i in range(8) if evaluate(cnf, i)) == M_MEMBERS
