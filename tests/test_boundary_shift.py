"""The boundary shift: a tight R_PSPA formula whose distance exceeds the
Hamming distance.

GKMP's table puts R_PSPA on the easy side: it is componentwise
bijunctive, so its formulas would have componentwise bijunctive solution
sets, in which the distance within a component is the Hamming distance.
The paper moves the boundary, and R_PSPA is not *safely* componentwise
bijunctive.  Identifying its first two coordinates gives the formula
R_PSPA(x1,x1,x2,x3), whose solutions 001, 010, 100, 101 and 110 form one
path, 001 101 100 110 010: d(001, 010) = 4, but the Hamming distance is 2.
An exhaustive search shows that no formula of one or two R_PSPA
constraints over fewer variables does this, and that over three
variables the only one-constraint formulas that do are its renamings.
"""

from __future__ import annotations

import itertools
from collections import deque

import networkx as nx

from relconn import solution_graph as sg
from relconn.catalog import CATALOG
from relconn.classify import profile
from relconn.cli import main
from relconn.formulas import parse_formula

SHIFT_TEXT = "var x1 x2 x3\nR_PSPA(x1,x1,x2,x3)\n"
SHIFT_PATH = ["001", "101", "100", "110", "010"]
R_PSPA_TUPLES = frozenset({"0001", "0010", "1100", "1110", "1101"})


def hamming(s: str, t: str) -> int:
    return sum(a != b for a, b in zip(s, t))


def test_profile_is_tight_but_not_safely():
    assert set(CATALOG["R_PSPA"].tuples()) == R_PSPA_TUPLES
    p = profile(CATALOG["R_PSPA"])
    assert p.componentwise_bijunctive is True
    assert p.safely_componentwise_bijunctive is False


def test_distance_exceeds_hamming():
    phi = parse_formula(SHIFT_TEXT, CATALOG)
    assert sg.solutions(phi) == sorted(int(s, 2) for s in SHIFT_PATH)
    assert hamming("001", "010") == 2
    assert sg.distance(phi, "001", "010") == 4
    assert sg.st_connected(phi, "001", "010") == (True, SHIFT_PATH)
    assert sg.diameter(phi) == 4
    g = nx.Graph()
    g.add_nodes_from(SHIFT_PATH)
    g.add_edges_from((s, t) for s, t in itertools.combinations(SHIFT_PATH, 2)
                     if hamming(s, t) == 1)
    assert nx.shortest_path_length(g, "001", "010") == 4
    assert nx.diameter(g) == 4


def test_cli(capsys, tmp_path):
    path = tmp_path / "shift.cnfs"
    path.write_text(SHIFT_TEXT)
    assert main(["stconn", str(path), "001", "010"]) == 0
    assert capsys.readouterr().out == "connected: " + " ".join(SHIFT_PATH) + "\n"
    assert main(["diameter", str(path)]) == 0
    assert capsys.readouterr().out == "4\n"


def longer_than_hamming(n: int, constraints) -> list[tuple[str, str]]:
    """Pairs (s, t), s < t, of connected solutions farther apart than their
    Hamming distance, by BFS over the tuples read straight off R_PSPA."""
    names = [f"x{i}" for i in range(1, n + 1)]
    sols = set()
    for bits in itertools.product("01", repeat=n):
        env = {"0": "0", "1": "1", **dict(zip(names, bits))}
        if all("".join(env[a] for a in c) in R_PSPA_TUPLES for c in constraints):
            sols.add("".join(bits))
    pairs = []
    for s in sols:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for k in range(n):
                w = u[:k] + "10"[int(u[k])] + u[k + 1:]
                if w in sols and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        pairs += [(s, t) for t, d in dist.items() if s < t and d > hamming(s, t)]
    return pairs


def test_smallest_by_exhaustive_search():
    """One or two R_PSPA constraints with constants over n <= 2 variables,
    and one over n = 3: only the six renamings of the fixture qualify."""
    hits = {}
    for n, counts in ((1, (1, 2)), (2, (1, 2)), (3, (1,))):
        args = list(itertools.product([f"x{i}" for i in range(1, n + 1)] + ["0", "1"],
                                      repeat=4))
        for m in counts:
            for constraints in itertools.combinations_with_replacement(args, m):
                pairs = longer_than_hamming(n, constraints)
                if pairs:
                    hits[constraints] = pairs
    assert len(hits) == 6
    assert all(len(c) == 1 and c[0][0] == c[0][1] and len(set(c[0])) == 3
               for c in hits)
    assert hits[(("x1", "x1", "x2", "x3"),)] == [("001", "010")]
