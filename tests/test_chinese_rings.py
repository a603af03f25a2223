"""Dual-rail Chinese rings: one long, thin component in a wide cube.

Ring j is the pair (a_j, b_j): 00 is off, 11 is on, 01 and 10 are in
transit.  ON(a,b,c,d) = (a = b) or (c = d = 1) and OFF(a,b,c,d) = (a = b)
or (c = d = 0); the formula over a1 b1 ... ak bk holds ON on rings i and
i - 1 for 2 <= i <= k and OFF on rings i and j for j < i - 1, so ring i
may move only while ring i - 1 is on and every lower ring is off.  The
2^k ring settings lie on one path along the reflected Gray code, and each
of its 2^k - 1 moves passes through one of two transit states, so the
solutions form one component of 3 * 2^k - 2 vertices and diameter
2^(k+1) - 2, the distance from all rings off to the top ring on alone.  A
bitmask search takes one round per level over the whole 2^(2k)-bit cube.
"""

from __future__ import annotations

import itertools
import time
import tracemalloc

import networkx as nx
import pytest

from relconn import bitspace
from relconn import solution_graph as sg
from relconn.catalog import CATALOG
from relconn.formulas import parse_formula


def ring_relation(name: str, held: str) -> str:
    """ON (held = "1") or OFF (held = "0") as a relation line."""
    tuples = ["".join(t) for t in itertools.product("01", repeat=4)
              if t[0] == t[1] or t[2] == t[3] == held]
    return f"rel {name} 4 : " + " ".join(tuples)


def chinese_rings(k: int):
    lines = [ring_relation("ON", "1"), ring_relation("OFF", "0"),
             "var " + " ".join(f"a{i} b{i}" for i in range(1, k + 1))]
    for i in range(2, k + 1):
        lines.append(f"ON(a{i},b{i},a{i - 1},b{i - 1})")
        lines += [f"OFF(a{i},b{i},a{j},b{j})" for j in range(1, i - 1)]
    return parse_formula("\n".join(lines) + "\n", CATALOG)


def ends(k: int) -> tuple[str, str]:
    """All rings off, and the top ring on alone."""
    n = 2 * k
    return "0" * n, "0" * (n - 2) + "11"


def nx_graph(phi):
    space = sg.solution_space(phi)
    g = nx.Graph()
    g.add_nodes_from(bitspace.iter_bits(space))
    for v in list(g.nodes):
        for pos in range(phi.n):
            if (space >> (v ^ (1 << pos))) & 1:
                g.add_edge(v, v ^ (1 << pos))
    return g


@pytest.fixture(params=["switch", "explicit", "bitmask"])
def route(request, monkeypatch):
    probe_words = {"switch": bitspace.PROBE_WORDS, "explicit": 0, "bitmask": 10 ** 9}
    monkeypatch.setattr(bitspace, "PROBE_WORDS", probe_words[request.param])


@pytest.mark.parametrize("k", range(2, 9))
def test_one_long_component(k, route):
    phi = chinese_rings(k)
    assert phi.n == 2 * k
    assert len(sg.solutions(phi)) == 3 * 2 ** k - 2
    assert sg.is_connected(phi)
    assert len(sg.components(phi)) == 1
    s, t = ends(k)
    assert sg.distance(phi, s, t) == 2 ** (k + 1) - 2
    ok, path = sg.st_connected(phi, s, t)
    assert ok and len(path) == 2 ** (k + 1) - 1


@pytest.mark.parametrize("k", range(2, 7))
def test_against_networkx(k):
    phi = chinese_rings(k)
    g = nx_graph(phi)
    assert nx.number_connected_components(g) == 1
    assert nx.diameter(g) == 2 ** (k + 1) - 2
    s, t = (int(e, 2) for e in ends(k))
    want = nx.shortest_path_length(g, s, t)
    assert want == 2 ** (k + 1) - 2
    assert sg.distance(phi, *ends(k)) == want
    _, path = sg.st_connected(phi, *ends(k))
    assert len(path) == want + 1
    assert all(g.has_edge(int(u, 2), int(v, 2)) for u, v in zip(path, path[1:]))


@pytest.mark.parametrize("query", ["is_connected", "components", "st_connected"])
def test_22_variables_in_seconds(query):
    # 6,142 solutions, 4,094 flips from all-off to the top ring on: one
    # round per level over the 2^22-bit cube took about 100 s
    phi = chinese_rings(11)
    start = time.perf_counter()
    if query == "is_connected":
        assert sg.is_connected(phi)
    elif query == "components":
        assert [len(c) for c in sg.components(phi)] == [6142]
    else:
        ok, path = sg.st_connected(phi, *ends(11))
        assert ok and len(path) == 4095
    assert time.perf_counter() - start < 5.0


def test_st_connected_keeps_no_mask_per_level():
    # 2,046 BFS levels in a 2^20-bit cube: a bitmask per level holds every
    # bit below its members, so the path's vertices bound their total from
    # below
    phi = chinese_rings(10)
    s, t = ends(10)
    _, path = sg.st_connected(phi, s, t)
    per_level_masks = sum(int(v, 2) // 8 for v in path)
    assert per_level_masks > 100 * 2 ** 20
    tracemalloc.start()
    try:
        ok, again = sg.st_connected(phi, s, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and again == path
    assert peak < 8 * 2 ** 20
