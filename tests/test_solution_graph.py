"""Solution graph analysis against an independent networkx oracle."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

from relconn import bitspace
from relconn import solution_graph as sg
from relconn.catalog import CATALOG
from relconn.errors import NotASolutionError, VarsLimitError
from relconn.formulas import evaluate, parse_formula
from relconn.generators import random_formula
from relconn.relations import Relation


def parse(text):
    return parse_formula(text, CATALOG)


def nx_graph(phi):
    """Build the solution graph by direct enumeration, no package helpers."""
    sols = [a for a in itertools.product((0, 1), repeat=phi.n)
            if evaluate(phi, dict(zip(phi.variables, a)))]
    g = nx.Graph()
    g.add_nodes_from(sols)
    for a, b in itertools.combinations(sols, 2):
        if sum(x != y for x, y in zip(a, b)) == 1:
            g.add_edge(a, b)
    return g


def as_str(t):
    return "".join(map(str, t))


M_PHI = "var x y z\nM(x,y,z)"
TRIANGLE = "rel IMP 2 : 00 10 11\nvar x y z\nIMP(x,y)\nIMP(y,z)\nIMP(z,x)"
CONP = "var w x y z\nM(y,0,x)\nM(x,0,y)\nK(x,z,w)\nK(y,z,w)"


class TestFixtures:
    def test_m_solutions(self):
        phi = parse(M_PHI)
        assert sg.solution_strings(phi) == ["000", "001", "010", "101", "111"]

    def test_m_connected_diameter(self):
        # path 010 - 000 - 001 - 101 - 111
        phi = parse(M_PHI)
        assert sg.is_connected(phi)
        assert sg.diameter(phi) == 4
        assert sg.distance(phi, "010", "111") == 4

    def test_triangle_disconnected(self):
        phi = parse(TRIANGLE)
        assert sg.solution_strings(phi) == ["000", "111"]
        assert not sg.is_connected(phi)
        assert sg.components(phi) == [["000"], ["111"]]

    def test_conp_formula(self):
        phi = parse(CONP)
        assert len(sg.solutions(phi)) == 7
        comps = sg.components(phi)
        assert [set(c) for c in comps] == [
            {"0000", "0001", "1000"},
            {"0110", "0111", "1110", "1111"},
        ]
        assert [len(c) for c in sg.locally_minimal(phi)], "non-empty"
        assert sg.locally_minimal(phi) == ["0000", "0110"]

    def test_st_path(self):
        phi = parse(M_PHI)
        ok, path = sg.st_connected(phi, "010", "111")
        assert ok and path is not None
        assert path[0] == "010" and path[-1] == "111"
        for a, b in zip(path, path[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1
            assert a in sg.solution_strings(phi) and b in sg.solution_strings(phi)

    def test_bfs_stops_at_target_level(self):
        # in the full 4-cube, 0011 lies two flips from 0000
        n = 4
        space = bitspace.full_mask(n)
        exhausted = bitspace.bfs_levels(1 << 0b0000, space, n)
        assert len(exhausted) == n + 1
        levels = bitspace.bfs_levels(1 << 0b0000, space, n, 1 << 0b0011)
        assert levels == exhausted[:3]
        assert bitspace.bfs_levels(1, space, n, 1) == [1]
        # 000 and 001 are adjacent in M's path 010 - 000 - 001 - 101 - 111
        levels, ti, hit = sg._search(parse(M_PHI), "000", "001")
        assert (len(levels), hit) == (2, 1) and (levels[-1] >> ti) & 1

    def test_st_rejects_non_solution(self):
        phi = parse(M_PHI)
        with pytest.raises(NotASolutionError):
            sg.st_connected(phi, "011", "111")

    def test_unsat_formula(self):
        phi = parse("rel NONE 1 :\nvar x\nNONE(x)")
        assert sg.solution_strings(phi) == []
        assert sg.is_connected(phi)  # vacuously
        assert sg.components(phi) == []
        assert sg.diameter(phi) == 0

    def test_vars_limit(self):
        names = [f"x{i}" for i in range(sg.BRUTE_VARS_MAX + 1)]
        text = "var " + " ".join(names) + "\n" + \
            "\n".join(f"OR({a},{b})" for a, b in zip(names, names[1:]))
        with pytest.raises(VarsLimitError):
            sg.solution_space(parse(text))


class TestAgainstNetworkx:
    def test_random_formulas(self):
        rng = random.Random(5)
        # relations with more members than non-members and with at most as
        # many: solution_space builds the smaller side of each
        pool = [CATALOG["M"], CATALOG["OR"], CATALOG["NAND"], CATALOG["K"],
                Relation.from_tuples(2, ["00", "10", "11"], "IMP"),
                CATALOG["R_coNP"], Relation.from_tuples(2, ["00", "11"], "EQ"),
                Relation.from_tuples(3, ["101"], "ONE")]
        for _ in range(120):
            phi = random_formula(rng, pool, max_vars=6, max_constraints=4)
            g = nx_graph(phi)
            sols = {as_str(t) for t in g.nodes}
            assert set(sg.solution_strings(phi)) == sols
            if not sols:
                continue
            comps_nx = sorted(sorted(as_str(t) for t in c)
                              for c in nx.connected_components(g))
            comps_pkg = sorted(sorted(c) for c in sg.components(phi))
            assert comps_pkg == comps_nx
            assert sg.is_connected(phi) == (len(comps_nx) == 1)
            loc_nx = sorted(as_str(a) for a in g.nodes
                            if all(sum(b) >= sum(a) for b in g.neighbors(a)))
            assert sg.locally_minimal(phi) == loc_nx
            mins_nx = []
            for c in sorted(nx.connected_components(g), key=min):
                low = tuple(min(col) for col in zip(*c))
                mins_nx.append(as_str(low) if low in c else None)
            assert list(sg.report(phi).minimums) == mins_nx
            if g.number_of_nodes():
                dia = max(nx.diameter(g.subgraph(c))
                          for c in nx.connected_components(g))
                assert sg.diameter(phi) == dia

    def test_random_distances(self):
        rng = random.Random(6)
        pool = [CATALOG["M"], CATALOG["P"], CATALOG["N"]]
        checked = 0
        for _ in range(40):
            phi = random_formula(rng, pool, max_vars=5, max_constraints=3)
            g = nx_graph(phi)
            sols = list(g.nodes)
            rng.shuffle(sols)
            for a, b in itertools.islice(itertools.combinations(sols, 2), 10):
                want = None
                try:
                    want = nx.shortest_path_length(g, a, b)
                except nx.NetworkXNoPath:
                    pass
                assert sg.distance(phi, as_str(a), as_str(b)) == want
                ok, path = sg.st_connected(phi, as_str(a), as_str(b))
                assert ok == (want is not None)
                if ok:
                    assert len(path) == want + 1
                    assert path[0] == as_str(a) and path[-1] == as_str(b)
                    for u, v in zip(path, path[1:]):
                        assert sum(x != y for x, y in zip(u, v)) == 1
                    assert all(tuple(map(int, u)) in g for u in path)
                else:
                    assert path is None
                checked += 1
        assert checked > 100


class TestProjections:
    def test_enumerated_projection(self):
        phi = parse("rel RF 3 : 000 011 100 110\nvar x y z w\n"
                    "RF(x,y,z)\nRF(y,x,w)")
        vars0, proj0 = sg.project_enumerate(phi, 0)
        assert vars0 == ("x", "y", "z")
        assert set(proj0.tuples()) == {"000", "011", "100", "110"}
        vars1, proj1 = sg.project_enumerate(phi, 1)
        assert vars1 == ("w", "x", "y")
        assert set(proj1.tuples()) == {"000", "001", "011", "110"}

    def test_projection_of_unsat_is_empty(self):
        phi = parse("rel NONE 1 :\nvar x y\nNONE(x)\nOR(x,y)")
        _, proj = sg.project_enumerate(phi, 1)
        assert len(proj) == 0


class TestReportAndDot:
    def test_report_fields(self):
        rep = sg.report(parse(CONP))
        assert rep.n_variables == 4 and rep.n_solutions == 7
        assert not rep.connected
        assert rep.minimums == ("0000", "0110")
        assert rep.to_json()["components"][0] == ["0000", "0001", "1000"]

    def test_dot_output(self):
        text = sg.export_dot(parse(TRIANGLE))
        assert text.startswith("graph solutions {")
        assert '"000";' in text and '"111";' in text
        assert "--" not in text  # no edges between the two solutions

    def test_dot_edges(self):
        text = sg.export_dot(parse(M_PHI))
        assert '"000" -- "001";' in text
