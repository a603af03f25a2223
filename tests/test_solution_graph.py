"""Solution graph analysis against an independent networkx oracle."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relconn import bitspace
from relconn import solution_graph as sg
from relconn.catalog import CATALOG, parse_relations
from relconn.errors import (DiameterLimitError, NotASolutionError,
                            VarsLimitError)
from relconn.formulas import evaluate, make_formula, parse_formula
from relconn.generators import random_formula
from relconn.relations import Relation


def parse(text):
    return parse_formula(text, CATALOG)


def nx_graph(phi):
    """Build the solution graph by direct enumeration, edges by single
    flips looked up in the solution set; no package helpers."""
    sols = {a for a in itertools.product((0, 1), repeat=phi.n)
            if evaluate(phi, dict(zip(phi.variables, a)))}
    g = nx.Graph()
    g.add_nodes_from(sols)
    for a in sols:
        for k in range(phi.n):
            b = a[:k] + (1 - a[k],) + a[k + 1:]
            if b in sols:
                g.add_edge(a, b)
    return g


def nx_diameter(g):
    return max((nx.diameter(g.subgraph(c).copy()) for c in nx.connected_components(g)),
               default=0)


def as_str(t):
    return "".join(map(str, t))


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def old_iter_bits(s):
    """The lowest-bit loop that iter_bits replaced: the oracle."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def bfs_diameter(comps, n):
    """The BFS from every vertex that _diameter replaced: the oracle."""
    best = 0
    for comp in comps:
        for src in old_iter_bits(comp):
            best = max(best, len(bitspace.bfs_levels(1 << src, comp, n)) - 1)
    return best


def old_export_dot(phi):
    """The per-flip membership loop that export_dot replaced: the oracle."""
    n = phi.n
    space = sg.solution_space(phi)
    lines = ["graph solutions {"]
    for idx in old_iter_bits(space):
        lines.append(f'  "{bitspace.tuple_of_index(idx, n)}";')
    for idx in old_iter_bits(space):
        for p in range(n):
            other = idx ^ (1 << p)
            if other > idx and (space >> other) & 1:
                lines.append(f'  "{bitspace.tuple_of_index(idx, n)}" -- '
                             f'"{bitspace.tuple_of_index(other, n)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def full_cube_formula(n):
    """Every assignment to n (even) variables: one component of 2^n."""
    names = [f"x{i}" for i in range(n)]
    return parse("rel ALL 2 : 00 01 10 11\nvar " + " ".join(names) + "\n"
                 + "\n".join(f"ALL({a},{b})"
                             for a, b in zip(names[::2], names[1::2])))


def sample_formulas():
    return [parse(path.read_text()) for path in sorted(SAMPLES.glob("*.cnfs"))]


IMP = Relation.from_tuples(2, ["00", "10", "11"], "IMP")
NX_SOLUTIONS_MAX = 600
DIAMETER_POOLS = {"M": [CATALOG["M"]],
                  "NAE_NAZ": [CATALOG["R_NAE"], CATALOG["R_NAZ"]],
                  "R_coNP": [CATALOG["R_coNP"]],
                  "IMP": [IMP]}


def dense_16_variable_formula():
    """The seeded dense M-formula of the brute-route time bound in test_cpss."""
    rng = random.Random(3)
    while True:
        phi = random_formula(rng, [CATALOG["M"]], 16, 6, const_prob=0.0)
        if phi.n == 16:
            density = sg.solution_space(phi).bit_count() / 2 ** 16
            if 0.15 <= density <= 0.30:
                return phi


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
        ti, hit, at_level = sg._search(parse(M_PHI), "000", "001")
        assert (ti, hit) == (0b001, 1)
        assert at_level(0b000, 0) and not at_level(0b001, 0)
        # a round budget ends the search early; a dry search ends within it
        assert bitspace.bfs_levels(1, space, n, 1 << 0b1111, rounds=2) == exhausted[:3]
        assert bitspace.bfs_levels(1, space, n, rounds=9) == exhausted

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
        pool = [CATALOG["M"], CATALOG["OR"], CATALOG["NAND"], CATALOG["K"], IMP,
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
            assert sg.diameter(phi) == nx_diameter(g)

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

    def test_formula_relation_is_the_solutions_in_name_order(self):
        # oracle: each solution's bits moved into sorted name order
        rng = random.Random(9)
        pool = [CATALOG["M"], CATALOG["OR"], Relation.from_tuples(2, ["00", "11"]),
                Relation.from_tuples(3, ["001", "010", "100", "111"])]
        for _ in range(60):
            phi = random_formula(rng, pool, 11, 6, const_prob=0.2)
            shuffled = list(phi.variables)
            rng.shuffle(shuffled)
            phi = make_formula(phi.constraints, phi.library, shuffled)
            order = sorted(shuffled)
            want = 0
            for t in sg.solution_strings(phi):
                bits = dict(zip(phi.variables, t))
                want |= 1 << int("".join(bits[v] for v in order), 2)
            assert sg.formula_relation(phi) == Relation(phi.n, want)

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


class TestDiameter:
    """The all-sources diameter pass against the per-vertex BFS and networkx."""

    @staticmethod
    def check(phi):
        want = bfs_diameter(sg.component_spaces(phi), phi.n)
        assert nx_diameter(nx_graph(phi)) == want
        assert sg.diameter(phi) == want
        assert sg.report(phi).diameter == want
        return want

    @staticmethod
    def draw(rng, pool, max_vars):
        """A random formula over the pool whose networkx diameter stays
        cheap: at most NX_SOLUTIONS_MAX solutions."""
        while True:
            phi = random_formula(rng, DIAMETER_POOLS[pool], max_vars, 8)
            if sg.solution_space(phi).bit_count() <= NX_SOLUTIONS_MAX:
                return phi

    @pytest.mark.parametrize("text,want", [
        ("rel NONE 1 :\nvar x\nNONE(x)", 0),           # unsatisfiable
        ("rel ONE 2 : 10\nvar x y\nONE(x,y)", 0),      # one solution
        (TRIANGLE, 0),                                # two isolated points
        # a path 000 - 001 - 011 and the point 110, and the other way round
        ("rel R 3 : 000 001 011 110\nvar x y z\nR(x,y,z)", 2),
        ("rel R 3 : 000 011 111 110\nvar x y z\nR(x,y,z)", 2),
        (CONP, 2),
        ("var x y z w\nR_NAE(x,y,z)\nR_NAZ(y,z,w)", 4),  # 0100 to 1011
    ])
    def test_fixtures(self, text, want):
        assert self.check(parse(text)) == want

    @given(pool=st.sampled_from(sorted(DIAMETER_POOLS)),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis(self, pool, seed):
        self.check(self.draw(random.Random(seed), pool, 12))

    def test_seeded(self):
        rng = random.Random(10)
        seen = {"unsat": 0, "single": 0, "unequal components": 0}
        for pool in sorted(DIAMETER_POOLS):
            for _ in range(15):
                phi = self.draw(rng, pool, 12)
                self.check(phi)
                comps = sg.component_spaces(phi)
                seen["unsat"] += not comps
                seen["single"] += sum(c.bit_count() for c in comps) == 1
                seen["unequal components"] += len(
                    {bfs_diameter([c], phi.n) for c in comps}) > 1
        assert all(seen.values()), seen

    def test_batches_give_the_same_answer(self, monkeypatch):
        rng = random.Random(11)
        formulas = [self.draw(rng, pool, 9) for pool in sorted(DIAMETER_POOLS)
                    for _ in range(8)]
        want = [bfs_diameter(sg.component_spaces(phi), phi.n)
                for phi in formulas]
        for cap in (1, 40, 300):
            monkeypatch.setattr(sg, "REACH_BITS_MAX", cap)
            # the largest component needs more than one batch per side
            assert max(c.bit_count() ** 2 for phi in formulas
                       for c in sg.component_spaces(phi)) > 2 * cap
            assert [sg.diameter(phi) for phi in formulas] == want
            assert [sg.report(phi).diameter for phi in formulas] == want

    def test_fast_on_dense_16_variables(self):
        # 16,640 solutions in one component; a BFS from every vertex took
        # 29 s on a 2-core machine, this pass 0.9 s
        phi = dense_16_variable_formula()
        start = time.perf_counter()
        d = sg.diameter(phi)
        assert time.perf_counter() - start < 2.0
        assert d == 18

    def test_oversized_component_raises_before_adjacency(self, monkeypatch):
        # 262,144 vertices, twice the bound: its neighbour lists would take
        # about 80 MB, so the check must come before any of them is built
        phi = full_cube_formula(18)
        assert sg.component_spaces(phi)[0].bit_count() > sg.DIAMETER_VERTICES_MAX

        def no_adjacency(comp, n):
            raise AssertionError("neighbour lists built for an oversized component")

        monkeypatch.setattr(sg, "_adjacency", no_adjacency)
        for query in (sg.diameter, sg.report):
            with pytest.raises(DiameterLimitError, match="262144 solutions"):
                query(phi)
        assert issubclass(DiameterLimitError, VarsLimitError)

    def test_reach_ints_stay_within_the_cap(self, monkeypatch):
        # Tracing every allocation slows the 16-variable pass tenfold, so
        # this runs on a dense 13-variable space with the cap lowered to a
        # quarter of its reach ints: two batches per side.
        rng = random.Random(4)
        while True:
            phi = random_formula(rng, [CATALOG["M"]], 13, 5, const_prob=0.0)
            comps = sg.component_spaces(phi)
            if phi.n == 13 and len(comps) == 1 and comps[0].bit_count() > 1500:
                break
        size = comps[0].bit_count()
        want = sg.diameter(phi)
        monkeypatch.setattr(sg, "REACH_BITS_MAX", size * size // 4)
        tracemalloc.start()
        try:
            sg._adjacency(comps[0], phi.n)
            adjacency = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert sg.diameter(phi) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Ints store 30 bits in 4 bytes; each vertex adds an int header and
        # a few list slots.  Without the cap the reach ints alone would take
        # twice the bound's first term.
        assert peak - adjacency < sg.REACH_BITS_MAX / 8 * 32 / 30 + 64 * size


class TestIterBits:
    def test_edge_values(self):
        # empty, single low and high bits, and the byte boundaries
        values = [0, 1, 2, 7, 8, 9, 255, 256, 257, 1 << 7, 1 << 8, 1 << 9,
                  1 << 255, 1 << 256, 1 << 100_000, (1 << 70_000) - 1,
                  (1 << 65_536) | 1]
        for s in values:
            assert list(bitspace.iter_bits(s)) == list(old_iter_bits(s))

    @given(st.lists(st.integers(0, (1 << 17) - 1), max_size=64),
           st.integers(0, (1 << 256) - 1), st.integers(0, (1 << 17) - 256))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_ascending(self, positions, block, offset):
        # scattered bits up to 2^17 wide and one dense 256-bit block
        s = sum(1 << p for p in set(positions)) | (block << offset)
        got = list(bitspace.iter_bits(s))
        assert got == list(old_iter_bits(s))
        assert got == sorted(set(got)) and len(got) == s.bit_count()

    def test_sparse_wide_masks(self):
        rng = random.Random(12)
        for width in (1 << 10, 1 << 14, 1 << 17):
            s = sum(1 << rng.randrange(width) for _ in range(50))
            assert list(bitspace.iter_bits(s)) == list(old_iter_bits(s))

    def test_outputs_on_samples_unchanged(self):
        for path in sorted(SAMPLES.glob("*.rel")):
            for rel in parse_relations(path.read_text()).values():
                assert rel.members == frozenset(old_iter_bits(rel.mask))
                assert rel.tuples() == [bitspace.tuple_of_index(i, rel.arity)
                                        for i in old_iter_bits(rel.mask)]
        for phi in sample_formulas():
            n = phi.n
            assert sg.solutions(phi) == list(old_iter_bits(sg.solution_space(phi)))
            assert sg.components(phi) == [
                [bitspace.tuple_of_index(i, n) for i in old_iter_bits(m)]
                for m in sg.component_spaces(phi)]


class TestDotExport:
    def test_samples_match_the_flip_loop(self):
        for phi in sample_formulas():
            assert sg.export_dot(phi) == old_export_dot(phi)

    def test_seeded_formulas_match_the_flip_loop(self):
        rng = random.Random(13)
        for pool in sorted(DIAMETER_POOLS):
            for _ in range(10):
                phi = random_formula(rng, DIAMETER_POOLS[pool], 11, 6)
                assert sg.export_dot(phi) == old_export_dot(phi)

    def test_dense_16_variables(self):
        phi = dense_16_variable_formula()
        text = sg.export_dot(phi)
        assert text == old_export_dot(phi)
        lines = text.count("\n")
        edges = sum(bitspace.edge_starts(sg.solution_space(phi), 16, p).bit_count()
                    for p in range(16))
        assert lines == 2 + sg.solution_space(phi).bit_count() + edges
