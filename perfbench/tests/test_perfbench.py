"""Tests for the benchmark itself: determinism, self-time arithmetic, the
oracles, the output checks and the tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from perfbench import checks, gen, oracle
from perfbench.oracle import Cnf, Rel
from perfbench.tracing import METRICS, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
SAMPLES = ROOT / "samples"


def _snapshot(ops: list[gen.Op], workdir: Path) -> list:
    files = sorted((p.name, p.read_text()) for p in workdir.iterdir())
    return [(op.kind, op.argv, op.meta, op.expect) for op in ops] + files


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_operations_and_answers(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    first = _snapshot(gen.build(workload, 7, a, blocks=1), a)
    again = _snapshot(gen.build(workload, 7, b, blocks=1), b)
    other = _snapshot(gen.build(workload, 8, c, blocks=1), c)
    assert first == again
    assert first != other
    assert [row[0] for row in first] == [row[0] for row in other]  # same mix


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("a.child", 2.0, 3.0, 1, 1),
        ("b", 5.0, 9.0, 0, 1),
        ("c", 8.5, 9.5, 0, 1),   # overlaps b: the union counts once
        ("late", 9.8, 11.0, 0, 1),  # runs past its parent: clipped
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - (3.0 + 4.5 + 0.2), 2.0, 1.0, 4.0, 1.0, 1.2])


def test_times_are_scaled_by_the_reference_around_them():
    from perfbench.run import REF_S, scaled
    refs = [REF_S * 2] * 6 + [REF_S] * 6
    refs[2] = REF_S * 50  # one slow reference sample is outvoted
    got = scaled([1.0] * 12, refs)
    assert got[:4] == [0.5] * 4
    assert got[-4:] == [1.0] * 4


def _cnf(path: Path) -> Cnf:
    """Sample formula with the catalog relations it uses spelled out."""
    text = path.read_text()
    rels = "".join(gen.rel_line(name, rel) + "\n" for name, rel in gen.NAMED.items()
                   if f"{name}(" in text and f"rel {name} " not in text)
    return oracle.parse_cnf(rels + text)


def test_oracles_on_the_samples():
    tri = _cnf(SAMPLES / "triangle.cnfs")
    assert len(oracle.components(oracle.solution_table(tri), tri.n)) == 2  # disconnected
    conp = _cnf(SAMPLES / "conp.cnfs")
    comps = oracle.components(oracle.solution_table(conp), conp.n)
    assert [[format(i, "04b") for i in c] for c in comps] == [
        ["0000", "0001", "1000"], ["0110", "0111", "1110", "1111"]]
    m = list(oracle.parse_relations((SAMPLES / "m.rel").read_text()).values())
    text, set_class = gen.FIXTURES["m.rel"]
    assert m == list(oracle.parse_relations(text).values())
    assert set_class == "SchaeferNotCPSS"
    assert oracle.schaefer_kinds(m) == ["horn"]


def test_fixture_texts_match_the_samples():
    for name, (text, _) in gen.FIXTURES.items():
        assert oracle.parse_relations(text) == \
            oracle.parse_relations((SAMPLES / name).read_text())


def test_graph_oracle_agrees_with_networkx():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(3, 9)
        cnf = gen.random_cnf(rng, [f"x{i}" for i in range(n)], gen.NAMED, rng.randint(1, 4))
        sat = oracle.solution_table(cnf)
        g = nx.Graph()
        g.add_nodes_from(int(i) for i in np.flatnonzero(sat))
        g.add_edges_from((u, u ^ (1 << p)) for u in list(g) for p in range(n)
                         if sat[u ^ (1 << p)])
        graph = oracle.SolutionGraph(sat, n)
        assert graph.components == sorted(sorted(c) for c in nx.connected_components(g))
        if g:
            assert graph.diameter() == max(nx.diameter(g.subgraph(c))
                                           for c in nx.connected_components(g))
            s, t = rng.choice(list(g)), rng.choice(list(g))
            want = nx.shortest_path_length(g, s, t) if nx.has_path(g, s, t) else None
            assert graph.distance(s, t) == want


def test_relation_oracles_against_brute_closure():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 4)
        members = gen.random_members(rng, k, rng.uniform(0.1, 0.7))
        maj = all(((a & b) | (b & c) | (a & c)) in members
                  for a in members for b in members for c in members)
        xor3 = all(a ^ b ^ c in members for a in members for b in members for c in members)
        kinds = oracle.schaefer_kinds([Rel(k, members)])
        assert ("bijunctive" in kinds) == maj
        assert ("affine" in kinds) == xor3


def test_reduction_is_disconnected_exactly_when_the_input_is_satisfiable():
    rng = random.Random(11)
    seen = set()
    for _ in range(40):
        psi = gen._pn_input(rng, rng.randint(14, 16), rng.random() < 0.5)
        phi = gen.reduction(psi)
        satisfiable = bool(oracle.solution_table(psi).any())
        seen.add(satisfiable)
        comps = oracle.components(oracle.solution_table(phi), phi.n)
        assert (len(comps) > 1) == satisfiable
    assert seen == {True, False}


def test_checks_reject_wrong_answers(tmp_path):
    op = gen.Op(0, 0, "conn", ["conn", "f.cnfs", "--json"], {},
                {"connected": True, "satisfiable": True})
    good = json.dumps({"connected": True, "method": "cpss", "detail": {"satisfiable": True}})
    bad = json.dumps({"connected": False, "method": "cpss", "detail": {"satisfiable": True}})
    undecided = json.dumps({"connected": None, "method": "none", "detail": {}})
    assert checks.check(op, good, tmp_path) == (True, "cpss", None)
    assert not checks.check(op, bad, tmp_path)[0]
    assert checks.check(op, undecided, tmp_path)[2] == "undecided"
    assert not checks.check(op, "not json", tmp_path)[0]


def test_express_m_check():
    source = Rel(3, gen.M_REL.members)
    good = "rel R 3 : 000 001 010 101 111\nvar x y z\nR(x,y,z)\n"
    assert oracle.expresses_m(good, source)
    assert not oracle.expresses_m(good.replace("R(x,y,z)", "R(x,x,z)"), source)
    other = "rel R 3 : 000 001 010 101 111\nrel S 3 : 000\nvar x y z\nS(x,y,z)\n"
    assert not oracle.expresses_m(other, source)


def test_tracer_records_layers_and_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import relconn.cli as cli
        import relconn.relations as relations
        original = relations.apply_pattern
        tracer = Tracer()
        tracer.install()
        try:
            assert relations.apply_pattern is not original
            for argv in (["conn", str(SAMPLES / "conp.cnfs"), "--json"],
                         ["classify-set", str(SAMPLES / "m.rel"), "--json"]):
                tracer.begin(0)
                with redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                tracer.end()
        finally:
            tracer.uninstall()
        assert relations.apply_pattern is original
        metrics = tracer.metrics(overhead=0.9)
        assert set(metrics) == set(METRICS)
        assert metrics["cli.main.self_s"] > 0
        assert metrics["cpss.route.brute"] == 0.5  # conp.cnfs is not CPSS
        assert metrics["relations.apply_pattern.calls"] > 0
        assert 0 < metrics["relations.apply_pattern.distinct_ratio"] <= 1
        assert metrics["solution_graph.solution_density"] == pytest.approx(7 / 16)
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_benchmark_json_matches_the_code():
    from perfbench.run import END_TO_END
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == METRICS
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
