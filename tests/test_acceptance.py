"""Acceptance gate: one test per criterion, timed where the contract says so.

Each criterion is self-contained and recomputes everything it asserts;
the per-criterion PASS/FAIL summary is printed by conftest.py.
"""

from __future__ import annotations

import itertools
import random
import time

import networkx as nx
import pytest

from relconn import bitspace
from relconn import horn as hornmod
from relconn import solution_graph as sg
from relconn.catalog import CATALOG
from relconn.classify import classify_set, predict, profile
from relconn.constructions import build_F, build_T, express_m, reduce_sat_to_conn
from relconn.cpss import conn_cpss, random_formula
from relconn.errors import ExpressionError
from relconn.formulas import Constraint, make_formula, parse_formula
from relconn.horn import normalize, solution_space
from relconn.relations import ArgPattern, Relation, apply_pattern, components

from closure_oracle import op_maj
from horn_oracle import locally_minimal_solutions
from random_inputs import (random_cpss_pool, random_horn_not_safely_cw_ihsb_minus,
                           random_horn_view)
from solution_oracle import project_enumerate, solution_strings

M_MEMBERS = frozenset({0b000, 0b001, 0b010, 0b101, 0b111})


def hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def solution_set_3(phi) -> frozenset[int]:
    """Solution set of a formula over x, y, z by direct enumeration."""
    members = set()
    for bits in itertools.product((0, 1), repeat=3):
        asg = dict(zip(("x", "y", "z"), bits))
        ok = True
        for c in phi.constraints:
            idx = 0
            for a in c.args:
                idx = (idx << 1) | (int(a) if a in ("0", "1") else asg[a])
            if idx not in phi.relation_of(c).members:
                ok = False
                break
        if ok:
            members.add((bits[0] << 2) | (bits[1] << 1) | bits[2])
    return frozenset(members)


def test_criterion_1_paper_example_fixtures():
    start = time.perf_counter()

    # OR-free but not safely OR-free
    ex_or = Relation.from_tuples(3, ["001", "110", "111"], "EX")
    p = profile(ex_or)
    assert p.or_free is True
    assert p.safely_or_free is False

    # R_coNP: componentwise bijunctive and componentwise IHSB-, neither safely;
    # the witness identifies coordinates 3 and 4
    rconp = CATALOG["R_coNP"]
    p = profile(rconp)
    assert p.componentwise_bijunctive is True
    assert p.componentwise_ihsb_minus is True
    assert p.safely_componentwise_bijunctive is False
    assert p.safely_componentwise_ihsb_minus is False
    ident = apply_pattern(rconp, ArgPattern((0, 1, 2, 2)))
    (only_component,) = components(ident)
    for t in (0b110, 0b000, 0b101):
        assert t in only_component.members
    assert op_maj(0b110, 0b000, 0b101) == 0b100
    assert 0b100 not in only_component.members

    # R_PSPA: the example text, bit for bit
    rpspa = CATALOG["R_PSPA"]
    p = profile(rpspa)
    assert not (p.bijunctive or p.horn or p.dual_horn or p.affine)
    nand = apply_pattern(rpspa, ArgPattern(("1", "1", 0, 1)))
    assert nand.members == frozenset({0b00, 0b01, 0b10})
    assert p.nand_free is False
    assert p.componentwise_bijunctive is True
    assert p.or_free is True
    assert p.safely_componentwise_bijunctive is False
    assert p.safely_or_free is False
    r_prime = apply_pattern(rpspa, ArgPattern((0, 0, 1, 2)))
    assert r_prime.members == \
        frozenset({0b001, 0b010, 0b100, 0b110, 0b101})
    assert op_maj(0b001, 0b010, 0b100) == 0b000
    assert 0b000 not in r_prime.members
    or_image = apply_pattern(r_prime, ArgPattern((0, 1, "0")))
    assert or_image.members == frozenset({0b01, 0b10, 0b11})

    assert time.perf_counter() - start < 1.0


def test_criterion_2_classification_table():
    assert classify_set([CATALOG["M"]]).set_class == "SchaeferNotCPSS"
    assert classify_set([CATALOG["R_PSPA"]]).set_class == "NotSafelyTight"

    rng = random.Random(20)
    for _ in range(5):
        pool = random_cpss_pool(rng, "bijunctive", rng.randint(1, 4))
        assert classify_set(pool).set_class == "CPSS"

    rows = {
        "CPSS": ("P", "P", "P", "O(n)"),
        "SchaeferNotCPSS": ("P", "coNP-complete", "P", "O(n)"),
        "SafelyTightNotSchaefer":
            ("NP-complete", "coNP-complete", "P", "O(n)"),
        "NotSafelyTight": ("NP-complete", "PSPACE-complete",
                           "PSPACE-complete", "2^Omega(sqrt(n))"),
    }
    fixtures = {
        "CPSS": [CATALOG["OR"]],
        "SchaeferNotCPSS": [CATALOG["M"]],
        "SafelyTightNotSchaefer": [CATALOG["R_coNP"]],
        "NotSafelyTight": [CATALOG["R_PSPA"]],
    }
    for set_class, rels in fixtures.items():
        cl = classify_set(rels)
        assert cl.set_class == set_class
        pr = predict(cl)
        assert (pr.sat, pr.conn, pr.st_conn, pr.diameter_bound) == \
            rows[set_class]


def test_criterion_3_projection_equals_brute_force():
    start = time.perf_counter()
    checked = 0
    for offset, kind in enumerate(("bijunctive", "horn", "dual_horn",
                                   "affine")):
        rng = random.Random(300 + offset)
        pool = random_cpss_pool(rng, kind, 5, arity_max=4)
        for _ in range(125):
            phi = random_formula(rng, pool, 12, 8)
            assert conn_cpss(phi).connected == sg.is_connected(phi)
            checked += 1
    assert checked >= 500
    assert time.perf_counter() - start < 60.0


def test_criterion_4_horn_structure_suite():
    rng = random.Random(400)
    checked = 0
    disconnected_seen = 0
    for _ in range(500):
        n = rng.randint(3, 10)
        view = random_horn_view(rng, n, rng.randint(2, 8))
        assert not view.has_positive_units()
        names = view.variables
        comps = bitspace.component_masks(solution_space(view), n)

        # maximal self-implicating sets without restraint sets, by direct
        # subset enumeration (independent of the component computation)
        restraints = view.restraint_sets()
        independent_count = 0
        for bits in itertools.product((0, 1), repeat=n):
            u = frozenset(names[i] for i in range(n) if bits[i])
            if any(r <= u for r in restraints):
                continue
            if hornmod.is_self_implicating(view, u) and \
                    hornmod.imp(view, u) == u:
                independent_count += 1
        assert independent_count == len(comps)

        minima = locally_minimal_solutions(view)
        assert (len(comps) > 1) == any(m != 0 for m in minima)
        assert len(minima) == len(comps)
        for comp in comps:
            assert sum(1 for m in minima if (comp >> m) & 1) == 1
        disconnected_seen += len(comps) > 1
        checked += 1
    assert checked >= 500
    assert disconnected_seen >= 10


def test_criterion_5_distance_non_expansion():
    rng = random.Random(500)
    pool = random_cpss_pool(rng, "bijunctive", 6)
    formulas = pairs = 0
    for _ in range(200):
        phi = random_formula(rng, rng.sample(pool, 3), 7, 5)
        sols = solution_strings(phi)
        graph = nx.Graph()
        graph.add_nodes_from(sols)
        for a, b in itertools.combinations(sols, 2):
            if hamming(a, b) == 1:
                graph.add_edge(a, b)
        for a, dists in nx.all_pairs_shortest_path_length(graph):
            for b, d in dists.items():
                assert d == hamming(a, b)
                pairs += 1
        formulas += 1
    assert formulas >= 200 and pairs > 10000


def test_criterion_6_reduction_exhaustive():
    start = time.perf_counter()
    p_rel, n_rel = CATALOG["P"], CATALOG["N"]
    base = ("x1", "x2", "x3", "x4")

    def canonical(p_cons, n_cons):
        mapping: dict[str, str] = {}

        def name(v):
            if v not in mapping:
                mapping[v] = f"x{len(mapping) + 1}"
            return mapping[v]

        return tuple(
            [("P", tuple(name(a) for a in args)) for args in p_cons] +
            [("N", tuple(name(a) for a in args)) for args in n_cons])

    p_all = list(itertools.product(base, repeat=3))
    n_all = list(itertools.product(base, repeat=2))
    cases = set()
    for n_p in (1, 2):
        for p_cons in itertools.combinations_with_replacement(p_all, n_p):
            for n_n in (0, 1, 2):
                for n_cons in itertools.combinations_with_replacement(
                        n_all, n_n):
                    cases.add(canonical(p_cons, n_cons))

    n_sat = n_unsat = 0
    for cons in sorted(cases):
        names = sorted({a for _, args in cons for a in args},
                       key=lambda v: int(v[1:]))
        psi = make_formula([Constraint(k, args) for k, args in cons],
                           {"P": p_rel, "N": n_rel}, tuple(names))
        sat = False
        for bits in itertools.product((0, 1), repeat=len(names)):
            asg = dict(zip(names, bits))
            if all(int("".join(str(asg[a]) for a in c.args), 2)
                   in psi.relation_of(c).members for c in psi.constraints):
                sat = True
                break
        out = reduce_sat_to_conn(psi)
        assert sat == (not sg.is_connected(out.formula)), cons
        n_sat += sat
        n_unsat += not sat
    assert n_sat + n_unsat == len(cases) and n_unsat > 500

    gr = parse_formula(
        "var x1 x2 x3 x4\nP(x1,x2,x2)\nP(x3,x4,x2)\nN(x1,x2)\n"
        "N(x1,x4)\nN(x2,x2)", CATALOG)
    assert len(sg.components(reduce_sat_to_conn(gr).formula)) == 2

    assert time.perf_counter() - start < 120.0


def test_criterion_7_express_m():
    # the solution set of phi_coNP, as a relation
    phi_conp = parse_formula(
        "var w x y z\nM(y,0,x)\nM(x,0,y)\nK(x,z,w)\nK(y,z,w)", CATALOG)
    rc = sg.formula_relation(phi_conp)
    assert solution_set_3(express_m(rc)) == M_MEMBERS

    rng = random.Random(700)
    produced = 0
    for _ in range(20):
        rel = random_horn_not_safely_cw_ihsb_minus(rng, arity_max=6)
        assert solution_set_3(express_m(rel)) == M_MEMBERS
        produced += 1
    assert produced >= 20

    rconp = CATALOG["R_coNP"]
    try:
        phi = express_m(rconp)
    except ExpressionError as exc:
        usable = []
        for args in itertools.product(("0", "1", "x", "y", "z"), repeat=4):
            members = set()
            for bits in itertools.product((0, 1), repeat=3):
                asg = dict(zip("xyz", bits))
                idx = 0
                for a in args:
                    idx = (idx << 1) | (int(a) if a in "01" else asg[a])
                if idx in rconp.members:
                    members.add((bits[0] << 2) | (bits[1] << 1) | bits[2])
            if M_MEMBERS <= members:
                usable.append(frozenset(members))
        intersection = frozenset(range(8))
        for members in usable:
            intersection &= members
        assert all(0b011 in members for members in usable)
        assert intersection != M_MEMBERS
        pytest.fail(
            "the R_coNP case cannot produce M: express_m rejected the input "
            f"({exc}), and that is no implementation gap. Re-derived "
            "at runtime: a formula over variables x, y, z whose solution "
            "set is M must be a conjunction of R_coNP constraint "
            f"applications whose solution sets each contain M; of all 625 "
            f"argument tuples over x, y, z, 0, 1, the {len(usable)} "
            "qualifying ones all keep 011, and their intersection is "
            f"{sorted(format(i, '03b') for i in sorted(intersection))} "
            "rather than M, so every such conjunction contains 011. "
            "No CNF_C({R_coNP})-formula has solution set exactly M.")
    else:
        assert solution_set_3(phi) == M_MEMBERS


def test_criterion_8_non_separation_fixtures():
    t = build_T()
    assert not sg.is_connected(t)
    for i in range(len(t.constraints)):
        _, proj = project_enumerate(t, i)
        assert len(components(proj)) == 1

    f = build_F()
    assert len(sg.components(f)) == 4
    # projections to {x,y,z} and {x,y,w}: the images of 0000 and 1100
    # land in one component each
    for i, (img_a, img_b) in ((0, ("000", "110")), (1, ("000", "011"))):
        _, proj = project_enumerate(f, i)
        placement = {t_: j for j, comp in enumerate(components(proj))
                     for t_ in comp.tuples()}
        assert placement[img_a] == placement[img_b]


def test_criterion_9_normal_form_preserves_solutions():
    rng = random.Random(900)
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 10)
        view = random_horn_view(rng, n, rng.randint(1, 8),
                                allow_positive_units=True)
        assert solution_space(normalize(view)) == solution_space(view)
        checked += 1
    assert checked >= 500

    redundant = hornmod.parse_horn(
        "var x y z\ny | -x\nz | -x\ny | -z\nz | -y\n")
    assert [hornmod.format_clause(c) for c in normalize(redundant).clauses] == \
        ["z | -x", "y | -z", "z | -y"]

    cut = hornmod.parse_horn("var x y z w\nx | -y -z\nw | -y\n- w x\n")
    rewritten = [hornmod.format_clause(c) for c in normalize(cut).clauses]
    assert "- y z" in rewritten
    assert "x | -y -z" not in rewritten
