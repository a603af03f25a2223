"""Projection-based connectivity and the polynomial satisfiability routines."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relconn import formulas, solution_graph
from relconn.catalog import CATALOG
from relconn.classify import classify_set
from relconn.cpss import (_projector, conn_cpss, decide_connectivity, project,
                          random_formula, sat_schaefer,
                          search_separation_counterexample)
from relconn.errors import (ArityLimitError, ClauseExtractionError, FormulaError,
                            NonCpssError, RelconnError, VarsLimitError)
from relconn.formulas import (ClauseSet, CnfClause, Constraint, make_formula,
                              parse_formula, to_clausal)
from relconn.relations import AFFINE, BIJUNCTIVE, DUAL_HORN, HORN, Relation, hull

from clausal_oracle import first_group_difference, is_model, projection_inside
from random_inputs import random_cpss_pool, random_relation
from solution_oracle import project_enumerate


KINDS = (BIJUNCTIVE, HORN, DUAL_HORN, AFFINE)

T_TEXT = "var u v w x y z\nM(u,v,w)\nM(x,y,z)\nM(w,w,y)\nM(z,z,v)"

F_TEXT = """rel RF 3 : 000 011 100 110
var x y z w
RF(x,y,z)
RF(y,x,w)
"""


def brute_models(cs, assumptions):
    """Every model of the clauses and equations that extends the
    assumptions, by enumeration."""
    free = [v for v in cs.variables if v not in assumptions]
    for bits in itertools.product((0, 1), repeat=len(free)):
        model = dict(assumptions)
        model.update(zip(free, bits))
        if is_model(cs, model):
            yield model


def brute_sat(cs, assumptions):
    return next(brute_models(cs, assumptions), None) is not None


def project_by_sat_oracle(phi, i, cs):
    """Projection mask onto constraint i by one sat_schaefer call per tuple.

    sat_schaefer runs on the same unit propagation as project, so this
    oracle is not independent of the engine; project_enumerate is."""
    vars_ = tuple(sorted(phi.constraints[i].variables()))
    k = len(vars_)
    mask = 0
    for a in range(1 << k):
        assumption = {v: (a >> (k - 1 - j)) & 1 for j, v in enumerate(vars_)}
        if sat_schaefer(cs, assumption)[0]:
            mask |= 1 << a
    return mask


def assert_projections_match_oracles(phi, kind):
    """Every projection of the kind's engine against the per-tuple SAT loop
    and against enumeration of the solution space, and inside its
    constraint's relation; the clause translation against the relations."""
    cs = to_clausal(phi, kind)
    assert first_group_difference(phi, kind) is None
    for i in range(len(phi.constraints)):
        got = project(phi, i, cs)
        vars_, enumerated = project_enumerate(phi, i)
        assert got.variables == vars_
        assert projection_inside(cs, got)
        assert got.relation.mask == project_by_sat_oracle(phi, i, cs)
        assert got.relation == enumerated
        assert project(phi, i) == got  # the class conn_cpss would pick


@functools.lru_cache(maxsize=None)
def cached_pool(kind, seed):
    return tuple(random_cpss_pool(random.Random(seed), kind, 4))


@functools.lru_cache(maxsize=None)
def cached_hulls(kind, seed):
    """Hulls of random relations of arity 2-4 in one Schaefer class: a
    relation set of that class, not necessarily CPSS."""
    rng = random.Random(seed)
    return tuple(hull(random_relation(rng, rng.randint(2, 4),
                                      rng.choice((0.2, 0.5, 0.8))), kind)
                 for _ in range(3))


def draw_formula(draw, pool, max_vars, constants_alone=False):
    """A formula of 1-6 constraints over the pool and 1..max_vars
    variables; constants and repeated arguments allowed, and with
    constants_alone, constraints whose arguments are all constants."""
    library = {f"R{j}": rel.renamed(f"R{j}") for j, rel in enumerate(pool)}
    variables = [f"x{i}" for i in range(draw(st.integers(1, max_vars)))]
    constraints = []
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(sorted(library)))
        args = draw(st.lists(st.sampled_from(variables + ["0", "1"]),
                             min_size=library[name].arity,
                             max_size=library[name].arity)
                    .filter(lambda a: constants_alone
                            or any(x not in ("0", "1") for x in a)))
        constraints.append(Constraint(name, tuple(args)))
    return make_formula(constraints, library, variables)


@st.composite
def cpss_formulas(draw):
    """(kind, formula) over a CPSS pool of the kind; n <= 10, constants and
    repeated arguments allowed."""
    kind = draw(st.sampled_from(KINDS))
    pool = cached_pool(kind, draw(st.integers(0, 5)))
    return kind, draw_formula(draw, pool, 10)


@st.composite
def schaefer_queries(draw):
    """(clause set, assumptions): a formula over hulls of one class with
    n <= 8, constraints on constants alone allowed, and 0..n of its
    variables pinned."""
    kind = draw(st.sampled_from(KINDS))
    phi = draw_formula(draw, cached_hulls(kind, draw(st.integers(0, 7))), 8,
                       constants_alone=True)
    pinned = draw(st.lists(st.sampled_from(phi.variables), unique=True))
    return to_clausal(phi, kind), {v: draw(st.integers(0, 1)) for v in pinned}


def clause(text):
    """A clause from its text, such as "x -y"."""
    lits = text.split()
    return CnfClause(frozenset(v for v in lits if v[0] != "-"),
                     frozenset(v[1:] for v in lits if v[0] == "-"))


def clause_set(kind, *texts, variables=("x", "y")):
    """A clause set from clause texts such as "x -y"."""
    return ClauseSet(kind, variables, tuple(map(clause, texts)))


# Horn, with two components that are each IHSB- while the relation is not:
# only the identification sweep settles safely_componentwise_ihsb_minus
HORN_TWO_PARTS = ("000", "001", "010", "111")


ONE_IN_THREE = ("001", "010", "100")


def wide_formula(head, chain=0):
    """R(x1, ..., x11) where R is the 3-bit tuples `head` times {0,1}^8,
    and then OR(y0, y1), NAND(y1, y2), OR(y2, y3), ... over `chain` more
    variables: above the identification sweep's arity bound, so
    unclassifiable when the classification needs a componentwise safely
    flag of R that only the sweep settles.  HORN_TWO_PARTS does alone; with
    one-in-three, whose safely OR-free flag the member test settles, the
    chain's OR and NAND leave only the componentwise bijunctive flag."""
    rel = Relation.from_tuples(11, [h + format(s, "08b") for h in head
                                    for s in range(256)], "R")
    constraints = [Constraint("R", tuple(f"x{i}" for i in range(1, 12)))]
    constraints += [Constraint(("OR", "NAND")[j % 2], (f"y{j}", f"y{j + 1}"))
                    for j in range(chain - 1)]
    return make_formula(constraints, {"R": rel, "OR": CATALOG["OR"], "NAND": CATALOG["NAND"]})


def planted_formula(kind, seed, n, m):
    """m constraints over n variables from a CPSS pool, all satisfied by one
    random assignment."""
    rng = random.Random(seed)
    return plant(rng, random_cpss_pool(rng, kind, 4), n, m)


def plant(rng, relations, n, m):
    library = {f"R{j}": rel.renamed(f"R{j}") for j, rel in enumerate(relations)}
    names = [f"x{i}" for i in range(n)]
    planted = {v: rng.randint(0, 1) for v in names}
    constraints = []
    while len(constraints) < m:
        name = rng.choice(sorted(library))
        args = tuple(rng.choice(names) for _ in range(library[name].arity))
        idx = int("".join(str(planted[a]) for a in args), 2)
        if (library[name].mask >> idx) & 1:
            constraints.append(Constraint(name, args))
    return make_formula(constraints, library, names)


def pool_formulas(kind, seed, count, max_vars=8, max_constraints=4):
    rng = random.Random(seed)
    pool = random_cpss_pool(rng, kind, 4)
    for _ in range(count):
        yield random_formula(rng, pool, max_vars, max_constraints)


class TestSatSchaefer:
    @pytest.mark.parametrize("kind", KINDS)
    def test_agrees_with_enumeration(self, kind):
        rng = random.Random(100 + KINDS.index(kind))
        pool = random_cpss_pool(rng, kind, 4)
        checked = 0
        for _ in range(40):
            phi = random_formula(rng, pool, 6, 4)
            cs = to_clausal(phi, kind)
            names = list(phi.variables)
            pinned = rng.sample(names, min(len(names), rng.randint(0, 2)))
            assumptions = {v: rng.randint(0, 1) for v in pinned}
            ok, model = sat_schaefer(cs, assumptions)
            assert ok == brute_sat(cs, assumptions)
            if ok:
                checked += 1
                assert all(model[v] == b for v, b in assumptions.items())
                assert is_model(cs, model)
        assert checked > 10

    @settings(max_examples=300, deadline=None)
    @given(schaefer_queries())
    def test_matches_brute_force(self, query):
        cs, assumptions = query
        ok, model = sat_schaefer(cs, assumptions)
        assert ok == brute_sat(cs, assumptions)
        if ok:
            assert set(model) == set(cs.variables) | set(assumptions)
            assert {v: model[v] for v in assumptions} == assumptions
            assert is_model(cs, model)
        else:
            assert model is None

    @pytest.mark.parametrize("kind, extreme", [(HORN, min), (DUAL_HORN, max)])
    def test_horn_minimal_and_dual_horn_maximal_model(self, kind, extreme):
        # Horn models are closed under AND and dual Horn ones under OR, so
        # the coordinatewise minimum (maximum) of all models is a model
        rng = random.Random(21 + len(kind))
        checked = 0
        for seed in range(8):
            for _ in range(15):
                phi = random_formula(rng, cached_hulls(kind, seed), 7, 6)
                cs = to_clausal(phi, kind)
                pinned = rng.sample(phi.variables, rng.randint(0, 2))
                assumptions = {v: rng.randint(0, 1) for v in pinned}
                ok, model = sat_schaefer(cs, assumptions)
                models = list(brute_models(cs, assumptions))
                assert ok == bool(models)
                if ok:
                    checked += 1
                    assert model in models
                    assert model == {v: extreme(m[v] for m in models) for v in model}
        assert checked > 50

    def test_fallback_value(self):
        # x = 0 forces both y and -y, so x takes the other value
        cs = clause_set(BIJUNCTIVE, "x y", "x -y")
        assert sat_schaefer(cs) == (True, {"x": 1, "y": 0})
        assert _projector(cs)(("x",)) == 0b10
        assert _projector(cs)(("x", "y")) == 0b1100

    def test_four_two_clauses_without_units(self):
        # no unit clause, so the base state is conflict-free; extending it
        # to a model finds both values of x conflicting.  z is in no clause,
        # so its literals propagate without conflict from the base state
        cs = clause_set(BIJUNCTIVE, "x y", "x -y", "-x y", "-x -y",
                        variables=("x", "y", "z"))
        assert sat_schaefer(cs) == (False, None)
        assert _projector(cs)(("x", "y")) == 0
        assert _projector(cs)(("z",)) == 0

    @pytest.mark.parametrize("kind, text", [(BIJUNCTIVE, "x y -z"),
                                            (HORN, "x y -z"),
                                            (DUAL_HORN, "x -y -z")])
    def test_shape_guard(self, kind, text):
        # a clause set checks its clauses' shapes when it is built, so
        # sat_schaefer and project never get a clause outside the class
        phi = parse_formula("var x y z\nIMP(x,y)",
                            {"IMP": Relation.from_tuples(2, [0, 1, 3])})
        good = to_clausal(phi, kind)
        with pytest.raises(ClauseExtractionError, match=f"clause {text} is not {kind}"):
            dataclasses.replace(good, clauses=good.clauses + (clause(text),))
        with pytest.raises(ClauseExtractionError, match=f"clause {text} is not {kind}"):
            clause_set(kind, text, variables=phi.variables)

    def test_model_is_checked(self):
        phi = parse_formula("var x y\nIMP(x,y)",
                            {"IMP": Relation.from_tuples(2, [0, 1, 3])})
        cs = to_clausal(phi, BIJUNCTIVE)
        ok, model = sat_schaefer(cs, {"x": 1})
        assert ok and model["x"] == 1 and model["y"] == 1
        assert is_model(cs, model)
        ok, model = sat_schaefer(cs, {"x": 1, "y": 0})
        assert not ok and model is None


class TestProject:
    def test_matches_enumeration_oracle(self):
        rng = random.Random(5)
        for kind in KINDS:
            seen = {"unsat": 0, "sat": 0, "constants": 0, "repeats": 0}
            for _ in range(8):
                pool = random_cpss_pool(rng, kind, 4)
                for _ in range(12):
                    phi = random_formula(rng, pool, 10, 6, const_prob=0.2)
                    assert_projections_match_oracles(phi, kind)
                    sat = sat_schaefer(to_clausal(phi, kind))[0]
                    seen["sat" if sat else "unsat"] += 1
                    args = [c.args for c in phi.constraints]
                    seen["constants"] += any(a in ("0", "1") for t in args for a in t)
                    seen["repeats"] += any(len(set(t)) < len(t) for t in args)
            assert min(seen.values()) > 0, (kind, seen)

    @settings(max_examples=300, deadline=None)
    @given(cpss_formulas())
    def test_engines_match_oracles(self, case):
        kind, phi = case
        assert_projections_match_oracles(phi, kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_constraint_on_constants_alone(self, kind):
        # true: no clause; false: the empty clause (0 = 1); projecting onto
        # the constants' own constraint has no variables to project onto
        rel, true, false = ((Relation.from_tuples(2, ["00", "11"]), "0,0", "0,1")
                            if kind == AFFINE else
                            (Relation.from_tuples(2, ["00", "01", "11"]), "0,1", "1,0"))
        for const, sat in ((true, True), (false, False)):
            phi = parse_formula(f"var x y\nR(x,y)\nR({const})", {"R": rel})
            cs = to_clausal(phi, kind)
            got = project(phi, 0, cs)
            assert got.relation == project_enumerate(phi, 0)[1]
            assert (not got.relation.is_empty) == sat
            assert project(phi, 0).relation == got.relation
            with pytest.raises(FormulaError, match="no variables"):
                project(phi, 1, cs)

    @pytest.mark.parametrize("i", [-1, -2, 2, 3])
    def test_index_outside_the_constraints_raises(self, i):
        # negative indexes would read the constraints from the end
        phi = parse_formula("var x y z\nIMP(x,y)\nIMP(y,z)",
                            {"IMP": Relation.from_tuples(2, [0, 1, 3])})
        for cs in (None, to_clausal(phi, HORN)):
            with pytest.raises(FormulaError, match=rf"constraint index {i} outside 0\.\.1"):
                project(phi, i, cs)

    def test_f_fixture_projections(self):
        phi = parse_formula(F_TEXT, CATALOG)
        vars0, proj0 = project_enumerate(phi, 0)
        assert vars0 == ("x", "y", "z")
        assert proj0.tuples() == ["000", "011", "100", "110"]
        vars1, proj1 = project_enumerate(phi, 1)
        assert vars1 == ("w", "x", "y")
        assert proj1.tuples() == ["000", "001", "011", "110"]


class TestConnCpss:
    @pytest.mark.parametrize("kind", KINDS)
    def test_agrees_with_brute_force(self, kind):
        for phi in pool_formulas(kind, seed=11, count=40):
            report = conn_cpss(phi)
            sg = solution_graph.report(phi)
            assert report.connected == sg.connected
            assert report.satisfiable == (sg.n_solutions > 0)
            cs = to_clausal(phi, kind)
            assert all(projection_inside(cs, p) for p in report.projections)

    @pytest.mark.parametrize("kind", KINDS)
    def test_800_variables_within_two_seconds(self, kind):
        # one sat_schaefer call per tuple (project_by_sat_oracle) needs tens
        # of seconds at this size
        phi = planted_formula(kind, seed=8, n=800, m=800)
        start = time.perf_counter()
        report = conn_cpss(phi)
        assert time.perf_counter() - start < 2.0
        assert report.satisfiable
        assert len(report.projections) == 800

    def test_affine_only_4000_variables_within_bound(self):
        # the pool above is also bijunctive, so it runs the 2-SAT engine;
        # parity relations are affine only and reach the GF(2) elimination
        odd3 = Relation.from_tuples(3, ["001", "010", "100", "111"])
        even4 = Relation.from_tuples(
            4, [t for t in range(16) if bin(t).count("1") % 2 == 0])
        assert classify_set([odd3, even4]).cpss_kinds == (AFFINE,)
        phi = plant(random.Random(1), [odd3, even4], 4000, 4000)
        start = time.perf_counter()
        report = conn_cpss(phi)
        assert time.perf_counter() - start < 2.5
        assert report.satisfiable
        assert len(report.projections) == 4000

    def test_equality_chain_disconnected(self):
        phi = parse_formula(
            "rel EQ 2 : 00 11\nvar x y z\nEQ(x,y)\nEQ(y,z)", CATALOG)
        report = conn_cpss(phi)
        assert report.satisfiable and not report.connected
        assert not solution_graph.is_connected(phi)

    def test_odd_parity_disconnected(self):
        # affine but in no other Schaefer class: four isolated solutions
        phi = parse_formula("rel ODD 3 : 001 010 100 111\nvar x y z\n"
                            "ODD(x,y,z)", CATALOG)
        assert classify_set(phi.used_relations()).cpss_kinds == (AFFINE,)
        report = conn_cpss(phi)
        assert report.satisfiable and not report.connected
        assert len(solution_graph.report(phi).components) == 4

    def test_unsat_is_connected_by_convention(self):
        phi = parse_formula(
            "rel LT 2 : 01\nvar x y\nLT(x,y)\nLT(y,x)", CATALOG)
        report = conn_cpss(phi)
        assert report.satisfiable is False
        assert report.connected is True

    @pytest.mark.parametrize("kind", KINDS)
    def test_constraints_on_constants_alone(self, kind):
        # pool formulas with some constraints' arguments all set to
        # constants, a member tuple (true) or a random one (often false);
        # each projection keeps its constraint's index
        rng = random.Random(13)
        checked = set()
        for phi in pool_formulas(kind, seed=19, count=40):
            constraints = list(phi.constraints)
            for i in rng.sample(range(len(constraints)), rng.randint(1, len(constraints))):
                c = constraints[i]
                rel = phi.relation_of(c)
                constants = rng.choice(rel.tuples() + ["".join(rng.choice("01") for _ in c.args)])
                constraints[i] = Constraint(c.relation, tuple(constants))
            psi = make_formula(constraints, phi.library, phi.variables)
            report = conn_cpss(psi)
            sg = solution_graph.report(psi)
            assert report.connected == sg.connected
            assert report.satisfiable == (sg.n_solutions > 0)
            live = [i for i, c in enumerate(psi.constraints) if c.variables()]
            if report.projections:
                assert [p.constraint_index for p in report.projections] == live
                assert [p.constraint for p in report.projections] == \
                    [str(psi.constraints[i]) for i in live]
                if live != list(range(len(live))):
                    checked.add("index gap")
            checked.add((report.satisfiable, bool(live)))
        assert checked == {"index gap", (True, True), (True, False), (False, True),
                           (False, False)}

    def test_non_cpss_rejected(self):
        phi = parse_formula("var x y z\nM(x,y,z)", CATALOG)
        with pytest.raises(NonCpssError):
            conn_cpss(phi)

    def test_t_fixture_fools_the_projections(self):
        """Outside CPSS the projections can all connect while the graph does
        not; the set {M} is Schaefer (Horn) but not CPSS, and this formula
        is the witness."""
        phi = parse_formula(T_TEXT, CATALOG)
        report = conn_cpss(phi, check=False)
        assert report.connected is True
        assert all(p.n_components == 1 for p in report.projections)
        assert not solution_graph.is_connected(phi)

    def test_no_translation_at_all(self):
        phi = parse_formula(F_TEXT, CATALOG)
        with pytest.raises(NonCpssError):
            conn_cpss(phi, check=False)


class TestDecideConnectivity:
    def test_auto_routes_cpss(self):
        phi = parse_formula("var x y z\nIMP(x,y)\nIMP(y,z)\nIMP(z,x)",
                            {"IMP": Relation.from_tuples(2, [0, 1, 3])})
        d = decide_connectivity(phi)
        assert d.method == "cpss"
        assert d.connected is False
        assert d.set_class == "CPSS"
        # the route's evidence is the report itself, as conn_cpss gives it
        assert d.detail == conn_cpss(phi)

    def test_auto_falls_back_to_brute(self):
        phi = parse_formula(T_TEXT, CATALOG)
        d = decide_connectivity(phi)
        assert d.method == "brute"
        assert d.connected is False
        assert d.set_class == "SchaeferNotCPSS"

    def test_brute_respects_variable_limit(self):
        names = " ".join(f"x{i}" for i in range(30))
        lines = [f"M(x{i},x{i+1},x{i+2})" for i in range(0, 27, 3)]
        phi = parse_formula(f"var {names}\n" + "\n".join(lines), CATALOG)
        with pytest.raises(VarsLimitError):
            decide_connectivity(phi, method="brute")
        d = decide_connectivity(phi, method="auto")
        assert d.connected is None
        assert d.method == "none"
        assert d.prediction.conn == "coNP-complete"

    def test_brute_route_is_fast_on_dense_16_variables(self):
        # A connectivity answer must not pay for a BFS from every solution
        rng = random.Random(3)
        while True:
            phi = random_formula(rng, [CATALOG["M"]], 16, 6, const_prob=0.0)
            if phi.n == 16:
                density = solution_graph.solution_space(phi).bit_count() / 2 ** 16
                if 0.15 <= density <= 0.30:
                    break
        for method in ("brute", "auto"):
            start = time.perf_counter()
            d = decide_connectivity(phi, method=method)
            assert time.perf_counter() - start < 2.0
            assert d.method == "brute"
            assert d.connected == (len(solution_graph.components(phi)) == 1)
            assert "components" not in d.detail

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_constraint_relation_per_constraint(self, monkeypatch, kind):
        # to_clausal builds each constraint's relation; the projections
        # reuse it instead of building it again
        phi = planted_formula(kind, 5, 30, 40)
        calls = []
        original = formulas.constraint_relation

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(formulas, "constraint_relation", counting)
        assert decide_connectivity(phi).method == "cpss"
        assert len(calls) == len(phi.constraints) == 40

    def test_unknown_method(self):
        phi = parse_formula("var x y z\nM(x,y,z)", CATALOG)
        with pytest.raises(ValueError):
            decide_connectivity(phi, method="guess")
        # checked before the classification, which this formula lacks
        with pytest.raises(ValueError):
            decide_connectivity(wide_formula(HORN_TWO_PARTS), method="guess")

    @pytest.mark.parametrize("head, n_components", [
        (HORN_TWO_PARTS, 2),
        (ONE_IN_THREE, 3),
    ])
    def test_brute_route_without_classification(self, head, n_components):
        # one-in-three alone is classified by its safely OR-free flag; the
        # OR/NAND chain, whose components are one, leaves it unclassifiable
        phi = wide_formula(head, 4 if head == ONE_IN_THREE else 0)
        with pytest.raises(ArityLimitError):
            classify_set(phi.used_relations())
        for method in ("brute", "auto"):
            d = decide_connectivity(phi, method=method)
            connected = n_components == 1
            assert (d.connected, d.method, d.set_class, d.prediction) == (
                connected, "brute", None, None)
            assert d.detail == {"n_variables": phi.n}
        assert len(solution_graph.components(phi)) == n_components
        with pytest.raises(ArityLimitError):
            decide_connectivity(phi, method="cpss")

    @pytest.mark.parametrize("method", ["brute", "auto"])
    def test_no_classification_above_the_enumeration_bound(self, method):
        # 25 variables: no route answers, and the classification's error stands
        phi = wide_formula(ONE_IN_THREE, 14)
        assert phi.n == 25
        with pytest.raises(ArityLimitError):
            decide_connectivity(phi, method=method)


class TestSeparationSearch:
    def test_bijunctive_never_separates(self):
        rng = random.Random(2)
        pool = random_cpss_pool(rng, BIJUNCTIVE, 3)
        assert search_separation_counterexample(pool, seed=2, tries=60,
                                                max_vars=6) is None

    def test_hit_is_verified_when_found(self):
        m = CATALOG["M"]
        hit = search_separation_counterexample([m], seed=7, tries=300,
                                               max_vars=6)
        if hit is not None:
            report = conn_cpss(hit, check=False)
            assert report.connected
            assert not solution_graph.is_connected(hit)

    @pytest.mark.parametrize("bad", [{"max_vars": 0}, {"max_vars": 1},
                                     {"max_vars": -1}, {"tries": -1}])
    def test_out_of_range_budget_raises(self, bad):
        with pytest.raises(RelconnError):
            search_separation_counterexample([CATALOG["M"]], seed=0, **bad)

    def test_rejected_relation_set_raises(self):
        # R_coNP is not Schaefer: the first formula drawn is rejected, and
        # that is an error, not an exhausted budget
        with pytest.raises(NonCpssError):
            search_separation_counterexample([CATALOG["R_coNP"]], seed=0,
                                             tries=1000)
