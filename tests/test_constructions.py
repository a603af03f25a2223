"""The two hardness gadgets: the satisfiability reduction and expressing M."""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

import pytest

from pathlib import Path

from relconn import constructions, horn
from relconn import solution_graph as sg
from relconn.bitspace import conjunction_space
from relconn.catalog import CATALOG, parse_relations
from relconn.classify import profile
from relconn.cli import main
from relconn.constructions import (build_F, build_T, express_m,
                                   express_m_details, reduce_sat_to_conn)
from relconn.errors import (ArityLimitError, ExpressionError,
                            ReductionInputError, RelconnError,
                            TriviallySatisfiableError)
from relconn.formulas import (ClauseSet, Constraint, format_formula, make_formula,
                              parse_formula, to_clausal)
from relconn.relations import (HORN, IHSB_MINUS, ArgPattern, Relation, apply_pattern,
                               check_property)
from relconn.solution_graph import formula_relation

from identification_oracle import set_partitions
from random_inputs import random_horn_not_safely_cw_ihsb_minus, random_horn_relation
from solution_oracle import project_enumerate, solution_strings


M = CATALOG["M"]
P = CATALOG["P"]
N = CATALOG["N"]

GR_TEXT = """var x1 x2 x3 x4
P(x1,x2,x2)
P(x3,x4,x2)
N(x1,x2)
N(x1,x4)
N(x2,x2)
"""


def evaluate_raw(rel_of, constraints, assignment):
    """Constraint check straight off the tuple indices, no formula machinery."""
    for c in constraints:
        idx = 0
        for a in c.args:
            bit = int(a) if a in ("0", "1") else assignment[a]
            idx = (idx << 1) | bit
        if idx not in rel_of(c).members:
            return False
    return True


def psi_satisfiable(psi):
    names = psi.variables
    return any(
        evaluate_raw(psi.relation_of, psi.constraints, dict(zip(names, bits)))
        for bits in itertools.product((0, 1), repeat=len(names)))


class TestReduction:
    def test_figure_fixture(self):
        psi = parse_formula(GR_TEXT, CATALOG)
        out = reduce_sat_to_conn(psi)
        assert len(out.formula.variables) == 16
        assert len(out.formula.constraints) == 18
        assert out.input_variables == ("x1", "x2", "x3", "x4")
        assert out.chain_variables == ("q0", "q1")
        assert [g[2] for g in out.gadget_variables] == \
            ["x1", "x2", "x3", "x4", "x2"]
        comps = sg.components(out.formula)
        assert sorted(len(c) for c in comps) == [1, 161]

    def test_figure_fixture_lift(self):
        psi = parse_formula(GR_TEXT, CATALOG)
        out = reduce_sat_to_conn(psi)
        model = {"x1": 1, "x2": 0, "x3": 1, "x4": 0}
        assert evaluate_raw(psi.relation_of, psi.constraints, model)
        lifted = out.lift(model)
        s = "".join(str(lifted[v]) for v in out.formula.variables)
        minima = sg.locally_minimal(out.formula)
        assert s in minima
        assert len(minima) == 2  # the all-zero solution and the lift

    def test_constraint_order_follows_input(self):
        psi = parse_formula("var x y z\nN(x,y)\nP(x,y,z)\nN(y,z)", CATALOG)
        out = reduce_sat_to_conn(psi)
        kinds = ["N" if c.args[0] == "0" and len(c.variables()) == 2 else "P"
                 for c in out.formula.constraints]
        assert kinds[0] == "N" and kinds[-1] == "N"
        assert all(k == "P" for k in kinds[1:-1])

    def test_output_uses_only_m(self):
        psi = parse_formula("var x y\nP(x,x,y)\nN(x,y)", CATALOG)
        out = reduce_sat_to_conn(psi)
        for c in out.formula.constraints:
            assert out.formula.relation_of(c).members == M.members

    def test_matching_by_content_not_name(self):
        psi = parse_formula(
            "rel CLAUSE 3 : 001 010 011 100 101 110 111\n"
            "rel NAND 2 : 00 01 10\n"
            "var x y\nCLAUSE(x,x,y)\nNAND(x,y)", CATALOG)
        out = reduce_sat_to_conn(psi)
        assert len(out.chain_variables) == 1

    def test_fresh_names_avoid_collisions(self):
        psi = parse_formula("var q0 a0_q0 y\nP(q0,a0_q0,y)", CATALOG)
        out = reduce_sat_to_conn(psi)
        names = set(out.formula.variables)
        assert len(names) == len(out.formula.variables)
        assert out.chain_variables[0] not in psi.variables

    def test_only_nand_clauses_rejected(self):
        psi = parse_formula("var x y\nN(x,y)\nN(y,x)", CATALOG)
        with pytest.raises(TriviallySatisfiableError):
            reduce_sat_to_conn(psi)

    def test_foreign_relation_rejected(self):
        psi = parse_formula("var x y z\nM(x,y,z)", CATALOG)
        with pytest.raises(ReductionInputError):
            reduce_sat_to_conn(psi)

    def test_constants_rejected(self):
        psi = parse_formula("var x y\nP(1,x,y)", CATALOG)
        with pytest.raises(ReductionInputError):
            reduce_sat_to_conn(psi)

    def test_unsatisfiable_input_connected(self):
        psi = parse_formula("var x y\nP(x,x,x)\nN(x,x)\nN(x,y)", CATALOG)
        assert not psi_satisfiable(psi)
        out = reduce_sat_to_conn(psi)
        assert sg.is_connected(out.formula)

    def test_sat_iff_disconnected_random(self):
        rng = random.Random(19)
        seen_sat = seen_unsat = 0
        for _ in range(40):
            names = [f"x{i}" for i in range(rng.randint(2, 3))]
            cons = [Constraint("P", tuple(rng.choices(names, k=3)))]
            extra_p = rng.random() < 0.3  # keeps the output inside the brute bound
            if extra_p:
                cons.append(Constraint("P", tuple(rng.choices(names, k=3))))
            for _ in range(rng.randint(1, 4)):
                cons.append(Constraint("N", tuple(rng.choices(names, k=2))))
            rng.shuffle(cons)
            psi = make_formula(cons, {"P": P, "N": N}, tuple(names))
            out = reduce_sat_to_conn(psi)
            sat = psi_satisfiable(psi)
            seen_sat += sat
            seen_unsat += not sat
            assert sat == (not sg.is_connected(out.formula))
        assert seen_sat > 5 and seen_unsat > 5

    def test_lift_property_random(self):
        """When every input variable occurs in a ternary constraint, every
        satisfying assignment lifts to a locally minimal solution."""
        rng = random.Random(23)
        for _ in range(20):
            names = [f"x{i}" for i in range(3)]
            cons = [Constraint("P", ("x0", "x1", "x2")),
                    Constraint("P", tuple(rng.choices(names, k=3))),
                    Constraint("N", tuple(rng.choices(names, k=2)))]
            psi = make_formula(cons, {"P": P, "N": N}, tuple(names))
            out = reduce_sat_to_conn(psi)
            minima = set(sg.locally_minimal(out.formula))
            for bits in itertools.product((0, 1), repeat=3):
                model = dict(zip(names, bits))
                if evaluate_raw(psi.relation_of, psi.constraints, model):
                    lifted = out.lift(model)
                    s = "".join(str(lifted[v])
                                for v in out.formula.variables)
                    assert s in minima

    def test_lift_of_a_variable_outside_ternary_constraints(self):
        """An input variable that occurs only in binary constraints is not
        pinned by any gadget: its 1 can still flip down after the lift, so
        that lift is a disconnection witness but not locally minimal."""
        psi = make_formula([Constraint("P", ("x2", "x2", "x2")),
                            Constraint("N", ("x0", "x1"))],
                           {"P": P, "N": N}, ("x0", "x1", "x2"))
        out = reduce_sat_to_conn(psi)
        spurious = out.lift({"x0": 0, "x1": 1, "x2": 1})
        s = "".join(str(spurious[v]) for v in out.formula.variables)
        comps = sg.components(out.formula)
        zero = "0" * len(out.formula.variables)
        home = next(c for c in comps if s in c)
        assert zero not in home
        assert s not in sg.locally_minimal(out.formula)
        trimmed = out.lift({"x0": 0, "x1": 0, "x2": 1})
        t = "".join(str(trimmed[v]) for v in out.formula.variables)
        assert t in sg.locally_minimal(out.formula)
        assert t in home


class TestTandF:
    def test_t_shape(self):
        phi = build_T()
        assert phi.variables == ("u", "v", "w", "x", "y", "z")
        assert [str(c) for c in phi.constraints] == \
            ["M(u,v,w)", "M(x,y,z)", "M(w,w,y)", "M(z,z,v)"]

    def test_t_disconnected_but_projections_connect(self):
        phi = build_T()
        assert sorted(len(c) for c in sg.components(phi)) == [1, 10]
        for i in range(len(phi.constraints)):
            _, proj = project_enumerate(phi, i)
            from relconn.relations import components as rel_components
            assert len(rel_components(proj)) == 1

    def test_t_first_projection_is_m(self):
        vars_, proj = project_enumerate(build_T(), 0)
        assert vars_ == ("u", "v", "w")
        assert proj.members == M.members

    def test_t_two_variable_projection(self):
        # restricted to (w, y) the solutions trace out the implication w -> y
        phi = build_T()
        iw = phi.variables.index("w")
        iy = phi.variables.index("y")
        image = {s[iw] + s[iy] for s in solution_strings(phi)}
        assert image == {"00", "01", "11"}

    def test_f_isolated_solutions(self):
        phi = build_F()
        assert phi.variables == ("x", "y", "z", "w")
        assert solution_strings(phi) == ["0000", "0110", "1001", "1100"]
        assert all(len(c) == 1 for c in sg.components(phi))

    def test_f_projections_connect_the_corners(self):
        phi = build_F()
        from relconn.relations import components as rel_components
        # images of the solutions 0000 and 1100 under each projection
        for i, pair in ((0, ("000", "110")), (1, ("000", "011"))):
            vars_, proj = project_enumerate(phi, i)
            position = {t: j for j, comp in enumerate(rel_components(proj))
                        for t in comp.tuples()}
            assert position[pair[0]] == position[pair[1]]


def relation_of_formula_raw(phi):
    """Enumerate a 3-variable formula by hand; ('x','y','z') order."""
    members = set()
    for bits in itertools.product((0, 1), repeat=3):
        asg = dict(zip(("x", "y", "z"), bits))
        if evaluate_raw(phi.relation_of, phi.constraints, asg):
            members.add((bits[0] << 2) | (bits[1] << 1) | bits[2])
    return frozenset(members)


class TestExpressM:
    def test_m_expresses_itself(self):
        outcome = express_m_details(M)
        assert outcome.shape == "M"
        assert len(outcome.formula.constraints) == 1
        assert relation_of_formula_raw(outcome.formula) == M.members

    def test_conp_formula_relation(self):
        phi = parse_formula(
            "var w x y z\nM(y,0,x)\nM(x,0,y)\nK(x,z,w)\nK(y,z,w)", CATALOG)
        rc = formula_relation(phi)
        assert rc.tuples() == ["0000", "0001", "0110", "0111",
                               "1000", "1110", "1111"]
        outcome = express_m_details(rc)
        assert outcome.shape == "K"
        assert outcome.slots == ("y", "x", "x", "z")
        assert [str(c) for c in outcome.formula.constraints] == \
            ["R(y,x,x,z)", "R(x,z,z,x)"]
        assert relation_of_formula_raw(outcome.formula) == M.members

    def test_k_and_l_fold(self):
        for name in ("K", "L"):
            outcome = express_m_details(CATALOG[name])
            assert outcome.shape == name
            assert len(outcome.formula.constraints) == 2
            assert relation_of_formula_raw(outcome.formula) == M.members

    def test_non_horn_rejected(self):
        with pytest.raises(ExpressionError):
            express_m(CATALOG["R_coNP"])

    def test_safe_relation_rejected(self):
        eq = Relation.from_tuples(2, [0, 3])
        with pytest.raises(ExpressionError):
            express_m(eq)

    def test_random_relations(self):
        rng = random.Random(31)
        shapes = set()
        for _ in range(15):
            rel = random_horn_not_safely_cw_ihsb_minus(rng, arity_max=6)
            outcome = express_m_details(rel)
            shapes.add(outcome.shape)
            assert relation_of_formula_raw(outcome.formula) == M.members
            for c in outcome.formula.constraints:
                assert outcome.formula.relation_of(c).members == rel.members
        assert len(shapes) >= 2

    def test_slots_cover_all_coordinates(self):
        rng = random.Random(37)
        for _ in range(8):
            rel = random_horn_not_safely_cw_ihsb_minus(rng, arity_max=5)
            outcome = express_m_details(rel)
            assert len(outcome.slots) == rel.arity
            assert set(outcome.slots) - {"0", "1"} == {"x", "y", "z"}


def m_times(rel):
    """M(x, y, z) x rel over the remaining coordinates: Horn, and never
    componentwise IHSB- since every component carries a copy of M."""
    k = rel.arity
    return Relation(k + 3, sum(1 << ((a << k) | b)
                               for a in M.members for b in rel.members))


def seeded_express_inputs(seed, count, arity_max):
    """Horn relations that are not safely componentwise IHSB-, every third
    one an M x Horn product, of arity 3 to arity_max."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 3 == 2:
            out.append(m_times(random_horn_relation(rng, rng.randint(1, arity_max - 3))))
        else:
            out.append(random_horn_not_safely_cw_ihsb_minus(rng, arity_max=arity_max))
    return out


def partition_loop(rel):
    """The identification loop the walk replaced: one apply_pattern per set
    partition, in the same (labels, arity, mask) form.  Every partition
    comes out, repeated images too."""
    for labels in set_partitions(rel.arity):
        image = apply_pattern(rel, ArgPattern(labels))
        yield labels, image.arity, image.mask


def implication_chain(k):
    """x1 -> x2 -> ... -> xk: Horn, one component, k + 1 tuples."""
    return Relation.from_tuples(k, ["0" * (k - j) + "1" * j for j in range(k + 1)],
                                "CHAIN")


def express_outcome(rel):
    """The whole express_m_details outcome as comparable data: formula text,
    shape and slots, or the error's type and message."""
    try:
        out = express_m_details(rel)
    except RelconnError as exc:
        return type(exc).__name__, str(exc)
    return format_formula(out.formula), out.shape, out.slots


def counting_walk(monkeypatch):
    """Route constructions' identification walk through a call counter."""
    calls = []
    real = constructions.walk_identifications

    def walk(rel):
        calls.append(rel)
        return real(rel)

    monkeypatch.setattr(constructions, "walk_identifications", walk)
    return calls


# Horn but not IHSB-: no negative clause, positive unit or implication that
# holds on it excludes 011.  Its components {000, 001, 010} and {111}, and
# those of every identification, are IHSB-.
SAFE_NOT_IHSB = Relation.from_tuples(3, ["000", "001", "010", "111"], "S")


def formula_state(rel, slots, alive):
    """express-m's step by the route it replaced: the pinned relation as a
    one-constraint formula, whose Horn clause set comes from to_clausal
    (without the constraint relations it was read off, which express-m's
    own steps do not keep)."""
    pinned = Relation(len(alive), conjunction_space(alive, [(rel.mask, rel.arity, slots)]))
    if pinned.is_empty:
        raise ExpressionError("pinning left the constraint unsatisfiable")
    phi = make_formula([Constraint("R", alive)], {"R": pinned.renamed("R")}, alive)
    view = dataclasses.replace(horn.normalize(to_clausal(phi, HORN)),
                               constraint_relations=())
    if horn.solution_space(view) != pinned.mask:
        raise ExpressionError("internal: normalized Horn view lost track of the relation")
    return constructions._State(slots, view)


SAMPLE_RELATIONS = [rel for path in sorted(
    (Path(__file__).resolve().parent.parent / "samples").glob("*.rel"))
    for rel in parse_relations(path.read_text()).values()]


class TestExpressMState:
    def test_state_matches_formula_route(self, monkeypatch):
        """Every step's view, and so every outcome, is the one the formula
        route gives: the same clauses in the same order."""
        rels = seeded_express_inputs(59, 30, 7) + SAMPLE_RELATIONS + [
            CATALOG["R_coNP"], SAFE_NOT_IHSB, CATALOG["K"], CATALOG["L"]]
        real = constructions._state
        steps = []

        def both(rel, slots, alive):
            got = real(rel, slots, alive)
            assert got == formula_state(rel, slots, alive)
            steps.append(alive)
            return got

        for rel in rels:
            direct = express_outcome(rel)
            with monkeypatch.context() as m:
                m.setattr(constructions, "_state", formula_state)
                assert express_outcome(rel) == direct
            with monkeypatch.context() as m:
                m.setattr(constructions, "_state", both)
                assert express_outcome(rel) == direct
        assert len(steps) > 40

    def test_ten_or_more_names_read_in_sorted_order(self):
        # c10 sorts before c2, so slot order and name order part here
        rng = random.Random(61)
        for arity in (10, 11):
            names = tuple(f"c{j + 1}" for j in range(arity))
            for density in (0.005, 0.01):
                rel = random_horn_relation(rng, arity, density)
                assert constructions._state(rel, list(names), names) == \
                    formula_state(rel, list(names), names)

    def test_wrong_view_is_caught(self, monkeypatch):
        """A normal form that loses a clause no longer matches the pinned
        relation, and the per-step check says so."""
        real = horn.normalize

        def drop_last(view):
            out = real(view)
            return ClauseSet(HORN, out.variables, out.clauses[:-1])

        monkeypatch.setattr(horn, "normalize", drop_last)
        with pytest.raises(ExpressionError, match="lost track of the relation"):
            express_m_details(M)

    def test_empty_pin_raises(self):
        # no tuple of M starts with 1 and ends with 0
        with pytest.raises(ExpressionError, match="unsatisfiable"):
            constructions._state(M, ["1", "y", "0"], ("y",))

    def test_high_arity_raises_at_once(self, tmp_path, capsys):
        chain = implication_chain(11)
        start = time.perf_counter()
        with pytest.raises(ArityLimitError):
            express_m_details(chain)
        assert time.perf_counter() - start < 1.0
        path = tmp_path / "chain.rel"
        path.write_text(f"rel CHAIN 11 : {' '.join(chain.tuples())}\n")
        start = time.perf_counter()
        assert main(["express-m", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "arity" in capsys.readouterr().err

    def test_first_candidate_matches_partition_loop(self, monkeypatch):
        for rel in seeded_express_inputs(41, 24, 7):
            src = rel.renamed("R")
            walked = constructions._choose(src)
            with monkeypatch.context() as m:
                m.setattr(constructions, "walk_identifications", partition_loop)
                looped = constructions._choose(src)
            assert walked == looped  # pinned state, c*

    def test_outcome_matches_partition_loop(self, monkeypatch):
        rels = seeded_express_inputs(47, 30, 7) + [
            CATALOG["R_coNP"], SAFE_NOT_IHSB, implication_chain(4), M,
            CATALOG["K"], CATALOG["L"]]
        for rel in rels:
            walked = express_outcome(rel)
            with monkeypatch.context() as m:
                m.setattr(constructions, "walk_identifications", partition_loop)
                assert express_outcome(rel) == walked

    def test_error_paths(self, monkeypatch):
        calls = counting_walk(monkeypatch)
        with pytest.raises(ExpressionError, match="not Horn"):
            express_m_details(CATALOG["R_coNP"])
        assert calls == []
        # IHSB-: settled by the polymorphism, no walk at all
        with pytest.raises(ExpressionError, match="safely componentwise"):
            express_m_details(implication_chain(4))
        assert calls == []
        # not IHSB-, but no identification fails: one full walk decides
        assert not check_property(SAFE_NOT_IHSB, IHSB_MINUS)
        assert profile(SAFE_NOT_IHSB).safely_componentwise_ihsb_minus
        with pytest.raises(ExpressionError, match="safely componentwise"):
            express_m_details(SAFE_NOT_IHSB)
        assert len(calls) == 1
        with pytest.raises(ArityLimitError):
            express_m_details(m_times(implication_chain(8)))
        assert len(calls) == 2

    def test_one_walk_per_call(self, monkeypatch):
        calls = counting_walk(monkeypatch)
        rels = seeded_express_inputs(53, 12, 7)
        for rel in rels:
            express_m_details(rel)
        assert len(calls) == len(rels)

    def test_every_horn_relation_of_arity_3_and_4(self, monkeypatch):
        """One construction path: each relation that is not safely
        componentwise IHSB- reaches M with exactly one _finish call, and
        every other Horn relation is rejected before it."""
        finishes = []
        real = constructions._finish

        def counted(*args):
            finishes.append(args)
            return real(*args)

        monkeypatch.setattr(constructions, "_finish", counted)
        expressed = 0
        for k in (3, 4):
            for mask in range(1 << (1 << k)):
                rel = Relation(k, mask)
                if not check_property(rel, HORN):
                    continue
                before = len(finishes)
                try:
                    outcome = express_m_details(rel)
                except ExpressionError as exc:
                    assert str(exc) == constructions._SAFE
                    assert len(finishes) == before
                    continue
                assert len(finishes) == before + 1
                assert relation_of_formula_raw(outcome.formula) == M.members
                expressed += 1
        assert expressed == 2593

    def test_failing_step_is_not_retried(self, monkeypatch, capsys):
        calls = []

        def broken(*args):
            calls.append(args)
            raise ExpressionError("internal: the shape check broke")

        monkeypatch.setattr(constructions, "_shape_outcome", broken)
        for rel in seeded_express_inputs(43, 12, 8):
            with pytest.raises(ExpressionError) as exc:
                express_m_details(rel)
            assert str(exc.value) == "internal: the shape check broke"
        assert len(calls) == 12
        m_rel = Path(__file__).resolve().parent.parent / "samples" / "m.rel"
        assert main(["express-m", str(m_rel)]) == 2
        assert capsys.readouterr() == (
            "", "relconn: error: internal: the shape check broke\n")
        assert len(calls) == 13

    def test_seeded_sweep_reaches_m(self):
        shapes = set()
        arities = set()
        for rel in seeded_express_inputs(43, 36, 8):
            outcome = express_m_details(rel)
            shapes.add(outcome.shape)
            arities.add(rel.arity)
            assert formula_relation(outcome.formula) == M
            assert len(outcome.slots) == rel.arity
            for c in outcome.formula.constraints:
                assert outcome.formula.relation_of(c).mask == rel.mask
        assert shapes == {"M", "K", "L"}
        assert arities == set(range(3, 9))
