"""Formula parsing, evaluation, and clause extraction."""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relconn import formulas
from relconn.bitspace import conjunction_space, coord_mask, full_mask
from relconn.catalog import CATALOG, parse_relations
from relconn.cpss import random_formula
from relconn.errors import (ClauseExtractionError, FormulaError,
                            FormulaParseError)
from relconn.formulas import (CONSTANTS, ClauseSet, CnfClause, Constraint,
                              XorEquation, constraint_relation, evaluate,
                              format_formula, make_formula, parse_formula,
                              to_clausal)
from relconn.relations import (AFFINE, BIJUNCTIVE, DUAL_HORN, HORN, Relation,
                               check_property, hull)

from clausal_oracle import first_group_difference
from closure_oracle import close_under, op_and, op_maj, op_or, op_xor3
from random_inputs import random_cpss_pool, random_relation

SHAPES = (BIJUNCTIVE, HORN, DUAL_HORN)


def parse(text):
    return parse_formula(text, CATALOG)


@pytest.fixture
def fresh_templates():
    """to_clausal's template cache, emptied before and after the test, so
    that templates a patched extractor made are not kept."""
    formulas._TEMPLATES.clear()
    yield
    formulas._TEMPLATES.clear()


class TestParsing:
    def test_basic(self):
        phi = parse("var x y z\nM(x,y,z)\nOR(x,z)")
        assert phi.variables == ("x", "y", "z")
        assert [str(c) for c in phi.constraints] == ["M(x,y,z)", "OR(x,z)"]

    def test_variable_order_defaults_to_first_appearance(self):
        phi = parse("M(b,a,c)")
        assert phi.variables == ("b", "a", "c")

    def test_constants_and_repeats(self):
        phi = parse("M(x,0,x)")
        assert phi.variables == ("x",)
        assert evaluate(phi, {"x": 0}) and evaluate(phi, {"x": 1})

    def test_inline_relation_overrides_nothing(self):
        with pytest.raises(FormulaParseError):
            parse("rel M 2 : 00 11\nvar x y\nM(x,y)")

    def test_inline_relation_matching_is_fine(self):
        phi = parse("rel M 3 : 000 001 010 101 111\nvar x y z\nM(x,y,z)")
        assert phi.relation_of(phi.constraints[0]) == CATALOG["M"]

    def test_unknown_relation(self):
        with pytest.raises(FormulaParseError):
            parse("var x y\nFOO(x,y)")

    def test_arity_mismatch(self):
        with pytest.raises(FormulaError):
            parse("var x y\nM(x,y)")

    def test_undeclared_variable(self):
        with pytest.raises(FormulaError):
            parse("var x\nOR(x,y)")

    def test_no_constraints(self):
        with pytest.raises(FormulaError):
            parse("var x y\n# nothing\n")

    def test_roundtrip(self):
        phi = parse("var x y z w\nM(x,y,1)\nK(z,w,x)")
        again = parse_formula(format_formula(phi), {})
        assert again.variables == phi.variables
        assert [str(c) for c in again.constraints] == \
            [str(c) for c in phi.constraints]
        for c, d in zip(phi.constraints, again.constraints):
            assert phi.relation_of(c).members == again.relation_of(d).members
        # the rel line carries the library key the constraints use, not the
        # relation's own name, which may be missing or another one
        for name in (None, "X"):
            imp = Relation.from_tuples(2, [0, 1, 3], name)
            phi = make_formula([Constraint("IMP", ("x", "y"))], {"IMP": imp})
            text = format_formula(phi)
            assert text == "rel IMP 2 : 00 01 11\nvar x y\nIMP(x,y)\n"
            again = parse_formula(text, {})
            assert again.relation_of(again.constraints[0]) == imp


class TestEvaluate:
    def test_triangle(self):
        phi = parse("rel IMP 2 : 00 10 11\nvar x y z\n"
                    "IMP(x,y)\nIMP(y,z)\nIMP(z,x)")
        sols = [a for a in itertools.product((0, 1), repeat=3)
                if evaluate(phi, dict(zip("xyz", a)))]
        assert sols == [(0, 0, 0), (1, 1, 1)]

    def test_constants(self):
        phi = parse("var x\nOR(x,0)")
        assert not evaluate(phi, {"x": 0})
        assert evaluate(phi, {"x": 1})


def space_by_evaluate(phi):
    """Bitmask of the assignments evaluate accepts, first variable as the
    most significant bit."""
    n = phi.n
    return sum(1 << i for i in range(1 << n)
               if evaluate(phi, {v: (i >> (n - 1 - j)) & 1
                                 for j, v in enumerate(phi.variables)}))


def items_of(phi):
    return [(phi.relation_of(c).mask, len(c.args), c.args) for c in phi.constraints]


class TestConjunctionSpace:
    """bitspace.conjunction_space against evaluate."""

    def check(self, phi):
        assert conjunction_space(phi.variables, items_of(phi)) == space_by_evaluate(phi)
        for c in phi.constraints:
            one = make_formula([c], phi.library, phi.variables)
            assert conjunction_space(one.variables, items_of(one)) == \
                space_by_evaluate(one), c

    @pytest.mark.parametrize("text, want", [
        # S over (x, 0, x): the tuples that agree with the constant and the
        # repeat are 000 and 101, one of them a member: the members' side
        ("rel S 3 : 101 110\nvar x y\nS(x,0,x)", 0b1100),
        # P over (x, y, x): 000, 010, 101 and 111 agree with the repeat,
        # three of them members: the non-members' side
        ("var x y\nP(x,y,x)", 0b1110),
        ("var x y\nK(x,1,y)\nM(y,0,x)", 0b1101),
        # arguments all constants: a member keeps every assignment, a
        # non-member none
        ("var x y\nOR(1,0)\nOR(x,y)", 0b1110),
        ("var x y\nOR(x,y)\nNAND(1,1)", 0),
        ("var\nOR(0,1)", 1),
        ("var\nNAND(1,1)", 0),
    ])
    def test_fixed_cases(self, text, want):
        phi = parse(text)
        assert conjunction_space(phi.variables, items_of(phi)) == want
        self.check(phi)

    def test_seeded_formulas(self):
        rng = random.Random(13)
        for _ in range(150):
            pool = []
            for j in range(3):
                k = rng.randint(1, 5)
                # sparse and dense relations, so both sides get built
                density = rng.choice((0.15, 0.5, 0.85))
                pool.append(Relation.from_tuples(
                    k, [t for t in range(1 << k) if rng.random() < density], f"R{j}"))
            self.check(random_formula(rng, pool, max_vars=6, max_constraints=4,
                                      const_prob=0.3))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5), st.data())
    def test_hypothesis_formulas(self, n, data):
        variables = tuple(f"v{j}" for j in range(n))
        library = {}
        constraints = []
        for j in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(1, 4))
            library[f"R{j}"] = Relation(k, data.draw(st.integers(0, (1 << (1 << k)) - 1)))
            args = data.draw(st.lists(st.sampled_from(variables + ("0", "1")),
                                      min_size=k, max_size=k))
            constraints.append(Constraint(f"R{j}", tuple(args)))
        self.check(make_formula(constraints, library, variables))


class TestConstraintRelation:
    def test_collapses_and_sorts(self):
        phi = parse("var b a\nM(b,a,b)")
        vars_, rel = constraint_relation(phi, 0)
        assert vars_ == ("a", "b")
        # (b,a,b) hits 000, 010, 101, 111: every (a,b) combination
        assert rel == Relation.from_tuples(2, ["00", "01", "10", "11"])

    def test_constants_drop_out(self):
        phi = parse("var x y\nK(x,0,y)")
        vars_, rel = constraint_relation(phi, 0)
        assert vars_ == ("x", "y")
        members = {t for t in ("00", "01", "10", "11")
                   if int(t[0] + "0" + t[1], 2) in CATALOG["K"].members}
        assert set(rel.tuples()) == members


def fold_by_tuples(rel, args):
    """The fold of constraint_relation by one membership test per target
    tuple, independent of the package's fold routines: target tuple t over
    the sorted distinct variables picks the source tuple that puts each
    variable's bit in its slots and each constant in its own."""
    vars_ = sorted(set(args) - CONSTANTS)
    k = len(vars_)
    mask = 0
    for t in range(1 << k):
        bit = {v: (t >> (k - 1 - j)) & 1 for j, v in enumerate(vars_)}
        s = int("".join(a if a in CONSTANTS else str(bit[a]) for a in args), 2)
        mask |= ((rel.mask >> s) & 1) << t
    return tuple(vars_), Relation(k, mask)


class TestFoldOracle:
    """constraint_relation's fold, by conjunction_space, against the fold by
    membership tests.  The names sort apart from their order of
    appearance, so the sorted variables are not slot order."""

    def check(self, rel, args):
        phi = make_formula([Constraint("R", args)], {"R": rel.renamed("R")})
        assert constraint_relation(phi, 0) == fold_by_tuples(rel, args), (args, rel.mask)

    def test_every_pattern_and_mask_up_to_arity_3(self):
        for k in range(1, 4):
            for args in itertools.product(("0", "1", "c", "a", "b"), repeat=k):
                if not CONSTANTS.issuperset(args):
                    for mask in range(1 << (1 << k)):
                        self.check(Relation(k, mask), args)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hypothesis_up_to_arity_10(self, data):
        k = data.draw(st.integers(1, 10))
        rel = Relation(k, data.draw(st.integers(0, (1 << (1 << k)) - 1)))
        args = tuple(data.draw(st.lists(st.sampled_from(
            ("0", "1", "q", "b", "z", "a", "m")), min_size=k, max_size=k)))
        if not CONSTANTS.issuperset(args):
            self.check(rel, args)


class TestTemplateMemo:
    """to_clausal keeps each folded relation's translation over coordinates
    in formulas._TEMPLATES, within TEMPLATES_KEPT entries of at most
    TEMPLATE_CLAUSES_MAX clauses, and a kept one reads as a fresh one."""

    def test_memo_equals_fresh(self, fresh_templates):
        rng = random.Random(31)
        cases = []
        for _ in range(60):
            kind = rng.choice((BIJUNCTIVE, HORN, DUAL_HORN, AFFINE))
            rel = random_relation(rng, rng.randint(1, 6), rng.choice((0.2, 0.5)))
            cases.append((hull(rel, kind) if rng.random() < 0.6 else rel, kind))
        cases += cases[:10]
        memo = [formulas._clause_templates(*case) for case in cases]
        assert None in memo and any(memo)
        assert len(formulas._TEMPLATES) < len(cases)
        for case, got in zip(cases, memo):
            formulas._TEMPLATES.clear()
            assert got == formulas._clause_templates(*case)

    def test_bounded(self, fresh_templates):
        for mask in range(1, formulas.TEMPLATES_KEPT + 20):
            formulas._clause_templates(Relation(4, mask), HORN)
            assert len(formulas._TEMPLATES) <= formulas.TEMPLATES_KEPT
        assert len(formulas._TEMPLATES) == formulas.TEMPLATES_KEPT
        assert (1, 4, HORN) not in formulas._TEMPLATES  # the oldest went first
        assert (formulas.TEMPLATES_KEPT + 19, 4, HORN) in formulas._TEMPLATES

    def test_long_translations_are_not_kept(self, fresh_templates):
        # "at most two ones, or all ones" over 8 coordinates has 280 prime
        # Horn clauses; the one tuple 00000000 has 8 equations, the most kept
        wide = Relation.from_tuples(8, [t for t in (format(a, "08b") for a in range(256))
                                        if t.count("1") <= 2 or t == "11111111"])
        got = formulas._clause_templates(wide, HORN)
        assert len(got) == 280 and not formulas._TEMPLATES
        assert got == formulas._clause_templates(wide, HORN)
        point = Relation.from_tuples(8, ["00000000"])
        assert len(formulas._clause_templates(point, AFFINE)) == formulas.TEMPLATE_CLAUSES_MAX
        assert list(formulas._TEMPLATES) == [(point.mask, 8, AFFINE)]

    def test_wide_relations_are_not_kept(self, fresh_templates):
        # "the first coordinate is 0" over 9 coordinates: one short clause,
        # yet its mask is wider than the kept arities allow
        k = formulas.TABLES_KEPT_WIDTH_MAX + 1
        rel = Relation(k, (1 << (1 << (k - 1))) - 1)
        phi = make_formula([Constraint("R", tuple(f"x{j}" for j in range(k)))],
                           {"R": rel.renamed("R")})
        assert to_clausal(phi, HORN).clauses == (CnfClause(frozenset(), frozenset({"x0"})),)
        assert not formulas._TEMPLATES
        assert first_group_difference(phi, HORN) is None

    @pytest.mark.parametrize("kind", [HORN, AFFINE])
    def test_equal_relations_under_other_names(self, fresh_templates, kind):
        # R(a,b,0) and S(x,y,0) over equal masks fold to the same relation
        # over different names: one kept translation, and each constraint's
        # clauses over its own names
        rel = hull(Relation.from_tuples(3, ["000", "110"]), kind)
        phi = make_formula([Constraint("R", ("a", "b", "0")), Constraint("S", ("x", "y", "0"))],
                           {"R": rel.renamed("R"), "S": rel.renamed("S")})
        cs = to_clausal(phi, kind)
        (va, ra), (vx, rx) = cs.constraint_relations
        assert (va, vx) == (("a", "b"), ("x", "y")) and ra == rx
        assert list(formulas._TEMPLATES) == [(ra.mask, 2, kind)]
        rename = {"a": "x", "b": "y"}
        half = (len(cs.clauses) // 2, len(cs.equations) // 2)
        assert max(half) > 0
        assert [CnfClause(frozenset(map(rename.get, c.pos)), frozenset(map(rename.get, c.neg)))
                for c in cs.clauses[:half[0]]] == list(cs.clauses[half[0]:])
        assert [XorEquation(frozenset(map(rename.get, e.vars)), e.rhs)
                for e in cs.equations[:half[1]]] == list(cs.equations[half[1]:])
        assert first_group_difference(phi, kind) is None


def assignments(n):
    return itertools.product((0, 1), repeat=n)


def clause_models(cs, variables):
    """Evaluate a ClauseSet by brute force, independent of the package."""
    out = set()
    for a in assignments(len(variables)):
        env = dict(zip(variables, a))
        ok = all(any(env[v] for v in c.pos) or any(not env[v] for v in c.neg)
                 for c in cs.clauses)
        ok = ok and all(sum(env[v] for v in e.vars) % 2 == e.rhs
                        for e in cs.equations)
        if ok:
            out.add(a)
    return out


def formula_models(phi):
    return {a for a in assignments(phi.n)
            if evaluate(phi, dict(zip(phi.variables, a)))}


class TestToClausal:
    def test_horn_extraction_m(self):
        phi = parse("var x y z\nM(x,y,z)")
        cs = to_clausal(phi, HORN)
        texts = sorted(str(c) for c in cs.clauses)
        assert texts == ["x -y -z", "z -x"]
        assert clause_models(cs, phi.variables) == formula_models(phi)

    def test_wrong_class_rejected(self):
        phi = parse("var x y z\nM(x,y,z)")
        with pytest.raises(ClauseExtractionError):
            to_clausal(phi, BIJUNCTIVE)
        with pytest.raises(ClauseExtractionError):
            to_clausal(phi, "2-cnf")

    def test_clause_set_checks_itself(self):
        x_or_y = CnfClause(frozenset({"x", "y"}), frozenset())
        with pytest.raises(ClauseExtractionError, match="unknown clause class '2-cnf'"):
            ClauseSet("2-cnf", ("x", "y"))
        with pytest.raises(ClauseExtractionError, match="clause x y is not affine"):
            ClauseSet(AFFINE, ("x", "y"), (x_or_y,))
        with pytest.raises(FormulaError, match=r"clause x y uses undeclared \['y'\]"):
            ClauseSet(BIJUNCTIVE, ("x",), (x_or_y,))
        with pytest.raises(FormulaError, match=r"equation uses undeclared \['z'\]"):
            ClauseSet(AFFINE, ("x",), (), (XorEquation(frozenset({"x", "z"}), 1),))
        assert ClauseSet(BIJUNCTIVE, ("x", "y"), (x_or_y,)).n == 2

    def test_affine_equations(self):
        phi = parse("rel X3 3 : 001 010 100 111\nvar a b c\nX3(a,b,c)")
        cs = to_clausal(phi, AFFINE)
        assert cs.clauses == ()
        assert clause_models(cs, phi.variables) == formula_models(phi)

    def test_random_equivalence_all_classes(self):
        rng = random.Random(11)
        cases = 0
        for _ in range(300):
            arity = rng.randint(1, 3)
            rel = Relation.from_tuples(
                arity, [t for t in range(2 ** arity) if rng.random() < 0.5], "R")
            args = tuple(rng.choice(("a", "b", "c", "0", "1"))
                         for _ in range(arity))
            if not any(x not in "01" for x in args):
                continue
            try:
                phi = make_formula([Constraint("R", args)], {"R": rel})
            except FormulaError:
                continue
            for cls in (BIJUNCTIVE, HORN, DUAL_HORN, AFFINE):
                vars_, crel = constraint_relation(phi, 0)
                if not check_property(crel, cls):
                    continue
                cs = to_clausal(phi, cls)
                assert clause_models(cs, phi.variables) == formula_models(phi)
                assert cs.constraint_relations == ((vars_, crel),)
                assert first_group_difference(phi, cls) is None
                cases += 1
        assert cases > 150

    @pytest.mark.parametrize("kind", (BIJUNCTIVE, HORN, DUAL_HORN, AFFINE))
    def test_whole_formula_enumeration(self, kind):
        # the enumeration oracle over all 2^n assignments of many-constraint
        # formulas, and the clause oracle one constraint at a time
        rng = random.Random(40 + len(kind))
        for _ in range(6):
            pool = random_cpss_pool(rng, kind, 4)
            for _ in range(10):
                phi = random_formula(rng, pool, 10, 6, const_prob=0.2)
                cs = to_clausal(phi, kind)
                assert clause_models(cs, phi.variables) == formula_models(phi)
                assert first_group_difference(phi, kind) is None

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((BIJUNCTIVE, HORN, DUAL_HORN, AFFINE)), st.data())
    def test_hypothesis_groups_define_their_relations(self, kind, data):
        # hulls in the class of random relations of arity 1-5, under
        # arguments with constants and repeats, on up to 20 variables: past
        # the enumeration oracle's reach, the groups are checked one by one
        variables = tuple(f"v{j}" for j in range(data.draw(st.integers(1, 20))))
        library = {}
        constraints = []
        for j in range(data.draw(st.integers(1, 6))):
            k = data.draw(st.integers(1, 5))
            rel = Relation(k, data.draw(st.integers(0, (1 << (1 << k)) - 1)))
            library[f"R{j}"] = hull(rel, kind)
            args = data.draw(st.lists(st.sampled_from(variables + ("0", "1")),
                                      min_size=k, max_size=k))
            constraints.append(Constraint(f"R{j}", tuple(args)))
        phi = make_formula(constraints, library, variables)
        assert first_group_difference(phi, kind) is None

    @pytest.mark.parametrize("n", (6, 20))
    @pytest.mark.parametrize("kind, extractor, tuples, args, corrupt", [
        pytest.param(HORN, "_prime_rows", ["00", "01", "11"], ("a", "b"),
                     lambda out: out[1:], id="horn-cnf_implicates-tuples0"),
        pytest.param(AFFINE, "_xor_basis", ["00", "11"], ("a", "b"),
                     lambda out: out[1:], id="affine-_xor_basis-tuples1"),
        # R(a,0,a,b) is a -> b; the tuples with a 1 in the constant's slot,
        # or with the repeated slots apart, would add 10 if read wrongly
        pytest.param(HORN, "_prime_rows", ["0000", "0001", "1011", "1110", "1000"],
                     ("a", "0", "a", "b"), lambda out: out[1:],
                     id="horn-constant-repeat"),
        # R(a,0,a,b) is a + b = 1; flipping the right-hand side keeps the
        # equation's variables but swaps its solutions
        pytest.param(AFFINE, "_xor_basis", ["0001", "1010", "0100", "1000"],
                     ("a", "0", "a", "b"),
                     lambda out: [(names, rhs ^ 1) for names, rhs in out],
                     id="affine-flipped-rhs"),
    ])
    def test_dropped_clause_is_caught(self, monkeypatch, fresh_templates, n, kind,
                                      extractor, tuples, args, corrupt):
        # a chain R(x0,x1), ..., R(x_{n-2},x_{n-1}), with a, b in args
        # standing for x_i, x_{i+1}; each constraint has one clause or
        # equation, so corrupting it changes the solutions.  to_clausal
        # trusts its extractors, so the clause oracle, which checks one
        # constraint at a time and so at any n, must report the difference.
        rel = Relation.from_tuples(len(args), tuples, "R")
        phi = make_formula(
            [Constraint("R", tuple({"a": f"x{i}", "b": f"x{i + 1}"}.get(a, a)
                                   for a in args))
             for i in range(n - 1)], {"R": rel})
        cs = to_clausal(phi, kind)
        assert len(cs.clauses) + len(cs.equations) == n - 1
        assert first_group_difference(phi, kind) is None
        original = getattr(formulas, extractor)
        monkeypatch.setattr(formulas, extractor,
                            lambda *a: corrupt(original(*a)))
        formulas._TEMPLATES.clear()  # a kept translation skips the extractor
        corrupted = to_clausal(phi, kind)
        assert (corrupted.clauses, corrupted.equations) != (cs.clauses, cs.equations)
        found = first_group_difference(phi, kind)
        assert found is not None
        assert found[0] == phi.constraints[0]
        assert tuple(found[1]) == constraint_relation(phi, 0)[0]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(0, (1 << (1 << k)) - 1))))
    @example((3, 0))
    @example((3, 255))
    def test_xor_basis_defines_affine_hull(self, case):
        k, mask = case
        vars_ = tuple(f"x{j}" for j in range(k))
        eqs = formulas._xor_basis(vars_, mask)
        defined = 0
        for t in range(1 << k):
            asg = {v: (t >> (k - 1 - j)) & 1 for j, v in enumerate(vars_)}
            if all(sum(asg[v] for v in names) % 2 == rhs for names, rhs in eqs):
                defined |= 1 << t
        assert defined == close_under(Relation(k, mask), [op_xor3]).mask
        if mask == 0:
            assert (frozenset(), 1) in eqs
        if mask == (1 << (1 << k)) - 1:
            assert eqs == []

    @pytest.mark.parametrize("kind", (BIJUNCTIVE, HORN, DUAL_HORN, AFFINE))
    def test_constraints_on_constants_alone(self, kind):
        # a true one adds nothing, a false one the empty clause or 0 = 1;
        # constraint_relations keeps one entry per constraint
        rel = Relation.from_tuples(2, ["00", "11"] if kind == AFFINE
                                   else ["00", "01", "11"], "R")
        for args in ("00", "01", "10", "11"):
            phi = make_formula([Constraint("R", ("x", "y")), Constraint("R", tuple(args)),
                                Constraint("R", ("y", "x"))], {"R": rel})
            cs = to_clausal(phi, kind)
            assert clause_models(cs, phi.variables) == formula_models(phi)
            assert cs.constraint_relations == (constraint_relation(phi, 0), ((), None),
                                               constraint_relation(phi, 2))
            false = int(args, 2) not in rel
            empty = [c for c in cs.clauses if not c.pos and not c.neg] + \
                [e for e in cs.equations if not e.vars]
            assert len(empty) == false
            assert not false or empty in ([CnfClause(frozenset(), frozenset())],
                                          [XorEquation(frozenset(), 1)])

    @pytest.mark.parametrize("kind", (BIJUNCTIVE, HORN, DUAL_HORN, AFFINE))
    def test_raises_iff_outside_the_class(self, monkeypatch, kind):
        # one check_property call per constraint decides, on the folded
        # relation; the clauses of a relation inside the class define it.  A
        # third of the relations are hulls in the class, so both answers
        # come up often.
        rng = random.Random(f"outside-{kind}")
        calls = []
        original = formulas.check_property

        def counting(rel, prop):
            calls.append(prop)
            return original(rel, prop)

        monkeypatch.setattr(formulas, "check_property", counting)
        seen = {True: 0, False: 0}
        for _ in range(300):
            k = rng.randint(1, 6)
            rel = random_relation(rng, k, rng.choice((0.2, 0.5, 0.8)))
            if rng.random() < 0.3:
                rel = hull(rel, kind)
            args = tuple(rng.choice("01") if rng.random() < 0.1
                         else rng.choice("abcdefgh") for _ in range(k))
            if CONSTANTS.issuperset(args):
                continue
            phi = make_formula([Constraint("R", args)], {"R": rel.renamed("R")})
            inside = original(constraint_relation(phi, 0)[1], kind)
            seen[inside] += 1
            before = len(calls)
            formulas._TEMPLATES.clear()  # a kept translation makes no call
            if inside:
                assert clause_models(to_clausal(phi, kind), phi.variables) == \
                    formula_models(phi)
                assert calls[before:] == [kind]
            else:
                with pytest.raises(ClauseExtractionError, match=re.escape(
                        f"constraint R({','.join(args)}) is not {kind}")):
                    to_clausal(phi, kind)
                assert calls[before:] == [kind]
        assert min(seen.values()) > 50, seen

    def test_empty_relation_gives_empty_clause(self):
        phi = parse("rel NONE 2 : \nvar x y\nNONE(x,y)")
        cs = to_clausal(phi, HORN)
        assert clause_models(cs, phi.variables) == set()


def member_loop_implicates(vars_, mask, shape):
    """Prime implicates of the shape by testing each candidate clause
    against every member tuple, then keeping the minimal literal sets
    among the valid ones: the reference for formulas.cnf_implicates."""
    k = len(vars_)
    coords = list(range(k))
    members = [t for t in range(1 << k) if (mask >> t) & 1]

    def clause_valid(pos_mask, neg_mask):
        return all((t & pos_mask) != 0 or (t & neg_mask) != neg_mask
                   for t in members)

    def mask_of(coord_set):
        return sum(1 << (k - 1 - c) for c in coord_set)

    candidates = [((), ())]
    if shape == BIJUNCTIVE:
        for width in (1, 2):
            for sel in itertools.combinations(coords, width):
                for signs in range(1 << width):
                    pos = tuple(c for b, c in enumerate(sel) if signs >> b & 1)
                    neg = tuple(c for b, c in enumerate(sel) if not signs >> b & 1)
                    candidates.append((pos, neg))
    else:
        for width in range(1, k + 1):
            for sel in itertools.combinations(coords, width):
                candidates.append(((), sel))
                for h in sel:
                    candidates.append(((h,), tuple(c for c in sel if c != h)))
        if shape == DUAL_HORN:
            candidates = [(neg, pos) for pos, neg in candidates]
    valid = [(frozenset(vars_[c] for c in pos), frozenset(vars_[c] for c in neg))
             for pos, neg in candidates if clause_valid(mask_of(pos), mask_of(neg))]
    lits = [(p | frozenset("-" + v for v in n), p, n) for p, n in valid]
    lits.sort(key=lambda x: len(x[0]))
    prime, kept = [], []
    for ls, p, n in lits:
        if not any(k2 <= ls for k2 in kept):
            kept.append(ls)
            prime.append(CnfClause(p, n))
    return prime


class TestCnfImplicates:
    """Prime clauses read off falsifying cells against the member loop."""

    @staticmethod
    def check(k, mask, shape):
        vars_ = tuple(f"x{j}" for j in range(k))
        want = member_loop_implicates(vars_, mask, shape)
        assert formulas.cnf_implicates(vars_, mask, shape) == want
        return want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.just(k), st.integers(0, (1 << (1 << k)) - 1),
        st.sampled_from(SHAPES))))
    @example((1, 0, HORN))
    @example((6, 0, BIJUNCTIVE))
    @example((6, (1 << 64) - 1, DUAL_HORN))
    def test_hypothesis(self, case):
        self.check(*case)

    def test_seeded(self):
        # random masks, and their closures under each shape's operation so
        # that narrow clauses hold and the prime filter has work to do
        rng = random.Random(12)
        ops = {BIJUNCTIVE: [op_maj], HORN: [op_and], DUAL_HORN: [op_or]}
        for k in range(1, 7):
            full = (1 << (1 << k)) - 1
            for shape in SHAPES:
                assert self.check(k, 0, shape) == [CnfClause(frozenset(), frozenset())]
                assert self.check(k, full, shape) == []
                sizes = set()
                for _ in range(12):
                    rel = Relation(k, rng.getrandbits(1 << k) & rng.getrandbits(1 << k))
                    for r in (rel, close_under(rel, ops[shape])):
                        sizes.add(len(self.check(k, r.mask, shape)))
                assert k == 1 or max(sizes) > 1

    def test_every_width_against_member_loop(self):
        # widths 0 to one past the kept tables, so the kept and the lazily
        # made rows both meet the reference; seeded masks of a few densities
        # and their hulls, under which narrow clauses hold
        rng = random.Random(20)
        for k in range(formulas.TABLES_KEPT_WIDTH_MAX + 2):
            full = (1 << (1 << k)) - 1
            masks = [0, full] + [rng.getrandbits(1 << k) & rng.getrandbits(1 << k)
                                 for _ in range(3)]
            # and sparse ones, whose hulls stay apart from the full cube
            masks += [sum(1 << rng.randrange(1 << k) for _ in range(k)) for _ in range(2)]
            for shape in SHAPES:
                closed = masks if k == 0 else \
                    masks + [hull(Relation(k, m), shape).mask for m in masks]
                sizes = {len(self.check(k, m, shape)) for m in closed}
                assert k < 2 or max(sizes) > 1

    def test_wide_call_keeps_no_table(self):
        k = formulas.TABLES_KEPT_WIDTH_MAX + 1
        for shape in SHAPES:  # so that the widest kept tables exist
            self.check(k - 1, 0b0110 << 3, shape)
        kept = dict(formulas._TABLES)
        for shape in SHAPES:
            self.check(k, random.Random(k).getrandbits(1 << k), shape)
        assert formulas._TABLES.keys() == kept.keys()
        assert all(formulas._TABLES[key] is rows for key, rows in kept.items())

    @pytest.mark.parametrize("k", [0, 2, formulas.TABLES_KEPT_WIDTH_MAX + 1])
    @pytest.mark.parametrize("shape", [AFFINE, "2-cnf", ""])
    def test_unknown_shape_raises_and_keeps_nothing(self, k, shape):
        vars_ = tuple(f"x{j}" for j in range(k))
        kept = dict(formulas._TABLES)
        with pytest.raises(ClauseExtractionError, match="no clause shape"):
            formulas.cnf_implicates(vars_, 1, shape)
        assert formulas._TABLES == kept

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rows_name_their_shorter_clauses(self, shape):
        # a row's shorter rows are exactly the clauses of the shape with one
        # literal fewer, and its cell is the tuples falsifying its clause
        for k in range(formulas.TABLES_KEPT_WIDTH_MAX + 2):
            rows = list(formulas._candidate_rows(k, shape))
            where = {(pos, neg): i for i, (_, pos, neg, _) in enumerate(rows)}
            assert len(where) == len(rows)
            for i, (cell, pos, neg, shorter) in enumerate(rows):
                want = {where[pos[:j] + pos[j + 1:], neg] for j in range(len(pos))} \
                    | {where[pos, neg[:j] + neg[j + 1:]] for j in range(len(neg))}
                assert set(shorter) == want and len(shorter) == len(want)
                assert max(shorter, default=-1) < i
                if k <= 6:
                    assert cell == sum(1 << t for t in range(1 << k)
                                       if all(not t >> (k - 1 - c) & 1 for c in pos)
                                       and all(t >> (k - 1 - c) & 1 for c in neg))


    @pytest.mark.parametrize("shape", SHAPES)
    def test_cells_match_an_and_chain_above_the_kept_tables(self, shape):
        # the cells made as the pass reads them equal one AND per literal
        for k in range(9, 12):
            full = full_mask(k)
            ones = [coord_mask(k, k - 1 - c) for c in range(k)]
            for cell, pos, neg, _ in formulas._candidate_rows(k, shape):
                want = full
                for c in pos:
                    want &= full ^ ones[c]
                for c in neg:
                    want &= ones[c]
                assert cell == want, (k, pos, neg)


class TestCatalogFile:
    def test_parse_relations_roundtrip(self):
        text = "rel A 2 : 01 10\nrel B 1 : 1\n"
        rels = parse_relations(text)
        assert list(rels) == ["A", "B"]
        assert rels["A"].tuples() == ["01", "10"]

    def test_conflicting_redefinition(self):
        with pytest.raises(FormulaParseError):
            parse_relations("rel A 2 : 01\nrel A 2 : 10\n")

    @pytest.mark.parametrize("line", ["rel A 2 : 012", "rel A 2 : 1 01",
                                      "rel A 0 :", "rel A 17 : 1", "rel A -1 :"])
    def test_bad_tuple_or_arity(self, line):
        with pytest.raises(FormulaParseError, match="line 1: bad relation line"):
            parse_relations(line + "\n")
