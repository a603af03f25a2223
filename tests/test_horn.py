"""Horn clause structure: Imp, self-implicating sets, the normal form."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relconn import horn
from relconn import solution_graph as sg
from relconn.catalog import CATALOG
from relconn.cpss import sat_schaefer
from relconn.errors import (ClauseExtractionError, FormulaError,
                            HornStructureError, VarsLimitError)
from relconn.formulas import ClauseSet, CnfClause, parse_formula, to_clausal
from relconn.horn import (format_horn, has_restraint_subset, imp, is_implied,
                          is_maximal_self_implicating, is_self_implicating,
                          maximal_self_implicating_sets, normalize, parse_horn)
from relconn.relations import HORN

from clausal_oracle import is_model
from horn_oracle import locally_minimal_solutions, maximum_self_implicating_subset
from random_inputs import random_horn_view


def view(text):
    return parse_horn(text)


CHAIN = """var u v w y z
u | -v
v | -u
w | -u -v
- y z
"""


class TestParsing:
    def test_clause_kinds(self):
        v = view(CHAIN)
        kinds = [(sorted(c.pos), sorted(c.neg)) for c in v.clauses]
        assert kinds == [(["u"], ["v"]), (["v"], ["u"]),
                         (["w"], ["u", "v"]), ([], ["y", "z"])]

    def test_positive_unit_and_empty(self):
        v = view("var a b\na\n-\n- b\n")
        assert v.clauses == (CnfClause(frozenset({"a"}), frozenset()),
                             CnfClause(frozenset(), frozenset()),
                             CnfClause(frozenset(), frozenset({"b"})))

    def test_undeclared_rejected(self):
        with pytest.raises(FormulaError, match=r"clause b -a uses undeclared \['b'\]"):
            view("var a\nb | -a\n")

    def test_roundtrip(self):
        v = view(CHAIN)
        assert parse_horn(format_horn(v)).clauses == v.clauses

    def test_roundtrip_every_clause_kind(self):
        # a positive unit, an implication, a restraint and the empty clause
        text = "var a b c d\na\nb | -a -c\n- c d\n-\n"
        v = view(text)
        assert format_horn(v) == text
        assert parse_horn(format_horn(v)) == v
        assert view("var a b c d\na\nb | -c -a\n-d -c\n-\n") == v

    def test_more_than_one_positive_literal_rejected(self):
        with pytest.raises(ClauseExtractionError, match="clause a b is not horn"):
            ClauseSet(HORN, ("a", "b"), (CnfClause(frozenset({"a", "b"}), frozenset()),))

    def test_from_formula(self):
        phi = parse_formula("var x y z\nM(x,y,z)", CATALOG)
        v = to_clausal(phi, HORN)
        assert sorted(horn.format_clause(c) for c in v.clauses) == ["x | -y -z", "z | -x"]

    @pytest.mark.parametrize("const, want", [("0,1", ["y | -x"]),
                                             ("1,0", ["-", "y | -x"])])
    def test_from_formula_with_a_constraint_on_constants_alone(self, const, want):
        # a true one adds no clause, a false one the empty clause
        phi = parse_formula(f"rel IMP 2 : 00 01 11\nvar x y\nIMP(x,y)\nIMP({const})")
        v = to_clausal(phi, HORN)
        assert sorted(horn.format_clause(c) for c in v.clauses) == want
        assert horn.solution_space(v) == sg.solution_space(phi)


class TestImp:
    def test_chain(self):
        v = view(CHAIN)
        assert imp(v, {"u"}) == {"u", "v", "w"}
        assert imp(v, {"w"}) == {"w"}
        assert imp(v, set()) == set()

    def test_positive_units_always_fire(self):
        v = view("var a b\na\nb | -a\n")
        assert imp(v, set()) == {"a", "b"}

    def test_is_implied(self):
        v = view(CHAIN)
        assert is_implied(v, "w")
        assert not is_implied(v, "z")

    def test_brute_force_agreement(self):
        """Imp(U) = variables set to 1 in every solution extending U=1."""
        rng = random.Random(3)
        for _ in range(80):
            v = random_horn_view(rng, n_vars=5, n_clauses=4)
            names = v.variables
            for _ in range(4):
                start = frozenset(rng.sample(names, rng.randint(0, 3)))
                got = imp(v, start)
                sols = [s for s in itertools.product((0, 1), repeat=len(names))
                        if is_model(v, dict(zip(names, s)))
                        and all(dict(zip(names, s))[x] for x in start)]
                if sols:
                    forced = {names[i] for i in range(len(names))
                              if all(s[i] for s in sols)}
                    assert got <= forced
                    # the fixpoint is exactly the syntactic consequence set;
                    # semantic forcing can only be larger on unsatisfiable
                    # or restrained instances
                    if not v.restraint_sets():
                        assert got == forced


class TestUnitPropagation:
    def test_parsed_sets_go_straight_into_sat_schaefer(self):
        """sat_schaefer's unit propagation against Imp: a Horn clause set is
        satisfiable iff Imp of the empty set holds no restraint set, and
        then its minimal model sets exactly Imp of the empty set to 1."""
        rng = random.Random(29)
        seen = {True: 0, False: 0}
        for _ in range(240):
            v = random_horn_view(rng, n_vars=rng.randint(2, 6),
                                 n_clauses=rng.randint(4, 10),
                                 allow_positive_units=True, restraint_prob=0.35)
            parsed = parse_horn(format_horn(v))
            assert parsed == v
            closure = imp(parsed, ())
            ok, model = sat_schaefer(parsed)
            assert ok == (not has_restraint_subset(parsed, closure))
            if ok:
                assert {x for x, b in model.items() if b} == closure
            seen[ok] += 1
        assert min(seen.values()) > 60, seen


class TestSelfImplicating:
    def test_fixture(self):
        v = view(CHAIN)
        assert is_self_implicating(v, set())
        assert is_self_implicating(v, {"u", "v"})
        assert not is_self_implicating(v, {"u", "w"})
        assert is_maximal_self_implicating(v, {"u", "v", "w"})
        assert not is_maximal_self_implicating(v, {"u", "v"})

    def test_maximum_subset(self):
        v = view(CHAIN)
        assert maximum_self_implicating_subset(v, {"u", "v", "w"}) == \
            {"u", "v", "w"}
        assert maximum_self_implicating_subset(v, {"u", "w"}) == set()

    def test_msis_per_component(self):
        v = view(CHAIN)
        assert maximal_self_implicating_sets(v) == \
            [frozenset(), frozenset({"u", "v", "w"})]

    def test_msis_rejects_positive_units(self):
        with pytest.raises(HornStructureError):
            maximal_self_implicating_sets(view("var a\na\n"))

    def test_t_formula_msis(self):
        phi = parse_formula(
            "var u v w x y z\nM(u,v,w)\nM(x,y,z)\nM(w,w,y)\nM(z,z,v)",
            CATALOG)
        v = to_clausal(phi, HORN)
        sets_ = maximal_self_implicating_sets(v)
        assert sets_ == [frozenset(),
                         frozenset({"u", "v", "w", "x", "y", "z"})]


class TestLocallyMinimal:
    def test_counts_match_components(self):
        rng = random.Random(9)
        for _ in range(60):
            v = random_horn_view(rng, n_vars=6, n_clauses=5)
            mins = locally_minimal_solutions(v)
            assert len(mins) == len(maximal_self_implicating_sets(v))


RULE_C_EXAMPLE = """var x y z
y | -x
z | -x
y | -z
z | -y
"""

RULE_D_EXAMPLE = """var x y z w
x | -y -z
w | -y
- w x
"""


class TestNormalize:
    def test_rule_c_worked_example(self):
        # one of the two x-implications is redundant; the scan drops the first
        normal = normalize(view(RULE_C_EXAMPLE))
        assert [horn.format_clause(c) for c in normal.clauses] == \
            ["z | -x", "y | -z", "z | -y"]

    def test_rule_d_worked_example(self):
        # Imp({x,y,z}) covers the restraint {w,x}, so the head is cut
        normal = normalize(view(RULE_D_EXAMPLE))
        assert "- y z" in [horn.format_clause(c) for c in normal.clauses]
        assert "x | -y -z" not in [horn.format_clause(c) for c in normal.clauses]

    def test_tautology_removed(self):
        normal = normalize(view("var a b\na | -a -b\n"))
        assert normal.clauses == ()

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(40):
            v = random_horn_view(rng, n_vars=5, n_clauses=5)
            n1 = normalize(v)
            assert normalize(n1).clauses == n1.clauses

    def test_preserves_solutions(self):
        rng = random.Random(21)
        for _ in range(150):
            v = random_horn_view(rng, n_vars=6, n_clauses=6,
                                 allow_positive_units=True)
            assert horn.solution_space(normalize(v)) == horn.solution_space(v)


@st.composite
def horn_views(draw):
    """Views over n <= 8 variables; clauses may be positive units,
    restraints, the empty clause, or have their head in their body."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    clauses = []
    for _ in range(draw(st.integers(0, 8))):
        head = draw(st.frozensets(st.sampled_from(names), max_size=1))
        body = draw(st.frozensets(st.sampled_from(names), max_size=4))
        clauses.append(CnfClause(head, body))
    return ClauseSet(HORN, tuple(names), tuple(clauses))


class TestSolutionSpace:
    @settings(max_examples=300, deadline=None)
    @given(horn_views())
    @example(view("var a b c\na\n- b c\nc | -a -c\n"))
    @example(view("var a b\n-\nb | -a\n"))
    def test_matches_brute_force(self, v):
        n = v.n
        want = 0
        for idx in range(1 << n):
            asg = {x: (idx >> (n - 1 - j)) & 1 for j, x in enumerate(v.variables)}
            if is_model(v, asg):
                want |= 1 << idx
        assert horn.solution_space(v) == want

    def test_size_bound(self):
        names = [f"v{i}" for i in range(25)]
        with pytest.raises(VarsLimitError):
            horn.solution_space(ClauseSet(HORN, tuple(names),
                                          (CnfClause(frozenset(), frozenset(names)),)))

    def test_matches_formula_engine(self):
        phi = parse_formula("var x y z\nM(x,y,z)", CATALOG)
        v = to_clausal(phi, HORN)
        assert horn.solution_space(v) == sg.solution_space(phi)
