"""Library calls with bad input: each raises its own error class with a
message that names the fault, before any work is done."""

from __future__ import annotations

import pytest

from relconn.catalog import CATALOG, format_relation
from relconn.errors import FormulaError, FormulaParseError, PatternError, RelationError
from relconn.formulas import (Constraint, constraint_relation, evaluate, format_formula,
                              make_formula, parse_formula)
from relconn.relations import (ArgPattern, Relation, apply_pattern, check_property,
                               first_unsafe_identification, is_closed)

M = CATALOG["M"]

# id -> (call, error class, message)
CASES = {
    "duplicate variable": (
        lambda: make_formula([Constraint("OR", ("x", "y"))], CATALOG, ["x", "x", "y"]),
        FormulaError, "duplicate variable in variable list"),
    "bad variable name": (
        lambda: make_formula([Constraint("OR", ("1x", "y"))], CATALOG, ["1x", "y"]),
        FormulaError, "bad variable name '1x'"),
    "extra relation conflicts": (
        lambda: parse_formula("N(x,y)", {"N": CATALOG["OR"]}),
        FormulaParseError, "relation 'N' conflicts with catalog"),
    "assignment misses a variable": (
        lambda: evaluate(parse_formula("OR(x,y)"), {"x": 1}),
        FormulaError, "assignment misses variable 'y'"),
    "constraint on constants alone": (
        lambda: constraint_relation(parse_formula("var x\nOR(x,x)\nOR(0,1)"), 1),
        FormulaError, "OR(0,1): constraint has no variables"),
    "arity too large": (
        lambda: Relation(17, 0),
        RelationError, "arity must be in 1..16, got 17"),
    "tuple entry not a bit": (
        lambda: Relation.from_tuples(2, [(0, 2)]),
        RelationError, "bad tuple (0, 2) for arity 2"),
    "bool slot": (
        lambda: ArgPattern((True,)),
        PatternError, "bad slot True"),
    "constant slot not 0 or 1": (
        lambda: ArgPattern(("2",)),
        PatternError, "bad constant slot '2'"),
    "negative slot": (
        lambda: ArgPattern((-1,)),
        PatternError, "negative output index -1"),
    "slot count is not the arity": (
        lambda: apply_pattern(M, ArgPattern((0, 1))),
        PatternError, "pattern has 2 slots for arity 3"),
    "unknown property": (
        lambda: check_property(M, "nope"),
        RelationError, "unknown property 'nope'"),
    "unknown safe property": (
        lambda: first_unsafe_identification(M, "nope"),
        RelationError, "unknown safe property 'nope'"),
    "unknown operation": (
        lambda: is_closed(M, "nope"),
        RelationError, "unknown operation 'nope'"),
    "unnamed relation": (
        lambda: format_relation(Relation(2, 3)),
        ValueError, "relation has no name to format"),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as exc:
        call()
    assert (exc.type, str(exc.value)) == (error, message)


def test_empty_relation_round_trips():
    phi = parse_formula("rel E 2 :\nvar x y\nE(x,y)\n")
    text = format_formula(phi)
    assert text == "rel E 2 :\nvar x y\nE(x,y)\n"
    again = parse_formula(text)
    assert again.relation_of(again.constraints[0]) == Relation(2, 0)
    assert format_formula(again) == text
