"""The `.cnfs`, `.rel` and `.horn` readers against tests/parser_oracle.py:
on every text, the same result or the same error class and message."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parser_oracle as oracle
from relconn.catalog import CATALOG, parse_relations
from relconn.errors import FormulaError
from relconn.formulas import Constraint, Formula, make_formula, parse_formula
from relconn.horn import parse_horn

GOOD_NAMES = ("x", "y", "z", "x1", "_v", "Ab_2")
BAD_NAMES = ("1x", "", "x-y", "é", "a.b")
BLANKS = ("", " ", "\t", " \t ", "\x1f", "\u00a0")
LINE_ENDS = ("\n", "\r\n", "\r")
LOOK_ALIKES = ("rel (x)", "var(x)", "rel(x,y)", "var (x)", "rel", "var", "relx(y)",
               "varx(y)", "rel\t(x)", "var\t", "R (x)", "(x)", "R(x))", "R((x)", "R(x", "R)")


def _outcome(parse, *args):
    """A reader's result, or the class and message of what it raised."""
    try:
        return "ok", parse(*args)
    except Exception as exc:  # noqa: BLE001 - any difference is the finding
        return type(exc), str(exc)


def _joined(draw, lines):
    """The lines joined by one drawn line end each, with comments and blank
    lines between them."""
    out = []
    for line in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(("", "# note", "  ", "\t# x(y)"))))
        out.append(line)
    end = draw(st.sampled_from(LINE_ENDS))
    return end.join(out) + draw(st.sampled_from(("", end)))


names = st.sampled_from(GOOD_NAMES) | st.sampled_from(BAD_NAMES)
blanks = st.sampled_from(BLANKS)


@st.composite
def rel_lines(draw):
    arity = draw(st.sampled_from((1, 2, 3)) | st.sampled_from((0, 17, 24)))
    width = draw(st.sampled_from((arity, arity, arity, arity + 1, max(arity - 1, 0))))
    tuples = [format(t, f"0{width}b") if width else ""
              for t in draw(st.lists(st.integers(0, (1 << min(width, 4)) - 1), max_size=4))]
    if draw(st.integers(0, 4)) == 0:
        tuples.append(draw(st.sampled_from(("012", "0b1", "1_0", "x", "-1", "١"))))
    name = draw(st.sampled_from(("R", "S", "OR", "N", "1A")))
    arity_text = draw(st.sampled_from((str(arity), str(arity), "x", "")))
    colon = draw(st.sampled_from((":", ":", ":", "", ";")))
    sep = draw(st.sampled_from((" ", "\t", " \t ")))
    return sep.join(["rel", name, arity_text, colon, *tuples]).rstrip()


@st.composite
def var_lines(draw):
    vs = draw(st.lists(names | st.sampled_from(GOOD_NAMES), max_size=4))
    return draw(st.sampled_from((" ", "\t", " \t "))).join(["var", *vs])


@st.composite
def constraint_lines(draw):
    name = draw(st.sampled_from(("N", "OR", "M", "P", "R", "X", "rel", "var", "1A", "_r")))
    args = draw(st.lists(st.sampled_from(GOOD_NAMES + ("0", "1", "01", "2", "a b", "x-y", ""))
                         | st.sampled_from(GOOD_NAMES), max_size=4))
    text = ""
    for i, a in enumerate(args):
        text += (draw(blanks) + "," if i else "") + draw(blanks) + a
    text += draw(st.sampled_from(("", "", "", ",", " ")))
    return name + draw(st.sampled_from(("", "", " ", "\t"))) + "(" + text + ")" + draw(blanks)


@st.composite
def good_rel_lines(draw):
    arity = draw(st.integers(1, 3))
    tuples = [format(t, f"0{arity}b")
              for t in draw(st.lists(st.integers(0, (1 << arity) - 1), max_size=5))]
    sep = draw(st.sampled_from((" ", "\t", " \t ")))
    return sep.join(["rel", draw(st.sampled_from(("R", "S"))), str(arity), ":", *tuples])


@st.composite
def good_formula_lines(draw):
    """Lines that parse: catalog constraints of the right arity on good
    names and constants, with blanks and tabs here and there, and at most
    one var line that declares every name."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        name, arity = draw(st.sampled_from((("N", 2), ("OR", 2), ("M", 3), ("P", 3))))
        args = [draw(blanks) + draw(st.sampled_from(GOOD_NAMES + ("0", "1"))) + draw(blanks)
                for _ in range(arity)]
        lines.append(name + draw(st.sampled_from(("", "", " "))) + "(" + ",".join(args) + ")")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "var " + " ".join(GOOD_NAMES))
    if draw(st.booleans()):
        lines.insert(0, draw(good_rel_lines()))
    return lines


formula_lines = good_formula_lines() | st.lists(
    constraint_lines() | var_lines() | rel_lines() | st.sampled_from(LOOK_ALIKES),
    min_size=1, max_size=6)


class TestFormula:
    @staticmethod
    def check(text):
        got = _outcome(parse_formula, text)
        want = _outcome(oracle.parse_formula, text)
        if got[0] == "ok":
            phi = got[1]
            got = "ok", (phi.variables, phi.constraints, phi.library)
        assert got == want

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_hypothesis(self, data):
        self.check(_joined(data.draw, data.draw(formula_lines)))

    @pytest.mark.parametrize("text", [
        "rel R 2 : 01 10\nvar x y z\nR(x,y)\nN( y , z )\r\nM(x,0,z)\rOR(1,z)",
        "rel (x)", "var(x)", "rel(x,y)", "rel(x)\nrel R 1 : 1", "N(x,y)\nvar x y\nvar y",
        "N(x,y,)", "N(,x)", "N()", "N( )", "N(x,01)", "N(x y)", "N(x,\ty)", "N(x,y)  # c",
        "rel R 2 : 01 1\nR(x,y)", "rel R 2 : 0b 11\nR(x,y)", "rel R 17 : " + "1" * 17,
        "rel R 0 :", "rel R 2 : 01\nrel R 2 : 10\nR(x,y)", "var x y\nN(x,z)", "var x\nN(x,x)",
        "var x x\nN(x,x)", "var 1x\nN(x,x)", "X(x)", "N(x)", "N(x,y)\r\nN(y,x)\r\n",
        "N(x,y)\rN(y,z)\r", "\ufeffN(x,y)", "N(x,y)\x0bN(y,z)", "N(x,y)\x85N(y,z)",
    ])
    def test_fixtures(self, text):
        self.check(text)

    def test_extra_relations(self):
        for extra in ({"N": CATALOG["OR"]}, {"Q": CATALOG["OR"]}):
            for text in ("Q(x,y)", "N(x,y)"):
                got = _outcome(parse_formula, text, extra)
                want = _outcome(oracle.parse_formula, text, extra)
                if got[0] == "ok":
                    got = "ok", (got[1].variables, got[1].constraints, got[1].library)
                assert got == want


class TestFormulaApi:
    """Formula's own checks on names and arguments the text never makes."""

    @pytest.mark.parametrize("variables", [
        ("a b", "c"), ("a", "b c"), ("a\tb",), ("a ", "b"), (" a",), ("",), ("a", ""),
        ("x", "1x"), ("x", "y"), ("a b c",), ("a", "b", "c"), (), ("x", "x"),
    ])
    def test_variables(self, variables):
        cons = [Constraint("N", ("x", "y"))]
        got = _outcome(make_formula, cons, CATALOG, variables)
        want = _outcome(oracle.check_formula, tuple(variables), tuple(cons), CATALOG)
        if got[0] == "ok":
            got = "ok", None
        assert got == want

    def test_name_holding_the_separator(self):
        with pytest.raises(FormulaError, match=r"^bad variable name 'a b'$"):
            make_formula([Constraint("OR", ("c", "c"))], CATALOG, variables=("a b", "c"))

    @pytest.mark.parametrize("args", [("x", "y"), ("x", "0"), ("1", "z"), ("x", "q"),
                                      ("q", "r"), ("x", 1), ("x",)])
    def test_arguments(self, args):
        cons = (Constraint("N", args),)
        got = _outcome(Formula, ("x", "y"), cons, dict(CATALOG))
        want = _outcome(oracle.check_formula, ("x", "y"), cons, CATALOG)
        if got[0] == "ok":
            got = "ok", None
        assert got == want


class TestRelations:
    @staticmethod
    def check(text):
        got = _outcome(parse_relations, text)
        want = _outcome(oracle.parse_relations, text)
        if got[0] == "ok":
            got = "ok", [(k, v, v.name) for k, v in got[1].items()]
            want = "ok", [(k, v, v.name) for k, v in want[1].items()]
        assert got == want

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_hypothesis(self, data):
        lines = data.draw(st.lists(good_rel_lines(), min_size=1, max_size=5)
                          | st.lists(rel_lines() | st.sampled_from(LOOK_ALIKES),
                                     min_size=1, max_size=5))
        self.check(_joined(data.draw, lines))

    @pytest.mark.parametrize("text", [
        "rel A 2 : 00 11", "rel A 2 : 00 1", "rel A 2 : 002", "rel A 2 : 0b", "rel A 2 :",
        "rel A 24 : " + "1" * 24, "rel A 0 : ", "rel A -1 : 1", "rel A 2 00", "rel 1A 2 : 00",
        "rel A x : 00", "rel A 2 : 00\nrel A 2 : 00", "rel A 2 : 00\nrel A 2 : 01",
        "rel A 1 : 0 0 1", "rel A 2 : 1_0", "rel A 2 : ١٠", "rel A 2 : +1", "rel\tA\t1\t:\t1",
    ])
    def test_fixtures(self, text):
        self.check(text)


horn_names = st.sampled_from(GOOD_NAMES) | st.sampled_from(("1x", "x-y", "é"))


@st.composite
def horn_lines(draw):
    kind = draw(st.integers(0, 5))
    vs = draw(st.lists(horn_names, max_size=3))
    sep = draw(st.sampled_from((" ", "\t", "  ", "\x1f", "\u00a0")))
    if kind == 0:  # x | -y -z, with a positive body literal now and then
        body = [("" if draw(st.integers(0, 6)) == 0 else "-") + v for v in vs]
        return draw(horn_names | st.just("")) + draw(blanks) + "|" + sep + sep.join(body)
    if kind == 1:  # - y z
        return sep.join(["-", *vs])
    if kind == 2:  # -y -z
        return sep.join("-" + v for v in vs) or "-"
    if kind == 3:
        return draw(horn_names)
    if kind == 4:
        return sep.join(["var", *vs])
    return draw(st.sampled_from(("x y", "x | y | -z", "-x y", "| -x", "-", "x |", "var",
                                 "var x\tvar y", "x|-y", "-x|-y")))


class TestHorn:
    @staticmethod
    def check(text):
        assert _outcome(parse_horn, text) == _outcome(oracle.parse_horn, text)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_hypothesis(self, data):
        lines = data.draw(st.lists(horn_lines(), min_size=1, max_size=6))
        self.check(_joined(data.draw, lines))

    @pytest.mark.parametrize("text", [
        "x | -y -z\nz\n- x y\n-x -y\n-", "var x y\nx | y", "var x\n| -x", "x y",
        "x | -1y", "x | -y z", "1x | -y", "x y | -z", "x -y | -z", "x | -y -y", "-y -",
        "var x y\nvar z", "var x x", "x |", "var | -x", "var|-x", "var", "var\t| -x",
        "-\ty", "- -y", "-y - z", "-y\x1f-z", "- y\u00a0z", "x\u00a0|\u00a0-y",
        "x | -y\r\ny\r\n", "x | -y\ry\r", "- 1x",
    ])
    def test_fixtures(self, text):
        self.check(text)
