"""End-to-end runs of the command line through main(argv)."""

from __future__ import annotations

import argparse
import ast
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relconn import bitspace, cli, cpss, horn
from relconn import solution_graph as sg
from relconn.catalog import CATALOG, parse_relations
from relconn.classify import classify_set, predict, profile
from relconn.cli import build_parser, main, read_argv
from relconn.formulas import parse_formula

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SRC = SAMPLES.parent / "src"


def sample(name: str) -> str:
    return str(SAMPLES / name)


@pytest.fixture(autouse=True)
def rendered_json(monkeypatch):
    """Every --json document that main renders in these tests must be what
    json.dumps(doc, sort_keys=True, indent=2, default=vars) gives; returns
    the documents checked."""
    render = cli.render_json
    docs = []

    def checked(doc):
        text = render(doc)
        assert text == json.dumps(doc, sort_keys=True, indent=2, default=vars)
        docs.append(doc)
        return text

    monkeypatch.setattr(cli, "render_json", checked)
    return docs


ONE_IN_THREE = ("001", "010", "100")
# Horn, with two components that are each IHSB- while the relation is not:
# only the identification sweep settles safely_componentwise_ihsb_minus
HORN_TWO_PARTS = ("000", "001", "010", "111")


def wide_formula_text(base: tuple[str, ...] = HORN_TWO_PARTS) -> str:
    """One arity-11 constraint: a ternary relation (HORN_TWO_PARTS by
    default) on its first three coordinates times {0,1}^8, 1,024 tuples for
    HORN_TWO_PARTS.  A componentwise safely flag that the classification
    needs is left to the identification sweep, which stops at arity 10, so
    the relation set has no classification."""
    tuples = [m + format(s, "08b") for m in base for s in range(256)]
    names = ",".join(f"x{i}" for i in range(1, 12))
    return f"rel R 11 : {' '.join(tuples)}\nR({names})\n"


@pytest.fixture
def undecided(tmp_path):
    """26 variables, two more than enumeration takes: eight M constraints
    on disjoint triples and two free variables.  {M} is not CPSS, so no
    route answers."""
    names = [f"v{i}" for i in range(1, 27)]
    path = tmp_path / "undecided.cnfs"
    path.write_text("var " + " ".join(names) + "\n" + "".join(
        f"M({','.join(names[j:j + 3])})\n" for j in range(0, 24, 3)))
    return path


def run(capsys, *args):
    """(exit code, stdout, stderr) of one main() call; argparse's exits
    count as exit codes."""
    try:
        code = main([str(a) for a in args])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_classify_set_line(self, capsys):
        code, out, err = run(capsys, "classify-set", sample("m.rel"))
        assert code == 0 and err == ""
        assert out == ("SchaeferNotCPSS; Conn_C: coNP-complete; "
                       "st-Conn_C: P; diameter: O(n)\n")

    def test_classify_relation_mentions_horn(self, capsys):
        code, out, _ = run(capsys, "classify-relation", sample("m.rel"))
        assert code == 0
        assert out.startswith("M (arity 3): ")
        assert "horn" in out

    def test_classify_set_json_deterministic(self, capsys):
        one = run(capsys, "classify-set", sample("rconp.rel"), "--json")
        two = run(capsys, "classify-set", sample("rconp.rel"), "--json")
        assert one == two
        payload = json.loads(one[1])
        assert payload["classification"]["set_class"] == \
            "SafelyTightNotSchaefer"
        assert payload["prediction"]["conn"] == "coNP-complete"


class TestConn:
    def test_cpss_method_on_triangle(self, capsys):
        code, out, _ = run(capsys, "conn", sample("triangle.cnfs"),
                           "--method", "cpss")
        assert (code, out) == (0, "disconnected\n")

    def test_exit_status_flag(self, capsys):
        code, out, _ = run(capsys, "conn", sample("triangle.cnfs"),
                           "--exit-status")
        assert (code, out) == (1, "disconnected\n")

    def test_brute_fallback_on_horn_set(self, capsys):
        code, out, _ = run(capsys, "conn", sample("t.cnfs"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["connected"] is False
        assert payload["method"] == "brute"
        assert payload["set_class"] == "SchaeferNotCPSS"

    def test_cpss_method_rejects_non_schaefer(self, capsys):
        code, out, err = run(capsys, "conn", sample("f.cnfs"),
                             "--method", "cpss")
        assert code == 2 and out == ""
        assert err.startswith("relconn: error:")


    @pytest.mark.parametrize("constants", ["0,1", "1,0"])
    @pytest.mark.parametrize("method", ["auto", "cpss", "brute"])
    def test_constraint_on_constants_alone(self, capsys, tmp_path, constants,
                                           method):
        # IMP(0,1) holds and IMP(1,0) leaves no solutions: connected either way
        path = tmp_path / "imp.cnfs"
        path.write_text(f"rel IMP 2 : 00 01 11\nIMP(x,y)\nIMP({constants})\n")
        assert run(capsys, "conn", path, "--method", method) == (0, "connected\n", "")
        code, out, err = run(capsys, "conn", path, "--method", method, "--json")
        payload = json.loads(out)
        assert (code, err, payload["connected"]) == (0, "", True)
        assert payload["method"] == ("brute" if method == "brute" else "cpss")


    @pytest.mark.parametrize("method", ["brute", "auto"])
    def test_brute_route_without_classification(self, capsys, tmp_path, method):
        path = tmp_path / "wide.cnfs"
        path.write_text(wide_formula_text())
        assert run(capsys, "conn", path, "--method", method) == (0, "disconnected\n", "")
        code, out, err = run(capsys, "conn", path, "--method", method, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"connected": False, "method": "brute",
                                   "set_class": None, "prediction": None,
                                   "detail": {"n_variables": 11}}

    def test_cpss_route_needs_the_classification(self, capsys, tmp_path):
        path = tmp_path / "wide.cnfs"
        path.write_text(wide_formula_text())
        assert run(capsys, "conn", path, "--method", "cpss") == (
            2, "", "relconn: error: classification needs safely_componentwise_ihsb_minus "
                   "of R (arity 11), which requires arity <= 10\n")

    def test_cpss_route_names_the_safely_tight_flag(self, capsys, tmp_path):
        # not Schaefer; OR and NAND make safely OR-free and NAND-free false,
        # so the safely componentwise bijunctive flag is the one needed
        path = tmp_path / "wide.cnfs"
        path.write_text(wide_formula_text(ONE_IN_THREE) + "OR(y1,y2)\nNAND(y2,y3)\n")
        assert run(capsys, "conn", path, "--method", "cpss") == (
            2, "", "relconn: error: classification needs safely_componentwise_bijunctive "
                   "of R (arity 11), which requires arity <= 10\n")

    def test_cpss_route_on_a_set_its_known_flags_decide(self, capsys, tmp_path):
        # R's safely OR-free flag, from the member test, makes {R} safely tight
        path = tmp_path / "wide.cnfs"
        path.write_text(wide_formula_text(ONE_IN_THREE))
        assert run(capsys, "conn", path, "--method", "cpss") == (
            2, "", "relconn: error: relation set is SafelyTightNotSchaefer, not CPSS\n")

    def test_undecided_text(self, capsys, undecided):
        assert run(capsys, "conn", undecided) == (
            0, "undecided (too large to enumerate); set class SchaeferNotCPSS, "
               "predicted coNP-complete\n", "")

    def test_undecided_json(self, capsys, undecided):
        code, out, err = run(capsys, "conn", undecided, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["connected"], payload["method"]) == (None, "none")
        assert payload["detail"] == {"reason": "too many variables"}

    @pytest.mark.parametrize("flags, status", [
        ([], 0), (["--exit-status"], 3), (["--json", "--exit-status"], 3)])
    def test_undecided_exit_status(self, capsys, undecided, flags, status):
        assert run(capsys, "conn", undecided, *flags)[0] == status


class TestGraphQueries:
    def test_stconn_connected_prints_path(self, capsys):
        code, out, _ = run(capsys, "stconn", sample("conp.cnfs"),
                           "0000", "1000")
        assert (code, out) == (0, "connected: 0000 1000\n")

    def test_stconn_disconnected(self, capsys):
        code, out, _ = run(capsys, "stconn", sample("conp.cnfs"),
                           "0000", "0110", "--exit-status")
        assert (code, out) == (1, "disconnected\n")

    def test_stconn_rejects_non_solution(self, capsys):
        code, _, err = run(capsys, "stconn", sample("conp.cnfs"),
                           "1111", "0101")
        assert code == 2
        assert err.startswith("relconn: error:")

    def test_components_and_diameter(self, capsys):
        code, out, _ = run(capsys, "components", sample("conp.cnfs"))
        assert code == 0
        assert out == "0000 0001 1000\n0110 0111 1110 1111\n"
        code, out, _ = run(capsys, "diameter", sample("conp.cnfs"))
        assert (code, out) == (0, "2\n")

    @pytest.mark.parametrize("command", ["diameter", "report"])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_diameter_bound_exits_2(self, capsys, tmp_path, command, flags):
        names = [f"x{i}" for i in range(18)]
        path = tmp_path / "cube.cnfs"
        # a chain, so that the cube is one factor (disjoint pairs would be
        # nine factors of four vertices each, well inside the bound)
        path.write_text("rel ALL 2 : 00 01 10 11\nvar " + " ".join(names)
                        + "\n" + "\n".join(f"ALL({a},{b})" for a, b
                                            in zip(names, names[1:])))
        code, out, err = run(capsys, command, path, *flags)
        assert (code, out) == (2, "")
        assert err == ("relconn: error: a component of 262144 solutions "
                       "exceeds the diameter bound 131072\n")

    @pytest.mark.parametrize("argv", [["components"], ["components", "--json"],
                                      ["report"], ["report", "--json"],
                                      ["graph", "--dot", "-"]])
    def test_listing_bound_exits_2(self, capsys, monkeypatch, tmp_path, argv):
        names = [f"x{i}" for i in range(18)]
        path = tmp_path / "pairs.cnfs"
        # nine disjoint pairs: 262,144 solutions, each factor's component
        # well inside the diameter bound
        path.write_text("rel ALL 2 : 00 01 10 11\nvar " + " ".join(names)
                        + "\n" + "\n".join(f"ALL({a},{b})" for a, b
                                            in zip(names[::2], names[1::2])))

        def no_formatting(idx, n):
            raise AssertionError("a solution was formatted")

        monkeypatch.setattr(bitspace, "tuple_of_index", no_formatting)
        monkeypatch.setattr(bitspace, "tuples_of", no_formatting)
        assert run(capsys, argv[0], path, *argv[1:]) == (
            2, "", "relconn: error: 262144 solutions exceed the listing bound 131072\n")

    def test_report_text(self, capsys):
        code, out, _ = run(capsys, "report", sample("conp.cnfs"))
        assert code == 0
        lines = out.splitlines()
        assert "variables: 4" in lines
        assert "solutions: 7" in lines
        assert "connected: false" in lines

    def test_graph_dot(self, capsys, tmp_path):
        code, out, _ = run(capsys, "graph", sample("triangle.cnfs"),
                           "--dot", "-")
        assert code == 0 and out.startswith("graph ")
        target = tmp_path / "g.dot"
        code, piped, _ = run(capsys, "graph", sample("triangle.cnfs"),
                             "--dot", target)
        assert code == 0 and piped == ""
        assert target.read_text() == out


class TestNoVariables:
    """A formula whose constraints are all on constants has one assignment,
    to no variables, printed as the empty string; stconn takes it back."""

    @pytest.fixture
    def holds(self, tmp_path):
        path = tmp_path / "holds.cnfs"
        path.write_text("rel IMP 2 : 00 01 11\nIMP(0,1)\n")
        return path

    @pytest.fixture
    def fails(self, tmp_path):
        path = tmp_path / "fails.cnfs"
        path.write_text("rel IMP 2 : 00 01 11\nIMP(1,0)\n")
        return path

    def test_components(self, capsys, holds, fails):
        assert run(capsys, "components", holds) == (0, "\n", "")
        code, out, err = run(capsys, "components", holds, "--json")
        assert (code, err, json.loads(out)) == (0, "", {"components": [[""]]})
        assert run(capsys, "components", fails) == (0, "unsatisfiable\n", "")

    def test_report(self, capsys, holds):
        code, out, err = run(capsys, "report", holds)
        assert (code, err) == (0, "")
        assert out == ("variables: 0\nsolutions: 1\nconnected: true\n"
                       "diameter: 0\ncomponent 0: \n")
        code, out, _ = run(capsys, "report", holds, "--json")
        payload = json.loads(out)
        assert payload["components"] == payload["locally_minimal"] == [[""]]
        assert payload["minimums"] == [""]
        assert (payload["n_variables"], payload["n_solutions"]) == (0, 1)

    def test_graph(self, capsys, holds):
        assert run(capsys, "graph", holds, "--dot", "-") == \
            (0, 'graph solutions {\n  "";\n}\n', "")

    def test_stconn_takes_the_empty_assignment(self, capsys, holds):
        assert run(capsys, "stconn", holds, "", "") == (0, "connected: \n", "")
        code, out, err = run(capsys, "stconn", holds, "", "", "--json")
        assert (code, err, json.loads(out)) == \
            (0, "", {"connected": True, "path": [""]})

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_stconn_errors(self, capsys, holds, fails, flags):
        assert run(capsys, "stconn", holds, "0", "", *flags) == (
            2, "", "relconn: error: assignment '0' is not a bitstring over "
                   "0 variables\n")
        assert run(capsys, "stconn", fails, "", "", *flags) == (
            2, "", "relconn: error: s does not satisfy the formula\n")


class TestHorn:
    def test_imp(self, capsys):
        code, out, _ = run(capsys, "horn", "imp", sample("clauses.horn"), "u")
        assert (code, out) == (0, "u v w\n")

    def test_imp_unknown_variable(self, capsys):
        code, _, err = run(capsys, "horn", "imp", sample("clauses.horn"), "q")
        assert code == 2 and "unknown variables" in err

    def test_selfimp(self, capsys):
        code, out, _ = run(capsys, "horn", "selfimp", sample("clauses.horn"))
        assert (code, out) == (0, "(empty)\nu v w\n")

    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "horn", "normalize",
                           sample("clauses.horn"))
        assert code == 0
        assert out == "var u v w y z\nu | -v\nv | -u\nw | -v\n- y z\n"

    def test_normalize_every_clause_kind(self, capsys, tmp_path):
        # rule (e) drops -a from b's body: the positive unit a implies it
        path = tmp_path / "kinds.horn"
        path.write_text("var a b c d\na\nb | -a -c\n- c d\n-\n")
        assert run(capsys, "horn", "normalize", path) == (
            0, "var a b c d\na\nb | -c\n- c d\n-\n", "")
        assert run(capsys, "horn", "normalize", path, "--json") == (
            0, '{\n  "clauses": [\n    "a",\n    "b | -c",\n    "- c d",\n    "-"\n'
               '  ],\n  "variables": [\n    "a",\n    "b",\n    "c",\n    "d"\n  ]\n}\n',
            "")

    @pytest.mark.parametrize("text, message", [
        ("var y z\n--y --z\n", "line 2: bad variable name '-y'"),
        ("var y z\n- -y z\n", "line 2: bad variable name '-y'"),
        ("var y z\n- y -z\n", "line 2: bad variable name '-z'"),
        ("var y z\nz | --y\n", "line 2: bad variable name '-y'"),
        ("var a a\na\n", "line 1: duplicate variable in var line"),
    ])
    @pytest.mark.parametrize("command, tail", [("imp", ["y"]), ("selfimp", []),
                                               ("normalize", ["--json"])])
    def test_malformed_clause_text_exits_2(self, capsys, tmp_path, text, message,
                                           command, tail):
        path = tmp_path / "bad.horn"
        path.write_text(text)
        assert run(capsys, "horn", command, path, *tail) == (
            2, "", f"relconn: error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("var a a\nN(a,a)\n", "line 1: duplicate variable in var line"),
        ("var a\nvar b\nN(a,b)\n", "line 2: second var line"),
        ("var a 1b\nN(a,a)\n", "line 1: bad variable name '1b'"),
        ("rel X 1 : 0\nrel X 1 : 1\nX(a)\n", "line 2: relation 'X' redefined"),
        ("rel N 1 : 0\nN(a)\n", "line 1: relation 'N' redefined"),
    ])
    def test_malformed_formula_text_exits_2(self, capsys, tmp_path, text, message):
        # .cnfs files share the .horn var line parser and the .rel line parser
        path = tmp_path / "bad.cnfs"
        path.write_text(text)
        assert run(capsys, "conn", path) == (2, "", f"relconn: error: {message}\n")


class TestKeywordWhitespace:
    """A `var` or `rel` keyword followed by a tab, alone or among blanks,
    starts the same line as one followed by a single space."""

    @staticmethod
    def twin(tmp_path, name, sep):
        text = (SAMPLES / name).read_text()
        assert "\nvar " in "\n" + text
        text = "\n".join(line.replace("var ", "var" + sep, 1).replace("rel ", "rel" + sep, 1)
                         if line.startswith(("var ", "rel ")) else line
                         for line in text.split("\n"))
        path = tmp_path / name
        path.write_text(text)
        return path

    @pytest.mark.parametrize("sep", ["\t", "\t \t"])
    @pytest.mark.parametrize("name", ["cir.cnfs", "conp.cnfs", "f.cnfs", "gr.cnfs",
                                      "t.cnfs", "triangle.cnfs"])
    def test_formula(self, capsys, tmp_path, name, sep):
        path = self.twin(tmp_path, name, sep)
        for flags in ([], ["--json"]):
            want = run(capsys, "conn", sample(name), *flags)
            assert want[0] == 0
            assert run(capsys, "conn", path, *flags) == want

    @pytest.mark.parametrize("sep", ["\t", "\t \t"])
    @pytest.mark.parametrize("command, tail", [("imp", ["u"]), ("selfimp", []),
                                               ("normalize", [])])
    def test_horn(self, capsys, tmp_path, sep, command, tail):
        path = self.twin(tmp_path, "clauses.horn", sep)
        for flags in ([], ["--json"]):
            want = run(capsys, "horn", command, sample("clauses.horn"), *tail, *flags)
            assert want[0] == 0
            assert run(capsys, "horn", command, path, *tail, *flags) == want

    @pytest.mark.parametrize("text, message", [
        ("var\ta a\nN(a,a)\n", "line 1: duplicate variable in var line"),
        ("var a\nvar\tb\nN(a,b)\n", "line 2: second var line"),
        ("rel\tX 1 : 0\nrel X 1 : 1\nX(a)\n", "line 2: relation 'X' redefined"),
    ])
    def test_errors_name_the_keyword_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.cnfs"
        path.write_text(text)
        assert run(capsys, "conn", path) == (2, "", f"relconn: error: {message}\n")


_TWINS = pytest.mark.parametrize("words, name, tail", [
    (["conn"], "conp.cnfs", []), (["components"], "gr.cnfs", []),
    (["classify-set"], "rconp.rel", []), (["classify-relation"], "or_example.rel", []),
    (["horn", "imp"], "clauses.horn", ["u"]), (["horn", "normalize"], "clauses.horn", []),
], ids=["cnfs-conn", "cnfs-components", "rel-set", "rel-relation", "horn-imp",
        "horn-normalize"])


class TestLineEnds:
    """A CRLF- or CR-terminated input file gives the same answers as its LF
    twin: the readers split lines with str.splitlines, which takes all
    three line ends."""

    @staticmethod
    def check_twin(capsys, tmp_path, words, name, tail, end):
        text = (SAMPLES / name).read_text()
        assert "\r" not in text
        path = tmp_path / name
        path.write_bytes(text.replace("\n", end).encode())
        for flags in ([], ["--json"]):
            want = run(capsys, *words, sample(name), *tail, *flags)
            assert want[0] == 0
            assert run(capsys, *words, path, *tail, *flags) == want

    @_TWINS
    def test_crlf_twin(self, capsys, tmp_path, words, name, tail):
        self.check_twin(capsys, tmp_path, words, name, tail, "\r\n")

    @_TWINS
    def test_cr_twin(self, capsys, tmp_path, words, name, tail):
        self.check_twin(capsys, tmp_path, words, name, tail, "\r")


class TestConstructions:
    def test_reduce_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "out.cnfs"
        code, out, _ = run(capsys, "reduce", sample("gr.cnfs"), "-o", target)
        assert code == 0 and out == ""
        phi = parse_formula(target.read_text(), CATALOG)
        assert len(phi.constraints) == 18
        assert len(phi.variables) == 16

    def test_reduce_json(self, capsys):
        code, out, _ = run(capsys, "reduce", sample("gr.cnfs"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["chain_variables"] == ["q0", "q1"]
        assert len(payload["gadget_variables"]) == 5

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_reduce_output_file_holds_what_would_print(self, capsys, tmp_path,
                                                       extra):
        target = tmp_path / "out"
        code, out, err = run(capsys, "reduce", sample("gr.cnfs"), "-o", target,
                             *extra)
        assert (code, out, err) == (0, "", "")
        assert target.read_text() == run(capsys, "reduce", sample("gr.cnfs"),
                                         *extra)[1]

    def test_reduce_trivial_input(self, capsys, tmp_path):
        trivial = tmp_path / "n.cnfs"
        trivial.write_text("var x y\nN(x,y)\n")
        code, _, err = run(capsys, "reduce", trivial)
        assert code == 2 and "all-zero" in err

    def test_express_m(self, capsys):
        code, out, _ = run(capsys, "express-m", sample("m.rel"))
        assert code == 0
        assert out == "rel M 3 : 000 001 010 101 111\nvar x y z\nM(x,y,z)\n"

    def test_express_m_rejects_rconp(self, capsys):
        code, _, err = run(capsys, "express-m", sample("rconp.rel"))
        assert code == 2 and "not Horn" in err

    def test_cpss_search_none_found(self, capsys):
        code, out, _ = run(capsys, "cpss-search", sample("bijunctive.rel"),
                           "--tries", "5", "--seed", "1")
        assert (code, out) == (0, "none found\n")

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_cpss_search_rejected_set_is_an_error(self, capsys, extra):
        code, out, err = run(capsys, "cpss-search", sample("rconp.rel"),
                             "--tries", "1000", *extra)
        assert code == 2 and out == ""
        assert err.startswith("relconn: error:") and "Schaefer" in err

    @pytest.mark.parametrize("flag,value", [("--max-vars", "0"),
                                            ("--max-vars", "1"),
                                            ("--tries", "-1"),
                                            ("--max-vars", "25")])
    def test_cpss_search_rejects_out_of_range_budget(self, capsys, monkeypatch,
                                                     flag, value):
        # rejected before the search draws its first formula
        def no_search(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(cpss, "random_formula", no_search)
        code, out, err = run(capsys, "cpss-search", sample("m.rel"),
                             flag, value)
        assert code == 2 and out == ""
        assert err.startswith("relconn: error:")
        if value == "25":
            assert err == ("relconn: error: max_vars must be at most the "
                           "exhaustive bound 24, got 25\n")


def subcommands(parser: argparse.ArgumentParser) -> list[tuple[str, ...]]:
    """The command words of every leaf subcommand under parser."""
    leaves = [(name, *rest)
              for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)
              for name, sub in action.choices.items()
              for rest in subcommands(sub)]
    return leaves or [()]


# a sample command line for each subcommand that takes --json
JSON_SAMPLES = {
    ("classify-relation",): [sample("m.rel")],
    ("classify-set",): [sample("rconp.rel")],
    ("conn",): [sample("triangle.cnfs")],
    ("stconn",): [sample("conp.cnfs"), "0000", "1000"],
    ("diameter",): [sample("conp.cnfs")],
    ("components",): [sample("conp.cnfs")],
    ("report",): [sample("conp.cnfs")],
    ("horn", "imp"): [sample("clauses.horn"), "u"],
    ("horn", "selfimp"): [sample("clauses.horn")],
    ("horn", "normalize"): [sample("clauses.horn")],
    ("reduce",): [sample("gr.cnfs")],
    ("express-m",): [sample("m.rel")],
    ("cpss-search",): [sample("bijunctive.rel"), "--tries", "5"],
}


class TestOneOutputPath:
    """cli.main alone turns a handler's answer into output."""

    def test_every_subcommand_but_graph_has_a_json_sample(self):
        assert set(subcommands(build_parser())) == {*JSON_SAMPLES, ("graph",)}

    @pytest.mark.parametrize("words", JSON_SAMPLES, ids=" ".join)
    def test_json_prints_one_document(self, capsys, words):
        code, out, err = run(capsys, *words, *JSON_SAMPLES[words], "--json")
        assert (code, err) == (0, "")
        # json.loads rejects a second document after the first
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_every_json_sample_is_checked(self, capsys, rendered_json):
        for words, rest in JSON_SAMPLES.items():
            assert run(capsys, *words, *rest, "--json")[0] == 0
        assert len(rendered_json) == len(JSON_SAMPLES)

    def test_json_path_renders_no_text(self, capsys, monkeypatch):
        def no_text(view):
            raise AssertionError("text rendered on the --json path")

        monkeypatch.setattr(horn, "format_horn", no_text)
        code, out, err = run(capsys, "horn", "normalize", sample("clauses.horn"),
                             "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["variables"] == ["u", "v", "w", "y", "z"]

    def test_text_path_builds_no_document(self, capsys, monkeypatch):
        def no_doc(report):
            raise AssertionError("cpss detail built on the text path")

        monkeypatch.setattr(cli, "_cpss_detail", no_doc)
        assert run(capsys, "conn", sample("triangle.cnfs")) == (0, "disconnected\n", "")

    def test_handlers_neither_print_nor_read_json(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        handlers = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                    and f.name.startswith("cmd_")]
        assert len(handlers) == len(subcommands(build_parser()))
        for f in handlers:
            for node in ast.walk(f):
                assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "print"), f.name
                assert not (isinstance(node, ast.Attribute) and node.attr == "json"
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "args"), f.name


JSON_LEAVES = (st.none() | st.booleans()
               | st.integers(-2 ** 70, 2 ** 70)
               # escapes, control characters, non-ASCII and astral text
               | st.text(st.characters(blacklist_categories=("Cs",)))
               | st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f",
                                  "caf\u00e9", "\u2028", "\U0001f600", "0101"]))
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=30)


class TestRenderJson:
    """cli.render_json against json.dumps(doc, sort_keys=True, indent=2)."""

    @given(JSON_DOCS)
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_documents(self, doc):
        assert cli.render_json(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize("doc", [
        {}, [], (), "", 0, -1, True, False, None, [[]], {"a": {}}, {"a": []},
        ["x", None, "y"], [True, 1, "1"], {"b": 1, "a": [{"c": ()}], "": "e"},
        [[["deep"]], [[]], []], {"k": ["0", "1"] * 3}, 2 ** 100])
    def test_fixtures(self, doc):
        assert cli.render_json(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @staticmethod
    def results() -> dict[str, object]:
        """One instance of each result type that a document carries whole."""
        rels = parse_relations((SAMPLES / "rconp.rel").read_text())
        cl = classify_set(rels.values())
        names = [f"v{i}" for i in range(1, 27)]
        too_large = parse_formula("var " + " ".join(names) + "\n" + "".join(
            f"M({','.join(names[j:j + 3])})\n" for j in range(0, 24, 3)), CATALOG)
        return {
            "RelationProfile": profile(rels["R_coNP"]),
            "SetClassification": cl,
            "Predictions": predict(cl),
            "ConnDecision brute": cpss.decide_connectivity(
                parse_formula((SAMPLES / "conp.cnfs").read_text(), CATALOG), "brute"),
            "ConnDecision none": cpss.decide_connectivity(too_large),
            # OR(x,y): one component, {01, 10, 11}, whose AND is no solution
            "SolutionGraphReport": sg.report(parse_formula("var x y\nOR(x,y)", CATALOG)),
        }

    def test_result_types_render_as_their_fields(self):
        results = self.results()
        assert results["ConnDecision brute"].detail == {"n_variables": 4}
        assert results["ConnDecision none"].detail == {"reason": "too many variables"}
        assert results["SolutionGraphReport"].minimums == (None,)
        for name, doc in results.items():
            assert cli.render_json(doc) == json.dumps(
                doc, sort_keys=True, indent=2, default=vars), name

    @pytest.mark.parametrize("doc", [1.5, [1.5], ["a", 0.5], {1: "a"}, {"a": {2}}])
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            cli.render_json(doc)


class TestRead:
    """cli._read returns the whole file, however many reads it takes."""

    def test_file_larger_than_one_chunk(self, capsys, tmp_path):
        # after the one-byte "#", the two-byte characters start at odd
        # offsets, so one straddles the 64 KiB chunk boundary
        text = "#" + "\u00e9" * 40_000 + "\nvar x y\nN(x,y)\n"
        path = tmp_path / "big.cnfs"
        path.write_bytes(text.encode())
        assert path.stat().st_size > 1 << 16
        assert cli._read(str(path)) == text
        small = tmp_path / "small.cnfs"
        small.write_text("var x y\nN(x,y)\n")
        for flags in ([], ["--json"]):
            assert run(capsys, "conn", path, *flags) == run(capsys, "conn", small, *flags)

    def test_fifo_fed_in_several_writes(self, tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs here")
        path = tmp_path / "fifo"
        os.mkfifo(path)
        parts = [b"var x y\n", b"N(x,", b"y)\n", "# \u00e9".encode()[:3], "# \u00e9".encode()[3:]]

        def feed():
            fd = os.open(path, os.O_WRONLY)
            try:
                for part in parts:
                    os.write(fd, part)
                    time.sleep(0.02)
            finally:
                os.close(fd)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        text = cli._read(str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert text == b"".join(parts).decode()


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "conn", "no-such-file.cnfs")
        assert code == 2
        assert err.startswith("relconn: error:")

    @pytest.mark.parametrize("command", ["conn", "classify-set", "horn selfimp"])
    def test_cannot_read(self, capsys, tmp_path, command):
        missing = tmp_path / "no-such-file"
        for path, code in ((missing, errno.ENOENT), (tmp_path, errno.EISDIR)):
            assert run(capsys, *command.split(), path) == (
                2, "", f"relconn: error: cannot read {path}: {os.strerror(code)}\n")

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "bad.cnfs"
        path.write_bytes(b"Q(x,y)\n\xff\n")
        code, out, err = run(capsys, "conn", path)
        assert (code, out) == (2, "")
        assert err == (f"relconn: error: cannot read {path}: 'utf-8' codec can't decode "
                       "byte 0xff in position 7: invalid start byte\n")

    @pytest.mark.parametrize("argv, name, text, message", [
        (["conn"], "bad.cnfs", "foo bar\n", "line 1: cannot parse 'foo bar'"),
        (["conn"], "bad.cnfs", "var y z\nN(y z)\n", "line 2: bad argument 'y z'"),
        (["conn"], "bad.cnfs", "rel R 1 : 1\nR()\n", "line 2: constraint with no arguments"),
        (["classify-set"], "bad.rel", "rel A 2 00\n",
         "line 1: bad relation line: 'rel A 2 00'"),
        (["classify-set"], "bad.rel", "rel 1A 2 : 00\n", "line 1: bad relation name '1A'"),
        (["classify-set"], "bad.rel", "rel A x : 00\n",
         "line 1: bad arity in relation line: 'rel A x : 00'"),
        (["horn", "selfimp"], "bad.horn", "var x\n| -x\n", "line 2: missing head before |"),
        (["horn", "selfimp"], "bad.horn", "var x y\nx | y\n",
         "line 2: body literal 'y' must be negative"),
        (["horn", "selfimp"], "bad.horn", "var x y\nx y\n", "line 2: cannot parse clause 'x y'"),
        (["classify-set"], "empty.rel", "# no relations\n", "{path}: no relations found"),
    ], ids=["cnfs-parse", "cnfs-argument", "cnfs-no-arguments", "rel-line", "rel-name",
            "rel-arity", "horn-head", "horn-body", "horn-clause", "rel-none"])
    def test_reader_errors_exit_2(self, capsys, tmp_path, argv, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert run(capsys, *argv, path) == (
            2, "", f"relconn: error: {message.format(path=path)}\n")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["graph", sample("triangle.cnfs"), "--dot"],
                                      ["reduce", sample("gr.cnfs"), "-o"]])
    def test_unwritable_output(self, capsys, tmp_path, argv):
        target = tmp_path / "no-such-dir" / "out"
        code, out, err = run(capsys, *argv, target)
        assert (code, out) == (2, "")
        assert err.startswith(f"relconn: error: cannot write {target}: ")

    @pytest.mark.parametrize("command,text", [
        ("classify-set", "rel X 24 : {ones}\n"),
        ("conn", "rel X 24 : {ones}\nX({args})\n"),
    ], ids=["classify-set", "conn"])
    def test_arity_checked_before_the_mask(self, capsys, tmp_path, command, text):
        # the tuple of 24 ones would index bit 2^24 - 1 of a mask
        path = tmp_path / "wide"
        path.write_text(text.format(ones="1" * 24,
                                    args=",".join(f"x{j}" for j in range(24))))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, command, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "arity must be in 1..16, got 24" in err
        assert peak < 1 << 20  # the mask alone would take 2 MiB

    def test_huge_arity_under_a_memory_cap(self, tmp_path):
        # 40 ones would ask for a 2^40-bit mask; under the cap that is a
        # MemoryError traceback unless the arity is checked first
        pytest.importorskip("resource")
        path = tmp_path / "huge.rel"
        path.write_text(f"rel X 40 : {'1' * 40}\n")
        cap = 3 << 29  # 1.5 GiB of address space
        done = python("-c", "import resource, sys; "
                      f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
                      "from relconn.cli import main; "
                      "sys.exit(main(sys.argv[1:]))", "classify-set", str(path))
        assert done.returncode == 2, done.stderr
        assert "arity must be in 1..16, got 40" in done.stderr


def python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter on `src/`, with help text 80 columns wide."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def fresh_process(argv: list[str]) -> tuple[int, str, str]:
    done = python("-m", "relconn", *argv)
    return done.returncode, done.stdout, done.stderr


def _sequence() -> list[list[str]]:
    m, rconp = sample("m.rel"), sample("rconp.rel")
    triangle, conp = sample("triangle.cnfs"), sample("conp.cnfs")
    horn = sample("clauses.horn")
    calls = [
        ["conn", triangle, "--exit-status"],
        ["conn", triangle],
        ["conn"],
        ["classify-set", m],
        ["-h"],
        ["horn", "imp", horn, "u"],
        ["horn", "imp", horn, "y", "z"],
        ["-h"],
        ["stconn", conp, "0000", "0110", "--exit-status"],
        ["stconn", conp, "0000", "1000"],
        ["graph", triangle, "--dot", "-"],
        ["cpss-search", m, "--max-vars", "1"],
        ["cpss-search", sample("bijunctive.rel"), "--tries", "5", "--seed", "1"],
        # argv that read_argv hands to argparse
        ["conn", triangle, "--js"],
        ["conn", triangle, "--method=cpss"],
        ["horn", "imp", horn, "u", "--json", "y"],
        ["conn", "-h"],
    ]
    for argv in (["classify-relation", m], ["classify-set", rconp],
                 ["conn", sample("t.cnfs")], ["diameter", conp],
                 ["components", conp], ["report", conp],
                 ["horn", "selfimp", horn], ["horn", "normalize", horn],
                 ["reduce", sample("gr.cnfs")], ["express-m", m],
                 ["cpss-search", sample("bijunctive.rel"), "--tries", "5"]):
        calls += [argv, argv + ["--json"]]
    return calls


LEAVES = [c.words for c in cli.COMMANDS if c.func is not None]
# every option string of every command, with values good and bad for each,
# file-like positionals, and the tokens read_argv leaves to argparse
TOKENS = sorted({s for c in cli.COMMANDS for names, _ in c.args
                 for s in names if s.startswith("-")}) + [
    "auto", "brute", "cpss", "bogus", "5", "0", "-1", "1_0", " 7", "x7", "",
    "f.cnfs", "a", "0101", "-", "--", "-h", "--help", "--js", "--ex", "--out",
    "--method=cpss", "--seed=3", "-oout", "conn", "horn", "imp"]
POSITIONALS = st.sampled_from(["f.cnfs", "a", "0101", "-", "", "conn", "-1"])


def option_value(kwargs: dict):
    if "choices" in kwargs:
        return st.sampled_from([*kwargs["choices"], "bogus", "-h"])
    if kwargs.get("type") is int:
        return st.sampled_from(["0", "5", "-1", "1_0", " 7", "x7", ""])
    return st.sampled_from(["out", "-", "", "--json", "f.cnfs"])


@st.composite
def command_lines(draw):
    """A leaf command's words, then its options (each 0 to 2 times) and
    its positionals (a quarter of the time one short) in random order, the
    positionals half the time as one run; a quarter of the time with one
    token of TOKENS inserted."""
    cmd = draw(st.sampled_from([c for c in cli.COMMANDS if c.func is not None]))
    groups, run = [], []
    for names, kwargs in cmd.args:
        if not names[0].startswith("-"):
            count = draw(st.integers(1, 3)) if kwargs.get("nargs") == "+" else 1
            count -= draw(st.integers(0, 3)) == 0
            run += draw(st.lists(POSITIONALS, min_size=count, max_size=count))
            continue
        for _ in range(draw(st.integers(0, 2))):
            name = draw(st.sampled_from(names))
            if kwargs.get("action") == "store_true":
                groups.append([name])
            else:
                groups.append([name, draw(option_value(kwargs))])
    groups += [run] if draw(st.booleans()) else [[token] for token in run]
    argv = [token for group in draw(st.permutations(groups)) for token in group]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
    return [*cmd.words, *argv]


def argparse_namespace(argv: list[str]) -> dict | None:
    """vars() of what the parser returns for argv, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestReadArgv:
    """cli.read_argv against argparse: whenever it accepts an argv, it
    returns the parser's namespace; whenever the parser exits, it returns
    None."""

    def test_leaves_are_the_parsers(self):
        assert sorted(LEAVES) == sorted(subcommands(build_parser()))

    @settings(max_examples=1500, deadline=None)
    @given(st.one_of(
        command_lines(),
        st.builds(lambda words, rest: [*words, *rest], st.sampled_from(LEAVES),
                  st.lists(st.sampled_from(TOKENS), max_size=8)),
        st.lists(st.sampled_from(TOKENS + ["horn", "selfimp", "graph"]), max_size=6)))
    @example(["horn", "imp", "f", "a", "--json", "b"])
    @example(["horn", "imp", "f", "a", "b", "--json"])
    @example(["horn", "imp", "--json", "f", "a", "b"])
    @example(["stconn", "f", "--json", "0", "1"])
    @example(["conn", "f", "--json", "--method", "cpss", "--exit-status"])
    @example(["conn", "-h"])
    @example(["conn", "f", "--js"])
    @example(["conn", "f", "--method=cpss"])
    @example(["cpss-search", "f", "--seed", "-1"])
    @example(["cpss-search", "f", "--seed", "1_0", "--max-vars", "x"])
    @example(["graph", "f"])
    @example(["graph", "f", "--dot", "-"])
    @example(["graph", "-", "--dot", "-"])
    @example(["graph", "--dot", "-", "-"])
    @example(["reduce", "f", "-o", "out", "--output", "other"])
    @example(["horn"])
    @example([])
    def test_agrees_with_argparse(self, argv):
        got = read_argv(argv)
        want = argparse_namespace(argv)
        if got is not None:
            assert want is not None, argv
            assert vars(got) == want, argv
            assert isinstance(got, argparse.Namespace)

    @pytest.mark.parametrize("argv", [
        ["conn", "f", "--method", "auto", "--json"],
        ["stconn", "f", "0", "1", "--exit-status"],
        ["horn", "imp", "f", "a", "b"],
        ["graph", "f", "--dot", "-"],
        ["cpss-search", "f", "--seed", "3", "--tries", "5", "--max-vars", "4"],
        ["reduce", "--json", "-o", "out", "f"],
    ])
    def test_reads_common_command_lines(self, argv):
        assert vars(read_argv(argv)) == argparse_namespace(argv)

    @pytest.mark.parametrize("argv", [
        ["horn", "imp", "f", "a", "--json", "b"],  # argparse: unrecognized b
        ["stconn", "f", "--json", "0", "1"],       # split run, though valid
        ["conn", "f", "--js"], ["conn", "f", "--method=cpss"], ["conn", "-h"],
        ["cpss-search", "f", "--seed", "-1"], ["graph", "f"], ["horn"], [],
    ])
    def test_hands_the_rest_to_argparse(self, argv):
        assert read_argv(argv) is None


class TestRepeatedCalls:
    """main() called many times in one process answers each call as a
    fresh process would: the reused parser carries nothing between calls."""

    def test_sequence_matches_fresh_processes(self, capsys, monkeypatch):
        calls = _sequence()
        expected = [fresh_process(argv) for argv in calls]
        monkeypatch.setenv("COLUMNS", "80")
        got = [run(capsys, *argv) for argv in calls]
        for argv, want, have in zip(calls, expected, got):
            assert have == want, argv
        codes = [code for code, _, _ in got]
        assert codes[:3] == [1, 0, 2]
        assert got[4] == got[7] and got[4][1].startswith("usage: relconn")
        assert got[5][1] != got[6][1]

    def test_fifty_calls_build_the_parser_at_most_once(self, capsys,
                                                       monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "relconn":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for i in range(50):
            argv = ["classify-set", sample("m.rel")] + ["--json"] * (i % 2)
            assert run(capsys, *argv)[0] == 0
        assert len(built) <= 1

    def test_import_builds_no_parser(self):
        done = python("-c", (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import relconn.cli\n"
            "print(len(built))\n"))
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr

    def test_import_builds_no_table_or_cache(self):
        # the clause translation's tables and kept translations and the
        # profile cache are filled on first use, so the import stays cheap
        done = python("-c", (
            "import relconn.cli\n"
            "from relconn import classify, formulas\n"
            "print(classify._profile_facts.cache_info().currsize,\n"
            "      len(formulas._TEMPLATES), len(formulas._TABLES))\n"))
        assert (done.returncode, done.stdout) == (0, "0 0 0\n"), done.stderr

    def test_python_dash_m_reads_sys_argv(self, capsys):
        for argv in (["classify-set", sample("m.rel")],
                     ["classify-set", sample("m.rel"), "--json"]):
            assert fresh_process(argv) == run(capsys, *argv)



def readme_examples():
    """(argv, expected stdout) for each `$ relconn ...` line in the README's
    sh blocks; its output runs to the next blank line or the block's end."""
    examples, current, in_sh = [], None, False
    for line in (SAMPLES.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh, current = line == "```sh" and not in_sh, None
        elif in_sh and line.startswith("$ relconn "):
            current = []
            examples.append((line.split()[2:], current))
        elif in_sh and line and current is not None:
            current.append(line + "\n")
        else:
            current = None
    return [(argv, "".join(out)) for argv, out in examples]


README_EXAMPLES = readme_examples()


class TestReadme:
    def test_examples_found(self):
        assert len(README_EXAMPLES) == 5

    @pytest.mark.parametrize("argv, want", README_EXAMPLES,
                             ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
    def test_example_output(self, capsys, monkeypatch, argv, want):
        # the README's paths are relative to the repository root
        monkeypatch.chdir(SAMPLES.parent)
        assert run(capsys, *argv) == (0, want, "")
