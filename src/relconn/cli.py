"""Command-line interface.

Each `cmd_*` handler computes its subcommand's result and returns it as an
`Answer`: a function that builds the JSON document, a function that
renders the text form, and whether the answer is "no".  `main` alone
chooses between JSON (`--json`, on every subcommand but `graph`) and text,
and writes the result to stdout or to the file that `graph --dot OUT` or
`reduce -o OUT` names (`-` is stdout); a file gets exactly what would be
printed.  Each form is built only when it is printed, so the `--json` path
formats no text and the text path builds no document.

The JSON format is decided here alone.  The library's result dataclasses
carry no serializer: each renders as the dict of its fields, so a new field
is a new key.  The one document shaped by hand is `conn`'s cpss detail,
which adds "method": "cpss" and lists each projection's tuples.  A library
caller gets the same text from `render_json(obj)`, for instance
`render_json(solution_graph.report(phi))`.

Exit codes: 0 on success, 2 on usage or input errors.  With
--exit-status, a boolean query exits 1 on a "no" answer and 3 when `conn`
leaves the answer undecided (too large to enumerate).

Every command is declared once, in COMMANDS: its words, its handler, its
help line and its arguments.  `build_parser` builds the argparse parser
from the table, and `read_argv` reads a well-formed command line (a
command's words, its exact option strings with valid values, and one run
of positionals) from the same table into the namespace the parser would
return, without argparse's per-call cost.  Any other command line,
including -h, abbreviations and every error, goes to argparse, which
prints every help, usage and error message as before.

`main(argv)` may be called any number of times in one process. The
parser and the table's per-command lookups are built on the first call
that needs them and reused after that; each call gets a fresh namespace,
so no call sees another's arguments. Importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import horn as hornmod
from . import solution_graph as sg
from .catalog import parse_relations
from .classify import RelationProfile, classify_set, predict, profile
from .constructions import express_m_details, reduce_sat_to_conn
from .cpss import CpssReport, decide_connectivity, search_separation_counterexample
from .errors import RelconnError
from .formulas import ClauseSet, Formula, format_formula, parse_formula


class Answer(NamedTuple):
    """A subcommand's result: its JSON document and its text form, each
    built on demand, and the exit code --exit-status gives it (1 for "no",
    3 for undecided)."""
    doc: Callable[[], object]
    text: Callable[[], str]
    status: int = 0


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise RelconnError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_formula(path: str) -> Formula:
    return parse_formula(_read(path))


def _load_relations(path: str):
    rels = parse_relations(_read(path))
    if not rels:
        raise RelconnError(f"{path}: no relations found")
    return rels


def _load_horn(path: str) -> ClauseSet:
    return hornmod.parse_horn(_read(path))


def render_json(doc: object) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2, default=vars)`, byte for
    byte, for a document of dicts with str keys, lists and tuples, str, int,
    bool, None and result dataclasses, each of which renders as the dict of
    its fields; the standard encoder runs in pure Python whenever it
    indents."""
    chunks: list[str] = []
    _render(doc, "\n", chunks)
    return "".join(chunks)


def _render(doc: object, indent: str, chunks: list[str]) -> None:
    """Append the text of doc, nested at `indent`, to chunks.  The parts
    are joined once, at the end, not copied again at every level."""
    if isinstance(doc, str):
        chunks.append(encode_basestring_ascii(doc))
    elif doc is None:
        chunks.append("null")
    elif isinstance(doc, bool):
        chunks.append("true" if doc else "false")
    elif isinstance(doc, int):
        chunks.append(int.__repr__(doc))
    elif isinstance(doc, (dict, list, tuple)):
        if not doc:
            chunks.append("{}" if isinstance(doc, dict) else "[]")
            return
        inner = indent + "  "
        sep = "," + inner
        if isinstance(doc, dict):
            lead = "{" + inner
            for k in sorted(doc):
                chunks.append(lead + encode_basestring_ascii(k) + ": ")
                _render(doc[k], inner, chunks)
                lead = sep
            chunks.append(indent + "}")
            return
        try:  # a list of strings, most answers' bulk, in one C-level pass
            body = sep.join(map(encode_basestring_ascii, doc))
        except TypeError:
            lead = "[" + inner
            for x in doc:
                chunks.append(lead)
                _render(x, inner, chunks)
                lead = sep
        else:
            chunks += ("[" + inner, body)
        chunks.append(indent + "]")
    elif is_dataclass(doc):  # a result type: the dict of its fields
        _render(vars(doc), indent, chunks)
    else:
        raise TypeError(f"{type(doc).__name__} is not a JSON answer type")


def _lines(lines: Iterable[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def _profile_line(p: RelationProfile) -> str:
    d = vars(p)
    line = f"{p.name} (arity {p.arity}): " + ", ".join(k for k, v in d.items() if v is True)
    unknown = [k for k, v in d.items() if v is None]
    return line + "; unknown: " + ", ".join(unknown) if unknown else line


def cmd_classify_relation(args) -> Answer:
    profiles = [profile(r) for r in _load_relations(args.file).values()]
    return Answer(lambda: profiles, lambda: _lines(map(_profile_line, profiles)))


def cmd_classify_set(args) -> Answer:
    cl = classify_set(_load_relations(args.file).values())
    pr = predict(cl)
    return Answer(lambda: {"classification": cl, "prediction": pr},
                  lambda: f"{cl.set_class}; Conn_C: {pr.conn}; st-Conn_C: {pr.st_conn}; "
                          f"diameter: {pr.diameter_bound}\n")


def _cpss_detail(report: CpssReport) -> dict:
    """The cpss route's detail: the report's fields, "method": "cpss", and
    each projection's relation as its list of tuples."""
    projections = []
    for p in report.projections:
        doc = vars(p) | {"tuples": p.relation.tuples()}
        del doc["relation"]
        projections.append(doc)
    return vars(report) | {"method": "cpss", "projections": projections}


def cmd_conn(args) -> Answer:
    decision = decide_connectivity(_load_formula(args.file), method=args.method)

    def doc() -> dict:
        if isinstance(decision.detail, CpssReport):
            return vars(decision) | {"detail": _cpss_detail(decision.detail)}
        return vars(decision)

    def text() -> str:
        if decision.connected is None:
            return (f"undecided (too large to enumerate); set class {decision.set_class}, "
                    f"predicted {decision.prediction.conn}\n")
        return "connected\n" if decision.connected else "disconnected\n"

    status = {None: 3, False: 1, True: 0}[decision.connected]
    return Answer(doc, text, status)


def cmd_stconn(args) -> Answer:
    ok, path = sg.st_connected(_load_formula(args.file), args.s, args.t)
    return Answer(lambda: {"connected": ok, "path": list(path) if path else None},
                  lambda: f"connected: {' '.join(path)}\n" if ok else "disconnected\n",
                  status=0 if ok else 1)


def cmd_diameter(args) -> Answer:
    d = sg.diameter(_load_formula(args.file))
    return Answer(lambda: {"diameter": d}, lambda: f"{d}\n")


def cmd_components(args) -> Answer:
    comps = sg.components(_load_formula(args.file))
    return Answer(lambda: {"components": [list(c) for c in comps]},
                  lambda: _lines(" ".join(c) for c in comps) if comps else "unsatisfiable\n")


def cmd_graph(args) -> Answer:
    dot = sg.export_dot(_load_formula(args.file))
    return Answer(lambda: None, lambda: dot)


def cmd_report(args) -> Answer:
    rep = sg.report(_load_formula(args.file))
    return Answer(lambda: rep, lambda: _lines([
        f"variables: {rep.n_variables}",
        f"solutions: {rep.n_solutions}",
        f"connected: {str(rep.connected).lower()}",
        f"diameter: {rep.diameter}",
        *(f"component {i}: " + " ".join(c) for i, c in enumerate(rep.components))]))


def cmd_horn_imp(args) -> Answer:
    view = _load_horn(args.file)
    missing = [v for v in args.vars if v not in view.variables]
    if missing:
        raise RelconnError(f"unknown variables: {', '.join(missing)}")
    result = sorted(hornmod.imp(view, args.vars))
    return Answer(lambda: {"imp": result}, lambda: " ".join(result) + "\n")


def cmd_horn_selfimp(args) -> Answer:
    sets = [sorted(s) for s in hornmod.maximal_self_implicating_sets(_load_horn(args.file))]
    return Answer(lambda: {"maximal_self_implicating": sets},
                  lambda: _lines(" ".join(s) or "(empty)" for s in sets))


def cmd_horn_normalize(args) -> Answer:
    normal = hornmod.normalize(_load_horn(args.file))
    return Answer(lambda: {"variables": list(normal.variables),
                           "clauses": [hornmod.format_clause(c) for c in normal.clauses]},
                  lambda: hornmod.format_horn(normal))


def cmd_reduce(args) -> Answer:
    red = reduce_sat_to_conn(_load_formula(args.file))
    formula = format_formula(red.formula)
    return Answer(lambda: {"formula": formula,
                           "input_variables": list(red.input_variables),
                           "chain_variables": list(red.chain_variables),
                           "gadget_variables": [list(g) for g in red.gadget_variables]},
                  lambda: formula)


def cmd_express_m(args) -> Answer:
    rels = _load_relations(args.file)
    out = express_m_details(next(iter(rels.values())))
    formula = format_formula(out.formula)
    return Answer(lambda: {"formula": formula, "shape": out.shape, "slots": list(out.slots)},
                  lambda: formula)


def cmd_cpss_search(args) -> Answer:
    """Experimental: look for non-CPSS behavior at random; asserts nothing."""
    rels = _load_relations(args.file)
    hit = search_separation_counterexample(
        list(rels.values()), seed=args.seed, tries=args.tries,
        max_vars=args.max_vars)
    formula = format_formula(hit) if hit else None
    return Answer(lambda: {"found": hit is not None, "formula": formula},
                  lambda: formula or "none found\n")


def _arg(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One argument of a command: the args and kwargs of its add_argument."""
    return names, kwargs


_JSON = _arg("--json", action="store_true", help="emit JSON")
_EXIT_STATUS = _arg("--exit-status", action="store_true",
                    help="exit 1 when the answer is no, 3 when it is undecided")


class Command(NamedTuple):
    """One entry of COMMANDS: a command's words, its handler (None for a
    group of commands, such as `horn`), its help line and its arguments."""
    words: tuple[str, ...]
    func: Callable[[argparse.Namespace], Answer] | None
    help: str
    args: tuple[tuple[tuple[str, ...], dict], ...] = ()


# Every command, in the order `relconn -h` lists them; a group precedes its
# commands.  build_parser and read_argv both read this table.
COMMANDS = (
    Command(("classify-relation",), cmd_classify_relation, "closure profile per relation",
            (_arg("file", help="relation file"), _JSON)),
    Command(("classify-set",), cmd_classify_set, "trichotomy class and predictions",
            (_arg("file", help="relation file"), _JSON)),
    Command(("conn",), cmd_conn, "is the solution graph connected?",
            (_arg("file", help="formula file"),
             _arg("--method", choices=("auto", "brute", "cpss"), default="auto"),
             _JSON, _EXIT_STATUS)),
    Command(("stconn",), cmd_stconn, "are two solutions connected?",
            (_arg("file", help="formula file"),
             _arg("s", help="source assignment, e.g. 0101"),
             _arg("t", help="target assignment"),
             _JSON, _EXIT_STATUS)),
    Command(("diameter",), cmd_diameter, "largest eccentricity within a component",
            (_arg("file", help="formula file"), _JSON)),
    Command(("components",), cmd_components, "list solution components",
            (_arg("file", help="formula file"), _JSON)),
    Command(("graph",), cmd_graph, "export the solution graph",
            (_arg("file", help="formula file"),
             _arg("--dot", dest="output", required=True, metavar="OUT",
                  help="DOT output path, - for stdout"))),
    Command(("report",), cmd_report, "full solution-graph report",
            (_arg("file", help="formula file"), _JSON)),
    Command(("horn",), None, "Horn clause tools"),
    Command(("horn", "imp"), cmd_horn_imp, "variables implied by a set",
            (_arg("file", help="Horn clause file"),
             _arg("vars", nargs="+", help="seed variables"), _JSON)),
    Command(("horn", "selfimp"), cmd_horn_selfimp, "maximal self-implicating sets",
            (_arg("file", help="Horn clause file"), _JSON)),
    Command(("horn", "normalize"), cmd_horn_normalize, "apply the normal-form rules",
            (_arg("file", help="Horn clause file"), _JSON)),
    Command(("reduce",), cmd_reduce, "satisfiability to disconnectivity over M",
            (_arg("file", help="formula file over P and N"),
             _arg("-o", "--output", metavar="OUT",
                  help="write the output (formula or JSON) here"),
             _JSON)),
    Command(("express-m",), cmd_express_m, "pin a Horn relation down to the relation M",
            (_arg("file", help="relation file; the first relation is used"), _JSON)),
    Command(("cpss-search",), cmd_cpss_search,
            "experimental random search for projection counterexamples (asserts nothing)",
            (_arg("file", help="relation file for the constraint pool"),
             _arg("--seed", type=int, default=0),
             _arg("--tries", type=int, default=200),
             _arg("--max-vars", type=int, default=8),
             _JSON)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `relconn` parser, built from COMMANDS once per process and
    shared by every `main` call; callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="relconn",
        description="Connectivity of Boolean constraint solution graphs.")
    # main reads these on every command, also where the option is absent;
    # read_argv starts its namespace from the same three
    ap.set_defaults(json=False, exit_status=False, output=None)
    groups = {(): ap.add_subparsers(dest="command", required=True)}
    for cmd in COMMANDS:
        p = groups[cmd.words[:-1]].add_parser(cmd.words[-1], help=cmd.help)
        if cmd.func is None:
            groups[cmd.words] = p.add_subparsers(dest=f"{cmd.words[-1]}_command",
                                                 required=True)
            continue
        for names, kwargs in cmd.args:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=cmd.func)
    return ap


@functools.cache
def _leaves() -> dict[tuple[str, ...], tuple]:
    """For each leaf command's words: the namespace argparse starts it from
    (build_parser's set_defaults, then what the command's parsers set
    before reading its tokens), its option strings, each with its
    argument's dest and kwargs, its positionals' (dest, nargs) and the
    dests of its required options."""
    leaves = {}
    for cmd in COMMANDS:
        if cmd.func is None:
            continue
        words = cmd.words
        start = {"json": False, "exit_status": False, "output": None,
                 "command": words[0], "func": cmd.func}
        if len(words) > 1:
            start[f"{words[0]}_command"] = words[1]
        options, positionals, required = {}, [], set()
        for names, kwargs in cmd.args:
            if not names[0].startswith("-"):
                positionals.append((names[0], kwargs.get("nargs")))
                continue
            long = next((s for s in names if s.startswith("--")), names[0])
            dest = kwargs.get("dest") or long.lstrip("-").replace("-", "_")
            flag = kwargs.get("action") == "store_true"
            start[dest] = kwargs.get("default", False if flag else None)
            options.update(dict.fromkeys(names, (dest, flag, kwargs)))
            if kwargs.get("required"):
                required.add(dest)
        leaves[words] = start, options, positionals, frozenset(required)
    return leaves


def read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, read from
    COMMANDS without argparse; None unless argv is well formed.

    Well formed means: a command's words, then tokens of three kinds.  A
    token that starts with "-", other than "-" itself, is exactly one of
    the command's option strings (so never -h, --help, an abbreviation or
    --opt=value).  A value option's value is the next token; it does not
    start with "-" unless it is "-", and it passes the option's type and
    choices.  The other tokens form one contiguous run, one token for each
    positional, where a nargs="+" positional, the last, takes the rest of
    the run: argparse would split separated runs differently.  Every
    required option is present.  On None, argparse parses argv, or prints
    its usage error, as always.
    """
    leaves = _leaves()
    n = 1 if tuple(argv[:1]) in leaves else 2
    leaf = leaves.get(tuple(argv[:n]))
    if leaf is None:
        return None
    start, options, positionals, required = leaf
    ns = dict(start)
    seen = set()
    run: list[str] = []
    run_end = 0
    i = n
    while i < len(argv):
        token = argv[i]
        i += 1
        if token not in options:
            if token.startswith("-") and token != "-":
                return None
            if run and run_end != i - 1:
                return None  # a second run of positionals
            run.append(token)
            run_end = i
            continue
        dest, flag, kwargs = options[token]
        seen.add(dest)
        if flag:
            ns[dest] = True
            continue
        if i == len(argv) or argv[i].startswith("-") and argv[i] != "-":
            return None
        value = argv[i]
        i += 1
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except (TypeError, ValueError):
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        ns[dest] = value
    if not required <= seen:
        return None
    extra = len(run) - len(positionals)
    if extra < 0 or extra and positionals[-1][1] != "+":
        return None
    for k, (dest, nargs) in enumerate(positionals):
        ns[dest] = run[k:] if nargs == "+" else run[k]
    args = argparse.Namespace()
    vars(args).update(ns)
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command line; the only place that writes a result."""
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        answer = args.func(args)
        out = render_json(answer.doc()) + "\n" if args.json else answer.text()
        if args.output in (None, "-"):
            sys.stdout.write(out)
        else:
            try:
                Path(args.output).write_text(out)
            except OSError as exc:
                raise RelconnError(
                    f"cannot write {args.output}: {exc.strerror or exc}") from exc
    except RelconnError as exc:
        print(f"relconn: error: {exc}", file=sys.stderr)
        return 2
    return answer.status if args.exit_status else 0


if __name__ == "__main__":
    sys.exit(main())
