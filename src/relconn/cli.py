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

`main(argv)` may be called any number of times in one process. The
argument parser is built on the first call and reused after that;
`parse_args` returns a fresh namespace each time, so no call sees
another's arguments. Importing the module builds nothing.
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
        return Path(path).read_text()
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


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON")


def _add_exit_status(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exit-status", action="store_true",
                   help="exit 1 when the answer is no, 3 when it is undecided")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `relconn` parser, built once per process and shared by every
    `main` call; callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="relconn",
        description="Connectivity of Boolean constraint solution graphs.")
    # main reads these on every subcommand, also where the option is absent
    ap.set_defaults(json=False, exit_status=False, output=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-relation", help="closure profile per relation")
    p.add_argument("file", help="relation file")
    _add_json(p)
    p.set_defaults(func=cmd_classify_relation)

    p = sub.add_parser("classify-set", help="trichotomy class and predictions")
    p.add_argument("file", help="relation file")
    _add_json(p)
    p.set_defaults(func=cmd_classify_set)

    p = sub.add_parser("conn", help="is the solution graph connected?")
    p.add_argument("file", help="formula file")
    p.add_argument("--method", choices=("auto", "brute", "cpss"), default="auto")
    _add_json(p)
    _add_exit_status(p)
    p.set_defaults(func=cmd_conn)

    p = sub.add_parser("stconn", help="are two solutions connected?")
    p.add_argument("file", help="formula file")
    p.add_argument("s", help="source assignment, e.g. 0101")
    p.add_argument("t", help="target assignment")
    _add_json(p)
    _add_exit_status(p)
    p.set_defaults(func=cmd_stconn)

    p = sub.add_parser("diameter", help="largest eccentricity within a component")
    p.add_argument("file", help="formula file")
    _add_json(p)
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("components", help="list solution components")
    p.add_argument("file", help="formula file")
    _add_json(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("graph", help="export the solution graph")
    p.add_argument("file", help="formula file")
    p.add_argument("--dot", dest="output", required=True, metavar="OUT",
                   help="DOT output path, - for stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("report", help="full solution-graph report")
    p.add_argument("file", help="formula file")
    _add_json(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("horn", help="Horn clause tools")
    hsub = p.add_subparsers(dest="horn_command", required=True)

    hp = hsub.add_parser("imp", help="variables implied by a set")
    hp.add_argument("file", help="Horn clause file")
    hp.add_argument("vars", nargs="+", help="seed variables")
    _add_json(hp)
    hp.set_defaults(func=cmd_horn_imp)

    hp = hsub.add_parser("selfimp", help="maximal self-implicating sets")
    hp.add_argument("file", help="Horn clause file")
    _add_json(hp)
    hp.set_defaults(func=cmd_horn_selfimp)

    hp = hsub.add_parser("normalize", help="apply the normal-form rules")
    hp.add_argument("file", help="Horn clause file")
    _add_json(hp)
    hp.set_defaults(func=cmd_horn_normalize)

    p = sub.add_parser("reduce",
                       help="satisfiability to disconnectivity over M")
    p.add_argument("file", help="formula file over P and N")
    p.add_argument("-o", "--output", metavar="OUT",
                   help="write the output (formula or JSON) here")
    _add_json(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("express-m",
                       help="pin a Horn relation down to the relation M")
    p.add_argument("file", help="relation file; the first relation is used")
    _add_json(p)
    p.set_defaults(func=cmd_express_m)

    p = sub.add_parser("cpss-search",
                       help="experimental random search for projection "
                            "counterexamples (asserts nothing)")
    p.add_argument("file", help="relation file for the constraint pool")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tries", type=int, default=200)
    p.add_argument("--max-vars", type=int, default=8)
    _add_json(p)
    p.set_defaults(func=cmd_cpss_search)

    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command line; the only place that writes a result."""
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
