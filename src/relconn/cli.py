"""Command-line interface.

Exit codes: 0 on success, 1 for a "no" answer to a boolean query when
--exit-status is given, 2 on usage or input errors.

`main(argv)` may be called any number of times in one process. The
argument parser is built on the first call and reused after that;
`parse_args` returns a fresh namespace each time, so no call sees
another's arguments. Importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import horn as hornmod
from . import solution_graph as sg
from .catalog import CATALOG, parse_relations
from .classify import classify_set, predict, profile
from .constructions import express_m_details, reduce_sat_to_conn
from .cpss import decide_connectivity, search_separation_counterexample
from .errors import RelconnError
from .formulas import Formula, format_formula, parse_formula


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise RelconnError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise RelconnError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_formula(path: str) -> Formula:
    return parse_formula(_read(path), CATALOG)


def _load_relations(path: str):
    rels = parse_relations(_read(path))
    if not rels:
        raise RelconnError(f"{path}: no relations found")
    return rels


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_json(obj) -> None:
    print(_json_text(obj), end="")


def cmd_classify_relation(args) -> int:
    rels = _load_relations(args.file)
    profiles = [profile(r) for r in rels.values()]
    if args.json:
        _emit_json([p.as_dict() for p in profiles])
        return 0
    for p in profiles:
        d = p.as_dict()
        props = [k for k, v in d.items() if v is True]
        unknown = [k for k, v in d.items() if v is None]
        line = f"{p.name} (arity {p.arity}): " + ", ".join(props)
        if unknown:
            line += "; unknown: " + ", ".join(unknown)
        print(line)
    return 0


def cmd_classify_set(args) -> int:
    rels = _load_relations(args.file)
    cl = classify_set(rels.values())
    pr = predict(cl)
    if args.json:
        _emit_json({"classification": cl.to_json(), "prediction": pr.to_json()})
    else:
        print(f"{cl.set_class}; Conn_C: {pr.conn}; st-Conn_C: {pr.st_conn}; "
              f"diameter: {pr.diameter_bound}")
    return 0


def cmd_conn(args) -> int:
    phi = _load_formula(args.file)
    decision = decide_connectivity(phi, method=args.method)
    if args.json:
        _emit_json(decision.to_json())
    elif decision.connected is None:
        print(f"undecided (too large to enumerate); set class {decision.set_class}, "
              f"predicted {decision.prediction.conn}")
    else:
        print("connected" if decision.connected else "disconnected")
    if args.exit_status and decision.connected is False:
        return 1
    return 0


def cmd_stconn(args) -> int:
    phi = _load_formula(args.file)
    ok, path = sg.st_connected(phi, args.s, args.t)
    if args.json:
        _emit_json({"connected": ok, "path": list(path) if path else None})
    elif ok:
        assert path is not None
        print("connected: " + " ".join(path))
    else:
        print("disconnected")
    return 1 if args.exit_status and not ok else 0


def cmd_diameter(args) -> int:
    phi = _load_formula(args.file)
    d = sg.diameter(phi)
    _emit_json({"diameter": d}) if args.json else print(d)
    return 0


def cmd_components(args) -> int:
    phi = _load_formula(args.file)
    comps = sg.components(phi)
    if args.json:
        _emit_json({"components": [list(c) for c in comps]})
    elif not comps:
        print("unsatisfiable")
    else:
        for c in comps:
            print(" ".join(c))
    return 0


def cmd_graph(args) -> int:
    phi = _load_formula(args.file)
    text = sg.export_dot(phi)
    if args.dot == "-":
        print(text, end="")
    else:
        _write(args.dot, text)
    return 0


def cmd_report(args) -> int:
    phi = _load_formula(args.file)
    rep = sg.report(phi)
    if args.json:
        _emit_json(rep.to_json())
    else:
        print(f"variables: {rep.n_variables}")
        print(f"solutions: {rep.n_solutions}")
        print(f"connected: {str(rep.connected).lower()}")
        print(f"diameter: {rep.diameter}")
        for i, c in enumerate(rep.components):
            print(f"component {i}: " + " ".join(c))
    return 0


def _load_horn(path: str) -> hornmod.HornView:
    return hornmod.parse_horn(_read(path))


def cmd_horn_imp(args) -> int:
    view = _load_horn(args.file)
    missing = [v for v in args.vars if v not in view.variables]
    if missing:
        raise RelconnError(f"unknown variables: {', '.join(missing)}")
    result = sorted(hornmod.imp(view, args.vars))
    _emit_json({"imp": result}) if args.json else print(" ".join(result))
    return 0


def cmd_horn_selfimp(args) -> int:
    view = _load_horn(args.file)
    sets = hornmod.maximal_self_implicating_sets(view)
    if args.json:
        _emit_json({"maximal_self_implicating": [sorted(s) for s in sets]})
    else:
        for s in sets:
            print(" ".join(sorted(s)) if s else "(empty)")
    return 0


def cmd_horn_normalize(args) -> int:
    view = _load_horn(args.file)
    normal = hornmod.normalize(view)
    if args.json:
        _emit_json({"variables": list(normal.variables),
                    "clauses": [hornmod.format_clause(c) for c in normal.clauses]})
    else:
        print(hornmod.format_horn(normal), end="")
    return 0


def cmd_reduce(args) -> int:
    psi = _load_formula(args.file)
    red = reduce_sat_to_conn(psi)
    text = format_formula(red.formula)
    if args.json:
        text = _json_text({
            "formula": text,
            "input_variables": list(red.input_variables),
            "chain_variables": list(red.chain_variables),
            "gadget_variables": [list(g) for g in red.gadget_variables],
        })
    if args.output and args.output != "-":
        _write(args.output, text)
    else:
        print(text, end="")
    return 0


def cmd_express_m(args) -> int:
    rels = _load_relations(args.file)
    rel = next(iter(rels.values()))
    out = express_m_details(rel)
    if args.json:
        _emit_json({"formula": format_formula(out.formula), "shape": out.shape,
                    "slots": list(out.slots)})
    else:
        print(format_formula(out.formula), end="")
    return 0


def cmd_cpss_search(args) -> int:
    """Experimental: look for non-CPSS behavior at random; asserts nothing."""
    rels = _load_relations(args.file)
    hit = search_separation_counterexample(
        list(rels.values()), seed=args.seed, tries=args.tries,
        max_vars=args.max_vars)
    if args.json:
        _emit_json({"found": hit is not None,
                    "formula": format_formula(hit) if hit else None})
    elif hit is None:
        print("none found")
    else:
        print(format_formula(hit), end="")
    return 0


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON")


def _add_exit_status(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exit-status", action="store_true",
                   help="exit 1 when the answer is no")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `relconn` parser, built once per process and shared by every
    `main` call; callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="relconn",
        description="Connectivity of Boolean constraint solution graphs.")
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
    p.add_argument("--dot", required=True, metavar="OUT",
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
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except RelconnError as exc:
        print(f"relconn: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
