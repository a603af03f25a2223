"""Compare the program's JSON output for an operation with the oracle.

`check(op, stdout, workdir)` returns (ok, route, reason).  The route is the
decision procedure the program reports, where it reports one.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import oracle
from .gen import Op
from .oracle import Rel

STATIC_ROUTE = {"classify-set": "sweep", "express-m": "express", "reduce": "reduction",
                "components": "brute", "stconn": "brute", "diameter": "brute",
                "horn-selfimp": "horn", "horn-normalize": "horn"}


def _classify_set(op: Op, out: dict, workdir: Path) -> str | None:
    cl = out["classification"]
    kinds = op.expect["schaefer_kinds"]
    if cl["schaefer_kinds"] != kinds or cl["schaefer"] != bool(kinds):
        return f"schaefer kinds {cl['schaefer_kinds']}, expected {kinds}"
    want = op.expect["set_class"]
    if want is not None and cl["set_class"] != want:
        return f"set class {cl['set_class']}, expected {want}"
    return None


def _express_m(op: Op, out: dict, workdir: Path) -> str | None:
    arity, members = op.expect["source"]
    if not oracle.expresses_m(out["formula"], Rel(arity, frozenset(members))):
        return "output formula does not define M over the input relation"
    return None


def _conn(op: Op, out: dict, workdir: Path) -> str | None:
    if out["connected"] is None:
        return "undecided"
    if out["connected"] != op.expect["connected"]:
        return f"connected={out['connected']}, expected {op.expect['connected']}"
    if "satisfiable" in op.expect and out["method"] == "cpss" \
            and out["detail"]["satisfiable"] != op.expect["satisfiable"]:
        return "satisfiability disagrees"
    return None


def _components(op: Op, out: dict, workdir: Path) -> str | None:
    if oracle.canonical_components(out["components"]) != op.expect["digest"]:
        return "components differ"
    return None


def _stconn(op: Op, out: dict, workdir: Path) -> str | None:
    dist = op.expect["distance"]
    if out["connected"] != (dist is not None):
        return f"connected={out['connected']}, expected distance {dist}"
    if dist is None:
        return None
    path = out["path"]
    s, t = op.argv[2], op.argv[3]
    if len(path) != dist + 1 or path[0] != s or path[-1] != t:
        return f"path of length {len(path) - 1} is not a shortest {s}-{t} path"
    if any(sum(a != b for a, b in zip(u, v)) != 1 for u, v in zip(path, path[1:])):
        return "path steps are not single flips"
    cnf = oracle.parse_cnf((workdir / op.argv[1]).read_text())
    if not all(oracle.evaluate(cnf, int(p, 2)) for p in path):
        return "path leaves the solution set"
    return None


def _diameter(op: Op, out: dict, workdir: Path) -> str | None:
    if out["diameter"] != op.expect["diameter"]:
        return f"diameter {out['diameter']}, expected {op.expect['diameter']}"
    return None


def _reduce(op: Op, out: dict, workdir: Path) -> str | None:
    cnf = oracle.parse_cnf(out["formula"])
    sat = oracle.solution_table(cnf)
    disconnected = len(oracle.components(sat, cnf.n)) > 1
    if disconnected != op.expect["input_satisfiable"]:
        return (f"output disconnected={disconnected}, input satisfiable="
                f"{op.expect['input_satisfiable']}")
    return None


def _selfimp(op: Op, out: dict, workdir: Path) -> str | None:
    got = sorted(sorted(s) for s in out["maximal_self_implicating"])
    if got != op.expect["sets"]:
        return "maximal self-implicating sets differ"
    return None


def _normalize(op: Op, out: dict, workdir: Path) -> str | None:
    if out["variables"] != op.expect["variables"]:
        return "variables changed"
    clauses = [oracle.parse_horn_clause(c) for c in out["clauses"]]
    sat = oracle.horn_table(tuple(out["variables"]), clauses)
    if oracle.table_digest(sat) != op.expect["digest"]:
        return "normal form changed the solution set"
    return None


CHECKS = {"classify-set": _classify_set, "express-m": _express_m, "conn": _conn,
          "components": _components, "stconn": _stconn, "diameter": _diameter,
          "reduce": _reduce, "horn-selfimp": _selfimp, "horn-normalize": _normalize}


def check(op: Op, stdout: str, workdir: Path) -> tuple[bool, str | None, str | None]:
    try:
        out = json.loads(stdout)
        reason = CHECKS[op.kind](op, out, workdir)
        route = out.get("method") if op.kind == "conn" else STATIC_ROUTE[op.kind]
    except (ValueError, KeyError, TypeError) as exc:
        return False, None, f"unreadable output: {type(exc).__name__}: {exc}"
    return reason is None, route, reason
