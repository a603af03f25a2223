"""Polynomial connectivity via constraint projections.

For formulas over a CPSS set (every relation bijunctive, or every relation
affine, or Horn with safe componentwise IHSB-, or dual Horn with safe
componentwise IHSB+), the solution graph is connected iff no projection of
the solution set onto the variables of a single constraint is disconnected.
Each projection tuple is decided by one polynomial satisfiability call on
the clause translation of the formula.  Outside CPSS the left-to-right
direction still holds (a disconnected projection forces a disconnected
graph), but the converse can fail, so conn_cpss guards its precondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .classify import SetClassification, classify_set, predict, Predictions
from .errors import ArityLimitError, ClauseExtractionError, NonCpssError, VarsLimitError
from .formulas import ClauseSet, CnfClause, Formula, XorEquation, to_clausal
from .relations import AFFINE, BIJUNCTIVE, DUAL_HORN, HORN, Relation
from . import solution_graph


def _condition_cnf(clauses: Sequence[CnfClause],
                   assumptions: Mapping[str, int]) -> list[tuple[frozenset[str], frozenset[str]]] | None:
    """Clauses after substituting the assumptions; None when one is falsified."""
    out = []
    for c in clauses:
        if any(assumptions.get(v) == 1 for v in c.pos) or \
           any(assumptions.get(v) == 0 for v in c.neg):
            continue
        pos = frozenset(v for v in c.pos if v not in assumptions)
        neg = frozenset(v for v in c.neg if v not in assumptions)
        if not pos and not neg:
            return None
        out.append((pos, neg))
    return out


def _sat_2cnf(variables: Sequence[str],
              clauses: list[tuple[frozenset[str], frozenset[str]]]) -> dict[str, int] | None:
    """Implication-graph 2-SAT; returns a model or None."""
    index = {v: i for i, v in enumerate(variables)}
    nv = len(variables)

    def lit(v: str, positive: bool) -> int:
        return 2 * index[v] + (0 if positive else 1)

    adj: list[list[int]] = [[] for _ in range(2 * nv)]
    for pos, neg in clauses:
        lits = [lit(v, True) for v in pos] + [lit(v, False) for v in neg]
        if len(lits) == 1:
            adj[lits[0] ^ 1].append(lits[0])
        elif len(lits) == 2:
            a, b = lits
            adj[a ^ 1].append(b)
            adj[b ^ 1].append(a)
        else:
            raise ClauseExtractionError("clause too wide for the 2-SAT solver")

    # iterative Tarjan; component ids increase from the sinks up
    comp = [-1] * (2 * nv)
    low = [0] * (2 * nv)
    num = [0] * (2 * nv)
    visited = [False] * (2 * nv)
    on_stack = [False] * (2 * nv)
    stack: list[int] = []
    counter = 0
    n_comp = 0
    for root in range(2 * nv):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                visited[node] = True
                num[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for k in range(ptr, len(adj[node])):
                nxt = adj[node][k]
                if not visited[nxt]:
                    work[-1] = (node, k + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], num[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == num[node]:
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp[top] = n_comp
                    if top == node:
                        break
                n_comp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    model = {}
    for v, i in index.items():
        if comp[2 * i] == comp[2 * i + 1]:
            return None
        model[v] = 1 if comp[2 * i] < comp[2 * i + 1] else 0
    return model


def _sat_horn(variables: Sequence[str],
              clauses: list[tuple[frozenset[str], frozenset[str]]]) -> dict[str, int] | None:
    """Minimal-model Horn satisfiability (all-zero default)."""
    ones: set[str] = set()
    definite = [(next(iter(pos)), neg) for pos, neg in clauses if pos]
    changed = True
    while changed:
        changed = False
        for head, neg in definite:
            if head not in ones and neg <= ones:
                ones.add(head)
                changed = True
    for pos, neg in clauses:
        if not pos and neg <= ones:
            return None
    return {v: (1 if v in ones else 0) for v in variables}


def _sat_affine(variables: Sequence[str], equations: Sequence[XorEquation],
                assumptions: Mapping[str, int]) -> dict[str, int] | None:
    """GF(2) elimination with the assumptions substituted in."""
    free_vars = [v for v in variables if v not in assumptions]
    index = {v: i for i, v in enumerate(free_vars)}
    rows: list[tuple[int, int]] = []
    for eq in equations:
        mask = 0
        rhs = eq.rhs
        for v in eq.vars:
            if v in assumptions:
                rhs ^= 1 if assumptions[v] else 0
            else:
                mask |= 1 << index[v]
        rows.append((mask, rhs))
    basis: dict[int, tuple[int, int]] = {}  # pivot bit -> row
    for mask, rhs in rows:
        while mask:
            piv = mask.bit_length() - 1
            if piv not in basis:
                basis[piv] = (mask, rhs)
                break
            bm, br = basis[piv]
            mask ^= bm
            rhs ^= br
        else:
            if rhs:
                return None
    values = {v: 0 for v in free_vars}
    for piv in sorted(basis):
        mask, rhs = basis[piv]
        acc = rhs
        rest = mask & ~(1 << piv)
        while rest:
            b = rest & -rest
            acc ^= values[free_vars[b.bit_length() - 1]]
            rest ^= b
        values[free_vars[piv]] = acc
    values.update({v: (1 if b else 0) for v, b in assumptions.items()})
    return values


def sat_schaefer(cs: ClauseSet,
                 assumptions: Mapping[str, int] | None = None) -> tuple[bool, dict[str, int] | None]:
    """Polynomial satisfiability of a clause set under a partial assignment.

    Returns (satisfiable, model); the model extends the assumptions and is
    re-checked against the clauses before being returned.
    """
    assumptions = dict(assumptions or {})
    if cs.schaefer_class == AFFINE:
        model = _sat_affine(cs.variables, cs.equations, assumptions)
    else:
        conditioned = _condition_cnf(cs.clauses, assumptions)
        if conditioned is None:
            return False, None
        rest = [v for v in cs.variables if v not in assumptions]
        if cs.schaefer_class == BIJUNCTIVE:
            model = _sat_2cnf(rest, conditioned)
        elif cs.schaefer_class == HORN:
            model = _sat_horn(rest, conditioned)
        elif cs.schaefer_class == DUAL_HORN:
            flipped = [(neg, pos) for pos, neg in conditioned]
            model = _sat_horn(rest, flipped)
            if model is not None:
                model = {v: 1 - b for v, b in model.items()}
        else:
            raise ClauseExtractionError(f"unknown clause class {cs.schaefer_class!r}")
        if model is not None:
            model.update(assumptions)
    if model is None:
        return False, None
    for c in cs.clauses:
        if not c.satisfied_by(model):
            raise AssertionError(f"solver returned a non-model at clause {c}")
    for e in cs.equations:
        if not e.satisfied_by(model):
            raise AssertionError("solver returned a non-model at an equation")
    return True, model


def _pick_class(classification: SetClassification, check: bool) -> str:
    if check:
        if not classification.cpss:
            raise NonCpssError(
                f"relation set is {classification.set_class}, not CPSS")
        return classification.cpss_kinds[0]
    kinds = classification.cpss_kinds or classification.schaefer_kinds
    if not kinds:
        raise NonCpssError("relation set is not even Schaefer; no clause translation")
    return kinds[0]


@dataclass(frozen=True)
class Projection:
    constraint_index: int
    constraint: str
    variables: tuple[str, ...]
    relation: Relation
    n_components: int

    def to_json(self) -> dict:
        return {
            "constraint": self.constraint,
            "constraint_index": self.constraint_index,
            "variables": list(self.variables),
            "tuples": self.relation.tuples(),
            "n_components": self.n_components,
        }


def project(phi: Formula, i: int, clause_set: ClauseSet | None = None,
            check: bool = True) -> Projection:
    """Projection of the solution set onto the variables of constraint i.

    Tuple a belongs iff the formula stays satisfiable with Var(C_i) pinned
    to a, so this is the i-th constraint's view of the whole formula, not
    the constraint's own relation.
    """
    from .relations import components as rel_components
    if clause_set is None:
        cls = _pick_class(classify_set(phi.used_relations()), check)
        clause_set = to_clausal(phi, cls)
    c = phi.constraints[i]
    vars_ = tuple(sorted(c.variables()))
    k = len(vars_)
    mask = 0
    for a in range(1 << k):
        assumption = {v: (a >> (k - 1 - j)) & 1 for j, v in enumerate(vars_)}
        ok, _ = sat_schaefer(clause_set, assumption)
        if ok:
            mask |= 1 << a
    rel = Relation(k, mask)
    return Projection(i, str(c), vars_, rel, len(rel_components(rel)))


@dataclass(frozen=True)
class CpssReport:
    connected: bool
    satisfiable: bool
    projections: tuple[Projection, ...]

    def to_json(self) -> dict:
        return {
            "connected": self.connected,
            "satisfiable": self.satisfiable,
            "method": "cpss",
            "projections": [p.to_json() for p in self.projections],
        }


def conn_cpss(phi: Formula, check: bool = True) -> CpssReport:
    """Connectivity by projections; sound and complete on CPSS sets.

    With check=False the precondition is skipped (used to exhibit wrong
    answers outside CPSS); the relations must still be in a common Schaefer
    class so the clause translation exists.
    """
    cls = _pick_class(classify_set(phi.used_relations()), check)
    clause_set = to_clausal(phi, cls)
    projections = []
    satisfiable = True
    disconnected = False
    for i in range(len(phi.constraints)):
        proj = project(phi, i, clause_set)
        projections.append(proj)
        if proj.relation.is_empty:
            satisfiable = False
        if proj.n_components > 1:
            disconnected = True
    if not satisfiable:
        disconnected = False  # no solutions: connected by convention
    return CpssReport(not disconnected, satisfiable, tuple(projections))


@dataclass(frozen=True)
class ConnDecision:
    connected: bool | None
    method: str
    set_class: str
    prediction: Predictions
    detail: dict

    def to_json(self) -> dict:
        return {
            "connected": self.connected,
            "method": self.method,
            "set_class": self.set_class,
            "prediction": self.prediction.to_json(),
            "detail": self.detail,
        }


def decide_connectivity(phi: Formula, method: str = "auto") -> ConnDecision:
    """Answer connectivity by the requested route.

    auto: the projection algorithm when the relation set is CPSS, otherwise
    brute force when the variable count permits, otherwise no answer (the
    classification's prediction is still reported).  The brute route
    answers connectivity only; solution_graph.report lists the components,
    the diameter and the minima.
    """
    classification = classify_set(phi.used_relations())
    prediction = predict(classification)
    if method not in ("auto", "brute", "cpss"):
        raise ValueError(f"unknown method {method!r}")
    if method == "cpss" or (method == "auto" and classification.cpss):
        report = conn_cpss(phi)
        return ConnDecision(report.connected, "cpss", classification.set_class,
                            prediction, report.to_json())
    if method == "brute" or method == "auto":
        try:
            connected = solution_graph.is_connected(phi)
        except VarsLimitError:
            if method == "brute":
                raise
            return ConnDecision(None, "none", classification.set_class,
                                prediction, {"reason": "too many variables"})
        return ConnDecision(connected, "brute", classification.set_class,
                            prediction, {"n_variables": phi.n})
    raise AssertionError("unreachable")


def search_separation_counterexample(relations: Sequence[Relation], seed: int,
                                     tries: int = 200, max_vars: int = 8,
                                     max_constraints: int = 4) -> Formula | None:
    """Random search for a disconnected formula whose projections all connect.

    Experimental: a hit certifies that the given relation set is not
    handled faithfully by the projection algorithm; exhausting the budget
    certifies nothing.
    """
    import random
    from .generators import random_formula
    rng = random.Random(seed)
    for _ in range(tries):
        phi = random_formula(rng, relations, max_vars, max_constraints)
        try:
            report = conn_cpss(phi, check=False)
        except (NonCpssError, ClauseExtractionError, ArityLimitError):
            return None
        if report.connected and not solution_graph.is_connected(phi):
            return phi
    return None
