"""Polynomial connectivity via constraint projections.

For formulas over a CPSS set (every relation bijunctive, or every relation
affine, or Horn with safe componentwise IHSB-, or dual Horn with safe
componentwise IHSB+), the solution graph is connected iff no projection of
the solution set onto the variables of a single constraint is disconnected.
Outside CPSS the left-to-right direction still holds (a disconnected
projection forces a disconnected graph), but the converse can fail, so
conn_cpss guards its precondition.

All projections of a formula come from one solver state built once on its
clause translation, one engine per clause class:

- Horn: clause-counter unit propagation (Dowling-Gallier 1984) of the
  minimal model, then per tuple only its 1-assumptions from that state;
- dual Horn: the Horn engine on the flipped clauses;
- bijunctive: one SCC condensation of the implication graph
  (Aspvall-Plass-Tarjan 1979) with reachability between components as
  bitsets; a tuple is feasible iff none of its literals reaches the
  negation of another (or of itself);
- affine: one GF(2) elimination, a particular solution plus a nullspace
  basis; a projection is the particular solution plus the span of the
  basis restricted to the constraint's variables.

Every GF(2) reduction here, as everywhere in the package, is
bitspace.gf2_reduce: the affine engine's system, sat_schaefer's affine
case and the linear dependencies among a projection's columns.

Each engine checks its base model against every clause or equation, and
every projection against the constraint's own relation.  sat_schaefer
answers single satisfiability queries with its own per-call model check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .bitspace import component_masks, gf2_reduce
from .classify import SetClassification, classify_set, predict, Predictions
from .errors import (ClauseExtractionError, NonCpssError, RelconnError,
                     VarsLimitError)
from .formulas import (ClauseSet, CnfClause, Formula, XorEquation, make_formula,
                       to_clausal)
from .relations import AFFINE, BIJUNCTIVE, DUAL_HORN, HORN, Relation
from . import solution_graph

Clauses = list[tuple[frozenset[str], frozenset[str]]]


def _condition_cnf(clauses: Sequence[CnfClause],
                   assumptions: Mapping[str, int]) -> Clauses | None:
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


def _implication_graph(index: Mapping[str, int], clauses: Clauses) -> list[list[int]]:
    """Implication graph of non-empty 2-clauses; variable i has the literal
    nodes 2i (true) and 2i + 1 (false)."""
    adj: list[list[int]] = [[] for _ in range(2 * len(index))]
    for pos, neg in clauses:
        lits = [2 * index[v] for v in pos] + [2 * index[v] + 1 for v in neg]
        if len(lits) == 1:
            adj[lits[0] ^ 1].append(lits[0])
        elif len(lits) == 2:
            a, b = lits
            adj[a ^ 1].append(b)
            adj[b ^ 1].append(a)
        else:
            raise ClauseExtractionError("clause too wide for the 2-SAT solver")
    return adj


def _tarjan(adj: list[list[int]]) -> tuple[list[int], int]:
    """Strongly connected components by iterative Tarjan.

    Returns (component id per node, number of components).  Ids increase
    from the sinks up: an edge between two components goes to the lower id.
    """
    size = len(adj)
    comp = [-1] * size
    low = [0] * size
    num = [0] * size
    visited = [False] * size
    on_stack = [False] * size
    stack: list[int] = []
    counter = 0
    n_comp = 0
    for root in range(size):
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
    return comp, n_comp


def _model_2cnf(variables: Sequence[str], comp: list[int]) -> dict[str, int] | None:
    """Model read off the condensation, or None when some x and -x share a
    component."""
    model = {}
    for i, v in enumerate(variables):
        if comp[2 * i] == comp[2 * i + 1]:
            return None
        model[v] = 1 if comp[2 * i] < comp[2 * i + 1] else 0
    return model


def _sat_2cnf(variables: Sequence[str], clauses: Clauses) -> dict[str, int] | None:
    """Implication-graph 2-SAT; returns a model or None."""
    adj = _implication_graph({v: i for i, v in enumerate(variables)}, clauses)
    return _model_2cnf(variables, _tarjan(adj)[0])


def _horn_propagate(seeds: Sequence[str], heads: list[str | None],
                    occ: dict[str, list[int]], need: list[int],
                    ones: frozenset[str] = frozenset()) -> tuple[set[str], dict[int, int]] | None:
    """Unit propagation with clause counters (Dowling-Gallier).

    Over a state where the variables in `ones` are 1 and need[j] body
    literals of clause j are still unset, sets the seeds to 1 and follows
    what they force.  Returns the newly forced variables and the changed
    counters, or None when a goal clause fires.  `need` and `ones` are
    only read, so one base state serves many queries.
    """
    new: set[str] = set()
    left: dict[int, int] = {}
    queue = list(seeds)
    while queue:
        v = queue.pop()
        if v in ones or v in new:
            continue
        new.add(v)
        for j in occ.get(v, ()):
            r = left.get(j, need[j]) - 1
            left[j] = r
            if r == 0:
                if heads[j] is None:
                    return None
                queue.append(heads[j])
    return new, left


HornState = tuple[list[str | None], list[int], dict[str, list[int]], frozenset[str]]


def _horn_base(clauses: Clauses) -> HornState | None:
    """Propagated state of a Horn clause list, or None when it is unsat.

    The state is the clause heads (None for a goal clause), the counters
    of body literals still unset, the clauses whose body holds each
    variable, and the ones of the minimal model.
    """
    heads: list[str | None] = []
    need: list[int] = []
    occ: dict[str, list[int]] = {}
    for j, (pos, neg) in enumerate(clauses):
        if len(pos) > 1:
            raise ClauseExtractionError("clause with two positive literals is not Horn")
        heads.append(next(iter(pos)) if pos else None)
        need.append(len(neg))
        for v in neg:
            occ.setdefault(v, []).append(j)
    facts = [h for h, r in zip(heads, need) if r == 0]
    if None in facts:
        return None
    base = _horn_propagate(facts, heads, occ, need)
    if base is None:
        return None
    ones, left = base
    return heads, [left.get(j, r) for j, r in enumerate(need)], occ, frozenset(ones)


def _sat_horn(variables: Sequence[str], clauses: Clauses) -> dict[str, int] | None:
    """Minimal-model Horn satisfiability (all-zero default), linear time."""
    base = _horn_base(clauses)
    if base is None:
        return None
    ones = base[-1]
    return {v: (1 if v in ones else 0) for v in variables}


AffineSystem = tuple[list[str], dict[int, tuple[int, int]], dict[str, int]]


def _affine_reduce(variables: Sequence[str], equations: Sequence[XorEquation],
                   assumptions: Mapping[str, int]) -> AffineSystem | None:
    """The equations with the 0/1 assumptions substituted, in reduced form.

    Returns the unassumed variables, the pivot rows (bit i stands for the
    i-th unassumed variable, the tag is the right-hand side) and the
    particular solution x0 over the unassumed variables that sets every
    non-pivot variable to 0; None when the system is inconsistent.
    """
    free = [v for v in variables if v not in assumptions]
    index = {v: i for i, v in enumerate(free)}
    rows = []
    for eq in equations:
        bits = 0
        rhs = eq.rhs
        for v in eq.vars:
            if v in assumptions:
                rhs ^= assumptions[v]
            else:
                bits |= 1 << index[v]
        rows.append((bits, rhs))
    pivots, zero_rhs = gf2_reduce(rows)
    if any(zero_rhs):
        return None
    x0 = dict.fromkeys(free, 0)
    for p, (_, rhs) in pivots.items():
        x0[free[p]] = rhs
    return free, pivots, x0


def sat_schaefer(cs: ClauseSet,
                 assumptions: Mapping[str, int] | None = None) -> tuple[bool, dict[str, int] | None]:
    """Polynomial satisfiability of a clause set under a partial assignment.

    Returns (satisfiable, model); the model extends the assumptions and is
    re-checked against the clauses before being returned.
    """
    assumptions = {v: 1 if b else 0 for v, b in (assumptions or {}).items()}
    if cs.schaefer_class == AFFINE:
        system = _affine_reduce(cs.variables, cs.equations, assumptions)
        model = None if system is None else system[2]
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
    if model is None:
        return False, None
    model.update(assumptions)
    _assert_model(cs, model)
    return True, model


def _assert_model(cs: ClauseSet, model: Mapping[str, int]) -> None:
    for c in cs.clauses:
        if not c.satisfied_by(model):
            raise AssertionError(f"solver returned a non-model at clause {c}")
    for e in cs.equations:
        if not e.satisfied_by(model):
            raise AssertionError("solver returned a non-model at an equation")


# --- projection engines ----------------------------------------------------
#
# Each builds one solver state for a whole clause set and returns a function
# from a tuple of distinct variables to the projection of the solution set
# onto them, as a mask (bit a set iff tuple a extends to a solution; the
# first variable is the most significant).

MaskOf = Callable[[tuple[str, ...]], int]


def _no_solutions(vars_: tuple[str, ...]) -> int:
    return 0


def _horn_projector(cs: ClauseSet, flip: bool) -> MaskOf:
    """Horn engine; with flip, dual Horn through the flipped clauses."""
    clauses = [(c.neg, c.pos) if flip else (c.pos, c.neg) for c in cs.clauses]
    base = _horn_base(clauses)
    if base is None:
        return _no_solutions
    heads, need, occ, ones = base
    _assert_model(cs, {v: int(v in ones) ^ flip for v in cs.variables})

    def mask_of(vars_: tuple[str, ...]) -> int:
        k = len(vars_)
        out = 0
        for a in range(1 << k):
            up, down = [], []
            for j, v in enumerate(vars_):
                (up if ((a >> (k - 1 - j)) & 1) ^ flip else down).append(v)
            if any(v in ones for v in down):
                continue
            forced = _horn_propagate(up, heads, occ, need, ones)
            if forced is not None and not any(v in forced[0] for v in down):
                out |= 1 << a
        return out
    return mask_of


def _bijunctive_projector(cs: ClauseSet) -> MaskOf:
    """2-SAT engine: a set of literals extends to a solution iff the formula
    is satisfiable and no literal of the set reaches the negation of one of
    them in the implication graph."""
    clauses = _condition_cnf(cs.clauses, {})  # None: an empty clause
    if clauses is None:
        return _no_solutions
    index = {v: i for i, v in enumerate(cs.variables)}
    adj = _implication_graph(index, clauses)
    comp, n_comp = _tarjan(adj)
    model = _model_2cnf(cs.variables, comp)
    if model is None:
        return _no_solutions
    _assert_model(cs, model)
    # reach[c]: bitset of the components reachable from component c.  Edges
    # go to lower ids, so visiting nodes by increasing id finishes every
    # successor component first.
    reach = [1 << c for c in range(n_comp)]
    for node in sorted(range(len(adj)), key=comp.__getitem__):
        c = comp[node]
        r = reach[c]
        for nxt in adj[node]:
            r |= reach[comp[nxt]]
        reach[c] = r

    def mask_of(vars_: tuple[str, ...]) -> int:
        k = len(vars_)
        # literal slot 2j + b stands for "vars_[j] = b"; node 2i + 1 - b
        nodes = [2 * index[v] + 1 - b for v in vars_ for b in (0, 1)]
        clash = [0] * (2 * k)
        for p, node_p in enumerate(nodes):
            r = reach[comp[node_p]]
            for q, node_q in enumerate(nodes):
                if (r >> comp[node_q ^ 1]) & 1:
                    clash[p] |= 1 << q
        out = 0
        for a in range(1 << k):
            slots = [2 * j + ((a >> (k - 1 - j)) & 1) for j in range(k)]
            chosen = sum(1 << s for s in slots)
            if not any(clash[s] & chosen for s in slots):
                out |= 1 << a
        return out
    return mask_of


def _affine_projector(cs: ClauseSet) -> MaskOf:
    """GF(2) engine: the solutions are x0 + span(nullspace), so projecting
    onto k variables gives x0 restricted to them plus the span of their k
    nullspace columns; a tuple belongs iff it meets every linear dependency
    among those columns the way x0 does."""
    system = _affine_reduce(cs.variables, cs.equations, {})
    if system is None:
        return _no_solutions
    variables, pivots, x0 = system
    _assert_model(cs, x0)
    # column of a free variable: itself; of a pivot: the free part of its row
    column = {v: pivots[i][0] ^ (1 << i) if i in pivots else 1 << i
              for i, v in enumerate(variables)}

    def mask_of(vars_: tuple[str, ...]) -> int:
        k = len(vars_)
        shift = sum(x0[v] << (k - 1 - j) for j, v in enumerate(vars_))
        # k-bit tuples u: the columns picked by u sum to zero
        _, deps = gf2_reduce((column[v], 1 << (k - 1 - j))
                             for j, v in enumerate(vars_))
        out = 0
        for a in range(1 << k):
            if all(((a ^ shift) & u).bit_count() % 2 == 0 for u in deps):
                out |= 1 << a
        return out
    return mask_of


def _projector(cs: ClauseSet) -> MaskOf:
    if cs.schaefer_class == AFFINE:
        return _affine_projector(cs)
    if cs.schaefer_class == BIJUNCTIVE:
        return _bijunctive_projector(cs)
    if cs.schaefer_class in (HORN, DUAL_HORN):
        return _horn_projector(cs, flip=cs.schaefer_class == DUAL_HORN)
    raise ClauseExtractionError(f"unknown clause class {cs.schaefer_class!r}")




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
    if clause_set is None:
        cls = _pick_class(classify_set(phi.used_relations()), check)
        clause_set = to_clausal(phi, cls)
    return _project_with(phi, i, clause_set.constraint_relations[i],
                         _projector(clause_set))


def _project_with(phi: Formula, i: int, pair: tuple[tuple[str, ...], Relation],
                  mask_of: MaskOf) -> Projection:
    vars_, own = pair
    mask = mask_of(vars_)
    c = phi.constraints[i]
    if mask & ~own.mask:
        raise AssertionError(f"projection onto {c} leaves the constraint's relation")
    rel = Relation(len(vars_), mask)
    return Projection(i, str(c), vars_, rel, len(component_masks(mask, rel.arity)))


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
    return _conn_cpss(phi, _pick_class(classify_set(phi.used_relations()), check))


_CONSTANTS = frozenset(("0", "1"))


def _conn_cpss(phi: Formula, cls: str) -> CpssReport:
    # a constraint on constants alone is true, and constrains nothing, or
    # false, and leaves no solutions: connected by convention
    live = [i for i, c in enumerate(phi.constraints) if not _CONSTANTS.issuperset(c.args)]
    translated = phi
    if len(live) < len(phi.constraints):
        if not all(int("".join(c.args), 2) in phi.relation_of(c)
                   for c in phi.constraints if _CONSTANTS.issuperset(c.args)):
            return CpssReport(True, False, ())
        if not live:
            return CpssReport(True, True, ())
        translated = make_formula([phi.constraints[i] for i in live],
                                  phi.library, phi.variables)
    clause_set = to_clausal(translated, cls)
    mask_of = _projector(clause_set)
    projections = tuple(_project_with(phi, i, pair, mask_of)
                        for i, pair in zip(live, clause_set.constraint_relations))
    satisfiable = not any(p.relation.is_empty for p in projections)
    # no solutions: connected by convention
    connected = not satisfiable or all(p.n_components <= 1 for p in projections)
    return CpssReport(connected, satisfiable, projections)


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
        report = _conn_cpss(phi, _pick_class(classification, True))
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
                                     tries: int = 200,
                                     max_vars: int = 8) -> Formula | None:
    """Random search for a disconnected formula whose projections all connect.

    Experimental: a hit certifies that the given relation set is not
    handled faithfully by the projection algorithm; exhausting the budget
    certifies nothing. Each formula has at most 4 constraints. Raises
    RelconnError when `max_vars` < 2 or `tries` < 0, and passes on the
    error of conn_cpss (NonCpssError, ClauseExtractionError,
    ArityLimitError) for the first formula whose relations lie outside the
    projection algorithm's class.
    """
    import random
    from .generators import random_formula
    if max_vars < 2:
        raise RelconnError(f"max_vars must be at least 2, got {max_vars}")
    if tries < 0:
        raise RelconnError(f"tries must be at least 0, got {tries}")
    rng = random.Random(seed)
    for _ in range(tries):
        phi = random_formula(rng, relations, max_vars, 4)
        report = conn_cpss(phi, check=False)
        if report.connected and not solution_graph.is_connected(phi):
            return phi
    return None
