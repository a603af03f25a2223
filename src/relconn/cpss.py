"""Polynomial connectivity via constraint projections.

For formulas over a CPSS set (every relation bijunctive, or every relation
affine, or Horn with safe componentwise IHSB-, or dual Horn with safe
componentwise IHSB+), the solution graph is connected iff no projection of
the solution set onto the variables of a single constraint is disconnected.
Outside CPSS the left-to-right direction still holds (a disconnected
projection forces a disconnected graph), but the converse can fail, so
conn_cpss guards its precondition.

All projections of a formula come from one solver state built once on its
clause translation, by one of two engines:

- Horn, dual Horn and bijunctive clauses: clause-counter unit propagation
  over literals (var, value).  The base state is the unit clauses
  propagated once.  Satisfiability is decided by extending the base
  state to a model: each unset variable takes the class default (0, or 1
  for dual Horn), or the other value when the default conflicts; if both
  conflict, there is no model.  On satisfiable clauses, a tuple belongs to
  a projection iff its literals propagate from the base state without
  conflict.  That is complete for the three classes.  On Horn clauses, a
  conflict-free state extends to a model by setting every unset variable
  to 0, so unit propagation refutes every unsatisfiable Horn clause set
  (Dowling-Gallier 1984); dual Horn is the same with 1.  On a satisfiable
  2-CNF, a conflict-free state leaves untouched only clauses of the
  formula whose variables are all unset, which any model of the formula
  satisfies, so the state extends to a model (Even-Itai-Shamir 1976).
  The default never conflicts on Horn or dual Horn clauses, so
  sat_schaefer, which propagates the assumptions and then extends to a
  model the same way, returns the minimal Horn model and the maximal dual
  Horn one.
- affine: one GF(2) elimination, a particular solution plus a nullspace
  basis; a projection is the particular solution plus the span of the
  basis restricted to the constraint's variables.

A projection onto Var(C_i) lies inside C_i's folded relation, which
to_clausal keeps in ClauseSet.constraint_relations, so each engine tests
only that relation's members, not the whole cube of 2^|Var(C_i)| tuples.

Every GF(2) reduction here, as everywhere in the package, is
bitspace.gf2_reduce: the affine engine's system, sat_schaefer's affine
case and the linear dependencies among a projection's columns.

The engines' models and projections are not re-checked here; the test
suite's clause oracle checks them against the clauses and the constraints'
relations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .bitspace import BRUTE_VARS_MAX, component_masks, gf2_reduce, iter_bits
from .classify import SetClassification, classify_set, predict, Predictions
from .errors import (ArityLimitError, FormulaError, NonCpssError,
                     RelconnError, VarsLimitError)
from .formulas import (CONSTANTS, ClauseSet, Constraint, Formula, XorEquation,
                       holds_on_constants, make_formula, to_clausal)
from .relations import AFFINE, BIJUNCTIVE, DUAL_HORN, HORN, Relation
from . import solution_graph

Literal = tuple[str, int]  # (variable, value): true iff the variable has it
LiteralClause = tuple[Literal, ...]
# clauses as literal tuples, the clauses that hold each literal, the set
# variables and per clause the count of its literals not yet false
State = tuple[list[LiteralClause], dict[Literal, list[int]], dict[str, int], list[int]]

# the value an unset variable tries first when a state extends to a model
_DEFAULT = {BIJUNCTIVE: 0, HORN: 0, DUAL_HORN: 1}


def _propagate(seeds: Iterable[Literal], clauses: Sequence[LiteralClause],
               holding: Mapping[Literal, list[int]], value: Mapping[str, int],
               left: Sequence[int]) -> tuple[dict[str, int], dict[int, int]] | None:
    """Unit propagation with clause counters.

    Over a state where `value` holds the set variables and left[j] counts
    the literals of clause j that are not false, sets the seed literals and
    every literal they force: a clause left with one literal that is not
    false forces it, a clause left with none is a conflict.  Returns the
    newly set variables and the changed counters, or None on a conflict.
    `value` and `left` are only read, so one base state serves many queries.
    """
    new: dict[str, int] = {}
    count: dict[int, int] = {}
    queue = list(seeds)
    while queue:
        v, b = queue.pop()
        old = value.get(v, new.get(v))
        if old is not None:
            if old != b:
                return None
            continue
        new[v] = b
        for j in holding.get((v, 1 - b), ()):
            r = count.get(j, left[j]) - 1
            count[j] = r
            if r == 0:
                return None
            if r == 1:  # force the one literal that is not false
                for u, c in clauses[j]:
                    if value.get(u, new.get(u)) != 1 - c:
                        queue.append((u, c))
                        break
    return new, count


def _clausal_state(cs: ClauseSet) -> State | None:
    """The base state of a Horn, dual Horn or bijunctive clause set: its
    unit clauses propagated; None when they conflict.  The set checked
    its clauses' shapes when it was built."""
    clauses: list[LiteralClause] = []
    holding: dict[Literal, list[int]] = {}
    for j, c in enumerate(cs.clauses):
        lits = tuple((v, 1) for v in c.pos) + tuple((v, 0) for v in c.neg)
        clauses.append(lits)
        for lit in lits:
            holding.setdefault(lit, []).append(j)
    state = clauses, holding, {}, [len(lits) for lits in clauses]
    units = [lits[0] for lits in clauses if len(lits) == 1]
    if 0 in state[3] or _extend(state, units, (), 0) is None:
        return None
    return state


def _extend(state: State, seeds: Iterable[Literal], variables: Sequence[str],
            default: int) -> dict[str, int] | None:
    """Sets the seeds, then each unset variable to `default`, or to the
    other value when that conflicts, propagating every step into the state
    in place.  Returns the values set, or None when the seeds conflict or
    some variable conflicts both ways."""
    clauses, holding, value, left = state

    def commit(step: tuple[dict[str, int], dict[int, int]] | None) -> bool:
        if step is None:
            return False
        value.update(step[0])
        for j, r in step[1].items():
            left[j] = r
        return True

    if not commit(_propagate(seeds, *state)):
        return None
    for v in variables:
        if v not in value and not commit(_propagate([(v, default)], *state)
                                         or _propagate([(v, 1 - default)], *state)):
            return None
    return value


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

    Returns (satisfiable, model); the model extends the assumptions.  A
    Horn clause set gets its minimal such model, a dual Horn one its
    maximal one.
    """
    assumptions = {v: 1 if b else 0 for v, b in (assumptions or {}).items()}
    if cs.schaefer_class == AFFINE:
        system = _affine_reduce(cs.variables, cs.equations, assumptions)
        model = None if system is None else {**system[2], **assumptions}
    else:
        state = _clausal_state(cs)
        model = None if state is None else _extend(
            state, assumptions.items(), cs.variables, _DEFAULT[cs.schaefer_class])
    if model is None:
        return False, None
    return True, model


# --- projection engines ----------------------------------------------------
#
# Each builds one solver state for a whole clause set and returns a function
# from a tuple of distinct variables and a mask of candidate tuples to the
# projection of the solution set onto them, within the candidates, as a mask
# (bit a set iff tuple a extends to a solution; the first variable is the
# most significant).  The projection onto a constraint's variables lies in
# the constraint's own relation, so those members are the only candidates.

MaskOf = Callable[[tuple[str, ...], int], int]


def _no_solutions(vars_: tuple[str, ...], within: int) -> int:
    return 0


def _clausal_projector(cs: ClauseSet) -> MaskOf:
    """Unit-propagation engine: with the clauses satisfiable, a tuple
    belongs iff its literals propagate from the base state without
    conflict."""
    state = _clausal_state(cs)
    if state is None:
        return _no_solutions
    clauses, holding, value, left = state
    if _extend((clauses, holding, dict(value), list(left)), (),
               cs.variables, _DEFAULT[cs.schaefer_class]) is None:
        return _no_solutions

    def mask_of(vars_: tuple[str, ...], within: int) -> int:
        k = len(vars_)
        out = 0
        for a in iter_bits(within):
            seeds = [(v, (a >> (k - 1 - j)) & 1) for j, v in enumerate(vars_)]
            if _propagate(seeds, *state) is not None:
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
    # column of a free variable: itself; of a pivot: the free part of its row
    column = {v: pivots[i][0] ^ (1 << i) if i in pivots else 1 << i
              for i, v in enumerate(variables)}

    def mask_of(vars_: tuple[str, ...], within: int) -> int:
        k = len(vars_)
        shift = sum(x0[v] << (k - 1 - j) for j, v in enumerate(vars_))
        # k-bit tuples u: the columns picked by u sum to zero
        _, deps = gf2_reduce((column[v], 1 << (k - 1 - j))
                             for j, v in enumerate(vars_))
        out = 0
        for a in iter_bits(within):
            if all(((a ^ shift) & u).bit_count() % 2 == 0 for u in deps):
                out |= 1 << a
        return out
    return mask_of


def _projector(cs: ClauseSet) -> MaskOf:
    if cs.schaefer_class == AFFINE:
        return _affine_projector(cs)
    return _clausal_projector(cs)


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


def project(phi: Formula, i: int, clause_set: ClauseSet | None = None) -> Projection:
    """Projection of the solution set onto the variables of constraint i.

    Tuple a belongs iff the formula stays satisfiable with Var(C_i) pinned
    to a, so this is the i-th constraint's view of the whole formula, not
    the constraint's own relation.  Raises FormulaError when constraint i
    is on constants alone or i is outside 0..m-1.
    """
    m = len(phi.constraints)
    if not 0 <= i < m:
        raise FormulaError(f"constraint index {i} outside 0..{m - 1}")
    if clause_set is None:
        cls = _pick_class(classify_set(phi.used_relations()), True)
        clause_set = to_clausal(phi, cls)
    vars_, own = clause_set.constraint_relations[i]
    if not vars_:
        raise FormulaError(f"{phi.constraints[i]}: constraint has no variables")
    return _project_with(phi, i, vars_, own, _projector(clause_set))


def _project_with(phi: Formula, i: int, vars_: tuple[str, ...], own: Relation,
                  mask_of: MaskOf) -> Projection:
    mask = mask_of(vars_, own.mask)
    rel = Relation(len(vars_), mask)
    return Projection(i, str(phi.constraints[i]), vars_, rel,
                      len(component_masks(mask, rel.arity)))


@dataclass(frozen=True)
class CpssReport:
    connected: bool
    satisfiable: bool
    projections: tuple[Projection, ...]


def conn_cpss(phi: Formula, check: bool = True) -> CpssReport:
    """Connectivity by projections; sound and complete on CPSS sets.

    With check=False the precondition is skipped (used to exhibit wrong
    answers outside CPSS); the relations must still be in a common Schaefer
    class so the clause translation exists.
    """
    return _conn_cpss(phi, _pick_class(classify_set(phi.used_relations()), check))


def _conn_cpss(phi: Formula, cls: str) -> CpssReport:
    # a false constraint on constants alone leaves no solutions, connected
    # by convention; a true one has no clause and no projection
    if not all(holds_on_constants(phi, c)
               for c in phi.constraints if CONSTANTS.issuperset(c.args)):
        return CpssReport(True, False, ())
    clause_set = to_clausal(phi, cls)
    mask_of = _projector(clause_set)
    projections = tuple(_project_with(phi, i, vars_, own, mask_of)
                        for i, (vars_, own) in enumerate(clause_set.constraint_relations)
                        if vars_)
    satisfiable = not any(p.relation.is_empty for p in projections)
    # no solutions: connected by convention
    connected = not satisfiable or all(p.n_components <= 1 for p in projections)
    return CpssReport(connected, satisfiable, projections)


@dataclass(frozen=True)
class ConnDecision:
    connected: bool | None
    method: str
    set_class: str | None
    prediction: Predictions | None
    detail: CpssReport | dict  # the cpss route's report; a small dict otherwise


def decide_connectivity(phi: Formula, method: str = "auto") -> ConnDecision:
    """Answer connectivity by the requested route.

    auto: the projection algorithm when the relation set is CPSS, otherwise
    brute force when the variable count permits, otherwise no answer (the
    classification's prediction is still reported).  The brute route
    answers connectivity only; solution_graph.report lists the components,
    the diameter and the minima.

    A relation above the identification sweep's arity bound has no
    classification (ArityLimitError).  brute and auto then still answer by
    enumeration, with set_class and prediction None, up to BRUTE_VARS_MAX
    variables; above it, and on the cpss route, the error is raised.
    """
    if method not in ("auto", "brute", "cpss"):
        raise ValueError(f"unknown method {method!r}")
    try:
        classification = classify_set(phi.used_relations())
    except ArityLimitError:
        if method == "cpss" or phi.n > BRUTE_VARS_MAX:
            raise
        return ConnDecision(solution_graph.is_connected(phi), "brute", None, None,
                            {"n_variables": phi.n})
    prediction = predict(classification)
    if method == "cpss" or (method == "auto" and classification.cpss):
        report = _conn_cpss(phi, _pick_class(classification, True))
        return ConnDecision(report.connected, "cpss", classification.set_class,
                            prediction, report)
    try:
        connected = solution_graph.is_connected(phi)
    except VarsLimitError:
        if method == "brute":
            raise
        return ConnDecision(None, "none", classification.set_class,
                            prediction, {"reason": "too many variables"})
    return ConnDecision(connected, "brute", classification.set_class,
                        prediction, {"n_variables": phi.n})


def random_formula(rng: random.Random, relations: Sequence[Relation],
                   max_vars: int, max_constraints: int,
                   const_prob: float = 0.1) -> Formula:
    """Random conjunction over the given relations; repeats and constants
    in argument lists are deliberately common."""
    n = rng.randint(2, max_vars)
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    library = {}
    for j, rel in enumerate(relations):
        library[rel.name or f"REL{j}"] = rel.renamed(rel.name or f"REL{j}")
    names = list(library)
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        name = rng.choice(names)
        arity = library[name].arity
        while True:
            args = tuple(
                rng.choice(("0", "1")) if rng.random() < const_prob
                else rng.choice(variables)
                for _ in range(arity))
            if any(a not in ("0", "1") for a in args):
                break
        constraints.append(Constraint(name, args))
    return make_formula(constraints, library, variables)


def search_separation_counterexample(relations: Sequence[Relation], seed: int,
                                     tries: int = 200,
                                     max_vars: int = 8) -> Formula | None:
    """Random search for a disconnected formula whose projections all connect.

    Experimental: a hit certifies that the given relation set is not
    handled faithfully by the projection algorithm; exhausting the budget
    certifies nothing. Each formula has at most 4 constraints. Raises
    RelconnError when `max_vars` is outside 2..BRUTE_VARS_MAX or `tries`
    < 0, and passes on the error of conn_cpss (NonCpssError,
    ClauseExtractionError, ArityLimitError) for the first formula whose
    relations lie outside the projection algorithm's class.
    """
    if max_vars < 2:
        raise RelconnError(f"max_vars must be at least 2, got {max_vars}")
    if max_vars > BRUTE_VARS_MAX:
        raise RelconnError(f"max_vars must be at most the exhaustive bound "
                           f"{BRUTE_VARS_MAX}, got {max_vars}")
    if tries < 0:
        raise RelconnError(f"tries must be at least 0, got {tries}")
    rng = random.Random(seed)
    for _ in range(tries):
        phi = random_formula(rng, relations, max_vars, 4)
        report = conn_cpss(phi, check=False)
        if report.connected and not solution_graph.is_connected(phi):
            return phi
    return None
