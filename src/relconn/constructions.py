"""Hardness gadgets: the reduction to disconnectivity and expressing M.

Two constructions:

* reduce_sat_to_conn turns a monotone/negative CNF (clauses P = x OR y OR z
  and N = NOT x OR NOT y) into a conjunction of M-constraints whose
  solution graph is disconnected iff the input is satisfiable.  Around the
  all-zero solution the M-constraints are inert; a satisfying assignment
  lifts to a solution that cannot reach zero because every q/a/b chain
  re-implies itself around the cycle of ternary clauses.

* express_m starts from any Horn relation that is not safely
  componentwise IHSB- and pins variables of a single constraint (by
  constants and identifications only) until the constraint's relation is
  exactly M, or K or L, which fold to M with one extra constraint
  (M(x,y,z) = K(x,y,z) AND K(z,x,x) = L(x,y,z) AND L(z,x,x)).  The slot
  pattern is its only state: each step reads the prime Horn clauses off
  the pinned relation's mask (formulas.cnf_implicates), normalizes them
  and checks the view's solutions against the mask, and the result is
  checked to be M before it is returned.  The construction runs once:
  the walk over the distinct identifications stops at the first failing
  one (so it is bounded by SAFE_CHECK_ARITY_MAX), every later step makes
  one choice, and a step whose precondition fails raises
  ExpressionError("internal: ...") instead of trying another choice.

reduce_sat_to_conn does not check its output; the test suite compares it
with brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import bitspace
from . import horn as hornmod
from .bitspace import conjunction_space
from .catalog import CATALOG
from .errors import ExpressionError, ReductionInputError, TriviallySatisfiableError
from .formulas import (ClauseSet, CnfClause, Constraint, Formula, cnf_implicates,
                       make_formula)
from .relations import (HORN, IHSB_MINUS, SAFE_CHECK_ARITY_MAX, SAFE_SHORTCUTS,
                        SAFELY_CW_IHSB_MINUS, ArgPattern, Relation,
                        check_property, components, walk_identifications)
from . import solution_graph

_P = CATALOG["P"]
_N = CATALOG["N"]
_M = CATALOG["M"]
_SAFE = "relation is safely componentwise IHSB-; nothing to express"


@dataclass(frozen=True)
class ReductionOutput:
    formula: Formula
    input_variables: tuple[str, ...]
    chain_variables: tuple[str, ...]            # one per ternary input clause
    gadget_variables: tuple[tuple[str, str, str], ...]  # (a, b, input var) triples

    def lift(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Map a satisfying assignment of the input onto a solution of the
        output formula (chain and a-variables high, b tracks its input)."""
        out = {v: (1 if assignment[v] else 0) for v in self.input_variables}
        for q in self.chain_variables:
            out[q] = 1
        for a, b, x in self.gadget_variables:
            out[a] = 1
            out[b] = out[x]
        return out


def _fresh_namer(taken: set[str]):
    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name = "_" + name
        taken.add(name)
        return name
    return fresh


def reduce_sat_to_conn(psi: Formula) -> ReductionOutput:
    """Reduction from satisfiability over {P, N} to disconnectivity over {M}.

    The input may use any relation names, but every constraint's relation
    must equal P (ternary, everything but 000) or N (binary NAND), applied
    to variables only.  At least one P-constraint is required; inputs with
    only N-constraints are satisfiable by all-zeros, which the dedicated
    TriviallySatisfiableError signals.
    """
    p_indices = []
    for i, c in enumerate(psi.constraints):
        rel = psi.relation_of(c)
        if any(a in ("0", "1") for a in c.args):
            raise ReductionInputError(f"{c}: constants are not allowed here")
        if rel == _P:
            p_indices.append(i)
        elif rel == _N:
            pass
        else:
            raise ReductionInputError(f"{c}: relation is neither P nor N")
    if not p_indices:
        raise TriviallySatisfiableError(
            "no ternary clause: the all-zero assignment satisfies the input")

    taken = set(psi.variables)
    fresh = _fresh_namer(taken)
    m = len(p_indices)
    q_names = [fresh(f"q{p}") for p in range(m)]
    constraints: list[Constraint] = []
    gadgets: list[tuple[str, str, str]] = []
    variables: list[str] = list(psi.variables)
    variables.extend(q_names)
    p_rank = {ci: p for p, ci in enumerate(p_indices)}
    for i, c in enumerate(psi.constraints):
        rel = psi.relation_of(c)
        if rel.arity == 2:
            xi, xj = c.args
            constraints.append(Constraint("M", ("0", xi, xj)))
            continue
        p = p_rank[i]
        q_here = q_names[p]
        q_next = q_names[(p + 1) % m]
        for x in c.variables():  # one gadget per distinct variable
            a = fresh(f"a{p}_{x}")
            b = fresh(f"b{p}_{x}")
            variables.extend((a, b))
            gadgets.append((a, b, x))
            constraints.append(Constraint("M", (q_here, "0", a)))
            constraints.append(Constraint("M", (b, a, x)))
            constraints.append(Constraint("M", (b, "0", q_next)))
    phi = make_formula(constraints, {"M": _M}, variables)
    return ReductionOutput(phi, tuple(psi.variables), tuple(q_names), tuple(gadgets))


def build_T() -> Formula:
    """Four M-constraints with a disconnected solution graph even though
    every constraint projection of the solution set is connected."""
    return make_formula(
        [Constraint("M", ("u", "v", "w")),
         Constraint("M", ("x", "y", "z")),
         Constraint("M", ("w", "w", "y")),
         Constraint("M", ("z", "z", "v"))],
        {"M": _M},
        ("u", "v", "w", "x", "y", "z"))


def build_F() -> Formula:
    """Two constraints over one non-Schaefer relation: all four solutions are
    isolated, yet both projections connect the images of 0000 and 1100."""
    rf = Relation.from_tuples(3, ["000", "011", "100", "110"], "RF")
    return make_formula(
        [Constraint("RF", ("x", "y", "z")), Constraint("RF", ("y", "x", "w"))],
        {"RF": rf},
        ("x", "y", "z", "w"))


# --- expressing M ---------------------------------------------------------


@dataclass
class _State:
    """The pinned constraint: which constant/variable fills each of the
    source relation's coordinates, and the normalized Horn CNF of the
    relation that pinning yields (derived, never rewritten)."""
    slots: list[str]          # coordinate -> "0" | "1" | variable name
    view: ClauseSet           # Horn, over the live variables, in slot order

    def alive(self) -> tuple[str, ...]:
        return self.view.variables


def _state(rel: Relation, slots: list[str], alive: tuple[str, ...]) -> _State:
    """Pin rel by the slots and read the Horn clauses off the pinned relation.

    The prime Horn clauses are read over the sorted names, as to_clausal
    reads a constraint's; `normalize` scans the clauses in that order.
    """
    item = [(rel.mask, rel.arity, slots)]
    pinned = conjunction_space(alive, item)
    if not pinned:
        raise ExpressionError("pinning left the constraint unsatisfiable")
    names = tuple(sorted(alive))
    clauses = cnf_implicates(names, conjunction_space(names, item), HORN)
    view = hornmod.normalize(ClauseSet(HORN, alive, tuple(clauses)))
    if hornmod.solution_space(view) != pinned:
        raise ExpressionError("internal: normalized Horn view lost track of the relation")
    return _State(slots, view)


def _pin(rel: Relation, state: _State, fill: Mapping[str, str]) -> _State:
    """Replace live variables by constants "0"/"1" or by other live
    variables (identification); the replaced ones drop out of the view."""
    if not fill:
        return state
    slots = [fill.get(s, s) for s in state.slots]
    return _state(rel, slots, tuple(v for v in state.alive() if v not in fill))


def _initial_state(rel: Relation, pattern: ArgPattern) -> _State:
    """Identified relation as one constraint over fresh names c1, c2, ..."""
    names = tuple(f"c{j + 1}" for j in range(pattern.out_arity))
    slots = [s if s in ("0", "1") else names[s] for s in pattern.slots]
    return _state(rel, slots, names)


def _choose(rel: Relation) -> tuple[_State, CnfClause]:
    """The construction's one choice: the pinned state and its clause c*.

    The first identification, in walk order, that makes the relation not
    componentwise IHSB- gives the base state; its first failing
    component's minimum has its 1-set pinned to 1.  c* is the first
    multi-implication clause of that view (a positive head and two or more
    body variables) that passes `_spec_filter`, or else the first one.
    Two facts need no check.  A component of a Horn relation is closed
    under AND, so it has a minimum.  The pinned relation holds the
    all-zero tuple, so its view has no positive unit.  When no image
    fails, the relation is safely componentwise IHSB- and ExpressionError
    says so.
    """
    for labels, arity, mask in walk_identifications(rel):
        failing = next((comp for comp in components(Relation(arity, mask))
                        if not check_property(comp, IHSB_MINUS)), None)
        if failing is None:
            continue
        base = _initial_state(rel, ArgPattern(labels))
        lower = bitspace.minimum(failing.mask, failing.arity)
        state2 = _pin(rel, base, {v: "1" for v in hornmod.ones_set(base.view, lower)})
        multi = [c for c in state2.view.clauses if c.pos and len(c.neg) >= 2]
        if not multi:
            raise ExpressionError("internal: the pinned component has no "
                                  "multi-implication clause")
        return state2, next((c for c in multi if _spec_filter(state2.view, c)), multi[0])
    raise ExpressionError(_SAFE)


def _spec_filter(view: ClauseSet, cstar: CnfClause) -> bool:
    reach = hornmod.imp(view, cstar.variables())
    if any(r <= reach for r in view.restraint_sets()):
        return False
    return any(not hornmod.is_implied(view, y) for y in cstar.neg)


@dataclass(frozen=True)
class ExpressOutcome:
    formula: Formula
    shape: str                # which of M, K, L the pinned constraint hits
    slots: tuple[str, ...]    # final coordinate fill with roles x, y, z


def express_m_details(rel: Relation) -> ExpressOutcome:
    """Pin a Horn, not safely componentwise IHSB- relation down to M.

    Returns a one- or two-constraint formula over the input relation whose
    solution set over (x, y, z) is exactly M; the second constraint appears
    when the pinned relation is K or L rather than M itself.
    """
    if not check_property(rel, HORN):
        raise ExpressionError("relation is not Horn")
    # above the sweep bound the walk raises ArityLimitError first
    if rel.arity <= SAFE_CHECK_ARITY_MAX and any(
            check_property(rel, prop) for prop in SAFE_SHORTCUTS[SAFELY_CW_IHSB_MINUS]):
        raise ExpressionError(_SAFE)
    src = rel.renamed(rel.name or "R")
    return _finish(src, *_choose(src))


def express_m(rel: Relation) -> Formula:
    return express_m_details(rel).formula


def _finish(src: Relation, state2: _State, cstar: CnfClause) -> ExpressOutcome:
    """Cut state2 to the implication span of c*, then pin it down to the
    head x of c* and two body variables y and z, one pin per step."""
    reach = hornmod.imp(state2.view, cstar.variables())
    state3 = _pin(src, state2, {v: "0" for v in state2.alive() if v not in reach})
    view3 = state3.view
    (x_name,) = cstar.pos
    body = [v for v in view3.variables if v in cstar.neg]
    y_name = next((y for y in body if not hornmod.is_implied(view3, y)), None)
    if y_name is None:
        raise ExpressionError("internal: the rest implies every body variable of c*")
    rest = [v for v in body if v != y_name]
    z_name = rest[0]
    state4 = _pin(src, state3, {v: z_name for v in rest[1:]})
    ones = hornmod.imp(state4.view, {y_name}) - {y_name}
    if x_name in ones or z_name in ones:
        raise ExpressionError("internal: y implies x or z")
    state5 = _pin(src, state4, {v: "1" for v in ones})
    zmerge_set = hornmod.imp(state5.view, {z_name}) - {z_name}
    if x_name in zmerge_set or y_name in zmerge_set:
        raise ExpressionError("internal: z implies x or y")
    state6 = _pin(src, state5, {v: z_name for v in zmerge_set})
    others = [v for v in state6.alive() if v not in (x_name, y_name, z_name)]
    state7 = _pin(src, state6, {v: x_name for v in others})
    return _shape_outcome(src, state7, x_name, y_name, z_name)


def _shape_outcome(src: Relation, state: _State,
                   x: str, y: str, z: str) -> ExpressOutcome:
    roles = {x: "x", y: "y", z: "z"}
    slots = tuple(s if s in ("0", "1") else roles[s] for s in state.slots)
    pinned = Relation(3, conjunction_space(("x", "y", "z"), [(src.mask, src.arity, slots)]))
    shape = next((nm for nm in ("M", "K", "L") if pinned == CATALOG[nm]), None)
    if shape is None:
        raise ExpressionError("internal: the pinned relation is not M, K or L")
    constraints = [Constraint(src.name, slots)]
    if shape in ("K", "L"):
        fold = {"x": "z", "y": "x", "z": "x"}
        constraints.append(Constraint(
            src.name, tuple(s if s in ("0", "1") else fold[s] for s in slots)))
    phi = make_formula(constraints, {src.name: src}, ("x", "y", "z"))
    if solution_graph.formula_relation(phi) != _M:
        raise ExpressionError(f"{shape}-shaped pin did not fold to M")
    return ExpressOutcome(phi, shape, slots)
