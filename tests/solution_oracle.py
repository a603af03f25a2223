"""A formula's solutions as bitstrings, and its projections by enumerating
them: the oracle for cpss.project and the gadget fixtures."""

from __future__ import annotations

from relconn import bitspace
from relconn.formulas import Formula
from relconn.relations import Relation
from relconn.solution_graph import solution_space, solutions


def solution_strings(phi: Formula) -> list[str]:
    n = phi.n
    return [bitspace.tuple_of_index(i, n) for i in solutions(phi)]


def project_enumerate(phi: Formula, i: int) -> tuple[tuple[str, ...], Relation]:
    """Projection of the solution set onto constraint i's variables, by
    enumeration.  Tuple order: the constraint's distinct variables sorted."""
    vars_ = tuple(sorted(phi.constraints[i].variables()))
    k = len(vars_)
    src = [phi.n - 1 - phi.variables.index(v) for v in vars_]
    mask = 0
    for idx in bitspace.iter_bits(solution_space(phi)):
        a = 0
        for j, bitpos in enumerate(src):
            a |= ((idx >> bitpos) & 1) << (k - 1 - j)
        mask |= 1 << a
    return vars_, Relation(k, mask)
