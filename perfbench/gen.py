"""Seeded inputs, operation lists and expected answers for each workload.

`build(workload, seed, workdir)` writes one input file per operation into
`workdir` and returns the operation list.  The list is made of blocks.
Every block has the same composition of operation kinds and sizes, in the
same order, so any prefix of the list has the workload's mix; the seed
only chooses the instances, and every block draws fresh ones.  Expected
answers come from `oracle`, which does not import relconn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle
from .oracle import Cnf, Rel

WORKLOADS = ("classify", "cpss", "sparse", "dense")
# Blocks generated per second of run: about twice what the seed code gets
# through, so a faster program still sees fresh inputs before the list wraps.
BLOCKS_PER_SECOND = {"classify": 0.8, "cpss": 0.7, "sparse": 1.1, "dense": 1.3}

# The paper's named relations (the program's catalog holds the same ones).
M_REL = Rel(3, oracle.M_MEMBERS)
P_REL = Rel(3, frozenset(range(1, 8)))
N_REL = Rel(2, frozenset({0, 1, 2}))
NAMED = {
    "M": M_REL,
    "K": Rel(3, frozenset(range(8)) - {int("011", 2)}),
    "R_NAE": Rel(3, frozenset(range(1, 7))),
    "R_NAZ": Rel(3, frozenset(range(1, 8))),
    "R_coNP": Rel(4, frozenset(int(t, 2) for t in "0000 0100 1100 0011 1011".split())),
}

# Relation files from the paper's examples, with their known set classes.
FIXTURES = {
    "m.rel": ("rel M 3 : 000 001 010 101 111\n", "SchaeferNotCPSS"),
    "rconp.rel": ("rel R_coNP 4 : 0000 0100 1100 0011 1011\n", "SafelyTightNotSchaefer"),
    "rpspa.rel": ("rel R_PSPA 4 : 0001 0010 1100 1110 1101\n", "NotSafelyTight"),
    "or_example.rel": ("rel R_OR 3 : 001 110 111\n", "CPSS"),
    "bijunctive.rel": ("rel IMP 2 : 00 10 11\nrel EQ 2 : 00 11\n"
                       "rel MAJR 3 : 000 001 010 100 011 101 110 111\n", "CPSS"),
}


@dataclass
class Op:
    id: int
    block: int
    kind: str
    argv: list[str]
    meta: dict
    expect: dict = field(default_factory=dict)

    def worker_view(self) -> dict:
        return {"id": self.id, "block": self.block, "argv": self.argv}


class OpList:
    """Allocates operation ids and writes each operation's input file."""

    def __init__(self, workdir: Path, prefix: str = ""):
        self.workdir = workdir
        self.prefix = prefix
        self.ops: list[Op] = []

    def add(self, block: int, kind: str, text: str, suffix: str, args: list[str],
            meta: dict, expect: dict) -> Op:
        op_id = len(self.ops)
        name = f"{self.prefix}{op_id}{suffix}"
        (self.workdir / name).write_text(text)
        cli = {"horn-selfimp": ["horn", "selfimp"], "horn-normalize": ["horn", "normalize"]}
        argv = cli.get(kind, [kind]) + [name] + args + ["--json"]
        op = Op(op_id, block, kind, argv, meta, expect)
        self.ops.append(op)
        return op


def _rng(workload: str, seed: int, block: int, slot: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}:{slot}")


def _bits(t: int, k: int) -> str:
    return format(t, f"0{k}b")


def rel_line(name: str, rel: Rel) -> str:
    tuples = " ".join(_bits(t, rel.arity) for t in sorted(rel.members))
    return f"rel {name} {rel.arity} : {tuples}".rstrip()


# --- relation families -----------------------------------------------------

def random_members(rng: random.Random, k: int, density: float) -> frozenset[int]:
    while True:
        out = frozenset(t for t in range(1 << k) if rng.random() < density)
        if out:
            return out


def and_closure(members: frozenset[int], use_or: bool = False) -> frozenset[int]:
    out = set(members)
    frontier = list(out)
    while frontier:
        new = set()
        for a in frontier:
            for b in list(out):
                c = (a | b) if use_or else (a & b)
                if c not in out:
                    new.add(c)
        out |= new
        frontier = list(new)
    return frozenset(out)


def flip(members: frozenset[int], k: int) -> frozenset[int]:
    full = (1 << k) - 1
    return frozenset(t ^ full for t in members)


def ihsb_minus_members(rng: random.Random, k: int) -> frozenset[int]:
    """Solutions of random IHSB- clauses: positive units, implications and
    negative clauses of width at most 3.  Such a relation is Horn and
    safely componentwise IHSB-, so any set of them is CPSS."""
    while True:
        units, imps, negs = [], [], []
        for _ in range(rng.randint(1, k)):
            roll = rng.random()
            if roll < 0.15:
                units.append(rng.randrange(k))
            elif roll < 0.6:
                imps.append((rng.randrange(k), rng.randrange(k)))
            else:
                negs.append(rng.sample(range(k), rng.randint(1, min(3, k))))

        def bit(t: int, i: int) -> int:
            return (t >> (k - 1 - i)) & 1

        out = frozenset(
            t for t in range(1 << k)
            if all(bit(t, u) for u in units)
            and all(not bit(t, a) or bit(t, b) for a, b in imps)
            and all(not all(bit(t, i) for i in neg) for neg in negs))
        if out and len(out) < (1 << k):
            return out


def permute_coords(members: frozenset[int], k: int, perm: list[int]) -> frozenset[int]:
    out = set()
    for t in members:
        u = 0
        for dst, src in enumerate(perm):
            u |= ((t >> (k - 1 - src)) & 1) << (k - 1 - dst)
        out.add(u)
    return frozenset(out)


def family_members(rng: random.Random, family: str, k: int,
                   band: tuple[int, int] | None = None) -> frozenset[int]:
    """One relation of arity k from the family, never the full cube, with
    its size in `band` when one is given."""
    full = 1 << k
    lo, hi = band or (1, full - 1)
    while True:
        if family == "random":
            out = random_members(rng, k, rng.uniform(0.2, 0.6))
        elif family in ("horn", "dual_horn"):
            seed = random_members(rng, k, rng.uniform(0.1, 0.3))
            out = and_closure(seed, use_or=family == "dual_horn")
        elif family == "bijunctive":
            density = rng.uniform(0.15, 0.5) if k <= 4 else rng.uniform(2, 6) / full
            out = oracle.pair_hull(random_members(rng, k, density), k)
        elif family == "affine":
            seed = frozenset(rng.randrange(full) for _ in range(rng.randint(2, k)))
            out = oracle.span_coset(seed)
        elif family == "ihsb_minus":
            out = ihsb_minus_members(rng, k)
        elif family == "ihsb_plus":
            out = flip(ihsb_minus_members(rng, k), k)
        elif family in ("m_product", "m_product_dual"):
            # M times a Horn factor: Horn, and not safely componentwise
            # IHSB- because M is not, so {M x S} is SchaeferNotCPSS.
            if k == 3:
                out = M_REL.members
            else:
                s = and_closure(random_members(rng, k - 3, rng.uniform(0.2, 0.5)))
                out = frozenset((m << (k - 3)) | t for m in M_REL.members for t in s)
            perm = list(range(k))
            rng.shuffle(perm)
            out = permute_coords(out, k, perm)
            if family == "m_product_dual":
                out = flip(out, k)
        else:
            raise ValueError(f"unknown family {family!r}")
        if lo <= len(out) <= hi:
            return out


# Set class known by construction; None where only the clause kinds are known.
FAMILY_CLASS = {
    "bijunctive": "CPSS", "affine": "CPSS", "ihsb_minus": "CPSS", "ihsb_plus": "CPSS",
    "m_product": "SchaeferNotCPSS", "m_product_dual": "SchaeferNotCPSS",
    "horn": None, "dual_horn": None, "random": None,
}


# --- classify --------------------------------------------------------------

# Per block, ten operations cost less than an arity-5 one, eight are at
# arity 5 and twelve cost more, so the median latency falls inside the
# arity-5 group.
CLASSIFY_SET_SLOTS = [
    (3, "bijunctive"), (4, "affine"), (5, "horn"), (3, "dual_horn"),
    (4, "ihsb_minus"), (5, "ihsb_plus"), (4, "random"), (5, "m_product"),
    (3, "random"), (4, "m_product_dual"), (5, "bijunctive"), (5, "affine"),
    (5, "dual_horn"), (6, "horn"),
    (6, "m_product_dual"), (6, "ihsb_minus"), (6, "random"), (6, "affine"),
    (7, "horn"), (7, "dual_horn"), (7, "m_product"),
]
EXPRESS_SLOTS = [4, 4, 5, 5, 6, 6, 7]
# Relation sizes for the arity-8 slots, whose sweep cost grows with |R|.
ARITY8_BAND = {"horn": (130, 170), "m_product": (90, 130)}


def _classify_block(b: OpList, seed: int, block: int) -> None:
    slots: list[tuple] = [("classify-set", k, fam) for k, fam in CLASSIFY_SET_SLOTS]
    for k in EXPRESS_SLOTS:
        slots.append(("express-m", k, "m_product"))
    slots.append(("fixture", 0, sorted(FIXTURES)[block % len(FIXTURES)]))
    slots.append(("classify-set", 8, "horn") if block % 2 == 0
                 else ("express-m", 8, "m_product"))
    order = random.Random(f"classify-order:{len(slots)}").sample(range(len(slots)), len(slots))
    for slot in order:
        kind, k, fam = slots[slot]
        rng = _rng("classify", seed, block, slot)
        if kind == "fixture":
            text, set_class = FIXTURES[fam]
            rels = list(oracle.parse_relations(text).values())
            b.add(block, "classify-set", text, ".rel", [], _rel_meta(rels, fam),
                  {"schaefer_kinds": oracle.schaefer_kinds(rels), "set_class": set_class})
            continue
        rel = Rel(k, family_members(rng, fam, k, ARITY8_BAND[fam] if k == 8 else None))
        text = rel_line(f"R{slot}", rel) + "\n"
        if kind == "classify-set":
            b.add(block, kind, text, ".rel", [], _rel_meta([rel], fam),
                  {"schaefer_kinds": oracle.schaefer_kinds([rel]),
                   "set_class": FAMILY_CLASS[fam]})
        else:
            b.add(block, kind, text, ".rel", [], _rel_meta([rel], fam),
                  {"source": [rel.arity, sorted(rel.members)]})


def _rel_meta(rels: list[Rel], family: str) -> dict:
    return {"family": family, "n": None, "m": len(rels),
            "max_arity": max(r.arity for r in rels),
            "rel_size": sum(len(r.members) for r in rels), "solutions": None}


# --- formulas --------------------------------------------------------------

CONST_PROB = 0.05

def _cnf_meta(cnf: Cnf, solutions: int | None, family: str) -> dict:
    used = {name for name, _ in cnf.constraints}
    return {"family": family, "n": cnf.n, "m": len(cnf.constraints),
            "max_arity": max(cnf.relations[u].arity for u in used),
            "rel_size": sum(len(cnf.relations[u].members) for u in used),
            "solutions": solutions}


def random_cnf(rng: random.Random, variables: list[str], relations: dict[str, Rel],
               m: int) -> Cnf:
    """m constraints over the relations; an argument is a constant with
    probability CONST_PROB, and repeated variables are common."""
    names = sorted(relations)
    constraints = []
    for _ in range(m):
        name = rng.choice(names)
        while True:
            args = tuple(rng.choice("01") if rng.random() < CONST_PROB
                         else rng.choice(variables)
                         for _ in range(relations[name].arity))
            if any(a not in "01" for a in args):
                break
        constraints.append((name, args))
    return Cnf(tuple(variables), tuple(constraints), dict(relations))


def conn_answer(sat: np.ndarray, n: int) -> str:
    """'unsat', 'connected' or 'disconnected'."""
    if not sat.any():
        return "unsat"
    return "connected" if len(oracle.components(sat, n)) == 1 else "disconnected"


# --- cpss ------------------------------------------------------------------

CPSS_KINDS = ["bijunctive", "horn", "dual_horn", "affine"]
CPSS_FAMILY = {"bijunctive": "bijunctive", "horn": "ihsb_minus",
               "dual_horn": "ihsb_plus", "affine": "affine"}
# Twelve sizes cheaper than n = 12, six at n = 12 and thirteen dearer, so
# the median latency falls inside the n = 12 group and the 90th percentile
# inside the five n = 14 slots, not on the edge between two size classes.
CPSS_SIZES = [8, 9, 10, 11, 17, 18, 20, 24, 32, 40, 48, 64,
              12, 12, 12, 12, 12, 12,
              13, 13, 13, 14, 14, 14, 14, 14, 16, 96, 96, 128, 200]
CPSS_TARGETS = ["connected", "disconnected", "connected", "unsat", "disconnected"]
# constraints per variable, fixed per target so that a slot's cost varies little
CPSS_RATIO = {"connected": 0.35, "disconnected": 0.5, "unsat": 0.8}
CPSS_ARITIES = (2, 3, 3, 4)
DIRECT_MAX = 12


def cpss_pool(rng: random.Random, kind: str) -> dict[str, Rel]:
    fam = CPSS_FAMILY[kind]
    return {f"Q{j}": Rel(k, family_members(rng, fam, k)) for j, k in enumerate(CPSS_ARITIES)}


def _targeted_cnf(rng: random.Random, variables: list[str], pool: dict[str, Rel],
                  target: str) -> tuple[Cnf, np.ndarray, str]:
    """Random formula over the pool, retried until its answer is `target`;
    the last of 20 tries is returned when none hits."""
    n = len(variables)
    m = max(1, round(n * CPSS_RATIO[target]))
    for _ in range(20):
        cnf = random_cnf(rng, variables, pool, m)
        sat = oracle.solution_table(cnf)
        answer = conn_answer(sat, n)
        if answer == target:
            break
    return cnf, sat, answer


def _block_sizes(rng: random.Random, n: int) -> list[int]:
    if n <= DIRECT_MAX:
        return [n]
    sizes = []
    rest = n
    while rest:
        size = min(rest, rng.randint(4, 10))
        if 0 < rest - size < 4:
            size = rest
        sizes.append(size)
        rest -= size
    return sizes


def _cpss_instance(rng: random.Random, kind: str, n: int, target: str) -> tuple[Cnf, dict]:
    """A formula over one CPSS pool with the target answer.

    Above DIRECT_MAX variables the formula is a conjunction of
    variable-disjoint blocks of at most 10 variables, each decided by brute
    force: the whole is connected iff some block is unsatisfiable or every
    block is connected.  A pool that cannot hit a block's target is redrawn.
    """
    names = [f"x{i}" for i in range(1, n + 1)]
    rng.shuffle(names)
    sizes = _block_sizes(rng, n)
    wants = ["connected"] * len(sizes)
    if target != "connected" or len(sizes) == 1:
        wants[rng.randrange(len(sizes))] = target
    bounds = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    for _ in range(10):
        pool = cpss_pool(rng, kind)
        parts = [_targeted_cnf(rng, names[lo:hi], pool, want)
                 for lo, hi, want in zip(bounds, bounds[1:], wants)]
        answers = [answer for _, _, answer in parts]
        if answers == wants:
            break
    constraints = [c for cnf, _, _ in parts for c in cnf.constraints]
    rng.shuffle(constraints)
    cnf = Cnf(tuple(sorted(names, key=lambda v: int(v[1:]))), tuple(constraints), pool)
    if "unsat" in answers:
        answer = "unsat"
    elif all(a == "connected" for a in answers):
        answer = "connected"
    else:
        answer = "disconnected"
    solutions = int(parts[0][1].sum()) if len(parts) == 1 else None
    return cnf, {"answer": answer, "solutions": solutions}


def _cpss_block(b: OpList, seed: int, block: int) -> None:
    order = random.Random(f"cpss-order:{len(CPSS_SIZES)}").sample(
        range(len(CPSS_SIZES)), len(CPSS_SIZES))
    for slot in order:
        n = CPSS_SIZES[slot]
        kind = CPSS_KINDS[(block + slot) % len(CPSS_KINDS)]
        target = CPSS_TARGETS[(block + slot) % len(CPSS_TARGETS)]
        rng = _rng("cpss", seed, block, slot)
        cnf, res = _cpss_instance(rng, kind, n, target)
        b.add(block, "conn", oracle.format_cnf(cnf), ".cnfs", ["--method", "auto"],
              _cnf_meta(cnf, res["solutions"], kind),
              {"connected": res["answer"] != "disconnected",
               "satisfiable": res["answer"] != "unsat"})


# --- sparse ----------------------------------------------------------------

# (output variables, least and most solutions, input satisfiable): the
# solution bands sit around each size's typical count, so that a slot's
# cost varies little between seeds.  The three n = 14 slots hold the 90th
# percentile: `conn` at n = 14 is the 5th to 7th dearest of 56 operations.
SPARSE_SLOTS = [(9, 25, 45, True), (10, 24, 40, True), (11, 40, 70, True),
                (12, 70, 120, True), (12, 70, 120, True), (13, 110, 180, True),
                (13, 110, 180, True), (14, 130, 220, True), (14, 130, 220, True),
                (14, 80, 120, False),
                (15, 90, 130, True), (15, 160, 230, False), (16, 150, 250, True),
                (17, 150, 300, True)]


def reduction(psi: Cnf) -> Cnf:
    """The {P, N} -> {M} reduction, built independently of the program.

    N(x, y) becomes M(0, x, y); the p-th P-clause gets a chain variable q_p
    and, per distinct variable x, gadget variables a, b with M(q_p, 0, a),
    M(b, a, x) and M(b, 0, q_{p+1}), indices cyclic.
    """
    p_clauses = [args for name, args in psi.constraints if psi.relations[name] == P_REL]
    q = [f"q{p}" for p in range(len(p_clauses))]
    variables = list(psi.variables) + q
    constraints = []
    p = 0
    for name, args in psi.constraints:
        if psi.relations[name] == N_REL:
            constraints.append(("M", ("0",) + args))
            continue
        for x in dict.fromkeys(args):
            a, bb = f"a{p}_{x}", f"b{p}_{x}"
            variables += [a, bb]
            constraints += [("M", (q[p], "0", a)), ("M", (bb, a, x)),
                            ("M", (bb, "0", q[(p + 1) % len(q)]))]
        p += 1
    return Cnf(tuple(variables), tuple(constraints), {"M": M_REL})


def _pn_input(rng: random.Random, n_out: int, satisfiable: bool) -> Cnf:
    """A {P, N} formula whose reduction has exactly n_out variables.

    One P-clause is always satisfiable, so an unsatisfiable input has two
    P-clauses over disjoint variables with N on every pair across them.
    """
    while True:
        p = 2 if not satisfiable or (n_out >= 14 and rng.random() < 0.5) else 1
        distinct = [rng.choice((2, 3, 3)) for _ in range(p)]
        x = n_out - p - 2 * sum(distinct)
        if x >= (max(distinct) if satisfiable else sum(distinct)):
            break
    variables = [f"x{i}" for i in range(1, x + 1)]
    groups = ([rng.sample(variables, d) for d in distinct] if satisfiable
              else _split(rng.sample(variables, sum(distinct)), distinct))
    constraints = []
    for vs in groups:
        args = tuple(vs) if len(vs) == 3 else (vs[0], vs[0], vs[1])
        constraints.append(("P", tuple(rng.sample(args, 3))))
    if not satisfiable:
        constraints += [("N", (u, v)) for u in groups[0] for v in groups[1]]
    for _ in range(rng.randint(0, x)):
        constraints.append(("N", tuple(rng.sample(variables, 2))))
    rng.shuffle(constraints)
    return Cnf(tuple(variables), tuple(constraints), {"P": P_REL, "N": N_REL})


def _split(items: list, sizes: list[int]) -> list[list]:
    return [items[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]


def _endpoints(rng: random.Random, graph: oracle.SolutionGraph, s: int | None = None
               ) -> tuple[int, int, int | None]:
    """Two solutions, in different components about half the time."""
    comps = graph.components
    if s is None:
        s = rng.choice(rng.choice(comps))
    own = next(c for c in comps if s in c)
    others = [c for c in comps if c is not own]
    pool = rng.choice(others) if others and rng.random() < 0.5 else own
    t = rng.choice(pool)
    return s, t, graph.distance(s, t)


def _sparse_instance(rng: random.Random, size: int, lo: int, hi: int, satisfiable: bool
                     ) -> tuple[Cnf, Cnf, np.ndarray]:
    """A {P, N} input, its reduction, and the reduction's solutions, drawn
    until the input's satisfiability is as asked and the solution count of
    the reduction lies in [lo, hi]."""
    for _ in range(1000):
        psi = _pn_input(rng, size, satisfiable)
        if oracle.solution_table(psi).any() != satisfiable:
            continue
        phi = reduction(psi)
        sat = oracle.solution_table(phi)
        if lo <= sat.sum() <= hi:
            return psi, phi, sat
    raise RuntimeError(f"no reduction output over {size} variables with {lo}-{hi} solutions")


def _sparse_block(b: OpList, seed: int, block: int) -> None:
    """Per size, one {P, N} input: `reduce` on it, then `conn`, `components`
    and `stconn` on its reduction, the four spread through the block."""
    kinds = ["reduce", "conn", "components", "stconn"]
    instances = [_sparse_instance(_rng("sparse", seed, block, i), *slot)
                 for i, slot in enumerate(SPARSE_SLOTS)]
    graphs = [oracle.SolutionGraph(sat, phi.n) for _, phi, sat in instances]
    slots = [(i, kind) for i in range(len(SPARSE_SLOTS)) for kind in kinds]
    order = random.Random(f"sparse-order:{len(slots)}").sample(range(len(slots)), len(slots))
    for slot in order:
        i, kind = slots[slot]
        psi, phi, sat = instances[i]
        if kind == "reduce":
            input_sat = bool(oracle.solution_table(psi).any())
            b.add(block, kind, oracle.format_cnf(psi), ".cnfs", [],
                  _cnf_meta(psi, None, "pn") | {"out_n": phi.n},
                  {"input_satisfiable": input_sat})
        else:
            _add_graph_op(b, block, kind, _rng("sparse-ends", seed, block, slot),
                          phi, graphs[i], "reduction", s=0)


def _add_graph_op(b: OpList, block: int, kind: str, rng: random.Random, cnf: Cnf,
                  graph: oracle.SolutionGraph, family: str, s: int | None = None) -> None:
    n = cnf.n
    meta = _cnf_meta(cnf, len(graph.sols), family)
    text = oracle.format_cnf(cnf)
    if kind == "conn":
        b.add(block, kind, text, ".cnfs", ["--method", "auto"], meta,
              {"connected": len(graph.components) <= 1})
    elif kind == "components":
        b.add(block, kind, text, ".cnfs", [], meta,
              {"digest": oracle.components_digest(graph.components, n)})
    elif kind == "stconn":
        si, ti, dist = _endpoints(rng, graph, s)
        b.add(block, kind, text, ".cnfs", [_bits(si, n), _bits(ti, n)], meta,
              {"distance": dist})
    elif kind == "diameter":
        b.add(block, kind, text, ".cnfs", [], meta, {"diameter": graph.diameter()})
    else:
        raise ValueError(kind)


# --- dense -----------------------------------------------------------------

DENSE_FAMILIES = {"M": ["M"], "nae": ["R_NAE", "R_NAZ"], "conp": ["R_coNP"]}
# constraint counts that keep each family's solution density in DENSITY
DENSE_M = {"M": (2, 5), "nae": (3, 10), "conp": (1, 3)}
# The six conn/diameter slots at n = 10 hold the median latency, and the
# five at n = 12 the 90th percentile, each inside one class of similar cost.
DENSE_SLOTS = [
    ("conn", 10), ("conn", 10), ("conn", 10), ("conn", 10), ("conn", 11), ("conn", 11),
    ("conn", 12), ("conn", 12), ("conn", 12), ("conn", 12),
    ("diameter", 10), ("diameter", 10), ("diameter", 11), ("diameter", 12),
    ("components", 12), ("components", 14), ("components", 16),
    ("stconn", 12), ("stconn", 14), ("stconn", 16),
    ("horn-selfimp", 12), ("horn-selfimp", 14), ("horn-selfimp", 16),
    ("horn-normalize", 10), ("horn-normalize", 13), ("horn-normalize", 16),
]
DENSITY = (0.15, 0.25)


def _dense_cnf(rng: random.Random, family: str, n: int) -> tuple[Cnf, np.ndarray]:
    rels = {name: NAMED[name] for name in DENSE_FAMILIES[family]}
    variables = [f"x{i}" for i in range(1, n + 1)]
    for _ in range(1000):
        m = rng.randint(*DENSE_M[family])
        cnf = random_cnf(rng, variables, rels, m)
        sat = oracle.solution_table(cnf)
        if DENSITY[0] <= sat.mean() <= DENSITY[1]:
            return cnf, sat
    raise RuntimeError(f"no {family} formula over {n} variables in the density band")


def horn_view(rng: random.Random, n: int) -> tuple[tuple[str, ...], list, np.ndarray]:
    """Random Horn clauses without positive units, solutions in the density band."""
    variables = tuple(f"v{i}" for i in range(1, n + 1))
    for _ in range(1000):
        clauses = []
        for _ in range(rng.randint(n // 2, 2 * n)):
            body = frozenset(rng.sample(variables, rng.randint(1, 3)))
            heads = [v for v in variables if v not in body]
            head = None if rng.random() < 0.3 else rng.choice(heads)
            clauses.append((head, body))
        sat = oracle.horn_table(variables, clauses)
        if DENSITY[0] <= sat.mean() <= DENSITY[1]:
            return variables, clauses, sat
    raise RuntimeError(f"no Horn view over {n} variables in the density band")


def format_horn(variables: tuple[str, ...], clauses: list) -> str:
    lines = ["var " + " ".join(variables)]
    for head, body in clauses:
        neg = " ".join(sorted(body, key=variables.index))
        lines.append(f"- {neg}" if head is None else
                     f"{head} | " + " ".join("-" + v for v in neg.split()))
    return "\n".join(lines) + "\n"


def _dense_block(b: OpList, seed: int, block: int) -> None:
    order = random.Random(f"dense-order:{len(DENSE_SLOTS)}").sample(
        range(len(DENSE_SLOTS)), len(DENSE_SLOTS))
    families = sorted(DENSE_FAMILIES)
    for slot in order:
        kind, n = DENSE_SLOTS[slot]
        rng = _rng("dense", seed, block, slot)
        if kind.startswith("horn"):
            variables, clauses, sat = horn_view(rng, n)
            meta = {"family": "horn", "n": n, "m": len(clauses), "max_arity": None,
                    "rel_size": None, "solutions": int(sat.sum())}
            text = format_horn(variables, clauses)
            if kind == "horn-selfimp":
                comps = oracle.components(sat, n)
                sets = []
                for comp in comps:
                    low = np.bitwise_and.reduce(np.array(comp, dtype=np.int64))
                    sets.append(sorted(v for j, v in enumerate(variables)
                                       if (int(low) >> (n - 1 - j)) & 1))
                b.add(block, kind, text, ".horn", [], meta, {"sets": sorted(sets)})
            else:
                b.add(block, kind, text, ".horn", [], meta,
                      {"variables": list(variables), "digest": oracle.table_digest(sat)})
            continue
        family = families[(block + slot) % len(families)]
        cnf, sat = _dense_cnf(rng, family, n)
        _add_graph_op(b, block, kind, rng, cnf, oracle.SolutionGraph(sat, n), family)


BLOCK_MAKERS = {"classify": _classify_block, "cpss": _cpss_block,
                  "sparse": _sparse_block, "dense": _dense_block}


def blocks_for(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds * BLOCKS_PER_SECOND[workload]))


def build(workload: str, seed: int, workdir: Path, blocks: int) -> list[Op]:
    if workload not in BLOCK_MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    b = OpList(workdir)
    for block in range(blocks):
        BLOCK_MAKERS[workload](b, seed, block)
    return b.ops


def build_warmup(workload: str, workdir: Path) -> list[Op]:
    """The smallest operation of each kind from a block of its own, with a
    fixed seed, so that warm-up does the same work on every run."""
    b = OpList(workdir, prefix="w")
    BLOCK_MAKERS[workload](b, 0, -1)
    smallest: dict[str, Op] = {}
    for op in b.ops:
        if op.kind not in smallest or _size(op) < _size(smallest[op.kind]):
            smallest[op.kind] = op
    return list(smallest.values())


def _size(op: Op) -> int:
    return op.meta["n"] or op.meta["max_arity"] or 0
