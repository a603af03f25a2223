"""Spans and counters around relconn's public functions, from outside.

`Tracer.install()` wraps the functions listed in SPANS and COUNTS and puts
each wrapper into every relconn module namespace that binds the original,
so calls through `from .x import f` names are seen too.  No source file
of the program changes; `uninstall()` puts the originals back.

Spans are kept in memory per operation as (name, start, end, parent,
op_id) tuples.  At the end of each operation they are folded into
per-name self times by `self_times` and dropped, so a long run keeps only
the aggregates.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Functions timed with a span, by module.
SPANS = {
    "cli": ["main"],
    "catalog": ["parse_relations"],
    "formulas": ["parse_formula", "to_clausal"],
    "horn": ["parse_horn", "maximal_self_implicating_sets", "normalize", "solution_space"],
    "relations": ["apply_pattern", "is_closed", "is_or_free", "is_nand_free", "components"],
    "classify": ["profile", "classify_set"],
    "cpss": ["sat_schaefer", "project", "conn_cpss", "decide_connectivity"],
    "bitspace": ["neighbors", "component_masks", "bfs_levels"],
    "solution_graph": ["solution_space", "report", "diameter", "is_connected",
                       "st_connected", "components", "locally_minimal"],
    "constructions": ["reduce_sat_to_conn", "express_m_details"],
}
# Hot small functions: counted, not timed.
COUNTS = {"formulas": ["evaluate"], "horn": ["imp"]}
SELF_S = [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]

# Per-layer metrics: name -> (unit, better).  Times and work counts are
# better lower.  Ratios of useful outcomes to attempts, the share of
# connectivity queries answered by the polynomial route, and the traced to
# untraced speed ratio are better higher.  Solution density describes the
# inputs: it tells the sparse workload from the dense one.
METRICS = {name + ".self_s": ("s/op", "lower") for name in SELF_S}
METRICS.update({
    "relations.apply_pattern.calls": ("count/op", "lower"),
    "relations.apply_pattern.distinct_ratio": ("ratio", "higher"),
    "classify.profile.calls": ("count/op", "lower"),
    "classify.profile.distinct_ratio": ("ratio", "higher"),
    "formulas.to_clausal.calls": ("count/op", "lower"),
    "formulas.evaluate.calls": ("count/op", "lower"),
    "cpss.sat_schaefer.calls": ("count/op", "lower"),
    "cpss.sat_schaefer.sat_ratio": ("ratio", "higher"),
    "cpss.route.cpss": ("count/op", "higher"),
    "cpss.route.brute": ("count/op", "lower"),
    "cpss.route.none": ("count/op", "lower"),
    "bitspace.neighbors.calls": ("count/op", "lower"),
    "bitspace.neighbors.computed_mb": ("MB/op", "lower"),
    "bitspace.bfs_levels.rounds": ("count/op", "lower"),
    "bitspace.iter_bits.yields": ("count/op", "lower"),
    "bitspace.iter_bits.computed_mb": ("MB/op", "lower"),
    "solution_graph.solution_space.calls": ("count/op", "lower"),
    "solution_graph.solution_density": ("ratio", "higher"),
    "solution_graph.report.calls": ("count/op", "lower"),
    "horn.normalize.calls": ("count/op", "lower"),
    "horn.imp.calls": ("count/op", "lower"),
    "trace.overhead": ("ratio", "higher"),
})


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  A span's parent is an index into the list,
    or -1 for a root."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _relconn_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "relconn" or name.startswith("relconn."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.ops = 0
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._replaced: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op_id)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _iter_bits(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(s):
            width = (s.bit_length() + 7) // 8
            for i in fn(s):
                counts["bitspace.iter_bits.yields"] += 1
                counts["bitspace.iter_bits.bytes"] += width
                yield i
        return wrapper

    def _after_hooks(self) -> dict:
        c, d = self.counts, self.distinct

        def apply_pattern(args, rel):
            d["relations.apply_pattern"].add(hash((rel.arity, rel.members)))

        def profile(args, _):
            d["classify.profile"].add(hash((args[0].arity, args[0].members)))

        def sat_schaefer(args, result):
            c["cpss.sat_schaefer.sat"] += bool(result[0])

        def decide(args, decision):
            c["cpss.route." + decision.method] += 1

        def neighbors(args, _):
            n = args[1]
            c["bitspace.neighbors.bytes"] += n * ((1 << n) // 8)

        def bfs_levels(args, levels):
            c["bitspace.bfs_levels.rounds"] += len(levels)

        def solution_space(args, space):
            c["solution_graph.solutions"] += space.bit_count()
            c["solution_graph.cube"] += 1 << args[0].n

        return {"relations.apply_pattern": apply_pattern, "classify.profile": profile,
                "cpss.sat_schaefer": sat_schaefer, "cpss.decide_connectivity": decide,
                "bitspace.neighbors": neighbors, "bitspace.bfs_levels": bfs_levels,
                "solution_graph.solution_space": solution_space}

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = self._after_hooks()
        wrappers = {}
        for mod, fns in SPANS.items():
            module = sys.modules[f"relconn.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                wrappers[getattr(module, fn)] = self._span(name, getattr(module, fn),
                                                           hooks.get(name))
        for mod, fns in COUNTS.items():
            module = sys.modules[f"relconn.{mod}"]
            for fn in fns:
                wrappers[getattr(module, fn)] = self._count(f"{mod}.{fn}", getattr(module, fn))
        iter_bits = sys.modules["relconn.bitspace"].iter_bits
        wrappers[iter_bits] = self._iter_bits(iter_bits)
        for module in _relconn_modules():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._replaced):
            setattr(module, attr, value)
        self._replaced.clear()

    # --- per-operation folding --------------------------------------------

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans = []
        self.stack = []

    def end(self) -> None:
        for span, own in zip(self.spans, self_times(self.spans)):
            self.self_s[span[0]] += own
            self.calls[span[0]] += 1
        for key, seen in self.distinct.items():
            self.counts[key + ".distinct"] += len(seen)
        self.distinct.clear()
        self.spans = []
        self.ops += 1

    def metrics(self, overhead: float) -> dict[str, float]:
        ops = max(self.ops, 1)
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {f"{name}.self_s": self.self_s[name] / ops for name in SELF_S}
        for name in ("relations.apply_pattern", "classify.profile", "formulas.to_clausal",
                     "cpss.sat_schaefer", "bitspace.neighbors",
                     "solution_graph.solution_space", "solution_graph.report",
                     "horn.normalize"):
            out[name + ".calls"] = self.calls[name] / ops
        out["relations.apply_pattern.distinct_ratio"] = ratio(
            c["relations.apply_pattern.distinct"], self.calls["relations.apply_pattern"])
        out["classify.profile.distinct_ratio"] = ratio(
            c["classify.profile.distinct"], self.calls["classify.profile"])
        out["cpss.sat_schaefer.sat_ratio"] = ratio(
            c["cpss.sat_schaefer.sat"], self.calls["cpss.sat_schaefer"])
        for route in ("cpss", "brute", "none"):
            out[f"cpss.route.{route}"] = c[f"cpss.route.{route}"] / ops
        out["formulas.evaluate.calls"] = c["formulas.evaluate.calls"] / ops
        out["horn.imp.calls"] = c["horn.imp.calls"] / ops
        out["bitspace.neighbors.computed_mb"] = c["bitspace.neighbors.bytes"] / 1e6 / ops
        out["bitspace.bfs_levels.rounds"] = c["bitspace.bfs_levels.rounds"] / ops
        out["bitspace.iter_bits.yields"] = c["bitspace.iter_bits.yields"] / ops
        out["bitspace.iter_bits.computed_mb"] = c["bitspace.iter_bits.bytes"] / 1e6 / ops
        out["solution_graph.solution_density"] = ratio(
            c["solution_graph.solutions"], c["solution_graph.cube"])
        out["trace.overhead"] = overhead
        if set(out) != set(METRICS):
            raise RuntimeError(f"metric names out of step: {set(out) ^ set(METRICS)}")
        return out
