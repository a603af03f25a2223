"""bitspace's component search against the Jacobi oracle, on both routes.

Each test runs three times: with the route switch as shipped, with
PROBE_WORDS = 0 (the explicit route from the first step) and with
PROBE_WORDS huge (Gauss–Seidel sweeps and bitmask rounds only).
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitspace_oracle as oracle
from relconn import bitspace, horn, relations
from relconn import solution_graph as sg
from relconn.catalog import CATALOG, parse_relations
from relconn.cpss import random_formula
from relconn.formulas import parse_formula
from relconn.relations import Relation

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
ROUTES = {"switch": bitspace.PROBE_WORDS, "explicit": 0, "bitmask": 10 ** 9}


@pytest.fixture(params=sorted(ROUTES))
def route(request, monkeypatch):
    monkeypatch.setattr(bitspace, "PROBE_WORDS", ROUTES[request.param])
    return request.param


def mask(members) -> int:
    return sum(1 << v for v in set(members))


def check_space(space: int, n: int, seeds=()) -> None:
    """Every search of `space` against the oracle: neighbours, components,
    spread from each component's lowest member and from the given seed
    sets, BFS levels from the lowest member, and the explicit levels."""
    assert bitspace.neighbors(space, n) == oracle.neighbors(space, n)
    comps = oracle.component_masks(space, n)
    assert bitspace.component_masks(space, n) == comps
    for comp in comps:
        assert bitspace.spread(comp & -comp, space, n) == comp
    for seed in seeds:
        assert bitspace.spread(seed, space, n) == oracle.spread(seed, space, n)
    if space:
        low = space & -space
        top = 1 << (space.bit_length() - 1)
        want = oracle.bfs_levels(low, space, n, top)
        assert bitspace.bfs_levels(low, space, n, top) == want
        for rounds in range(len(want) + 1):
            assert bitspace.bfs_levels(low, space, n, top, rounds) == want[:rounds + 1]
        members = list(bitspace.iter_bits(space))
        levels = bitspace.flip_levels((members[0],), set(members), n, members[-1])
        assert [bitspace.mask_of(level) for level in levels] == want
        unseen = set(members)
        levels = bitspace.flip_levels((members[0],), unseen, n)
        assert [bitspace.mask_of(level) for level in levels] == oracle.bfs_levels(
            low, space, n)
        assert unseen == set(bitspace.iter_bits(space ^ oracle.spread(low, space, n)))


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 9))
    members = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=1 << n))
    seeds = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), max_size=3))
    return mask(members), n, seeds


class TestAgainstOracle:
    @given(case=spaces())
    @settings(max_examples=80, deadline=None)
    def test_hypothesis(self, case):
        for probe_words in ROUTES.values():
            bitspace.PROBE_WORDS = probe_words
            try:
                check_space(*case)
            finally:
                bitspace.PROBE_WORDS = ROUTES["switch"]

    def test_seeded_sparse_wide(self, route):
        # a few clusters of flips around random centres in a wide cube
        rng = random.Random(16)
        for n in (17, 18, 19, 20):
            members = []
            for _ in range(rng.randrange(5, 40)):
                v = rng.randrange(1 << n)
                for _ in range(rng.randrange(1, 12)):
                    members.append(v)
                    v ^= 1 << rng.randrange(n)
            space = mask(members)
            seeds = [mask(rng.sample(members, 3)), 1 << rng.randrange(1 << n)]
            check_space(space, n, seeds)

    def test_seeded_dense(self, route):
        rng = random.Random(17)
        for n in (10, 12, 13):
            for _ in range(3):
                space = rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
                if rng.random() < 0.5:
                    space |= rng.getrandbits(1 << n)
                check_space(space, n, [rng.getrandbits(1 << n)])


class TestEdgeCases:
    def test_empty_space(self, route):
        for n in (1, 5, 17):
            assert bitspace.component_masks(0, n) == []
            assert bitspace.spread(1, 0, n) == 0
            assert bitspace.spread(0, 0, n) == 0

    def test_seed_outside_the_space(self, route):
        n = 18
        space = mask([3, 7, 1 << 17, (1 << 17) | 1])
        assert bitspace.spread(1 << 5, space, n) == 0
        assert bitspace.spread(0, space, n) == 0
        assert bitspace.spread((1 << 5) | (1 << 3), space, n) == mask([3, 7])

    def test_single_vertex(self, route):
        for n, v in ((1, 0), (1, 1), (8, 200), (20, 987_654)):
            assert bitspace.component_masks(1 << v, n) == [1 << v]
            assert bitspace.spread(1 << v, 1 << v, n) == 1 << v

    def test_full_cube(self, route):
        for n in (1, 6, 12):
            full = bitspace.full_mask(n)
            assert bitspace.component_masks(full, n) == [full]
            assert bitspace.spread(1 << (5 % (1 << n)), full, n) == full

    def test_all_isolated(self, route):
        # the even-weight indices: no two differ in one bit
        n = 10
        space = mask(v for v in range(1 << n) if not v.bit_count() & 1)
        assert bitspace.component_masks(space, n) == [
            1 << v for v in bitspace.iter_bits(space)]
        wide = mask(v << 12 for v in range(0, 256, 3) if not v.bit_count() & 1)
        assert bitspace.component_masks(wide, 20) == [
            1 << v for v in bitspace.iter_bits(wide)]

    def test_mask_of(self):
        for s in (0, 1, 6, 1 << 63, (1 << 64) | 5, (1 << 100_000) - 1):
            assert bitspace.mask_of(bitspace.iter_bits(s)) == s

    @pytest.mark.parametrize("n", range(25))
    def test_tuple_of_index_matches_format(self, n):
        rng = random.Random(n)
        for idx in {0, (1 << n) - 1, *(rng.randrange(1 << n) for _ in range(50))}:
            assert bitspace.tuple_of_index(idx, n) == (format(idx, f"0{n}b") if n else "")
        # tuples_of against the per-index listing: empty, full, one member
        # and random masks of four densities, at every width on both sides
        # of its branches (n = 8/9 and 16/17); listings longer than
        # LISTING_SOLUTIONS_MAX (full or dense masks of the widest cubes)
        # are left out
        size = 1 << n
        masks = [0, bitspace.full_mask(n), 1 << rng.randrange(size)]
        masks += [bitspace.mask_of(rng.sample(range(size), round(density * size)))
                  for density in (0.001, 0.05, 0.25, 0.9)
                  if density * size <= sg.LISTING_SOLUTIONS_MAX]
        for s in masks:
            if s.bit_count() <= sg.LISTING_SOLUTIONS_MAX:
                assert bitspace.tuples_of(s, n) == [
                    bitspace.tuple_of_index(i, n) for i in bitspace.iter_bits(s)]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tuples_of_hypothesis(self, data):
        n = data.draw(st.integers(0, 13))
        s = data.draw(st.one_of(
            st.integers(0, bitspace.full_mask(n)),
            st.lists(st.integers(0, (1 << n) - 1), max_size=40).map(mask)))
        assert bitspace.tuples_of(s, n) == [
            bitspace.tuple_of_index(i, n) for i in bitspace.iter_bits(s)]


class TestRouteSwitch:
    @staticmethod
    def routes_taken(monkeypatch, query):
        """Which of the two routes a query ran: Gauss–Seidel steps spent,
        and whether the explicit search ran."""
        taken = {"steps": 0, "explicit": 0}
        sweep, flip = bitspace._sweep, bitspace.flip_levels

        def counted_sweep(comp, space, n, steps):
            out = sweep(comp, space, n, steps)
            taken["steps"] += steps - out[1]
            return out

        def counted_flip(*args):
            taken["explicit"] += 1
            return flip(*args)

        monkeypatch.setattr(bitspace, "_sweep", counted_sweep)
        monkeypatch.setattr(bitspace, "flip_levels", counted_flip)
        query()
        return taken

    def test_forced_routes(self, monkeypatch):
        n = 14
        space = random.Random(18).getrandbits(1 << n) | 1
        monkeypatch.setattr(bitspace, "PROBE_WORDS", 0)
        taken = self.routes_taken(monkeypatch, lambda: bitspace.spread(1, space, n))
        assert taken == {"steps": 0, "explicit": 1}
        monkeypatch.setattr(bitspace, "PROBE_WORDS", 10 ** 9)
        taken = self.routes_taken(monkeypatch,
                                  lambda: bitspace.component_masks(space, n))
        assert taken["steps"] > 0 and taken["explicit"] == 0

    def test_sparse_wide_goes_explicit_and_dense_stays(self, monkeypatch):
        # 200 members in a 2^20 cube: a few steps cost as much as the
        # explicit route; a quarter of a 2^12 cube: sweeps finish first
        rng = random.Random(19)
        sparse = mask(rng.sample(range(1 << 20), 200))
        taken = self.routes_taken(monkeypatch,
                                  lambda: bitspace.component_masks(sparse, 20))
        assert taken["explicit"] > 0
        assert taken["steps"] <= bitspace.step_budget(sparse, 20) < 20
        dense = rng.getrandbits(1 << 12) & rng.getrandbits(1 << 12)
        taken = self.routes_taken(monkeypatch,
                                  lambda: bitspace.component_masks(dense, 12))
        assert taken["explicit"] == 0

    def test_spent_sweeps_stay_within_the_budget(self, monkeypatch):
        # ski rental: the sweeps spent before the switch never exceed the
        # explicit route's estimated cost
        rng = random.Random(20)
        for n in (12, 16, 20):
            space = mask(rng.sample(range(1 << n), 300))
            budget = bitspace.step_budget(space, n)
            for query in (lambda: bitspace.component_masks(space, n),
                          lambda: bitspace.spread(space & -space, space, n)):
                assert self.routes_taken(monkeypatch, query)["steps"] <= budget


IMP = Relation.from_tuples(2, ["00", "10", "11"], "IMP")
POOL = [CATALOG["M"], CATALOG["OR"], CATALOG["NAND"], CATALOG["K"], IMP,
        CATALOG["P"], CATALOG["N"], CATALOG["R_coNP"]]


def coord_by_definition(n, pos):
    """Indices with bit pos set: by the indices up to width 8, wider as
    repeated bytes of one period (for pos < 3, a byte holds whole periods)."""
    if n <= 8:
        return sum(1 << i for i in range(1 << n) if (i >> pos) & 1)
    half = 1 << max(pos - 3, 0)
    period = (b"\xaa", b"\xcc", b"\xf0")[pos] if pos < 3 else b"\0" * half + b"\xff" * half
    return int.from_bytes(period * ((1 << (n - 3)) // len(period)), "little")


class TestMaskCache:
    def test_masks_by_definition(self):
        # the widths around the kept bound, the first wide one read again
        # after the next has dropped it
        kept = bitspace.MASKS_KEPT_WIDTH_MAX
        for n in (0, 1, 2, 3, 7, 8, 9, kept, kept + 1, kept + 2, kept + 1):
            assert bitspace.full_mask(n) == (1 << (1 << n)) - 1
            for pos in range(n):
                assert bitspace.coord_mask(n, pos) == coord_by_definition(n, pos)
            with pytest.raises(ValueError):
                bitspace.coord_mask(n, n)
            with pytest.raises(ValueError):
                bitspace.coord_mask(n, -1)

    def test_sweep_keeps_one_wide_width(self):
        """Component searches at widths 4 to 22 leave the masks of the
        widths up to MASKS_KEPT_WIDTH_MAX and of width 22 alone."""
        kept = bitspace.MASKS_KEPT_WIDTH_MAX
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(4, 23):
                space = bitspace.full_mask(n) ^ 1
                assert bitspace.component_masks(space, n) == [space]
            del space
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # width n holds 2^n bits for its full mask and 2^n per coordinate;
        # ints store 30 bits in 4 bytes, plus a header per int
        bits = sum((n + 1) << n for n in range(4, kept + 1)) + (23 << 22)
        assert held < bits / 8 * 32 / 30 + 256 * 1024
        assert max(bitspace._WIDTH_MASKS) == 22
        assert all(n <= kept for n in bitspace._WIDTH_MASKS if n != 22)


class TestSolutionGraph:
    def test_st_paths_match_the_oracle(self, route):
        # the explicit levels and the bitmask levels give the same
        # lowest-index shortest path as the Jacobi walk
        rng = random.Random(21)
        checked = 0
        for _ in range(60):
            phi = random_formula(rng, POOL, 12, 8, const_prob=0.1)
            space = sg.solution_space(phi)
            members = list(bitspace.iter_bits(space))
            if not members:
                continue
            for _ in range(4):
                s, t = rng.choice(members), rng.choice(members)
                want = oracle.st_path(space, phi.n, s, t)
                ok, path = sg.st_connected(phi, bitspace.tuple_of_index(s, phi.n),
                                           bitspace.tuple_of_index(t, phi.n))
                assert ok == (want is not None)
                assert path == (None if want is None else
                                [bitspace.tuple_of_index(i, phi.n) for i in want])
                assert sg.distance(phi, bitspace.tuple_of_index(s, phi.n),
                                   bitspace.tuple_of_index(t, phi.n)) == (
                    None if want is None else len(want) - 1)
                checked += 1
        assert checked > 150

    def test_connectivity_and_components(self, route):
        rng = random.Random(22)
        for _ in range(60):
            phi = random_formula(rng, POOL, 14, 10, const_prob=0.1)
            comps = oracle.component_masks(sg.solution_space(phi), phi.n)
            assert sg.component_spaces(phi) == comps
            assert sg.is_connected(phi) == (len(comps) <= 1)


class TestSamplesUnchanged:
    """horn selfimp, relations.components and report on samples/, with the
    oracle's component listing put in place of bitspace's."""

    @staticmethod
    def outputs():
        view = horn.parse_horn((SAMPLES / "clauses.horn").read_text())
        out = [horn.maximal_self_implicating_sets(view)]
        for path in sorted(SAMPLES.glob("*.rel")):
            for rel in parse_relations(path.read_text()).values():
                out.append(relations.components(rel))
        for path in sorted(SAMPLES.glob("*.cnfs")):
            out.append(sg.report(parse_formula(path.read_text(), CATALOG)))
        return out

    def test_samples(self, route, monkeypatch):
        got = self.outputs()
        with monkeypatch.context() as m:
            m.setattr(bitspace, "component_masks", oracle.component_masks)
            m.setattr(relations, "component_masks", oracle.component_masks)
            want = self.outputs()
        assert got == want
