"""Relation algebra: patterns, closure properties, safely-variants."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relconn import relations
from relconn.errors import ArityLimitError, PatternError, RelationError
from relconn.relations import (_PROPERTY_OPS, AFFINE, BASE_PROPERTIES,
                               BIJUNCTIVE, DUAL_HORN, HORN, IHSB_MINUS,
                               IHSB_PLUS, ONE_VALID, SAFE_CHECK_ARITY_MAX,
                               SAFELY_CW_BIJUNCTIVE, SAFELY_CW_IHSB_MINUS,
                               SAFELY_NAND_FREE, SAFELY_OR_FREE, ZERO_VALID,
                               ArgPattern, Relation, apply_pattern,
                               check_property, componentwise, components,
                               first_unsafe_identification, hull, is_closed,
                               is_nand_free, is_or_free, walk_identifications)

from closure_oracle import (close_under, op_and, op_maj, op_or, op_x_and_or,
                            op_x_or_and, op_xor3)
from identification_oracle import enumerate_identifications, set_partitions
from random_inputs import random_relation


def rel(arity, *tuples):
    return Relation.from_tuples(arity, tuples)


OR = rel(2, "01", "10", "11")
NAND = rel(2, "00", "01", "10")
M = rel(3, "000", "001", "010", "101", "111")
R_CONP = rel(4, "0000", "0100", "1100", "0011", "1011")


class TestRelation:
    def test_from_tuples_forms(self):
        assert Relation.from_tuples(2, ["01", "10"]) == \
            Relation.from_tuples(2, [1, 2]) == \
            Relation.from_tuples(2, [(0, 1), (1, 0)])

    def test_tuples_sorted_bitstrings(self):
        assert M.tuples() == ["000", "001", "010", "101", "111"]

    def test_bit_coordinate_one_is_msb(self):
        assert rel(3, "100").members == {0b100}

    def test_rejects_out_of_range(self):
        # non-int or bool masks (the frozenset is the old member-set form),
        # negative masks and masks wider than 2^arity bits
        for mask in (frozenset({4}), {1}, 1.0, "5", None, True, False, -1, 1 << 4):
            with pytest.raises(RelationError):
                Relation(2, mask)
        # tuple indexes out of range or bool, as the masks are, and
        # sequence tuples with bool or float entries
        for t in (-1, 4, 1 << 40, True, False, (True, False), [0, True],
                  (1.0, 0), (0, 0.0), (1, 2), (1,)):
            with pytest.raises(RelationError):
                Relation.from_tuples(2, [t])

    def test_name_ignored_in_equality(self):
        assert OR == OR.renamed("X")


class TestPatterns:
    def test_identity(self):
        assert apply_pattern(M, ArgPattern((0, 1, 2))) == M

    def test_constants_only_rejected(self):
        with pytest.raises(PatternError):
            ArgPattern(("0", "1"))

    def test_gap_in_indices_rejected(self):
        with pytest.raises(PatternError):
            ArgPattern((0, 2))

    def test_substitution(self):
        # OR(1, x) is always true; OR(0, x) forces x
        assert apply_pattern(OR, ArgPattern(("1", 0))) == rel(1, "0", "1")
        assert apply_pattern(OR, ArgPattern(("0", 0))) == rel(1, "1")

    def test_identification(self):
        assert apply_pattern(OR, ArgPattern((0, 0))) == rel(1, "1")
        assert apply_pattern(NAND, ArgPattern((0, 0))) == rel(1, "0")

    def test_permutation(self):
        imp = rel(2, "00", "10", "11")  # y -> x
        assert apply_pattern(imp, ArgPattern((1, 0))) == rel(2, "00", "01", "11")

    def test_conp_identification_3_4(self):
        pat = ArgPattern((0, 1, 2, 2))
        got = apply_pattern(R_CONP, pat)
        assert got == rel(3, "000", "010", "110", "001", "101")

    def test_set_partitions_order_and_count(self):
        parts = list(set_partitions(3))
        assert parts == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
        # Bell numbers for n = 1..5
        assert [len(list(set_partitions(n))) for n in range(1, 6)] == \
            [1, 2, 5, 15, 52]

    def test_identifications_include_identity_and_collapse(self):
        rels = list(enumerate_identifications(R_CONP))
        assert R_CONP in rels
        assert rel(3, "000", "010", "110", "001", "101") in rels


_OP_FUNCS = {
    "maj": (3, lambda a, b, c: (a & b) | (a & c) | (b & c)),
    "and": (2, lambda a, b: a & b),
    "or": (2, lambda a, b: a | b),
    "xor3": (3, lambda a, b, c: a ^ b ^ c),
    "x_and_or": (3, lambda a, b, c: a & (b | c)),
    "x_or_and": (3, lambda a, b, c: a | (b & c)),
}
# op name -> the property it characterises, and the function close_under applies
_OP_PROPERTY = {op: prop for prop, op in _PROPERTY_OPS.items()}
_CLOSE_OPS = {"maj": op_maj, "and": op_and, "or": op_or, "xor3": op_xor3,
              "x_and_or": op_x_and_or, "x_or_and": op_x_or_and}


def brute_closed(r, name):
    """Independent closure check over all argument tuples."""
    k, fn = _OP_FUNCS[name]
    for combo in itertools.product(r.members, repeat=k):
        if fn(*combo) not in r.members:
            return False
    return True


class TestClosure:
    def test_or_profile(self):
        assert check_property(OR, ONE_VALID)
        assert not check_property(OR, ZERO_VALID)
        assert check_property(OR, DUAL_HORN)
        assert check_property(OR, BIJUNCTIVE)
        assert not check_property(OR, HORN)
        assert not check_property(OR, AFFINE)

    def test_m_profile(self):
        assert check_property(M, HORN)
        assert not check_property(M, BIJUNCTIVE)
        assert not check_property(M, DUAL_HORN)
        assert not check_property(M, AFFINE)
        assert not check_property(M, IHSB_MINUS)

    def test_r_conp_in_no_schaefer_class(self):
        # 1100 AND 1011 = 1000 is missing, and so on for the other three
        for prop in (HORN, DUAL_HORN, BIJUNCTIVE, AFFINE):
            assert not check_property(R_CONP, prop), prop

    def test_r_conp_componentwise(self):
        assert componentwise(R_CONP, BIJUNCTIVE)
        assert componentwise(R_CONP, IHSB_MINUS)
        assert componentwise(R_CONP, IHSB_PLUS)

    def test_empty_relation_closed_not_valid(self):
        empty = Relation.from_tuples(2, [])
        for prop in (HORN, DUAL_HORN, BIJUNCTIVE, AFFINE, IHSB_MINUS, IHSB_PLUS):
            assert check_property(empty, prop)
        assert not check_property(empty, ZERO_VALID)
        assert not check_property(empty, ONE_VALID)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_is_closed_matches_brute(self, arity, data):
        # random relations are almost never closed, so most draws are
        # closures under one of the six operations
        members = data.draw(st.frozensets(
            st.integers(0, 2 ** arity - 1), max_size=2 ** arity if arity <= 4 else 6))
        r = Relation.from_tuples(arity, members)
        op_name = data.draw(st.sampled_from([None, *_CLOSE_OPS]))
        if op_name is not None:
            r = close_under(r, [_CLOSE_OPS[op_name]])
            assert check_property(r, _OP_PROPERTY[op_name])
        for prop, op in _PROPERTY_OPS.items():
            assert is_closed(r, op) == brute_closed(r, op), prop
            assert check_property(r, prop) == brute_closed(r, op), prop


class TestMaskChecks:
    """check_property's mask tests against the closure definitions."""

    @pytest.mark.parametrize("arity", range(1, 7))
    def test_empty_full_and_single_tuples(self, arity):
        # every operation maps the full cube into itself; the cubic oracles
        # on all 64 tuples of arity 6 would take seconds
        full = (1 << (1 << arity)) - 1
        for mask in (0, full, 1, 1 << ((1 << arity) - 1), 1 << (arity // 2)):
            r = Relation(arity, mask)
            for prop, op in _PROPERTY_OPS.items():
                assert check_property(r, prop), (prop, mask)
                if mask != full or arity <= 4:
                    assert is_closed(r, op) and brute_closed(r, op), (prop, mask)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_componentwise_matches_per_component_checks(self, arity, data):
        members = data.draw(st.frozensets(
            st.integers(0, 2 ** arity - 1), max_size=2 ** arity))
        r = Relation.from_tuples(arity, members)
        op = data.draw(st.sampled_from([None, *_CLOSE_OPS]))
        if op is not None:
            r = close_under(Relation.from_tuples(arity, sorted(members)[:4]),
                            [_CLOSE_OPS[op]])
        comps = components(r)
        for prop in BASE_PROPERTIES:
            assert componentwise(r, prop) == \
                all(check_property(c, prop) for c in comps), prop
        for prop, op_name in _PROPERTY_OPS.items():
            assert componentwise(r, prop) == all(is_closed(c, op_name) for c in comps)

    def test_componentwise_validity_needs_every_component(self):
        # 0-valid as a whole, but the component {11} misses 00
        r = rel(2, "00", "11")
        assert check_property(r, ZERO_VALID)
        assert not componentwise(r, ZERO_VALID)

    def test_closures_of_each_kind_are_exercised(self):
        # every property is seen both holding and failing on seeded inputs
        rng = random.Random(7)
        seen = set()
        for _ in range(120):
            arity = rng.randint(2, 6)
            r = close_under(random_relation(rng, arity, 0.15),
                            [_CLOSE_OPS[rng.choice(sorted(_CLOSE_OPS))]])
            for prop, op in _PROPERTY_OPS.items():
                got = check_property(r, prop)
                assert got == is_closed(r, op), (prop, r)
                seen.add((prop, got))
        assert seen == {(prop, v) for prop in _PROPERTY_OPS for v in (True, False)}


# the generators' pool pairs: x & (y | z) at y = z is x & y, likewise for or
_POOL_PAIRS = {IHSB_MINUS: [op_and, op_x_and_or], IHSB_PLUS: [op_or, op_x_or_and]}


class TestHull:
    """hull against the op-loop closure, and check_property as R == hull(R)."""

    @staticmethod
    def check(r):
        for prop, op in _PROPERTY_OPS.items():
            h = hull(r, prop)
            assert h == close_under(r, [_CLOSE_OPS[op]]), (prop, r)
            assert check_property(r, prop) == (h == r), (prop, r)
        for prop, ops in _POOL_PAIRS.items():
            assert hull(r, prop) == close_under(r, ops), (prop, r)

    @pytest.mark.parametrize("arity", range(1, 7))
    def test_empty_and_full(self, arity):
        for mask in (0, (1 << (1 << arity)) - 1):
            self.check(Relation(arity, mask))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_hypothesis(self, arity, data):
        # the cubic oracle takes seconds on most relations of arity 5 or 6
        # that are not sparse, so those draw few members
        members = data.draw(st.frozensets(
            st.integers(0, 2 ** arity - 1), max_size=2 ** arity if arity <= 4 else 6))
        self.check(Relation.from_tuples(arity, members))

    def test_seeded(self):
        rng = random.Random(17)
        for arity in range(1, 7):
            for density in (0.1, 0.3, 0.6):
                for _ in range(6 if arity < 6 else 2):
                    r = random_relation(rng, arity, density if arity < 5 else density / 4,
                                        nonempty=False)
                    self.check(r)
                    self.check(hull(r, rng.choice(sorted(_PROPERTY_OPS))))

    def test_validity_has_no_hull(self):
        with pytest.raises(RelationError, match="no hull"):
            hull(OR, ZERO_VALID)


def walk_oracle(r):
    """The partition-by-apply_pattern loop: (labels, mask) per set partition."""
    return [(labels, apply_pattern(r, ArgPattern(labels)).mask)
            for labels in set_partitions(r.arity)]


class TestWalk:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_leaves_match_partition_loop(self, arity, data):
        seed = data.draw(st.integers(0, 10 ** 6))
        rng = random.Random(seed)
        r = random_relation(rng, arity, rng.choice([0.1, 0.5, 0.9]), nonempty=False)
        if seed % 2:
            r = close_under(r if len(r) <= 6 else random_relation(rng, arity, 0.05),
                            [_CLOSE_OPS[rng.choice(sorted(_CLOSE_OPS))]])
        expected = walk_oracle(r)
        # the walk keeps the first pattern of every distinct image
        first: dict[tuple[int, int], tuple[int, ...]] = {}
        for labels, mask in expected:
            first.setdefault((max(labels) + 1, mask), labels)
        assert [(labels, (arity_, mask))
                for labels, arity_, mask in walk_identifications(r)] == \
            [(labels, key) for key, labels in first.items()]

    def test_distinct_walk_shrinks_a_symmetric_relation(self):
        # every coordinate of the full relation is alike, so each
        # identification with b blocks is the full relation of arity b
        r = Relation(5, (1 << 32) - 1)
        distinct = list(walk_identifications(r))
        assert [arity for _, arity, _ in distinct] == [1, 2, 3, 4, 5]
        assert len(list(enumerate_identifications(r))) == 52


class TestComponents:
    def test_conp_components(self):
        comps = components(R_CONP)
        assert [sorted(c.tuples()) for c in comps] == \
            [["0000", "0100", "1100"], ["0011", "1011"]]

    def test_single_point_components(self):
        r = rel(2, "00", "11")
        assert len(components(r)) == 2


def expresses_pair_oracle(r, target):
    """Ordered coordinate pairs over the member frozenset: the reference for
    the mask scan behind is_or_free/is_nand_free."""
    n = r.arity
    members = r.members
    for i, j in itertools.permutations(range(n), 2):
        pi, pj = n - 1 - i, n - 1 - j
        rest = [n - 1 - k for k in range(n) if k != i and k != j]
        for c in range(1 << len(rest)):
            base = 0
            for b, pos in enumerate(rest):
                base |= ((c >> b) & 1) << pos
            got = frozenset(
                (x << 1) | y
                for x in (0, 1) for y in (0, 1)
                if (base | (x << pi) | (y << pj)) in members)
            if got == target:
                return True
    return False


def apply_pattern_oracle(members, slots):
    """Member set of the pattern's image, by bitstring substitution."""
    m = 1 + max(s for s in slots if isinstance(s, int))
    out = set()
    for a in range(2 ** m):
        bits = format(a, f"0{m}b")
        t = "".join(s if isinstance(s, str) else bits[s] for s in slots)
        if int(t, 2) in members:
            out.add(a)
    return frozenset(out)


def slots_of(raw):
    """Pattern slots from drawn ints: -2 and -1 are the constants "0" and
    "1", the rest name output variables in order of first use."""
    if all(v < 0 for v in raw):
        raw = [0] + list(raw[1:])
    labels: dict[int, int] = {}
    return tuple("01"[v + 2] if v < 0 else labels.setdefault(v, len(labels))
                 for v in raw)


def components_oracle(members, k):
    """Member sets of the Hamming-graph components, by smallest member."""
    rest = set(members)
    out = []
    while rest:
        start = min(rest)
        comp, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for p in range(k):
                v = u ^ (1 << p)
                if v in rest and v not in comp:
                    comp.add(v)
                    stack.append(v)
        rest -= comp
        out.append(frozenset(comp))
    return out


class TestMaskAgainstMembers:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_mask_operations_match_frozenset_definitions(self, arity, data):
        members = data.draw(st.frozensets(
            st.integers(0, 2 ** arity - 1), max_size=2 ** arity))
        r = Relation.from_tuples(arity, members)
        assert r.members == members
        assert Relation.from_tuples(arity, r.members) == r
        assert len(r) == len(members)
        assert [t for t in range(2 ** arity) if t in r] == sorted(members)
        assert r.tuples() == [format(t, f"0{arity}b") for t in sorted(members)]
        assert is_or_free(r) == \
            (not expresses_pair_oracle(r, frozenset({0b01, 0b10, 0b11})))
        assert is_nand_free(r) == \
            (not expresses_pair_oracle(r, frozenset({0b00, 0b01, 0b10})))
        assert [c.members for c in components(r)] == components_oracle(members, arity)
        slots = slots_of(data.draw(st.lists(st.integers(-2, arity - 1),
                                            min_size=arity, max_size=arity)))
        assert apply_pattern(r, ArgPattern(slots)).members == \
            apply_pattern_oracle(members, slots)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_apply_pattern_to_arity_8(self, arity, data):
        r = Relation(arity, data.draw(st.integers(0, (1 << (1 << arity)) - 1)))
        slots = slots_of(data.draw(st.lists(st.integers(-2, arity - 1),
                                            min_size=arity, max_size=arity)))
        assert apply_pattern(r, ArgPattern(slots)).members == \
            apply_pattern_oracle(r.members, slots)

    def test_apply_pattern_seeded(self):
        rng = random.Random(8)
        for _ in range(300):
            arity = rng.randint(1, 8)
            density = rng.choice((0.1, 0.5, 0.9))
            r = Relation.from_tuples(
                arity, [t for t in range(1 << arity) if rng.random() < density])
            slots = slots_of([rng.randint(-2, arity - 1) for _ in range(arity)])
            assert apply_pattern(r, ArgPattern(slots)).members == \
                apply_pattern_oracle(r.members, slots)


class TestFree:
    def test_or_example(self):
        # {001,110,111}: OR-free, but identifying the first two
        # coordinates leaves {01,10,11}
        r = rel(3, "001", "110", "111")
        assert is_or_free(r)
        ident = apply_pattern(r, ArgPattern((0, 0, 1)))
        assert ident == OR
        bad = first_unsafe_identification(r, SAFELY_OR_FREE)
        assert bad is not None and apply_pattern(r, bad) == ident

    def test_nand_direct(self):
        assert not is_nand_free(rel(3, "000", "001", "010", "100"))
        assert is_nand_free(rel(2, "00", "11"))

    def test_or_requires_both_orders_covered(self):
        # x OR NOT y contains no OR in either coordinate order
        assert is_or_free(rel(2, "00", "10", "11"))


class TestSafely:
    def test_r_conp_safely_flags(self):
        assert first_unsafe_identification(R_CONP, SAFELY_CW_BIJUNCTIVE) is not None
        assert first_unsafe_identification(R_CONP, SAFELY_CW_IHSB_MINUS) is not None
        assert first_unsafe_identification(R_CONP, SAFELY_OR_FREE) is None
        assert first_unsafe_identification(R_CONP, SAFELY_NAND_FREE) is not None

    def test_witness_identification(self):
        bad = first_unsafe_identification(R_CONP, SAFELY_CW_BIJUNCTIVE)
        assert bad == ArgPattern((0, 1, 2, 2))
        ident = apply_pattern(R_CONP, bad)
        (comp,) = components(ident)
        assert op_maj(0b110, 0b000, 0b101) == 0b100
        assert 0b100 not in comp.members

    def test_arity_guard(self):
        # the guard sits in the walk, which every sweep goes through
        big = Relation.from_tuples(SAFE_CHECK_ARITY_MAX + 1, [0])
        with pytest.raises(ArityLimitError):
            first_unsafe_identification(big, SAFELY_OR_FREE)
        with pytest.raises(ArityLimitError):
            next(walk_identifications(big))

    def test_witness_is_rebuilt_by_apply_pattern(self, monkeypatch):
        # a faulty merge that adds the all-zero tuple to every image it builds
        merge = relations._merge
        monkeypatch.setattr(relations, "_merge",
                            lambda mask, w, keep, drop: merge(mask, w, keep, drop) | 1)
        r_nae = rel(3, "001", "010", "011", "100", "101", "110")
        with pytest.raises(AssertionError, match="disagrees with apply_pattern"):
            first_unsafe_identification(r_nae, SAFELY_NAND_FREE)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_safely_implies_plain(self, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        arity = rng.randint(2, 4)
        r = Relation.from_tuples(
            arity, [t for t in range(2 ** arity) if rng.random() < 0.5])
        if first_unsafe_identification(r, SAFELY_OR_FREE) is None:
            assert is_or_free(r)
        if first_unsafe_identification(r, SAFELY_CW_BIJUNCTIVE) is None:
            assert componentwise(r, BIJUNCTIVE)


class TestIdentificationPatterns:
    def test_pattern_blocks_use_least_coordinate(self):
        pats = [ArgPattern(labels) for labels in set_partitions(3)]
        assert pats[0].slots == (0, 0, 0)
        assert pats[-1].slots == (0, 1, 2)
        assert all(isinstance(slot, int) for p in pats for slot in p.slots)
