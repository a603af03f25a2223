"""Relation profiles, set classification, and complexity predictions."""

from __future__ import annotations

import json
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relconn import classify, relations
from relconn.bitspace import coord_mask, full_mask, iter_bits
from relconn.catalog import CATALOG
from relconn.classify import (CPSS, NOT_SAFELY_TIGHT, PROFILES_KEPT,
                              SAFELY_TIGHT_NOT_SCHAEFER, SCHAEFER_NOT_CPSS,
                              classify_set, predict, profile)
from relconn.cli import main
from relconn.errors import ArityLimitError
from relconn.relations import (AFFINE, BASE_PROPERTIES, BIJUNCTIVE,
                               DUAL_HORN, HORN, IHSB_MINUS, IHSB_PLUS,
                               SAFE_PROPERTIES, SAFE_SHORTCUTS,
                               SAFELY_CW_BIJUNCTIVE, SAFELY_CW_IHSB_MINUS,
                               SAFELY_CW_IHSB_PLUS, SAFELY_NAND_FREE,
                               SAFELY_OR_FREE, ArgPattern, Relation,
                               apply_pattern, check_property, componentwise,
                               first_unsafe_identification, is_closed,
                               is_nand_free, is_or_free)

from closure_oracle import (close_under, op_and, op_maj, op_or, op_x_and_or,
                            op_x_or_and, op_xor3)
from identification_oracle import set_partitions
from random_inputs import random_relation


def rel(arity, *tuples):
    return Relation.from_tuples(arity, tuples, "R")


def padded(head, name, pad=8):
    """The tuples `head` times {0,1}^pad."""
    return Relation.from_tuples(len(head[0]) + pad, [h + format(s, f"0{pad}b") for h in head
                                                     for s in range(2 ** pad)], name)


NAE3 = ("001", "010", "011", "100", "101", "110")
M_TUPLES = ("000", "001", "010", "101", "111")
ONE_IN_THREE = ("001", "010", "100")
# Horn, with two components that are each IHSB- while the relation is not:
# only the identification sweep settles safely_componentwise_ihsb_minus
HORN_TWO_PARTS = ("000", "001", "010", "111")


class TestProfiles:
    def test_r_pspa_matches_text(self):
        """Not Schaefer; contains NAND via (1,1,x,y); componentwise
        bijunctive and OR-free but not safely either."""
        p = profile(CATALOG["R_PSPA"])
        assert not (p.bijunctive or p.horn or p.dual_horn or p.affine)
        assert not p.nand_free
        assert p.componentwise_bijunctive
        assert p.or_free
        assert p.safely_componentwise_bijunctive is False
        assert p.safely_or_free is False
        assert p.safely_nand_free is False

    def test_r_conp_profile(self):
        p = profile(CATALOG["R_coNP"])
        assert not (p.bijunctive or p.horn or p.dual_horn or p.affine)
        assert p.componentwise_bijunctive and p.componentwise_ihsb_minus
        assert p.safely_componentwise_bijunctive is False
        assert p.safely_componentwise_ihsb_minus is False
        assert p.safely_or_free is True

    def test_m_profile(self):
        p = profile(CATALOG["M"])
        assert p.horn and not p.bijunctive and not p.affine
        assert p.safely_componentwise_ihsb_minus is False

    def test_high_arity_safely_flags_unknown(self):
        # the componentwise flags that only the sweep settles stay unknown
        p = profile(padded(HORN_TWO_PARTS, "BIG"))
        assert p.horn is True
        assert p.componentwise_ihsb_minus and not p.ihsb_minus
        assert p.safely_componentwise_ihsb_minus is None
        assert p.safely_componentwise_bijunctive is None
        assert p.safely_or_free is True

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_fields_match_single_property_checks(self, arity, data):
        members = data.draw(st.frozensets(
            st.integers(0, 2 ** arity - 1), max_size=2 ** arity))
        r = Relation.from_tuples(arity, members)
        p = profile(r)
        for prop in BASE_PROPERTIES:
            assert getattr(p, prop) == check_property(r, prop), prop
        for prop in SAFE_PROPERTIES:
            assert getattr(p, prop) == (first_unsafe_identification(r, prop) is None), prop


# The identification sweep as it was before the walk: every set partition
# through apply_pattern, no deduplication, no polymorphism shortcuts.
_ORACLE_CHECKS = {
    SAFELY_CW_BIJUNCTIVE: lambda r: componentwise(r, BIJUNCTIVE),
    SAFELY_OR_FREE: is_or_free,
    SAFELY_NAND_FREE: is_nand_free,
    SAFELY_CW_IHSB_MINUS: lambda r: componentwise(r, IHSB_MINUS),
    SAFELY_CW_IHSB_PLUS: lambda r: componentwise(r, IHSB_PLUS),
}


def first_unsafe_oracle(rel, prop):
    for labels in set_partitions(rel.arity):
        pattern = ArgPattern(labels)
        if not _ORACLE_CHECKS[prop](apply_pattern(rel, pattern)):
            return pattern
    return None


def horn_closure(rng, arity):
    return close_under(random_relation(rng, arity, 5 / 2 ** arity), [op_and])


def m_times_horn(rng, arity):
    """M(x, y, z) x H for a Horn closure H over the other coordinates."""
    m, h = CATALOG["M"], horn_closure(rng, arity - 3)
    return Relation(arity, sum(1 << ((a << (arity - 3)) | b)
                               for a in range(8) if a in m
                               for b in range(2 ** (arity - 3)) if b in h))


SEEDED_KINDS = {
    "horn": horn_closure,
    "m_times_horn": m_times_horn,
    "ihsb_minus": lambda rng, k: close_under(random_relation(rng, k, 4 / 2 ** k),
                                             [op_x_and_or]),
    "ihsb_plus": lambda rng, k: close_under(random_relation(rng, k, 4 / 2 ** k),
                                            [op_x_or_and]),
    "dual_horn": lambda rng, k: close_under(random_relation(rng, k, 5 / 2 ** k), [op_or]),
    "bijunctive": lambda rng, k: close_under(random_relation(rng, k, 3 / 2 ** k), [op_maj]),
    "affine": lambda rng, k: close_under(random_relation(rng, k, 2 / 2 ** k), [op_xor3]),
    "random": lambda rng, k: random_relation(rng, k, rng.choice([0.2, 0.5])),
}


class TestSweepAgainstOracle:
    def test_profile_matches_oracle_sweep(self):
        rng = random.Random(11)
        fired = set()
        for kind, make in sorted(SEEDED_KINDS.items()):
            for i in range(8):
                r = make(rng, 4 + i % 4)  # arity 4..7
                p = profile(r)
                for prop in SAFE_PROPERTIES:
                    assert getattr(p, prop) == \
                        (first_unsafe_oracle(r, prop) is None), (kind, prop, r)
                    fired.update((prop, b) for b in SAFE_SHORTCUTS[prop] if getattr(p, b))
        assert fired == {(prop, b) for prop, bases in SAFE_SHORTCUTS.items() for b in bases}

    @pytest.mark.parametrize("prop,base", [(prop, b) for prop, bases in
                                           sorted(SAFE_SHORTCUTS.items()) for b in bases])
    def test_shortcut_implications_hold(self, prop, base):
        # a relation with the base property is safely prop, by the oracle sweep
        op = {BIJUNCTIVE: op_maj, HORN: op_and, DUAL_HORN: op_or, AFFINE: op_xor3,
              IHSB_MINUS: op_x_and_or, IHSB_PLUS: op_x_or_and}[base]
        rng = random.Random(base + prop)
        for _ in range(25):
            arity = rng.randint(2, 6)
            r = close_under(random_relation(rng, arity, 4 / 2 ** arity), [op])
            assert check_property(r, base)
            assert first_unsafe_oracle(r, prop) is None, r

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_witness_matches_oracle(self, arity, data):
        members = data.draw(st.frozensets(
            st.integers(0, 2 ** arity - 1), max_size=2 ** arity))
        r = Relation.from_tuples(arity, members)
        for prop in SAFE_PROPERTIES:
            assert first_unsafe_identification(r, prop) == first_unsafe_oracle(r, prop)


PAIR_FLAGS = (SAFELY_OR_FREE, SAFELY_NAND_FREE)
COMPONENTWISE_OF = {SAFELY_CW_BIJUNCTIVE: BIJUNCTIVE, SAFELY_CW_IHSB_MINUS: IHSB_MINUS,
                    SAFELY_CW_IHSB_PLUS: IHSB_PLUS}


def pair_loop_failures(r):
    """The safely OR-free and NAND-free flags that fail, by the member test
    as stated: some two members a, b with a | b in R and a & b not (OR),
    or the other way round (NAND)."""
    members = set(iter_bits(r.mask))
    failed = set()
    for a, b in combinations(members, 2):
        if a | b in members and a & b not in members:
            failed.add(SAFELY_OR_FREE)
        if a & b in members and a | b not in members:
            failed.add(SAFELY_NAND_FREE)
    return failed


def close_pairs(r, dual):
    """The smallest superset of r in which a | b in R forces a & b in R
    (with dual, a & b forces a | b): safely OR-free (NAND-free) by the
    member test, and mostly neither Horn nor affine."""
    members = set(iter_bits(r.mask))
    grown = True
    while grown:
        grown = False
        for a, b in combinations(sorted(members), 2):
            have, need = (a & b, a | b) if dual else (a | b, a & b)
            if have in members and need not in members:
                members.add(need)
                grown = True
    return Relation.from_tuples(r.arity, members)


@st.composite
def member_test_relations(draw):
    """A random relation of arity 5-10 and a drawn density, or its
    close_pairs."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    k = draw(st.integers(5, 10))
    r = random_relation(rng, k, draw(st.sampled_from((4, 16, 64, 256))) / 2 ** k
                        if k > 6 else draw(st.sampled_from((0.1, 0.3, 0.6))))
    closing = draw(st.sampled_from((None, False, True)))
    return r if closing is None else close_pairs(r, closing)


class TestMemberTest:
    """Safely OR-free and NAND-free by relations._join_meet_failures, and
    the componentwise flags that a failing component settles, against the
    identification sweep (first_unsafe_identification's walk) and, above
    its arity bound, against pair_loop_failures."""

    def test_every_relation_of_arity_1_to_4(self):
        for k in range(1, 5):
            for mask in range(1 << (1 << k)):
                r = Relation(k, mask)
                cw_false = [prop for prop, base in COMPONENTWISE_OF.items()
                            if not componentwise(r, base)]
                # one walk for every flag checked, as first_unsafe_identification
                # walks for one
                walked = relations._first_failures(r, PAIR_FLAGS + tuple(cw_false))
                assert relations._join_meet_failures(r, PAIR_FLAGS).keys() == \
                    walked.keys() & set(PAIR_FLAGS), r
                assert walked.keys() >= set(cw_false), r

    @settings(max_examples=40, deadline=None)
    @given(member_test_relations())
    def test_profile_matches_the_sweep(self, r):
        p = classify._profile_facts.__wrapped__(r)
        cw_false = [prop for prop, base in COMPONENTWISE_OF.items()
                    if not componentwise(r, base)]
        for prop in PAIR_FLAGS + tuple(cw_false):
            assert getattr(p, prop) == (first_unsafe_identification(r, prop) is None), prop
        assert relations._join_meet_failures(r, PAIR_FLAGS).keys() == pair_loop_failures(r)

    def test_above_the_sweep_bound_against_the_pair_loop(self):
        rng = random.Random(26)
        kinds = set()
        for i in range(24):
            k = 11 + i % 2
            r = random_relation(rng, k, rng.choice((4, 16, 64, 256)) / 2 ** k)
            if i % 3:
                r = close_pairs(r, dual=i % 3 == 2)
            failed = pair_loop_failures(r)
            kinds.add(frozenset(failed))
            assert relations._join_meet_failures(r, PAIR_FLAGS).keys() == failed, r
            p = profile(r)
            for prop in PAIR_FLAGS:
                assert getattr(p, prop) == (prop not in failed), (prop, r)
        # the seeds reach each flag failing and both holding
        assert kinds >= {frozenset(), frozenset([SAFELY_OR_FREE]),
                         frozenset([SAFELY_NAND_FREE])}


def two_cnf_relation(rng, arity, clauses):
    """Solutions of random two-literal clauses: bijunctive by construction."""
    full = full_mask(arity)
    mask = full
    for _ in range(clauses):
        cell = full
        for pos in rng.sample(range(arity), 2):
            one = coord_mask(arity, pos)
            cell &= one if rng.random() < 0.5 else full ^ one
        mask &= ~cell
    return Relation(arity, mask)


class TestScale:
    def test_arity_10_horn_closure_within_a_second(self):
        r = close_under(random_relation(random.Random(0), 10, 0.2), [op_and])
        assert 800 <= len(r) <= 900 and is_closed(r, "and")
        classify._profile_facts.cache_clear()  # time the sweep, not a memo hit
        start = time.perf_counter()
        p = profile(r)
        assert time.perf_counter() - start < 1.0
        assert p.horn and p.safely_or_free
        assert p.safely_nand_free is False

    def test_arity_9_bijunctive_not_horn_within_a_second(self):
        r = two_cnf_relation(random.Random(7), 9, 6)
        assert is_closed(r, "maj") and not is_closed(r, "and") and not is_closed(r, "or")
        classify._profile_facts.cache_clear()  # time the sweep, not a memo hit
        start = time.perf_counter()
        p = profile(r)
        assert time.perf_counter() - start < 1.0
        assert p.bijunctive and p.safely_componentwise_bijunctive
        # settled by no shortcut, so the sweep runs over every identification
        assert p.safely_or_free and p.safely_componentwise_ihsb_minus


    def test_arity_16_member_test_passes_every_member_within_ten_seconds(self):
        # the down-set of 4 random tops, with two points whose meet it
        # lacks: not Horn, so no shortcut settles safely_or_free, and the
        # flag holds, so the member test runs over all 24,962 members
        rng = random.Random(26)
        k = 16
        tops = 0
        for _ in range(4):
            tops |= 1 << sum(1 << pos for pos in rng.sample(range(k), 13))
        u, v = (1 << k) - 2, (1 << k) - 1 - (1 << (k - 1))  # all ones but one
        r = Relation(k, relations._down(tops, k) | 1 << u | 1 << v, "DOWN")
        assert len(r) == 24962 and u & v not in r
        classify._profile_facts.cache_clear()  # time the member test, not a memo hit
        start = time.perf_counter()
        cl = classify_set([r])
        assert time.perf_counter() - start < 10.0
        assert cl.set_class == SAFELY_TIGHT_NOT_SCHAEFER
        p = profile(r)
        assert not (p.horn or p.affine) and p.safely_or_free is True


EXPECTED_CLASSES = {
    "OR": CPSS,                      # bijunctive
    "NAND": CPSS,
    "P": CPSS,                       # dual Horn, safely componentwise IHSB+
    "N": CPSS,                       # bijunctive and Horn
    "M": SCHAEFER_NOT_CPSS,          # Horn, not safely componentwise IHSB-
    "K": SCHAEFER_NOT_CPSS,
    "L": SCHAEFER_NOT_CPSS,
    "R_coNP": SAFELY_TIGHT_NOT_SCHAEFER,
    "R_PSPA": NOT_SAFELY_TIGHT,
    "R_NAE": NOT_SAFELY_TIGHT,
    "R_NAZ": CPSS,                   # same tuples as P
}


class TestSetClassification:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED_CLASSES.items()))
    def test_catalog_singletons(self, name, expected):
        assert classify_set([CATALOG[name]]).set_class == expected

    def test_m_detail(self):
        cl = classify_set([CATALOG["M"]])
        assert cl.schaefer and not cl.cpss
        assert cl.schaefer_kinds == ("horn",)
        assert cl.tight and cl.safely_tight

    def test_bijunctive_set_is_cpss(self):
        cl = classify_set([CATALOG["OR"], CATALOG["NAND"], CATALOG["N"]])
        assert cl.set_class == CPSS
        assert "bijunctive" in cl.cpss_kinds

    def test_mixed_set_loses_schaefer(self):
        # P is dual Horn only, M is Horn only; the union is not Schaefer
        cl = classify_set([CATALOG["P"], CATALOG["M"]])
        assert not cl.schaefer
        assert cl.set_class == NOT_SAFELY_TIGHT

    def test_conp_pair(self):
        cl = classify_set([CATALOG["M"], CATALOG["K"]])
        assert cl.set_class == SCHAEFER_NOT_CPSS

    def test_empty_set_rejected(self):
        from relconn.errors import RelationError
        with pytest.raises(RelationError):
            classify_set([])

    def test_safely_tight_shortcut_skips_high_arity(self):
        # Schaefer implies safely tight, so no identification sweep is needed
        big = Relation.from_tuples(12, [0, 1], "BIG")  # Horn chain
        cl = classify_set([big])
        assert cl.safely_tight

    def test_high_arity_requiring_sweep_raises(self):
        # not Schaefer; OR and NAND make safely OR-free and NAND-free false,
        # so the answer rests on BIG's safely componentwise bijunctive flag,
        # which needs the sweep beyond its arity bound: undecidable here
        r = padded(ONE_IN_THREE, "BIG")
        for prop in (BIJUNCTIVE, HORN, DUAL_HORN, AFFINE):
            assert not check_property(r, prop), prop
        with pytest.raises(ArityLimitError, match="needs safely_componentwise_bijunctive "
                                                  r"of BIG \(arity 11\)"):
            classify_set([r, CATALOG["OR"], CATALOG["NAND"]])

    def test_high_arity_decided_by_known_flags(self):
        # BIG's safely componentwise bijunctive flag stays unknown, but its
        # known safely OR-free flag makes the set safely tight
        r = padded(ONE_IN_THREE, "BIG")
        p = profile(r)
        assert p.safely_componentwise_bijunctive is None
        assert p.safely_or_free and p.safely_nand_free
        cl = classify_set([r])
        assert cl.set_class == SAFELY_TIGHT_NOT_SCHAEFER and cl.safely_tight

    def test_known_false_flags_settle_each_disjunct(self):
        # M has both componentwise bijunctive and NAND-free false, OR has
        # OR-free false: not safely tight whatever BIG's unknown flag is
        cl = classify_set([padded(ONE_IN_THREE, "BIG"), CATALOG["M"], CATALOG["OR"]])
        assert cl.set_class == NOT_SAFELY_TIGHT

    def test_known_false_flag_settles_a_cpss_row(self):
        # both are Horn; M's false safely componentwise IHSB- flag settles the
        # Horn row whatever WIDE's unknown one is
        wide = padded(HORN_TWO_PARTS, "WIDE")
        assert profile(wide).horn and profile(wide).safely_componentwise_ihsb_minus is None
        with pytest.raises(ArityLimitError, match="needs safely_componentwise_ihsb_minus"):
            classify_set([wide])
        cl = classify_set([wide, CATALOG["M"]])
        assert cl.set_class == SCHAEFER_NOT_CPSS and cl.schaefer_kinds == ("horn",)

    @pytest.mark.parametrize("head, expected", [(NAE3, NOT_SAFELY_TIGHT),
                                                (M_TUPLES, SCHAEFER_NOT_CPSS)])
    def test_high_arity_twins_classify_alike(self, head, expected):
        # the arity-10 twin's flags come from the sweep; at arity 11 every
        # flag needed comes from the member test or a false base flag
        assert classify_set([padded(head, "TWIN", 7)]).set_class == expected
        wide = padded(head, "WIDE")
        assert classify_set([wide]).set_class == expected
        p = profile(wide)
        assert None not in (p.safely_or_free, p.safely_nand_free)
        if head == NAE3:
            assert p.safely_componentwise_bijunctive is False
        else:
            assert p.safely_componentwise_ihsb_minus is False


class TestProfileMemo:
    """profile keeps each (arity, mask)'s facts for the life of the process,
    within PROFILES_KEPT entries, and names them after the relation asked."""

    def test_memo_equals_fresh(self):
        rng = random.Random(25)
        rels = [Relation(k, random_relation(rng, k, rng.choice((0.1, 0.5, 0.9))).mask,
                         f"R{k}") for k in range(1, 11)]
        rels += [rng.choice(rels) for _ in range(10)]  # repeats hit the memo
        classify._profile_facts.cache_clear()
        memo = [profile(r) for r in rels]
        assert classify._profile_facts.cache_info().hits == 10
        for r, p in zip(rels, memo):
            classify._profile_facts.cache_clear()
            assert p == profile(r) == classify._profile_facts.__wrapped__(r)

    def test_equal_relation_sweeps_once(self, monkeypatch):
        calls = []
        sweep = classify.safely_flags

        def counted(rel, *facts):
            calls.append(rel.name)
            return sweep(rel, *facts)

        monkeypatch.setattr(classify, "safely_flags", counted)
        classify._profile_facts.cache_clear()
        m = CATALOG["M"]
        profile(Relation(m.arity, m.mask, "A"))
        profile(Relation(m.arity, m.mask, "B"))
        assert calls == ["A"]

    def test_equal_masks_keep_their_names(self, capsys, tmp_path):
        m = CATALOG["M"]
        a, b = Relation(m.arity, m.mask, "A"), Relation(m.arity, m.mask, "B")
        classify._profile_facts.cache_clear()
        pa, pb = profile(a), profile(b)
        assert (pa.name, pb.name, profile(a).name) == ("A", "B", "A")
        assert {**vars(pa), "name": "B"} == vars(pb)
        path = tmp_path / "twins.rel"
        path.write_text("rel A 3 : " + " ".join(a.tuples())
                        + "\nrel B 3 : " + " ".join(b.tuples()) + "\n")
        assert main(["classify-relation", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in out] == ["A", "B"]

    def test_arity_error_names_the_relation_asked(self):
        profile(padded(ONE_IN_THREE, "TWIN"))
        with pytest.raises(ArityLimitError, match="of BIG "):
            classify_set([padded(ONE_IN_THREE, "BIG"), CATALOG["OR"], CATALOG["NAND"]])

    def test_bounded(self):
        assert classify._profile_facts.cache_info().maxsize == PROFILES_KEPT
        for mask in range(1, PROFILES_KEPT + 20):
            profile(Relation(9, mask))
            assert classify._profile_facts.cache_info().currsize <= PROFILES_KEPT
        assert classify._profile_facts.cache_info().currsize == PROFILES_KEPT


class TestPredictions:
    def test_rows(self):
        assert predict(classify_set([CATALOG["OR"]])).conn == "P"
        m = predict(classify_set([CATALOG["M"]]))
        assert (m.sat, m.conn, m.st_conn, m.diameter_bound) == \
            ("P", "coNP-complete", "P", "O(n)")
        conp = predict(classify_set([CATALOG["R_coNP"]]))
        assert (conp.sat, conp.conn, conp.st_conn, conp.diameter_bound) == \
            ("NP-complete", "coNP-complete", "P", "O(n)")
        pspa = predict(classify_set([CATALOG["R_PSPA"]]))
        assert (pspa.sat, pspa.conn, pspa.st_conn, pspa.diameter_bound) == \
            ("NP-complete", "PSPACE-complete", "PSPACE-complete",
             "2^Omega(sqrt(n))")
