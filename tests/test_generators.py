"""The seeded generators must actually deliver what their names promise."""

from __future__ import annotations

import random

import pytest

from relconn.classify import classify_set, profile
from relconn.cpss import random_formula
from relconn.formulas import evaluate
from relconn.relations import (AFFINE, BIJUNCTIVE, DUAL_HORN, HORN, Relation,
                               check_property)

from closure_oracle import (close_under, op_and, op_maj, op_or, op_x_and_or,
                            op_x_or_and, op_xor3)
from random_inputs import (random_cpss_pool, random_horn_not_safely_cw_ihsb_minus,
                           random_horn_relation, random_horn_view, random_relation)


class TestPools:
    @pytest.mark.parametrize("kind,prop", [
        ("bijunctive", BIJUNCTIVE),
        ("affine", AFFINE),
        ("horn", HORN),
        ("dual_horn", DUAL_HORN),
    ])
    def test_members_have_the_closure(self, kind, prop):
        rng = random.Random(41)
        pool = random_cpss_pool(rng, kind, 6)
        assert len(pool) == 6
        for rel in pool:
            assert check_property(rel, prop)
        assert classify_set(pool).set_class == "CPSS"

    def test_horn_pool_is_safe(self):
        rng = random.Random(43)
        for rel in random_cpss_pool(rng, "horn", 5):
            assert profile(rel).safely_componentwise_ihsb_minus is True

    def test_unknown_kind(self):
        from relconn.errors import RelconnError
        with pytest.raises(RelconnError):
            random_cpss_pool(random.Random(0), "monotone", 1)


class TestRandomFormula:
    def test_well_formed_and_evaluable(self):
        rng = random.Random(47)
        pool = random_cpss_pool(rng, "bijunctive", 3)
        for _ in range(30):
            phi = random_formula(rng, pool, 5, 4)
            assert 1 <= len(phi.constraints) <= 4
            pools = {r.members for r in pool}
            for c in phi.constraints:
                assert phi.relation_of(c).members in pools
                assert len(c.args) == phi.relation_of(c).arity
                for a in c.args:
                    assert a in ("0", "1") or a in phi.variables
            evaluate(phi, {v: 0 for v in phi.variables})

    def test_const_prob_zero_means_no_constants(self):
        rng = random.Random(53)
        pool = [Relation.from_tuples(2, [0, 1, 3], "IMP")]
        for _ in range(20):
            phi = random_formula(rng, pool, 4, 3, const_prob=0.0)
            for c in phi.constraints:
                assert all(a not in ("0", "1") for a in c.args)


class TestRandomHornSet:
    def test_shape_and_flags(self):
        rng = random.Random(59)
        saw_restraint = False
        for _ in range(40):
            v = random_horn_view(rng, n_vars=6, n_clauses=5)
            assert len(v.variables) == 6
            assert len(v.clauses) == 5
            assert not v.has_positive_units()
            saw_restraint |= bool(v.restraint_sets())
        assert saw_restraint

    def test_positive_units_appear_when_allowed(self):
        rng = random.Random(61)
        assert any(
            random_horn_view(rng, 5, 6, allow_positive_units=True)
            .has_positive_units()
            for _ in range(30))

    def test_restraint_prob_zero(self):
        rng = random.Random(67)
        for _ in range(20):
            v = random_horn_view(rng, 4, 5, restraint_prob=0.0)
            # a full-width body can still fall back to a restraint
            for r in v.restraint_sets():
                assert len(r) == 4


class TestTargetedRelations:
    def test_horn_not_safe(self):
        rng = random.Random(71)
        for _ in range(5):
            rel = random_horn_not_safely_cw_ihsb_minus(rng, arity_max=5)
            p = profile(rel)
            assert p.horn is True
            assert p.safely_componentwise_ihsb_minus is False

    def test_safely_cw_bijunctive(self):
        rng = random.Random(73)
        for rel in random_cpss_pool(rng, "bijunctive", 5):
            assert profile(rel).safely_componentwise_bijunctive is True

    def test_close_under_is_a_closure(self):
        rng = random.Random(79)
        for _ in range(20):
            rel = random_relation(rng, 3)
            closed = close_under(rel, [op_and, op_maj])
            assert rel.members <= closed.members
            assert check_property(closed, HORN)
            assert check_property(closed, BIJUNCTIVE)
            assert close_under(closed, [op_and, op_maj]).members == closed.members


# The generators as they were when each one closed a random relation by the
# op loop and filtered the result through the profile: the same rng state
# must give the same relations, so seeded inputs elsewhere do not move.

def replay_pool(rng, kind, count, arity_max=4):
    density, ops, accept = {
        "bijunctive": (0.4, [op_maj], lambda rel: True),
        "affine": (0.3, [op_xor3], lambda rel: True),
        "horn": (0.4, [op_and, op_x_and_or],
                 lambda rel: profile(rel).safely_componentwise_ihsb_minus is True),
        "dual_horn": (0.4, [op_or, op_x_or_and],
                      lambda rel: profile(rel).safely_componentwise_ihsb_plus is True),
    }[kind]
    out = []
    while len(out) < count:
        arity = rng.randint(2, arity_max)
        rel = close_under(random_relation(rng, arity, density), ops)
        if accept(rel):
            out.append(rel)
    return out


def replay_horn_relation(rng, arity, density=0.35):
    return close_under(random_relation(rng, arity, density), [op_and])


def replay_horn_not_safe(rng, arity_max=6):
    while True:
        rel = replay_horn_relation(rng, rng.randint(3, arity_max))
        p = profile(rel)
        if p.horn and p.safely_componentwise_ihsb_minus is False:
            return rel


def replay_safely_cw_bijunctive(rng, arity_max=4):
    while True:
        rel = close_under(random_relation(rng, rng.randint(2, arity_max), 0.4), [op_maj])
        if profile(rel).safely_componentwise_bijunctive is True:
            return rel


class TestReplay:
    @staticmethod
    def same(make, replay, seed):
        """make and replay from one seed give equal outputs and leave the rng
        in the same state."""
        rng, ref = random.Random(seed), random.Random(seed)
        assert make(rng) == replay(ref)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("kind", ["bijunctive", "affine", "horn", "dual_horn"])
    def test_pools(self, kind):
        for seed in range(8):
            self.same(lambda r: random_cpss_pool(r, kind, 5, arity_max=5),
                      lambda r: replay_pool(r, kind, 5, arity_max=5), seed)

    def test_horn_relation(self):
        for seed in range(8):
            for arity in (1, 4, 6):
                self.same(lambda r: random_horn_relation(r, arity),
                          lambda r: replay_horn_relation(r, arity), seed)

    def test_targeted(self):
        for seed in range(8):
            self.same(lambda r: random_horn_not_safely_cw_ihsb_minus(r, arity_max=5),
                      lambda r: replay_horn_not_safe(r, arity_max=5), seed)
            # one bijunctive pool member is what criterion 5 draws, six times
            self.same(lambda r: random_cpss_pool(r, "bijunctive", 1)[0],
                      replay_safely_cw_bijunctive, seed)
