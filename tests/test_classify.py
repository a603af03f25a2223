"""Relation profiles, set classification, and complexity predictions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relconn.catalog import CATALOG
from relconn.classify import (CPSS, NOT_SAFELY_TIGHT,
                              SAFELY_TIGHT_NOT_SCHAEFER, SCHAEFER_NOT_CPSS,
                              classify_set, predict, profile)
from relconn.errors import ArityLimitError
from relconn.relations import (AFFINE, BASE_PROPERTIES, BIJUNCTIVE,
                               DUAL_HORN, HORN, SAFE_PROPERTIES, Relation,
                               check_property, is_safely)


def rel(arity, *tuples):
    return Relation.from_tuples(arity, tuples, "R")


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
        p = profile(Relation.from_tuples(11, [0], "BIG"))
        assert p.horn is True
        assert p.safely_or_free is None

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
            assert getattr(p, prop) == is_safely(r, prop), prop


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
        # not Schaefer and arity beyond the sweep bound: undecidable here
        full = set(range(2 ** 11))
        r = Relation.from_tuples(11, full - {0, 2 ** 11 - 1}, "BIG")
        for prop in (BIJUNCTIVE, HORN, DUAL_HORN, AFFINE):
            assert not check_property(r, prop), prop
        with pytest.raises(ArityLimitError):
            classify_set([r])


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
