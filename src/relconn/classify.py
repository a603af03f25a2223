"""Structural profile of relations and the complexity classification of sets.

A relation set falls into one of four classes, each pinning the complexity
of satisfiability, connectivity, st-connectivity and the worst-case
solution-graph diameter of formulas built from the set:

  CPSS                   conn P            st-conn P   sat P            diam O(n)
  SchaeferNotCPSS        conn coNP-compl.  st-conn P   sat P            diam O(n)
  SafelyTightNotSchaefer conn coNP-compl.  st-conn P   sat NP-compl.    diam O(n)
  NotSafelyTight         conn PSPACE-c.    st-conn PSPACE-c.  sat NP-c. diam 2^Omega(sqrt(n))

The class depends on the relation set alone, not on the formula built from
it, and a relation's profile on its arity and mask alone.  So `profile`
computes a relation's facts, identification sweep included, once per
process and keeps them in a cache of the PROFILES_KEPT relations used
last.  The cache is keyed by the relation, which hashes and compares by
(arity, mask), and each call returns the facts under the name of the
relation it was given.  Every caller goes through it: classify_set, and
through it cpss's routes and projections, and the CLI's classify-relation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

from .errors import ArityLimitError, RelationError
from .relations import (AFFINE, BASE_PROPERTIES, BIJUNCTIVE, DUAL_HORN, HORN,
                        IHSB_MINUS, IHSB_PLUS, SAFE_CHECK_ARITY_MAX, Relation,
                        check_property, componentwise, is_nand_free,
                        is_or_free, safely_flags)

CPSS = "CPSS"
SCHAEFER_NOT_CPSS = "SchaeferNotCPSS"
SAFELY_TIGHT_NOT_SCHAEFER = "SafelyTightNotSchaefer"
NOT_SAFELY_TIGHT = "NotSafelyTight"

SCHAEFER_ORDER = [BIJUNCTIVE, HORN, DUAL_HORN, AFFINE]

# Relations whose profiles stay cached for the life of the process, the
# least recently used dropped first.  An entry holds a profile and its key
# relation, about 0.6 KiB at arity 8 or less and 9 KiB at ARITY_MAX = 16,
# where the key's mask alone takes 8 KiB: 256 entries hold about 0.15 MiB
# at arity 8 and at most about 2.3 MiB.
PROFILES_KEPT = 256


@dataclass(frozen=True)
class RelationProfile:
    """All structural facts about one relation that the classification uses.

    The three componentwise safely_* fields are None when they need the
    identification sweep and the arity exceeds SAFE_CHECK_ARITY_MAX; the
    other flags are known at every arity.
    """

    name: str | None
    arity: int
    zero_valid: bool
    one_valid: bool
    bijunctive: bool
    horn: bool
    dual_horn: bool
    affine: bool
    ihsb_minus: bool
    ihsb_plus: bool
    or_free: bool
    nand_free: bool
    componentwise_bijunctive: bool
    componentwise_ihsb_minus: bool
    componentwise_ihsb_plus: bool
    safely_componentwise_bijunctive: bool | None
    safely_or_free: bool | None
    safely_nand_free: bool | None
    safely_componentwise_ihsb_minus: bool | None
    safely_componentwise_ihsb_plus: bool | None


def profile(rel: Relation) -> RelationProfile:
    """The full profile of rel under its own name, computed once per
    process for each (arity, mask) (see PROFILES_KEPT)."""
    p = _profile_facts(rel)
    return p if p.name == rel.name else replace(p, name=rel.name)


@lru_cache(maxsize=PROFILES_KEPT)
def _profile_facts(rel: Relation) -> RelationProfile:
    """Compute the full profile: the base and componentwise properties
    first, then the safely flags from them (see safely_flags).  An equal
    relation under another name hits the entry, named as the one that made
    it; profile puts the caller's name back."""
    base = {prop: check_property(rel, prop) for prop in BASE_PROPERTIES}
    cw = {prop: componentwise(rel, prop) for prop in (BIJUNCTIVE, IHSB_MINUS, IHSB_PLUS)}
    return RelationProfile(
        name=rel.name,
        arity=rel.arity,
        **base,
        or_free=is_or_free(rel),
        nand_free=is_nand_free(rel),
        componentwise_bijunctive=cw[BIJUNCTIVE],
        componentwise_ihsb_minus=cw[IHSB_MINUS],
        componentwise_ihsb_plus=cw[IHSB_PLUS],
        **safely_flags(rel, base, cw),
    )


@dataclass(frozen=True)
class SetClassification:
    set_class: str
    tight: bool
    safely_tight: bool
    schaefer: bool
    cpss: bool
    schaefer_kinds: tuple[str, ...]  # which of the four clause classes cover the set
    cpss_kinds: tuple[str, ...]      # which rows of the CPSS definition apply


def _need(p: RelationProfile, flag: str) -> bool:
    """The profile's safely flag, or ArityLimitError naming the flag and
    the relation when the arity left it unknown."""
    value = getattr(p, flag)
    if value is None:
        raise ArityLimitError(
            f"classification needs {flag} of {p.name or 'an unnamed relation'} "
            f"(arity {p.arity}), which requires arity <= {SAFE_CHECK_ARITY_MAX}")
    return value


def _every(profs: list[RelationProfile], flag: str) -> bool | None:
    """Whether every profile has the safely flag, three-valued: False when
    one is known False, None when none is False but one is unknown."""
    values = [getattr(p, flag) for p in profs]
    if False in values:
        return False
    return None if None in values else True


def _any_every(profs: list[RelationProfile], flags: Sequence[str]) -> bool:
    """Whether, for some flag, every profile has it.  The answer comes from
    the known flags whenever they decide it; otherwise `_need` raises for
    the first flag, and the first relation, whose value it depends on."""
    values = [_every(profs, flag) for flag in flags]
    if True in values or None not in values:
        return True in values
    flag = flags[values.index(None)]
    return all(_need(p, flag) for p in profs)  # no flag is False: raises


def classify_set(relations: Sequence[Relation]) -> SetClassification:
    """Place a finite relation set into the four-way classification, from
    the profile of each relation."""
    if not relations:
        raise RelationError("cannot classify an empty relation set")
    profs = [profile(r) for r in relations]

    schaefer_kinds = []
    if all(p.bijunctive for p in profs):
        schaefer_kinds.append(BIJUNCTIVE)
    if all(p.horn for p in profs):
        schaefer_kinds.append(HORN)
    if all(p.dual_horn for p in profs):
        schaefer_kinds.append(DUAL_HORN)
    if all(p.affine for p in profs):
        schaefer_kinds.append(AFFINE)
    schaefer = bool(schaefer_kinds)

    cpss_kinds = []
    if all(p.bijunctive for p in profs):
        cpss_kinds.append(BIJUNCTIVE)
    if all(p.affine for p in profs):
        cpss_kinds.append(AFFINE)
    rows = [(kind, flag) for kind, flag in ((HORN, "safely_componentwise_ihsb_minus"),
                                            (DUAL_HORN, "safely_componentwise_ihsb_plus"))
            if all(getattr(p, kind) for p in profs)]
    cpss_kinds += [kind for kind, flag in rows if _every(profs, flag)]
    if not cpss_kinds:  # raises if an unknown flag could still make the set CPSS
        _any_every(profs, [flag for _, flag in rows])
    cpss_kinds.sort(key=SCHAEFER_ORDER.index)
    cpss = bool(cpss_kinds)

    tight = (all(p.componentwise_bijunctive for p in profs)
             or all(p.or_free for p in profs)
             or all(p.nand_free for p in profs))
    if schaefer:
        safely_tight = True  # every Schaefer set is safely tight
    else:
        safely_tight = _any_every(profs, ("safely_componentwise_bijunctive",
                                          "safely_or_free", "safely_nand_free"))

    if cpss:
        set_class = CPSS
    elif schaefer:
        set_class = SCHAEFER_NOT_CPSS
    elif safely_tight:
        set_class = SAFELY_TIGHT_NOT_SCHAEFER
    else:
        set_class = NOT_SAFELY_TIGHT
    return SetClassification(set_class, tight, safely_tight, schaefer, cpss,
                             tuple(schaefer_kinds), tuple(cpss_kinds))


@dataclass(frozen=True)
class Predictions:
    sat: str
    conn: str
    st_conn: str
    diameter_bound: str


_TABLE = {
    CPSS: Predictions("P", "P", "P", "O(n)"),
    SCHAEFER_NOT_CPSS: Predictions("P", "coNP-complete", "P", "O(n)"),
    SAFELY_TIGHT_NOT_SCHAEFER: Predictions("NP-complete", "coNP-complete", "P", "O(n)"),
    NOT_SAFELY_TIGHT: Predictions("NP-complete", "PSPACE-complete",
                                  "PSPACE-complete", "2^Omega(sqrt(n))"),
}


def predict(classification: SetClassification) -> Predictions:
    """Complexity row for the classification's class."""
    return _TABLE[classification.set_class]
