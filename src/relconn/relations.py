"""Finite Boolean relations and their structural properties.

A relation of arity n is a set of tuples from {0,1}^n, held as one
indicator int in the bitspace format: bit i is set iff the tuple with index
i belongs (binary encoding, first coordinate = most significant bit).  On
top of that sit the operations used throughout: substitution of
constants and identification of variables via argument patterns, connected
components in the Hamming graph, closure under the polymorphisms that
characterise the standard clause classes, OR/NAND expressibility, and the
"safely" variants quantified over every identification of variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator, Sequence

from .bitspace import (component_masks, coord_mask, full_mask, iter_bits,
                       tuple_of_index)
from .errors import ArityLimitError, PatternError, RelationError

ARITY_MAX = 16
# "safely" checks enumerate all set partitions of the coordinates; Bell(10) = 115975
SAFE_CHECK_ARITY_MAX = 10

CONST0 = "0"
CONST1 = "1"

# polymorphisms, applied bitwise to tuple indices (so coordinate-wise on tuples)
MAJ = "maj"
AND2 = "and"
OR2 = "or"
XOR3 = "xor3"
X_AND_OR = "x_and_or"  # (x, y, z) -> x & (y | z)
X_OR_AND = "x_or_and"  # (x, y, z) -> x | (y & z)

ZERO_VALID = "zero_valid"
ONE_VALID = "one_valid"
BIJUNCTIVE = "bijunctive"
HORN = "horn"
DUAL_HORN = "dual_horn"
AFFINE = "affine"
IHSB_MINUS = "ihsb_minus"
IHSB_PLUS = "ihsb_plus"

BASE_PROPERTIES = (
    ZERO_VALID,
    ONE_VALID,
    BIJUNCTIVE,
    HORN,
    DUAL_HORN,
    AFFINE,
    IHSB_MINUS,
    IHSB_PLUS,
)


def op_maj(a: int, b: int, c: int) -> int:
    return (a & b) | (b & c) | (a & c)


def op_and(a: int, b: int) -> int:
    return a & b


def op_or(a: int, b: int) -> int:
    return a | b


def op_xor3(a: int, b: int, c: int) -> int:
    return a ^ b ^ c


def op_x_and_or(a: int, b: int, c: int) -> int:
    return a & (b | c)


def op_x_or_and(a: int, b: int, c: int) -> int:
    return a | (b & c)


@dataclass(frozen=True)
class Relation:
    """Immutable subset of {0,1}^arity as a bitspace indicator mask."""

    arity: int
    mask: int
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= ARITY_MAX:
            raise RelationError(f"arity must be in 1..{ARITY_MAX}, got {self.arity}")
        if isinstance(self.mask, bool) or not isinstance(self.mask, int):
            raise RelationError(f"mask must be an int, got {type(self.mask).__name__}")
        if not 0 <= self.mask <= full_mask(self.arity):
            raise RelationError(f"mask out of range for arity {self.arity}")

    @classmethod
    def from_tuples(cls, arity: int, tuples: Iterable[str | int | Sequence[int]],
                    name: str | None = None) -> "Relation":
        mask = 0
        for t in tuples:
            if isinstance(t, str):
                if len(t) != arity or any(ch not in "01" for ch in t):
                    raise RelationError(f"bad tuple {t!r} for arity {arity}")
                idx = int(t, 2)
            elif isinstance(t, int):
                if not 0 <= t < 1 << arity:
                    raise RelationError(f"tuple index {t} out of range for arity {arity}")
                idx = t
            else:
                bits = list(t)
                if len(bits) != arity or any(b not in (0, 1) for b in bits):
                    raise RelationError(f"bad tuple {t!r} for arity {arity}")
                idx = int("".join(map(str, bits)), 2)
            mask |= 1 << idx
        return cls(arity, mask, name)

    @property
    def members(self) -> frozenset[int]:
        """Member tuple indices, derived from the mask."""
        return frozenset(iter_bits(self.mask))

    def tuples(self) -> list[str]:
        """Member tuples as bitstrings, ascending."""
        return [tuple_of_index(i, self.arity) for i in iter_bits(self.mask)]

    def __contains__(self, idx: int) -> bool:
        return idx >= 0 and (self.mask >> idx) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return not self.mask

    def bit(self, idx: int, coord: int) -> int:
        """Value of 1-based coordinate `coord` in the tuple with index `idx`."""
        return (idx >> (self.arity - coord)) & 1

    def renamed(self, name: str | None) -> "Relation":
        return Relation(self.arity, self.mask, name)


@dataclass(frozen=True)
class ArgPattern:
    """Argument slots for plugging a relation into output variables.

    Each slot is either an output variable index (int, 0-based) or one of
    the constants "0"/"1".  Every output index up to the maximum used must
    occur in some slot, so the pattern fixes a relation of output arity
    max+1: tuple a belongs iff the slot-substituted tuple belongs to the
    source relation.
    """

    slots: tuple[int | str, ...]

    def __post_init__(self) -> None:
        used = set()
        for s in self.slots:
            if isinstance(s, bool) or not isinstance(s, (int, str)):
                raise PatternError(f"bad slot {s!r}")
            if isinstance(s, str):
                if s not in (CONST0, CONST1):
                    raise PatternError(f"bad constant slot {s!r}")
            else:
                if s < 0:
                    raise PatternError(f"negative output index {s}")
                used.add(s)
        if not used:
            raise PatternError("pattern must use at least one output variable")
        m = max(used) + 1
        if used != set(range(m)):
            raise PatternError("output variable indices must be contiguous from 0")

    @property
    def out_arity(self) -> int:
        return 1 + max(s for s in self.slots if isinstance(s, int))

    @property
    def is_identification(self) -> bool:
        """True when the pattern only merges variables (no constants)."""
        return all(isinstance(s, int) for s in self.slots)

    @classmethod
    def identity(cls, n: int) -> "ArgPattern":
        return cls(tuple(range(n)))

    @classmethod
    def from_blocks(cls, n: int, blocks: Sequence[Iterable[int]]) -> "ArgPattern":
        """Identification pattern from a partition of 1-based coordinates."""
        slots: list[int | str] = [-1] * n
        order = sorted(range(len(blocks)), key=lambda b: min(blocks[b]))
        for out, b in enumerate(order):
            for coord in blocks[b]:
                if not 1 <= coord <= n or slots[coord - 1] != -1:
                    raise PatternError(f"bad partition block element {coord}")
                slots[coord - 1] = out
        if any(s == -1 for s in slots):
            raise PatternError("partition does not cover all coordinates")
        return cls(tuple(slots))


def apply_pattern(rel: Relation, pattern: ArgPattern) -> Relation:
    """Relation obtained by substituting the pattern's slots into rel."""
    if len(pattern.slots) != rel.arity:
        raise PatternError(
            f"pattern has {len(pattern.slots)} slots for arity {rel.arity}")
    n = rel.arity
    m = pattern.out_arity
    shifts = []  # (source shift within output index, target bit position)
    fixed = 0
    for i, s in enumerate(pattern.slots):
        tgt = n - 1 - i
        if s == CONST1:
            fixed |= 1 << tgt
        elif s != CONST0:
            shifts.append((m - 1 - s, tgt))
    mask = rel.mask
    out = 0
    for a in range(1 << m):
        t = fixed
        for src, tgt in shifts:
            t |= ((a >> src) & 1) << tgt
        if (mask >> t) & 1:
            out |= 1 << a
    return Relation(m, out)


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n items as restricted-growth label vectors.

    Labels are block numbers in order of first appearance, so blocks come
    out ordered by their least element.  Lexicographic order; the single
    block (0,...,0) is first and the identity partition is last.
    """
    labels = [0] * n

    def rec(i: int, maxl: int):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(maxl + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxl, lab))

    if n:
        yield from rec(1, 0)


def iter_identification_patterns(n: int) -> Iterator[ArgPattern]:
    for labels in set_partitions(n):
        yield ArgPattern(labels)


def enumerate_identifications(rel: Relation) -> Iterator[Relation]:
    """Every relation obtained from rel by identifying variables.

    Includes the identity pattern, so rel itself is the last item.  Bounded
    by SAFE_CHECK_ARITY_MAX since the count grows like the Bell numbers.
    """
    if rel.arity > SAFE_CHECK_ARITY_MAX:
        raise ArityLimitError(
            f"identification sweep needs arity <= {SAFE_CHECK_ARITY_MAX}, got {rel.arity}")
    for p in iter_identification_patterns(rel.arity):
        yield apply_pattern(rel, p)


def components(rel: Relation) -> list[Relation]:
    """Connected components of rel in the Hamming graph, by smallest tuple."""
    return [Relation(rel.arity, m) for m in component_masks(rel.mask, rel.arity)]


def is_closed(rel: Relation, op: str) -> bool:
    """Does applying op coordinate-wise to members stay inside rel?"""
    items = list(iter_bits(rel.mask))
    mem = set(items)
    if op == AND2:
        return all(a & b in mem for a, b in combinations_with_replacement(items, 2))
    if op == OR2:
        return all(a | b in mem for a, b in combinations_with_replacement(items, 2))
    if op == MAJ:
        # fully symmetric, unordered triples suffice
        return all(op_maj(a, b, c) in mem
                   for a, b, c in combinations_with_replacement(items, 3))
    if op == XOR3:
        return all(a ^ b ^ c in mem
                   for a, b, c in combinations_with_replacement(items, 3))
    if op == X_AND_OR:
        return all(a & (b | c) in mem for a in items
                   for b, c in combinations_with_replacement(items, 2))
    if op == X_OR_AND:
        return all(a | (b & c) in mem for a in items
                   for b, c in combinations_with_replacement(items, 2))
    raise RelationError(f"unknown operation {op!r}")


_PROPERTY_OPS = {
    BIJUNCTIVE: MAJ,
    HORN: AND2,
    DUAL_HORN: OR2,
    AFFINE: XOR3,
    IHSB_MINUS: X_AND_OR,
    IHSB_PLUS: X_OR_AND,
}


def check_property(rel: Relation, prop: str) -> bool:
    """Decide one base property (validity by membership, the rest by closure)."""
    if prop == ZERO_VALID:
        return rel.mask & 1 == 1
    if prop == ONE_VALID:
        return rel.mask >> ((1 << rel.arity) - 1) == 1
    if prop in _PROPERTY_OPS:
        return is_closed(rel, _PROPERTY_OPS[prop])
    raise RelationError(f"unknown property {prop!r}")


def componentwise(rel: Relation, prop: str) -> bool:
    """Does every connected component of rel satisfy the property?"""
    return all(check_property(c, prop) for c in components(rel))


# two-variable targets as arity-2 masks; both are symmetric in x and y
_OR_MASK = 0b1110  # {01, 10, 11}
_NAND_MASK = 0b0111  # {00, 01, 10}


def _expresses_pair(rel: Relation, target: int) -> bool:
    """Can constants in all but two coordinates carve `target` out of rel?

    For each pair of bit positions p < q, a base (p and q clear) survives
    when the four tuples base + xy agree with the target; shifting the mask
    right by xy's offset brings the tuple base + xy onto bit `base`.  The
    targets are symmetric, so unordered pairs suffice.
    """
    k, mask = rel.arity, rel.mask
    for p, q in combinations(range(k), 2):
        bases = full_mask(k) ^ (coord_mask(k, p) | coord_mask(k, q))
        for xy in range(4):
            shifted = mask >> (((xy >> 1) << q) | ((xy & 1) << p))
            bases &= shifted if (target >> xy) & 1 else ~shifted
        if bases:
            return True
    return False


def is_or_free(rel: Relation) -> bool:
    """No substitution of constants leaves the two-variable relation {01,10,11}."""
    return not _expresses_pair(rel, _OR_MASK)


def is_nand_free(rel: Relation) -> bool:
    """No substitution of constants leaves the two-variable relation {00,01,10}."""
    return not _expresses_pair(rel, _NAND_MASK)


SAFELY_CW_BIJUNCTIVE = "safely_componentwise_bijunctive"
SAFELY_OR_FREE = "safely_or_free"
SAFELY_NAND_FREE = "safely_nand_free"
SAFELY_CW_IHSB_MINUS = "safely_componentwise_ihsb_minus"
SAFELY_CW_IHSB_PLUS = "safely_componentwise_ihsb_plus"

SAFE_PROPERTIES = (
    SAFELY_CW_BIJUNCTIVE,
    SAFELY_OR_FREE,
    SAFELY_NAND_FREE,
    SAFELY_CW_IHSB_MINUS,
    SAFELY_CW_IHSB_PLUS,
)

_SAFE_CHECKS = {
    SAFELY_CW_BIJUNCTIVE: lambda r: componentwise(r, BIJUNCTIVE),
    SAFELY_OR_FREE: is_or_free,
    SAFELY_NAND_FREE: is_nand_free,
    SAFELY_CW_IHSB_MINUS: lambda r: componentwise(r, IHSB_MINUS),
    SAFELY_CW_IHSB_PLUS: lambda r: componentwise(r, IHSB_PLUS),
}


def is_safely(rel: Relation, prop: str) -> bool:
    """Does the property hold for every identification of variables of rel?"""
    return first_unsafe_identification(rel, prop) is None


def first_unsafe_identification(rel: Relation, prop: str) -> ArgPattern | None:
    """First identification pattern whose image violates the property, if any."""
    try:
        check = _SAFE_CHECKS[prop]
    except KeyError:
        raise RelationError(f"unknown safe property {prop!r}") from None
    if rel.arity > SAFE_CHECK_ARITY_MAX:
        raise ArityLimitError(
            f"safely-check needs arity <= {SAFE_CHECK_ARITY_MAX}, got {rel.arity}")
    for p in iter_identification_patterns(rel.arity):
        if not check(apply_pattern(rel, p)):
            return p
    return None
