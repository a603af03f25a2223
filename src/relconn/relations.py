"""Finite Boolean relations and their structural properties.

A relation of arity n is a set of tuples from {0,1}^n, held as one
indicator int in the bitspace format: bit i is set iff the tuple with index
i belongs (binary encoding, first coordinate = most significant bit).  On
top of that sit the operations used throughout: substitution of
constants and identification of variables via argument patterns
(apply_pattern, through bitspace.conjunction_space), connected
components in the Hamming graph, the polymorphism properties that
characterise the standard clause classes, OR/NAND expressibility, and the
"safely" variants quantified over every identification of variables.

Every property is a test on the mask; none applies an operation to
tuples of members (Schaefer 1978; Creignou-Khanna-Sudan 2001).  A
polymorphism property holds iff R equals its `hull`, the smallest relation
of the class containing R: for bijunctive and IHSB- the clauses of the
class that hold on R, for Horn the AND-closure (built from down-closures),
for affine the coset R spans; the dual classes flip every coordinate.
Each costs O(k^2) big-int operations, or O(|R| k) for affine.
`is_closed` applies the operation to every tuple of members; it is the
test oracle.  Of the safely variants, OR-free and NAND-free are a test
on each member's join and meet masks, at any arity; the componentwise
ones walk the set partitions of the coordinates as a prefix tree of pair
merges, once over the distinct images, after skipping the flags that a
polymorphism of the relation or a failing component already settles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator, Sequence

from .bitspace import (component_masks, conjunction_space, coord_mask,
                       full_mask, gf2_reduce, iter_bits, tuples_of)
from .errors import ArityLimitError, PatternError, RelationError

ARITY_MAX = 16
# the identification sweep, which the componentwise "safely" flags still
# need, enumerates all set partitions of the coordinates; Bell(10) = 115975
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
        if not 1 <= arity <= ARITY_MAX:  # before a tuple builds a mask of that arity
            raise RelationError(f"arity must be in 1..{ARITY_MAX}, got {arity}")
        mask = 0
        for t in tuples:
            if isinstance(t, str):
                if len(t) != arity or any(ch not in "01" for ch in t):
                    raise RelationError(f"bad tuple {t!r} for arity {arity}")
                idx = int(t, 2)
            elif isinstance(t, bool):
                raise RelationError(f"bad tuple {t!r} for arity {arity}")
            elif isinstance(t, int):
                if not 0 <= t < 1 << arity:
                    raise RelationError(f"tuple index {t} out of range for arity {arity}")
                idx = t
            else:
                bits = list(t)
                if len(bits) != arity or any(
                        isinstance(b, bool) or not isinstance(b, int) or b not in (0, 1)
                        for b in bits):
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
        return tuples_of(self.mask, self.arity)

    def __contains__(self, idx: int) -> bool:
        return idx >= 0 and (self.mask >> idx) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return not self.mask

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


def apply_pattern(rel: Relation, pattern: ArgPattern) -> Relation:
    """Relation obtained by substituting the pattern's slots into rel; the
    output indices are the variables, output 0 the first coordinate."""
    if len(pattern.slots) != rel.arity:
        raise PatternError(
            f"pattern has {len(pattern.slots)} slots for arity {rel.arity}")
    m = pattern.out_arity
    return Relation(m, conjunction_space(range(m), [(rel.mask, rel.arity, pattern.slots)]))


def _merge(mask: int, w: int, keep: int, drop: int) -> int:
    """Identify bit positions keep > drop of a w-coordinate mask.

    Keeps the tuples on which the two positions agree, then folds position
    `drop` out: each step moves every other chunk of the layout down onto
    the gap the removed bit leaves, doubling the chunk size.
    """
    hi = coord_mask(w, drop)
    mask &= full_mask(w) ^ coord_mask(w, keep) ^ hi
    step = 1 << drop
    mask = (mask & ~hi) | ((mask & hi) >> step)
    for pos in range(drop + 1, w):
        hi = coord_mask(w, pos)
        mask = (mask & ~hi) | ((mask & hi) >> step)
        step <<= 1
    return mask


def walk_identifications(rel: Relation) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(labels, arity, mask) of each distinct identification of rel's variables.

    An identification is a set partition of the coordinates, as a
    restricted-growth label vector: labels are block numbers in order of
    first appearance.  The walk runs over the partitions as a prefix tree:
    coordinate i either opens a new block or merges into an earlier block,
    and a merge child's mask comes from its parent's by one `_merge` into
    the block's first coordinate.  Leaves come out in lexicographic order
    of their labels and each mask is `apply_pattern(rel,
    ArgPattern(labels)).mask`.  A node equal to one walked before (same
    depth, blocks and mask, hence the same subtree) is skipped, so each
    distinct image comes out once, at its first pattern.  Bounded by
    SAFE_CHECK_ARITY_MAX since the count grows like the Bell numbers.
    """
    if rel.arity > SAFE_CHECK_ARITY_MAX:
        raise ArityLimitError(
            f"identification sweep needs arity <= {SAFE_CHECK_ARITY_MAX}, got {rel.arity}")
    k = rel.arity
    seen: set[tuple[int, int, int]] = set()
    stack = [((0,), 1, rel.mask)]
    while stack:
        labels, blocks, mask = stack.pop()
        depth = len(labels)
        key = (depth, blocks, mask)
        if key in seen:
            continue
        seen.add(key)
        if depth == k:
            yield labels, blocks, mask
            continue
        w = blocks + k - depth  # blocks so far, then the unassigned coordinates
        stack.append((labels + (blocks,), blocks + 1, mask))
        for b in range(blocks - 1, -1, -1):
            stack.append((labels + (b,), blocks, _merge(mask, w, w - 1 - b, w - 1 - blocks)))


def components(rel: Relation) -> list[Relation]:
    """Connected components of rel in the Hamming graph, by smallest tuple."""
    return [Relation(rel.arity, m) for m in component_masks(rel.mask, rel.arity)]


def is_closed(rel: Relation, op: str) -> bool:
    """Does applying op coordinate-wise to members stay inside rel?

    The direct O(|R|^2) or O(|R|^3) definition; `check_property` decides
    the same question by mask tests, and this is its test oracle.
    """
    items = list(iter_bits(rel.mask))
    mem = set(items)
    if op == AND2:
        return all(a & b in mem for a, b in combinations_with_replacement(items, 2))
    if op == OR2:
        return all(a | b in mem for a, b in combinations_with_replacement(items, 2))
    if op == MAJ:
        # fully symmetric, unordered triples suffice
        return all((a & b) | (b & c) | (a & c) in mem
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


def _down(mask: int, k: int) -> int:
    """Every tuple lying below some member, coordinate-wise."""
    for pos in range(k):
        mask |= (mask & coord_mask(k, pos)) >> (1 << pos)
    return mask


def _flip(mask: int, k: int) -> int:
    """Complement every coordinate: tuple index i becomes 2^k - 1 - i."""
    return int(format(mask, f"0{1 << k}b")[::-1], 2)


@lru_cache(maxsize=None)
def _halves(k: int) -> tuple[tuple[int, int], ...]:
    """(x_p = 1, x_p = 0) tuple sets for every bit position p."""
    return tuple((coord_mask(k, pos), full_mask(k) ^ coord_mask(k, pos)) for pos in range(k))


@lru_cache(maxsize=None)
def _two_literal_cells(k: int) -> tuple[int, ...]:
    """Tuples falsifying each clause of one or two literals."""
    halves = _halves(k)
    return tuple(cell for p, own in enumerate(halves) for a in own
                 for cell in [a] + [a & b for other in halves[p + 1:] for b in other])


@lru_cache(maxsize=None)
def _unit_implication_cells(k: int) -> tuple[int, ...]:
    """Tuples falsifying each positive unit x_p and each implication x_p -> x_q."""
    halves = _halves(k)
    return tuple([zero for _, zero in halves]
                 + [one & zero for p, (one, _) in enumerate(halves)
                    for q, (_, zero) in enumerate(halves) if q != p])


def _cut_out(hull: int, mask: int, cells: tuple[int, ...]) -> int:
    """The hull minus every cell that R misses (the clauses valid on R)."""
    outside = 0
    for cell in cells:
        if not mask & cell:
            outside |= cell
    return hull & ~outside


def _bijunctive_hull(mask: int, k: int) -> int:
    """The intersection of the cylinders of R's unary and binary projections."""
    return _cut_out(full_mask(k), mask, _two_literal_cells(k))


def _horn_hull(mask: int, k: int) -> int:
    """The AND-closure: the tuples t of down(R) such that every coordinate
    where t is 0 is 0 in some member above t."""
    hull = _down(mask, k)
    for pos in range(k):
        hi = coord_mask(k, pos)
        hull &= hi | _down(mask & ~hi, k)
    return hull


def _ihsb_minus_hull(mask: int, k: int) -> int:
    """The negative clauses (down(R)), positive unit clauses and
    implications that hold on R."""
    return _cut_out(_down(mask, k), mask, _unit_implication_cells(k))


def _affine_basis(mask: int) -> list[int]:
    """A basis of the differences t ^ t0 from R's least member t0."""
    t0 = (mask & -mask).bit_length() - 1
    pivots, _ = gf2_reduce((t ^ t0, 0) for t in iter_bits(mask))
    return [bits for bits, _ in pivots.values()]


def _affine_hull(mask: int, k: int) -> int:
    """Empty, or the coset of R's least member plus the span of the
    differences: each basis vector v adds hull ^ v, one flip at a time."""
    hull = mask & -mask
    for v in _affine_basis(mask):
        shifted = hull
        for pos in iter_bits(v):
            hi = coord_mask(k, pos)
            shifted = ((shifted & hi) >> (1 << pos)) | ((shifted & ~hi) << (1 << pos))
        hull |= shifted
    return hull


def _is_affine(mask: int, k: int) -> bool:
    """R equals its affine hull, which contains R and has 2^rank members;
    counting them, not building the coset, keeps the test within |R|."""
    size = mask.bit_count()
    if size & (size - 1) or not size:
        return not size
    return 1 << len(_affine_basis(mask)) == size


# property -> (hull of its class, whether it is taken on the flipped mask):
# the dual classes flip every coordinate (x | y = not(not x & not y),
# likewise for x | (y & z))
_CLOSURES = {
    BIJUNCTIVE: (_bijunctive_hull, False),
    HORN: (_horn_hull, False),
    DUAL_HORN: (_horn_hull, True),
    AFFINE: (_affine_hull, False),
    IHSB_MINUS: (_ihsb_minus_hull, False),
    IHSB_PLUS: (_ihsb_minus_hull, True),
}


def hull(rel: Relation, prop: str) -> Relation:
    """Smallest relation with the polymorphism property that contains rel:
    its closure under the operation in _PROPERTY_OPS."""
    try:
        closure, flipped = _CLOSURES[prop]
    except KeyError:
        raise RelationError(f"no hull for property {prop!r}") from None
    k = rel.arity
    if flipped:
        return Relation(k, _flip(closure(_flip(rel.mask, k), k), k))
    return Relation(k, closure(rel.mask, k))


def _holds(mask: int, k: int, prop: str) -> bool:
    """check_property on a mask: validity by membership, affine by
    _is_affine's count, the closure classes as R == hull(R)."""
    if prop == ZERO_VALID:
        return mask & 1 == 1
    if prop == ONE_VALID:
        return mask >> ((1 << k) - 1) == 1
    if prop == AFFINE:
        return _is_affine(mask, k)
    try:
        closure, flipped = _CLOSURES[prop]
    except KeyError:
        raise RelationError(f"unknown property {prop!r}") from None
    if flipped:
        mask = _flip(mask, k)
    return closure(mask, k) == mask


def check_property(rel: Relation, prop: str) -> bool:
    """Decide one base property by its mask test (validity by membership,
    the polymorphisms by the clause characterisations)."""
    return _holds(rel.mask, rel.arity, prop)


def _componentwise(mask: int, k: int, prop: str) -> bool:
    return all(_holds(c, k, prop) for c in component_masks(mask, k))


def componentwise(rel: Relation, prop: str) -> bool:
    """Does every connected component of rel satisfy the property?"""
    return _componentwise(rel.mask, rel.arity, prop)


# two-variable targets as arity-2 masks; both are symmetric in x and y
_OR_MASK = 0b1110  # {01, 10, 11}
_NAND_MASK = 0b0111  # {00, 01, 10}


def _expresses_pair(mask: int, k: int, target: int) -> bool:
    """Can constants in all but two coordinates carve `target` out of the mask?

    For each pair of bit positions p < q, a base (p and q clear) survives
    when the four tuples base + xy agree with the target; shifting the mask
    right by xy's offset brings the tuple base + xy onto bit `base`.  The
    targets are symmetric, so unordered pairs suffice.
    """
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
    return not _expresses_pair(rel.mask, rel.arity, _OR_MASK)


def is_nand_free(rel: Relation) -> bool:
    """No substitution of constants leaves the two-variable relation {00,01,10}."""
    return not _expresses_pair(rel.mask, rel.arity, _NAND_MASK)


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

# the check each identification must pass, on (mask, arity)
_SAFE_CHECKS = {
    SAFELY_CW_BIJUNCTIVE: lambda mask, k: _componentwise(mask, k, BIJUNCTIVE),
    SAFELY_OR_FREE: lambda mask, k: not _expresses_pair(mask, k, _OR_MASK),
    SAFELY_NAND_FREE: lambda mask, k: not _expresses_pair(mask, k, _NAND_MASK),
    SAFELY_CW_IHSB_MINUS: lambda mask, k: _componentwise(mask, k, IHSB_MINUS),
    SAFELY_CW_IHSB_PLUS: lambda mask, k: _componentwise(mask, k, IHSB_PLUS),
}

# base properties that settle a safely flag without a sweep.  Identification
# preserves polymorphisms; OR is neither AND- nor XOR3-closed, NAND neither
# OR- nor XOR3-closed.  A component C of a relation closed under any of the
# six operations f is closed too: f(b, b, c) is b (c for xor3), and walking
# the first argument from a to b along C changes f's value in at most one
# bit per step inside the relation, so f(a, b, c) stays in C.
SAFE_SHORTCUTS = {
    SAFELY_CW_BIJUNCTIVE: (BIJUNCTIVE,),
    SAFELY_OR_FREE: (HORN, AFFINE),
    SAFELY_NAND_FREE: (DUAL_HORN, AFFINE),
    SAFELY_CW_IHSB_MINUS: (IHSB_MINUS,),
    SAFELY_CW_IHSB_PLUS: (IHSB_PLUS,),
}


def _first_failures(rel: Relation, props: Sequence[str]) -> dict[str, ArgPattern]:
    """First identification pattern violating each property, from one walk
    over the distinct identifications; properties that never fail are absent.

    Each witness image is rebuilt by `apply_pattern` and must equal the
    walk's mask (else AssertionError), so no flag turns False on a mask the
    pair merges got wrong.
    """
    open_props = list(props)
    found: dict[str, ArgPattern] = {}
    for labels, arity, mask in walk_identifications(rel):
        failing = [prop for prop in open_props if not _SAFE_CHECKS[prop](mask, arity)]
        if failing:
            pattern = ArgPattern(labels)
            if apply_pattern(rel, pattern).mask != mask:
                raise AssertionError(
                    f"identification walk disagrees with apply_pattern at {labels}")
            for prop in failing:
                found[prop] = pattern
                open_props.remove(prop)
        if not open_props:
            break
    return found


def _join_meet_failures(rel: Relation, props: Sequence[str]) -> dict[str, ArgPattern]:
    """A pattern carving OR (NAND) out of rel for SAFELY_OR_FREE
    (SAFELY_NAND_FREE) in props, when it fails: OR fails when some members
    a, b have a | b in R and a & b not, NAND when the other way round.  A
    comparable b has {a | b, a & b} = {a, b}, inside R, so either witness
    is an incomparable pair.

    One pass over the members a, with two masks each: S = {b : a | b in R},
    R's members above a spread down along a's 1-coordinates, and
    T = {b : a & b in R}, R's members below a spread up along its
    0-coordinates.  Every member of the cone has the spread coordinate
    fixed, so each spread step is one shift and one OR.  OR fails at a iff
    R & S & ~T is nonempty, NAND iff R & T & ~S is.  Each witness's
    pattern is applied by `apply_pattern` and must give the target (else
    AssertionError), as the walk's witnesses are in `_first_failures`.
    """
    mask, k = rel.mask, rel.arity
    open_props = set(props)
    found: dict[str, ArgPattern] = {}
    if not open_props:
        return found
    bits = [(pos, 1 << pos) for pos in range(k)]
    for a in iter_bits(mask):
        up = down = 1 << a
        ones, zeros = [], []
        for pos, step in bits:
            if a >> pos & 1:
                ones.append(step)
                down |= down >> step
            else:
                zeros.append(step)
                up |= up << step
        joins = mask & up
        for step in ones:
            joins |= joins >> step
        meets = mask & down
        for step in zeros:
            meets |= meets << step
        for prop, witnesses, target in ((SAFELY_OR_FREE, joins & ~meets, _OR_MASK),
                                        (SAFELY_NAND_FREE, meets & ~joins, _NAND_MASK)):
            if prop in open_props and mask & witnesses:
                b = (mask & witnesses & -(mask & witnesses)).bit_length() - 1
                found[prop] = _carving_pattern(rel, a, b, target)
                open_props.remove(prop)
        if not open_props:
            break
    return found


def _carving_pattern(rel: Relation, a: int, b: int, target: int) -> ArgPattern:
    """The identification with constants that carves the two-variable
    target out of rel at members a and b: the coordinates where b is above
    a merged into the first variable, those where a is above b into the
    second, the rest fixed to the values a and b share."""
    k = rel.arity
    slots: list[int | str] = []
    for pos in range(k - 1, -1, -1):
        x, y = a >> pos & 1, b >> pos & 1
        slots.append(0 if y > x else 1 if x > y else (CONST1 if x else CONST0))
    pattern = ArgPattern(tuple(slots))
    if apply_pattern(rel, pattern).mask != target:
        raise AssertionError(f"member test disagrees with apply_pattern at {pattern.slots}")
    return pattern


# componentwise safely flag -> the property each component must have
_COMPONENTWISE_OF = {
    SAFELY_CW_BIJUNCTIVE: BIJUNCTIVE,
    SAFELY_CW_IHSB_MINUS: IHSB_MINUS,
    SAFELY_CW_IHSB_PLUS: IHSB_PLUS,
}


def safely_flags(rel: Relation, base: dict[str, bool],
                 cw: dict[str, bool]) -> dict[str, bool | None]:
    """All five safely_* flags, given rel's base properties and, in cw,
    whether rel is componentwise BIJUNCTIVE, IHSB_MINUS and IHSB_PLUS.

    Flags that a base property settles (SAFE_SHORTCUTS) are True outright.
    Safely OR-free and NAND-free come from _join_meet_failures at any
    arity: R is safely OR-free iff no members a, b have a | b in R and
    a & b not in R.  An identification and constants that carve OR out of
    classes X and Y give such a and b, at X = 0, Y = 1 and at X = 1, Y = 0;
    such a and b carve OR out of X = {i : b_i > a_i} and Y = {i : a_i > b_i},
    each merged into one variable, the other coordinates fixed to the
    values a and b share.  NAND-free is the same with | and & swapped.
    A componentwise flag is False when the relation fails it, since the
    trivial identification is R itself.  The componentwise flags still
    open share one walk over the distinct identifications, or are None
    above SAFE_CHECK_ARITY_MAX.
    """
    flags: dict[str, bool | None] = {}
    for prop in SAFE_PROPERTIES:
        if any(base[b] for b in SAFE_SHORTCUTS[prop]):
            flags[prop] = True
        elif prop in _COMPONENTWISE_OF and not cw[_COMPONENTWISE_OF[prop]]:
            flags[prop] = False
    pairs = [prop for prop in (SAFELY_OR_FREE, SAFELY_NAND_FREE) if prop not in flags]
    found = _join_meet_failures(rel, pairs)
    flags.update((prop, prop not in found) for prop in pairs)
    sweep = [prop for prop in SAFE_PROPERTIES if prop not in flags]
    if sweep and rel.arity <= SAFE_CHECK_ARITY_MAX:
        found = _first_failures(rel, sweep)
        flags.update((prop, prop not in found) for prop in sweep)
    else:
        flags.update(dict.fromkeys(sweep))
    return flags


def first_unsafe_identification(rel: Relation, prop: str) -> ArgPattern | None:
    """First identification pattern whose image violates the property, if any."""
    if prop not in _SAFE_CHECKS:
        raise RelationError(f"unknown safe property {prop!r}")
    return _first_failures(rel, (prop,)).get(prop)
