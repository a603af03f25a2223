"""Bit-level engine for subsets of the n-dimensional hypercube.

A subset S of {0,1}^n is stored as a single Python int whose bit i is set
iff the assignment with index i belongs to S.  Index convention: bit j of
the index i (j = 0 is least significant) holds coordinate n - j, i.e. the
first coordinate is the most significant bit.  All graph operations treat
two indices as adjacent iff they differ in exactly one bit.  Relations
(relations.Relation.mask) and solution spaces share this format.

conjunction_space is the package's one routine that plugs a relation into
argument slots (constants and repeated variables): it builds formula and
Horn-view solution spaces, apply_pattern's images and constraint
relations.  gf2_reduce, the one GF(2) row reduction, reads
ints as vectors.  tuples_of, the one routine that lists a mask's members
as bitstrings, reads them from tables of 8-bit strings where it can.

Components and BFS levels have two routes.  The bitmask route works on
the whole mask: each step shifts and ORs it along one dimension, 2^n/64
words, and spread and component_masks take the steps as Gauss–Seidel
sweeps (a dimension's flips are ORed in before the next dimension reads
them) while bfs_levels takes n of them per level.  Its cost follows the
eccentricity times 2^n.  The explicit route (flip_levels) lists the
members once with iter_bits into a hash set and searches over single-bit
flips: n set probes per member, whatever the width of the cube.  Each
call starts on the bitmask route and moves to the explicit one once its
steps reach step_budget, the explicit route's cost for the whole space
(|S|·n probes of PROBE_WORDS words each).  As in ski rental, a call
then costs at most about twice what the cheaper route alone would.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Hashable, Iterable, Sequence

from .errors import VarsLimitError

BRUTE_VARS_MAX = 24  # most variables whose assignments conjunction_space spans
# Cost of one set probe of the explicit route, in 64-bit words of bitmask
# shift-and-OR work (see step_budget).  On a 2-core Xeon under CPython 3.11
# a probe took about 100 ns and a step about 7 ns per word at n = 14-18,
# plus about 0.5 us of interpreter work per step, which the word count
# leaves out.  Of the values tried (0 to 64, and no switch), 24 gave the
# least total time over the sparse and dense benchmark inputs, within
# about 5% of taking the faster route on every call.
PROBE_WORDS = 24


# Widths whose masks stay cached for the life of the process; all of them
# together hold about 540 KiB.  Of the wider widths only the one built last
# is kept: width n holds (n + 1) 2^n bits of masks, 11.5 MiB at n = 22.
MASKS_KEPT_WIDTH_MAX = 17
# width -> (full_mask(n), ((2^pos, coord_mask(n, pos)) for each pos))
_WIDTH_MASKS: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}


def _build_width(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Build and cache the masks of width n, first dropping the wider width
    cached before it (see MASKS_KEPT_WIDTH_MAX).  Callers read the cache as
    `_WIDTH_MASKS.get(n) or _build_width(n)`, so a hit costs no call."""
    full = (1 << (1 << n)) - 1
    dims = []
    for pos in range(n):
        period = 1 << (pos + 1)
        mask = ((1 << (1 << pos)) - 1) << (1 << pos)  # one period: low half 0s, high half 1s
        length = period
        while length < 1 << n:
            mask |= mask << length
            length *= 2
        dims.append((1 << pos, mask & full))
    if n > MASKS_KEPT_WIDTH_MAX:
        for wide in [m for m in _WIDTH_MASKS if m > MASKS_KEPT_WIDTH_MAX]:
            del _WIDTH_MASKS[wide]
    entry = _WIDTH_MASKS[n] = full, tuple(dims)
    return entry


def full_mask(n: int) -> int:
    """All 2^n indices."""
    return (_WIDTH_MASKS.get(n) or _build_width(n))[0]


def coord_mask(n: int, pos: int) -> int:
    """Indices whose bit `pos` is 1 (pos counted from the least significant bit)."""
    if not 0 <= pos < n:
        raise ValueError(f"bit position {pos} out of range for {n} coordinates")
    return (_WIDTH_MASKS.get(n) or _build_width(n))[1][pos][1]


def neighbors(s: int, n: int) -> int:
    """Union of all single-bit flips of the members of s.

    A flip along pos moves the members whose bit pos is 0 up by 2^pos into
    the coord mask, and the members inside it down.
    """
    out = 0
    for step, hi in (_WIDTH_MASKS.get(n) or _build_width(n))[1]:
        out |= ((s << step) & hi) | ((s & hi) >> step)
    return out


def edge_starts(s: int, n: int, pos: int) -> int:
    """Members of s whose bit `pos` is 0 and whose flip of that bit is in s:
    the lower endpoints of the edges of s along dimension `pos`."""
    return s & ~coord_mask(n, pos) & (s >> (1 << pos))


def step_budget(space: int, n: int) -> int:
    """Bitmask steps that cost as much as the explicit route on `space`.

    A step shifts and ORs the 2^n-bit mask along one dimension, 2^n/64
    words; the explicit route makes n set probes per member, each worth
    PROBE_WORDS words.
    """
    return PROBE_WORDS * space.bit_count() * n // max(1, (1 << n) >> 6)


def _sweep(comp: int, space: int, n: int, steps: int) -> tuple[int | None, int]:
    """Grow comp inside `space` by Gauss–Seidel sweeps, at most `steps` steps.

    Each step ORs the flips of comp along one dimension into comp before
    the next dimension's step reads it; the dimensions are taken in turn
    until n steps in a row add nothing.  Returns the component and the
    steps left, or None and 0 once the steps run out.
    """
    quiet = 0
    while quiet < n:
        for step, hi in (_WIDTH_MASKS.get(n) or _build_width(n))[1]:
            if not steps:
                return None, 0
            steps -= 1
            grown = comp | ((((comp << step) & hi) | ((comp & hi) >> step)) & space)
            if grown == comp:
                quiet += 1
                if quiet == n:
                    break
            else:
                comp, quiet = grown, 0
    return comp, steps


def spread(seed: int, space: int, n: int) -> int:
    """Connected component(s) of `space` reachable from the seed set:
    Gauss–Seidel sweeps within step_budget, then the explicit route."""
    seed &= space
    comp, _ = _sweep(seed, space, n, step_budget(space, n))
    if comp is None:
        unseen = set(iter_bits(space))
        comp = mask_of(chain.from_iterable(flip_levels(iter_bits(seed), unseen, n)))
    return comp


def component_masks(space: int, n: int) -> list[int]:
    """Connected components of `space`, ordered by smallest member index.

    Gauss–Seidel sweeps from the lowest member not yet covered, within one
    step_budget for the whole call; once it is spent, the members left are
    labelled by the explicit route.
    """
    comps = []
    rest = space
    steps = step_budget(space, n)
    while rest:
        comp, steps = _sweep(rest & -rest, rest, n, steps)
        if comp is None:
            return comps + _flip_components(rest, n)
        comps.append(comp)
        rest ^= comp
    return comps


def _flip_components(space: int, n: int) -> list[int]:
    """Connected components of `space` by the explicit route, ordered by
    smallest member index."""
    members = list(iter_bits(space))
    unseen = set(members)
    return [mask_of(chain.from_iterable(flip_levels((v,), unseen, n)))
            for v in members if v in unseen]


def bfs_levels(seed: int, space: int, n: int, stop: int = 0,
               rounds: int | None = None) -> list[int]:
    """Level sets of a breadth-first search from the seed set inside `space`,
    ending with the first level that meets `stop`, or after `rounds` rounds.

    A search that runs dry within its rounds returns fewer than rounds + 1
    levels, none of them meeting `stop`.
    """
    levels = [seed & space]
    seen = levels[0]
    while not levels[-1] & stop and (rounds is None or len(levels) <= rounds):
        frontier = neighbors(levels[-1], n) & space & ~seen
        if not frontier:
            break
        levels.append(frontier)
        seen |= frontier
    return levels


def flip_levels(seeds: Iterable[int], unseen: set[int], n: int,
                stop: int | None = None) -> list[list[int]]:
    """Level sets of a breadth-first search over single-bit flips, by index.

    The explicit route: the search starts from the seeds and runs through
    the indices in `unseen`, removing each one it reaches (and the seeds),
    so it costs n set probes per vertex reached, whatever the width of the
    cube.  It ends with the first level that holds `stop`, which must be
    in `unseen` or among the seeds, or when it runs dry.
    """
    level = list(seeds)
    unseen.difference_update(level)
    levels = [level]
    flips = [1 << pos for pos in range(n)]
    while stop is None or stop in unseen:
        found = []
        for v in level:
            for f in flips:
                w = v ^ f
                if w in unseen:
                    unseen.remove(w)
                    found.append(w)
        if not found:
            break
        levels.append(found)
        level = found
    return levels


def mask_of(indices: Iterable[int]) -> int:
    """The bitmask with the given bits set."""
    indices = list(indices)
    if not indices:
        return 0
    buf = bytearray(max(indices) // 8 + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def locally_minimal(space: int, n: int) -> int:
    """Members of `space` with no member below them at Hamming distance 1.

    A neighbour is smaller exactly when it flips some 1 down to 0.
    """
    lowered = 0
    for pos in range(n):
        lowered |= edge_starts(space, n, pos) << (1 << pos)
    return space & ~lowered


def minimum(s: int, n: int) -> int | None:
    """Coordinate-wise minimum (AND) of the members of s, when it is a member."""
    lower = 0
    for pos in range(n):
        hi = coord_mask(n, pos)
        if s & hi == s:
            lower |= 1 << pos
    return lower if (s >> lower) & 1 else None


# _BYTE_BITS[b]: the set bit positions of the byte value b, ascending.
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _pos in range(8):
    _BYTE_BITS += [bits + (_pos,) for bits in _BYTE_BITS]


def iter_bits(s: int):
    """Yield the set bit indices of s in ascending order.

    Linear in the width of s: one pass over its little-endian bytes, with
    a table of the set bits of each byte value.  When s has fewer set bits
    than 64-bit words, the pass reads the bytes a word at a time and skips
    the zero words in C (itertools.compress), so that a sparse mask costs
    Python work per member rather than per byte.
    """
    words = (s.bit_length() + 63) >> 6
    data = s.to_bytes(words << 3, "little")
    if s.bit_count() < words:
        for i in compress(range(words), memoryview(data).cast("Q")):
            base = i << 6
            for byte in data[i << 3:(i + 1) << 3]:
                if byte:
                    for j in _BYTE_BITS[byte]:
                        yield base + j
                base += 8
        return
    base = 0
    for byte in data:
        if byte:
            for j in _BYTE_BITS[byte]:
                yield base + j
        base += 8


def tuple_of_index(idx: int, n: int) -> str:
    """Bitstring of an index, first coordinate as the most significant bit;
    the one assignment to no variables is the empty string."""
    return bin(idx | 1 << n)[3:]


# _TUPLES[n][i] == tuple_of_index(i, n) for the widths n up to 8.
_TUPLES = [[tuple_of_index(i, n) for i in range(1 << n)] for n in range(9)]


def tuples_of(s: int, n: int) -> list[str]:
    """Bitstrings of the members of s, ascending: tuple_of_index of each.

    Up to width 8 they come from a table; up to width 16, the bitstring
    of an index's high n - 8 bits is joined to the one of its low 8, each
    read from a table.  Wider members are formatted one at a time.
    """
    if n <= 8:
        table = _TUPLES[n]
        return [table[i] for i in iter_bits(s)]
    if n <= 16:
        hi, low = _TUPLES[n - 8], _TUPLES[8]
        return [hi[i >> 8] + low[i & 255] for i in iter_bits(s)]
    top = 1 << n
    return [bin(i | top)[3:] for i in iter_bits(s)]


def conjunction_space(variables: Sequence[Hashable],
                      items: Iterable[tuple[int, int, Sequence[Hashable]]]) -> int:
    """Bitmask of the assignments to `variables` that meet every item.

    Assignment index i encodes `variables` with the first one as the most
    significant bit.  An item (mask, k, args) is a relation of arity k, as
    a mask, applied to k arguments, each a variable or the constant "0" or
    "1"; a variable may fill several slots.  The tuples of the relation
    that agree with the constants, and agree between the slots of each
    variable, pick out disjoint subcubes that cover the cube, so the item's
    indicator is the union of its members' subcubes, or the complement of
    the union of its non-members' ones: whichever side has fewer tuples is
    built.  The size bound is checked before a lazy `items` builds any mask.
    """
    n = len(variables)
    if n > BRUTE_VARS_MAX:
        raise VarsLimitError(
            f"{n} variables exceed the exhaustive bound {BRUTE_VARS_MAX}")
    full = full_mask(n)
    ones = {v: coord_mask(n, n - 1 - j) for j, v in enumerate(variables)}
    space = full
    for mask, k, args in items:
        cube = full_mask(k)  # the tuples that agree with the constants and repeats
        first = {}  # variable -> bit position of its first slot
        free = []
        for slot, a in enumerate(args):
            pos = k - 1 - slot
            if a == "0" or a == "1":
                cube &= coord_mask(k, pos) if a == "1" else ~coord_mask(k, pos)
            elif a in first:
                cube &= ~(coord_mask(k, pos) ^ coord_mask(k, first[a]))
            else:
                first[a] = pos
                free.append((pos, ones[a]))
        members = mask & cube
        flip = 2 * members.bit_count() > cube.bit_count()
        indicator = 0
        for t in iter_bits(cube ^ members if flip else members):
            term = full
            for pos, one in free:
                term &= one if (t >> pos) & 1 else full ^ one
            indicator |= term
        space &= full ^ indicator if flip else indicator
        if not space:
            break
    return space


def gf2_reduce(rows: Iterable[tuple[int, int]]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Reduced row echelon form over GF(2) of (bits, tag) rows.

    Each row is reduced against the pivot rows it holds, highest bit first,
    and its tag takes the same XORs; a row left nonzero becomes the pivot
    row of its highest bit.  One back-substitution pass at the end clears
    every pivot bit from the other pivot rows.  Returns the pivot rows by
    pivot bit and the tags of the rows that reduced to zero, in input order.
    """
    pivots: dict[int, tuple[int, int]] = {}
    held = 0
    zero_tags: list[int] = []
    for bits, tag in rows:
        while bits:
            top = bits.bit_length() - 1
            row = pivots.get(top)
            if row is None:
                pivots[top] = (bits, tag)
                held |= 1 << top
                break
            bits ^= row[0]
            tag ^= row[1]
        else:
            zero_tags.append(tag)
    # a pivot row holds no higher pivot, so in ascending order every row it
    # is reduced with is already free of all other pivots
    for p in sorted(pivots):
        bits, tag = pivots[p]
        for q in iter_bits((bits & held) ^ (1 << p)):
            bits ^= pivots[q][0]
            tag ^= pivots[q][1]
        pivots[p] = (bits, tag)
    return pivots, zero_tags
