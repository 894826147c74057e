"""Allen interval algebra: 13 base relations, converse, composition.

Relations are identified by short codes (b, m, o, s, d, f, eq and the
converses bi, mi, oi, si, di, fi).  Sets of relations are 13-bit masks
wrapped in RelationSet.  SIGNATURES, the signs of the four endpoint
differences of each relation, is the only per-relation definition: the
converse and composition tables are derived from it at import, the
composition by classifying every triple of intervals on six points.  The
test suite re-derives the composition by an independent route, a case
classifier over integer endpoints in [0, 8].

Interval semantics throughout: half-open [start, end) with end > start,
compared as real numbers on the endpoints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum


class Coarse(Enum):
    """Coarse temporal relation kinds used by the story generator."""

    BEFORE = "before"
    AFTER = "after"
    SAME_TIME = "same_time"


class AllenRelation(Enum):
    BEFORE = "b"
    MEETS = "m"
    OVERLAPS = "o"
    STARTS = "s"
    DURING = "d"
    FINISHES = "f"
    EQUALS = "eq"
    AFTER = "bi"
    MET_BY = "mi"
    OVERLAPPED_BY = "oi"
    STARTED_BY = "si"
    CONTAINS = "di"
    FINISHED_BY = "fi"

    @property
    def index(self) -> int:
        return _INDEX[self]


RELATIONS: tuple[AllenRelation, ...] = tuple(AllenRelation)
N_RELATIONS = len(RELATIONS)
FULL_MASK = (1 << N_RELATIONS) - 1

_INDEX = {r: i for i, r in enumerate(RELATIONS)}
_BY_CODE = {r.value: r for r in RELATIONS}

# Endpoint signature of each relation: signs of (As-Bs, As-Be, Ae-Bs, Ae-Be)
# for intervals A = [As, Ae), B = [Bs, Be).
SIGNATURES: dict[AllenRelation, tuple[int, int, int, int]] = {
    AllenRelation.BEFORE: (-1, -1, -1, -1),
    AllenRelation.MEETS: (-1, -1, 0, -1),
    AllenRelation.OVERLAPS: (-1, -1, 1, -1),
    AllenRelation.STARTS: (0, -1, 1, -1),
    AllenRelation.DURING: (1, -1, 1, -1),
    AllenRelation.FINISHES: (1, -1, 1, 0),
    AllenRelation.EQUALS: (0, -1, 1, 0),
    AllenRelation.AFTER: (1, 1, 1, 1),
    AllenRelation.MET_BY: (1, 0, 1, 1),
    AllenRelation.OVERLAPPED_BY: (1, -1, 1, 1),
    AllenRelation.STARTED_BY: (0, -1, 1, 1),
    AllenRelation.CONTAINS: (-1, -1, 1, 1),
    AllenRelation.FINISHED_BY: (-1, -1, 1, 0),
}
_SIGNATURE_TO_RELATION = {sig: r for r, sig in SIGNATURES.items()}

# B's signature against A swaps the roles of the endpoints: signs of
# (Bs-As, Bs-Ae, Be-As, Be-Ae) = (-a, -c, -b, -d).
_CONVERSE = {r: _SIGNATURE_TO_RELATION[(-a, -c, -b, -d)]
             for r, (a, b, c, d) in SIGNATURES.items()}


def converse(r: AllenRelation) -> AllenRelation:
    """Return the Allen converse: A r B iff B converse(r) A."""
    return _CONVERSE[r]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def relation_between(a_start, a_end, b_start, b_end) -> AllenRelation:
    """Classify the base relation between two nonempty half-open intervals."""
    if a_end <= a_start or b_end <= b_start:
        raise ValueError("intervals must be nonempty")
    sig = (
        _sign(a_start - b_start),
        _sign(a_start - b_end),
        _sign(a_end - b_start),
        _sign(a_end - b_end),
    )
    return _SIGNATURE_TO_RELATION[sig]


def _derive_composition() -> list[int]:
    """Mask of compose(r1, r2), indexed [r1.index * 13 + r2.index], over
    every triple of intervals on six points: three intervals have six
    endpoints, so six points realise every ordering of them."""
    spans = [(s, e) for s in range(6) for e in range(s + 1, 6)]
    index = {(a, b): relation_between(*a, *b).index for a in spans for b in spans}
    table = [0] * (N_RELATIONS * N_RELATIONS)
    for a in spans:
        for b in spans:
            row = index[a, b] * N_RELATIONS
            for c in spans:
                table[row + index[b, c]] |= 1 << index[a, c]
    return table


_COMPOSE_BASE = _derive_composition()
_CONVERSE_BIT = [1 << _CONVERSE[r].index for r in RELATIONS]


def _codes_to_mask(codes: str) -> int:
    mask = 0
    for code in codes.split():
        mask |= 1 << _INDEX[_BY_CODE[code]]
    return mask


def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.lru_cache(maxsize=65536)
def compose_masks(mask_a: int, mask_b: int) -> int:
    """Mask of the composition of two relation masks."""
    out = 0
    for i in _mask_bits(mask_a):
        row = i * N_RELATIONS
        for j in _mask_bits(mask_b):
            out |= _COMPOSE_BASE[row + j]
        if out == FULL_MASK:
            return FULL_MASK
    return out


@functools.lru_cache(maxsize=8192)
def converse_mask(mask: int) -> int:
    """Mask of the converses of a relation mask's members."""
    out = 0
    for i in _mask_bits(mask):
        out |= _CONVERSE_BIT[i]
    return out


@dataclass(frozen=True, slots=True)
class RelationSet:
    """Immutable set of Allen relations backed by a 13-bit mask."""

    mask: int = 0

    def __post_init__(self):
        if self.mask & ~FULL_MASK:
            raise ValueError(f"relation mask {self.mask:#x} is not a 13-bit mask")

    @classmethod
    def of(cls, *relations: AllenRelation) -> RelationSet:
        mask = 0
        for r in relations:
            mask |= 1 << r.index
        return cls(mask)

    @classmethod
    def from_codes(cls, codes: str) -> RelationSet:
        """Build from space-separated codes, e.g. "b m"."""
        return cls(_codes_to_mask(codes))

    @classmethod
    def full(cls) -> RelationSet:
        return cls(FULL_MASK)

    @classmethod
    def empty(cls) -> RelationSet:
        return cls(0)

    def __contains__(self, r: AllenRelation) -> bool:
        return bool(self.mask >> r.index & 1)

    def __iter__(self):
        for i in _mask_bits(self.mask):
            yield RELATIONS[i]

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __and__(self, other: RelationSet) -> RelationSet:
        return RelationSet(self.mask & other.mask)

    def __or__(self, other: RelationSet) -> RelationSet:
        return RelationSet(self.mask | other.mask)

    def __le__(self, other: RelationSet) -> bool:
        return self.mask & ~other.mask == 0

    def converse(self) -> RelationSet:
        return RelationSet(converse_mask(self.mask))

    def compose(self, other: RelationSet) -> RelationSet:
        return RelationSet(compose_masks(self.mask, other.mask))

    def codes(self) -> str:
        return " ".join(r.value for r in self)

    def __repr__(self) -> str:
        return f"RelationSet({{{self.codes()}}})"


def compose(r1: AllenRelation, r2: AllenRelation) -> RelationSet:
    """All base relations s admitting intervals A r1 B, B r2 C, A s C."""
    return RelationSet(_COMPOSE_BASE[r1.index * N_RELATIONS + r2.index])


_COARSE_MAP = {
    Coarse.BEFORE: RelationSet.of(AllenRelation.BEFORE, AllenRelation.MEETS),
    Coarse.AFTER: RelationSet.of(AllenRelation.AFTER, AllenRelation.MET_BY),
    Coarse.SAME_TIME: RelationSet.of(
        AllenRelation.EQUALS, AllenRelation.STARTS, AllenRelation.STARTED_BY
    ),
}


def coarse_to_allen(c: Coarse) -> RelationSet:
    """Allen sets for the generator's coarse relation kinds.

    before allows back-to-back execution (meets); same_time means a
    shared start, with durations free to differ.
    """
    return _COARSE_MAP[c]


def check_relation(a: tuple[int, int], b: tuple[int, int], s: RelationSet) -> bool:
    """True iff the relation holding between intervals a and b is in s."""
    return relation_between(a[0], a[1], b[0], b[1]) in s


def signature_bounds(rs: RelationSet) -> tuple[tuple[int, int], ...]:
    """Per-component (min, max) of endpoint signs over the set's members."""
    if not rs:
        raise ValueError("empty relation set has no bounds")
    return _mask_bounds(rs.mask)


@functools.lru_cache(maxsize=8192)
def _mask_bounds(mask: int) -> tuple[tuple[int, int], ...]:
    los = [1, 1, 1, 1]
    his = [-1, -1, -1, -1]
    for r in RelationSet(mask):
        for c, v in enumerate(SIGNATURES[r]):
            los[c] = min(los[c], v)
            his[c] = max(his[c], v)
    return tuple(zip(los, his))


def convex_envelope(rs: RelationSet) -> RelationSet:
    """Smallest convex relation set containing rs.

    A set is convex when it equals the set of all relations whose
    endpoint signatures fit inside its per-component sign bounds; those
    sets translate exactly to conjunctions of endpoint inequalities.
    """
    bounds = signature_bounds(rs)
    mask = 0
    for r in RELATIONS:
        sig = SIGNATURES[r]
        if all(lo <= sig[c] <= hi for c, (lo, hi) in enumerate(bounds)):
            mask |= 1 << r.index
    return RelationSet(mask)


def is_convex(rs: RelationSet) -> bool:
    return _mask_is_convex(rs.mask)


@functools.lru_cache(maxsize=8192)
def _mask_is_convex(mask: int) -> bool:
    return bool(mask) and convex_envelope(RelationSet(mask)).mask == mask
