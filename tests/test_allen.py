"""Algebra unit tests: converse, composition, coarse mapping, convexity."""

from __future__ import annotations

import itertools

import pytest

from storysim.allen import (
    RELATIONS,
    AllenRelation,
    Coarse,
    RelationSet,
    check_relation,
    coarse_to_allen,
    compose,
    converse,
    convex_envelope,
    is_convex,
    relation_between,
)

from _oracles import ALL_CODES, brute_force_composition, classify


def test_thirteen_distinct_relations():
    assert len(RELATIONS) == 13
    assert len({r.value for r in RELATIONS}) == 13


def test_converse_pairs():
    assert converse(AllenRelation.EQUALS) is AllenRelation.EQUALS
    assert converse(AllenRelation.BEFORE) is AllenRelation.AFTER
    for r in RELATIONS:
        assert converse(converse(r)) is r
    # every relation: the converse of A's relation to B is B's relation to A
    intervals = [(s, e) for s in range(6) for e in range(s + 1, 6)]
    for a, b in itertools.product(intervals, repeat=2):
        swapped = converse(relation_between(*a, *b))
        assert swapped is relation_between(*b, *a)
        assert swapped.value == classify(*b, *a)


def test_equals_is_composition_identity():
    for r in RELATIONS:
        assert compose(AllenRelation.EQUALS, r) == RelationSet.of(r)
        assert compose(r, AllenRelation.EQUALS) == RelationSet.of(r)


def test_composition_matches_bruteforce_oracle():
    oracle = brute_force_composition()
    assert len(oracle) == 169
    by_code = {r.value: r for r in RELATIONS}
    for (c1, c2), expected in oracle.items():
        got = {r.value for r in compose(by_code[c1], by_code[c2])}
        assert got == set(expected), f"compose({c1}, {c2})"


def test_relation_between_matches_oracle_classifier():
    intervals = [(s, e) for s in range(6) for e in range(s + 1, 6)]
    for (a0, a1), (b0, b1) in itertools.product(intervals, repeat=2):
        assert relation_between(a0, a1, b0, b1).value == classify(a0, a1, b0, b1)


def test_relation_between_rejects_empty_interval():
    with pytest.raises(ValueError):
        relation_between(5, 5, 0, 1)


def test_coarse_mappings():
    assert coarse_to_allen(Coarse.BEFORE) == RelationSet.from_codes("b m")
    assert coarse_to_allen(Coarse.SAME_TIME) == RelationSet.from_codes("eq s si")
    assert coarse_to_allen(Coarse.AFTER) == coarse_to_allen(Coarse.BEFORE).converse()


def test_coarse_images_are_convex():
    for c in Coarse:
        assert is_convex(coarse_to_allen(c))


def test_check_relation_examples():
    before_meets = RelationSet.from_codes("b m")
    assert check_relation((0, 10), (10, 15), before_meets)
    assert not check_relation((0, 10), (5, 15), before_meets)
    assert check_relation((0, 10), (0, 10), RelationSet.from_codes("eq"))


def test_convexity():
    assert not is_convex(RelationSet.from_codes("b bi"))
    assert not is_convex(RelationSet.from_codes("o d"))
    assert convex_envelope(RelationSet.from_codes("o d")) == RelationSet.from_codes("o s d")
    assert is_convex(RelationSet.full())
    assert not is_convex(RelationSet.empty())
    for r in RELATIONS:
        assert is_convex(RelationSet.of(r))


def test_relation_set_operations():
    rs = RelationSet.from_codes("b m o")
    assert len(rs) == 3
    assert AllenRelation.MEETS in rs
    assert AllenRelation.EQUALS not in rs
    assert rs.codes() == "b m o"
    assert rs.converse() == RelationSet.from_codes("bi mi oi")
    assert (rs & RelationSet.from_codes("m o s")) == RelationSet.from_codes("m o")
    assert (rs | RelationSet.from_codes("s")) == RelationSet.from_codes("b m o s")
    assert rs <= RelationSet.full()
    assert not RelationSet.empty()
    assert set(ALL_CODES) == {r.value for r in RelationSet.full()}


def test_relation_set_is_an_immutable_13_bit_value():
    for mask in (1 << 13, -1):
        with pytest.raises(ValueError, match="13-bit"):
            RelationSet(mask)
    rs = RelationSet.from_codes("b m o")
    with pytest.raises(AttributeError):
        rs.mask = 0
    assert rs.codes() == "b m o"
    same = RelationSet(rs.mask)
    assert same == rs and hash(same) == hash(rs)
    assert rs != RelationSet.from_codes("b m") and rs != rs.mask


def test_set_composition_distributes_over_members():
    rs1 = RelationSet.from_codes("b m")
    rs2 = RelationSet.from_codes("d f")
    expected = RelationSet.empty()
    for r1 in rs1:
        for r2 in rs2:
            expected = expected | compose(r1, r2)
    assert rs1.compose(rs2) == expected
