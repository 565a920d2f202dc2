"""Group collections: coverage/partition validation, membership vectors,
the pieces a set is cut into, block layouts, and overlap bookkeeping."""

import random
import re
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest

from repgen.generators import StreamState
from repgen.groups import BlockPartition, FiniteGroups, finite_support_size
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.measures import GroupTally
from repgen.periodic import (ALL, EVENS, ODDS, PeriodicSet, from_finite,
                             from_threshold, multiples, parse_set)
from oracles import brute_support_size, scan_bound, scan_mass_by_group

ALL_CLS = HypothesisClass([Hypothesis("all", ALL)])


def test_validate_worked():
    r = FiniteGroups([EVENS, multiples(4)]).validate()
    assert not r.covers
    a1 = parse_set("ap:4,2,{0},{0,1}")  # {0,1} plus evens from 4
    a2 = parse_set("ap:3,2,{1},{2}")    # {2} plus odds from 3
    r2 = FiniteGroups([a1, a2]).validate()
    assert r2.covers and r2.partition
    r3 = FiniteGroups([EVENS, ODDS]).validate()
    assert r3.covers and r3.partition
    r4 = FiniteGroups([EVENS, ALL]).validate()
    assert r4.covers and not r4.partition


def test_groups_containing():
    c = FiniteGroups([EVENS, ALL])
    assert c.groups_containing(2) == [1, 2]
    assert c.groups_containing(3) == [2]


def test_owners_memo_holds_one_entry_per_membership_class():
    # T = 3 and M = 6: 20,000 distinct naturals, near and far, fall into at
    # most T + M classes, and the tally counts them as the scan does
    groups = [parse_set("ap:4,2,{0},{0,1}"), parse_set("ap:3,2,{1},{2}"),
              multiples(3)]
    c = FiniteGroups(groups)
    t = max(g.threshold for g in groups)
    m = lcm(*(g.modulus for g in groups))
    assert (t, m) == (3, 6)
    xs = list(range(10_000)) + random.Random(5).sample(range(10_000, 10 ** 9),
                                                        10_000)
    tally = GroupTally(c)
    for x in xs:
        tally.add(x)
    assert len(c._owners_memo) <= t + m
    assert tally.counts == scan_mass_by_group(c, xs, [1] * len(xs))


@pytest.mark.parametrize("part", [(1, 0), (0, 1)])
def test_cursors_over_one_collection_walk_independently(part):
    # each members_in call walks a piece of s from its least member, however
    # far other iterators and stream states over the collection have gone
    c = FiniteGroups([EVENS, ODDS])
    s = multiples(3)
    region = EVENS if part == (1, 0) else ODDS
    want = list(islice((s & region).members(), 40))
    a, b = c.members_in(s, part), c.members_in(s, part)
    assert list(islice(a, 5)) == want[:5]
    assert list(islice(b, 2)) == want[:2]
    assert (next(a), next(b)) == (want[5], want[2])
    states = StreamState(ALL_CLS, c), StreamState(ALL_CLS, c)
    for st in states:
        assert dict(st.heads(s))[part] == want[0]
    for st, seen in zip(states, (want[:7] + [want[12]], want[:3] + [1, 4])):
        for x in seen:
            st.add(x)
    for st in states:
        listed = []
        for _ in range(20):
            listed.append(dict(st.heads(s))[part])
            st.add(listed[-1])
        seen = st.tally.seen - set(listed)
        assert listed == [x for x in want if x not in seen][:20]


def test_pieces_worked():
    c = FiniteGroups([from_finite([0, 1]) | from_threshold(2), ALL])
    # first group is everything here, so only the (1,1) piece is nonempty
    assert c.pieces(ALL) == {(1, 1): ALL}
    c2 = FiniteGroups([from_finite([0, 1]), ALL])
    assert c2.pieces(ALL) == {(1, 1): from_finite([0, 1]),
                              (0, 1): from_threshold(2)}
    # no cover: the zero vector keys the part of the set in no group
    c3 = FiniteGroups([from_finite([0, 1])])
    assert c3.pieces(EVENS) == {(1,): from_finite([0]),
                                (0,): EVENS & from_threshold(2)}
    assert c3.pieces(EVENS) is c3.pieces(EVENS)  # cut once per set


def test_pieces_partition_the_set():
    rng = random.Random(47)
    for _ in range(60):
        k = rng.randrange(1, 4)
        groups = [_random_set(rng) for _ in range(k)]
        s = _random_set(rng)
        c = FiniteGroups(groups)
        pieces = c.pieces(s)
        bound, period = scan_bound(groups + [s])
        for x in range(bound + period):
            hits = [vec for vec, piece in pieces.items() if x in piece]
            v = tuple(1 if x in g else 0 for g in groups)
            # an element in no group lies in the zero vector's piece
            assert hits == ([v] if x in s else [])
        # every listed piece is nonempty and its vector matches its members
        for vec, piece in pieces.items():
            assert not piece.is_empty()
            wit = next(iter(piece.members()))
            assert tuple(1 if wit in g else 0 for g in groups) == vec


def test_pieces_order_is_product_order():
    assert list(FiniteGroups([EVENS, ODDS]).pieces(ALL)) == [(1, 0), (0, 1)]
    c = FiniteGroups([multiples(4), EVENS])
    assert list(c.pieces(ALL)) == [(1, 1), (0, 1), (0, 0)]


def test_block_partition_layout():
    b = BlockPartition(base=2, prefix_sizes=(1, 2, 4))
    assert b.size(1) == 1 and b.size(2) == 2 and b.size(3) == 4
    assert b.size(4) == 8  # geometric tail continues
    assert b.block_range(1) == (0, 1)
    assert b.block_range(2) == (1, 3)
    assert b.block_range(3) == (3, 7)
    assert b.group_index(5) == 3
    assert b.group_index(0) == 1
    assert b.group_index(7) == 4


def test_block_partition_defaults_to_pure_geometric():
    b = BlockPartition(base=3)
    assert b.size(1) == 3 and b.size(2) == 9
    assert b.block_range(1) == (0, 3)
    assert b.group_index(2) == 1
    assert b.group_index(3) == 2


def test_group_index_answers_any_order_of_queries():
    """Bounds are cached; a far element first and then small ones must give
    the blocks a fresh partition gives."""
    far = BlockPartition(base=2)
    assert far.group_index(4094) == 12 and far.group_index(4093) == 11
    assert far.block_range(11) == (2046, 4094)
    for x in (0, 1, 2, 5, 6, 2046, 2045, 4095):
        assert far.group_index(x) == BlockPartition(base=2).group_index(x)
        assert far.groups_containing(x) == [far.group_index(x)]


def test_mass_by_group_worked():
    c = FiniteGroups([EVENS, from_threshold(3), from_finite([0, 1])])
    assert c.mass_by_group((), ()) == {1: 0, 2: 0, 3: 0}
    assert c.mass_by_group((0, 3, 4), (5, 1, 2)) == {1: 7, 2: 3, 3: 5}
    b = BlockPartition(base=2, prefix_sizes=(1,))  # {0}, {1, 2}, {3..6}, ...
    assert b.mass_by_group((), ()) == {}
    assert b.mass_by_group((0, 2, 1, 7), (1, 2, 3, 4)) == {1: 1, 2: 5, 4: 4}


def test_block_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(base=1)
    with pytest.raises(ValueError):
        BlockPartition(base=2, prefix_sizes=(0,))
    # the type is checked first: 2.5 once gave block 2 the range (2.5, 8.75)
    for base, sizes, bad in ((2.5, (), "float 2.5"), (True, (), "bool True"),
                             (2, (1, 2.0), "float 2.0"),
                             (2, [True], "bool True"),
                             (Fraction(5, 2), (0,),
                              "Fraction Fraction(5, 2)")):
        with pytest.raises(TypeError, match=f"^block base and sizes must be "
                                            f"ints, got {re.escape(bad)}$"):
            BlockPartition(base, sizes)
    r = BlockPartition(base=2).validate()
    assert r.covers and r.partition
    b = BlockPartition(base=2)
    b.group_index(100)  # the cached bounds reach past block 1
    for k in (0, -1):
        for query in (b.block_range, b.group, FiniteGroups([ALL]).group):
            with pytest.raises(IndexError, match=f"got {k}$"):
                query(k)


def test_block_group_index_monotone_and_consistent():
    rng = random.Random(53)
    for _ in range(20):
        base = rng.randrange(2, 5)
        sizes = tuple(rng.randrange(1, 6)
                      for _ in range(rng.randrange(0, 3)))
        b = BlockPartition(base=base, prefix_sizes=sizes)
        prev = 1
        for x in range(200):
            g = b.group_index(x)
            assert g in (prev, prev + 1)
            prev = g
            lo, hi = b.block_range(g)
            assert lo <= x < hi
            assert x in b.group(g)
        # boundaries are the running sums of the block sizes
        total = 0
        for k in range(1, 6):
            lo, hi = b.block_range(k)
            assert lo == total
            total += b.size(k)
            assert hi == total


def test_finite_support_size_worked():
    h = Hypothesis("all", ALL)
    assert finite_support_size(h, FiniteGroups([EVENS, ODDS])) == 0
    c2 = FiniteGroups([from_finite([0, 1, 2]), from_threshold(3)])
    assert finite_support_size(h, c2) == 3
    a1 = from_finite([0, 1])
    a2 = from_finite([1, 2])
    a3 = from_threshold(3) | from_finite([0, 1, 2])
    assert finite_support_size(h, FiniteGroups([a1, a2, a3])) == 10


def test_finite_support_size_matches_brute_force():
    rng = random.Random(59)
    for _ in range(40):
        k = rng.randrange(1, 4)
        groups = [_random_set(rng) for _ in range(k)]
        c = FiniteGroups(groups)
        support = _random_infinite(rng)
        h = Hypothesis("h", support)
        assert finite_support_size(h, c) == brute_support_size(h, c)


def _random_set(rng):
    t = rng.randrange(0, 6)
    m = rng.randrange(1, 5)
    rs = tuple(r for r in range(m) if rng.random() < 0.45)
    fs = tuple(x for x in range(t) if rng.random() < 0.45)
    return PeriodicSet(t, m, rs, fs)


def _random_infinite(rng):
    while True:
        s = _random_set(rng)
        if not s.is_finite():
            return s
