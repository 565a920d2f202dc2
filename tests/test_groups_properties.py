"""Property tests for `refine`, the one cut behind a finite family's pieces
and the dimension's atoms.

`FiniteGroups.pieces(s)` returns what the product enumeration in
`oracles.py` returns for s (the same vectors, the zero vector included, in
the same order, with the same sets) on random sets and random overlapping
families of one to six groups, and on a partition into singletons and a
tail each call makes O(K^2) set operations, not O(2^K). Both reach
`classify` through the set algebra, so each `refine` piece and the
`validate()` report are also checked by membership alone, and the cut of
all 2^8 vectors of 8 bit-pattern groups costs one membership pass per set.
A walk of a piece, or a block partition's `members_in`, lists a set's
members inside a cell or a block, in increasing order, as the set algebra
does, on random partitions and block partitions.
`groups_containing` and `mass_by_group`, which decide membership once per
residue class, agree with the per-group scans in `oracles.py` below the
largest threshold, within the first period past it and far beyond it."""

from itertools import islice, product, repeat
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from oracles import (product_cells, scan_bound, scan_groups_containing,
                     scan_mass_by_group)
from repgen.groups import BlockPartition, FiniteGroups
from test_dimension_properties import block_instances, instances
from repgen.periodic import (ALL, EMPTY, EVENS, ODDS, PeriodicSet,
                             from_finite, from_threshold, multiples, refine)


@st.composite
def periodic_sets(draw):
    # small thresholds and moduli make overlaps and empty cells common
    t = draw(st.integers(0, 5))
    m = draw(st.integers(1, 4))
    residues = draw(st.frozensets(st.integers(0, m - 1)))
    prefix = draw(st.frozensets(st.integers(0, t - 1))) if t else frozenset()
    return PeriodicSet(t, m, residues, prefix)


@settings(max_examples=400, deadline=None)
@given(st.lists(periodic_sets(), min_size=1, max_size=6), periodic_sets())
def test_pieces_match_the_product_reference(groups, s):
    c = FiniteGroups(groups)
    assert list(c.pieces(s).items()) == product_cells(c, s)


@settings(max_examples=200, deadline=None)
@given(periodic_sets(), st.lists(periodic_sets(), max_size=4))
def test_refine_tags_each_piece_with_its_sets(base, sets):
    pieces = refine(base, sets)
    # nonempty pieces, the same order as cutting by every membership
    # pattern with "inside" first, and each piece the base cut by its mask
    assert all(not piece.is_empty() for _, piece in pieces)
    masks = [mask for mask, _ in pieces]
    order = [sum(bit << n for n, bit in enumerate(bits))
             for bits in product((1, 0), repeat=len(sets))]
    assert masks == [m for m in order if m in masks]
    for mask, piece in pieces:
        want = base
        for n, s in enumerate(sets):
            want = want & s if mask >> n & 1 else want - s
        assert piece == want
    # the pieces tile the base
    union = EMPTY
    for _, piece in pieces:
        assert (union & piece).is_empty()
        union = union | piece
    assert union == base


@settings(max_examples=200, deadline=None)
@given(periodic_sets(), st.lists(periodic_sets(), max_size=4))
def test_refine_cuts_by_membership_alone(base, sets):
    # decided with `in` only, no set algebra: each piece holds exactly the
    # members of the base in the scan window whose membership mask is its
    # tag, and each mask the window realizes tags one piece (a nonempty
    # piece has a member in the window)
    bound, period = scan_bound([base, *sets])
    window = [x for x in range(bound + period) if x in base]
    masks = {x: sum(1 << n for n, s in enumerate(sets) if x in s)
             for x in window}
    pieces = refine(base, sets)
    assert sorted(tag for tag, _ in pieces) == sorted(set(masks.values()))
    for tag, piece in pieces:
        assert ([x for x in range(bound + period) if x in piece]
                == [x for x in window if masks[x] == tag])


@settings(max_examples=200, deadline=None)
@given(st.lists(periodic_sets(), min_size=1, max_size=5))
@example([EVENS, ODDS]).via("a partition")
@example([EVENS, ALL]).via("a cover, not a partition")
def test_validate_decides_by_membership_alone(groups):
    # a cover leaves no element of the scan window outside every group, and
    # a partition puts each in exactly one
    bound, period = scan_bound(groups)
    counts = [sum(x in g for g in groups) for x in range(bound + period)]
    report = FiniteGroups(groups).validate()
    assert report.covers == (0 not in counts)
    assert report.partition == (set(counts) == {1})


def test_refine_worked():
    mult4 = multiples(4)
    assert refine(ALL, [EVENS, mult4]) == [
        (3, mult4), (1, EVENS - mult4), (0, ODDS)]
    assert refine(EVENS, [ODDS]) == [(0, EVENS)]
    assert refine(EMPTY, [EVENS]) == []
    assert refine(ODDS, []) == [(0, ODDS)]


def test_pieces_cost_is_quadratic_in_the_group_count(monkeypatch):
    # 23 singletons and a tail: 2^24 membership vectors, at most 24 pieces
    # of any set, and none cut twice
    k = 24
    groups = [from_finite([x]) for x in range(k - 1)] + [from_threshold(k - 1)]
    c = FiniteGroups(groups)
    sets = (ALL, EVENS, ALL, multiples(3))
    units = [tuple(int(n == i) for n in range(k)) for i in range(k)]
    want = [{unit: s & g for unit, g in zip(units, groups)
             if not (s & g).is_empty()} for s in sets]
    cap = 2 * k * k
    calls = [0]
    for name in ("__and__", "__sub__"):
        op = getattr(PeriodicSet, name)

        def counted(self, other, op=op):
            calls[0] += 1
            assert calls[0] <= cap, "more than 2 K^2 set operations"
            return op(self, other)

        monkeypatch.setattr(PeriodicSet, name, counted)
    costs = []
    for s in sets:
        calls[0] = 0
        assert c.pieces(s) == want.pop(0)
        costs.append(calls[0])
    assert costs[2] == 0  # ALL again: its kept cut


def test_pieces_cost_one_membership_pass_per_set(monkeypatch):
    # 8 bit-pattern groups mod 256 (group j holds the residues with bit j
    # set) realize all 2^8 membership vectors; the cut of ALL tests each of
    # the T + M = 256 membership classes once against ALL and each group,
    # and the kept cut tests none
    k, m = 8, 256
    c = FiniteGroups([PeriodicSet(0, m, [r for r in range(m) if r >> j & 1])
                      for j in range(k)])
    calls = [0]
    contains = PeriodicSet.__contains__

    def counted(self, x):
        calls[0] += 1
        return contains(self, x)

    monkeypatch.setattr(PeriodicSet, "__contains__", counted)
    assert len(c.pieces(ALL)) == m
    assert calls[0] <= (k + 1) * m
    calls[0] = 0
    assert len(c.pieces(ALL)) == m
    assert calls[0] == 0


@settings(max_examples=300, deadline=None)
@given(instances() | block_instances(), periodic_sets(), st.data())
def test_members_in_lists_the_intersection(instance, other, data):
    # a hypothesis's support, or another set, inside a block through
    # `members_in` (finite, so all its members are compared), or inside a
    # cell given by its membership vector (cut here by hand) through a walk
    # of the piece `pieces(s)` keys by it: a vector s does not realize walks
    # the empty set
    cls, c = instance
    s = data.draw(st.sampled_from(
        [cls.get(i).support for i in range(1, cls.materialized_count() + 1)]
        + [other]))
    if isinstance(c, BlockPartition):
        part = data.draw(st.integers(1, 6))
        got = list(c.members_in(s, part))
        assert got == list((s & c.group(part)).members())
    else:
        units = [tuple(int(n == i) for n in range(c.k)) for i in range(c.k)]
        part = data.draw(st.sampled_from([*c.pieces(s), *units, (0,) * c.k]))
        region = ALL
        for i, inside in zip(c.indices(), part):
            region = region & c.group(i) if inside else region - c.group(i)
        got = list(islice(c.pieces(s).get(part, EMPTY).members(), 12))
        assert got == list(islice((s & region).members(), 12))
    assert got == sorted(set(got))


@settings(max_examples=150, deadline=None)
@given(st.lists(periodic_sets(), min_size=1, max_size=6), st.data())
def test_owners_match_the_per_group_scans(groups, data):
    # elements below T, in the first period past it and far beyond, so that
    # later elements often share a residue class with earlier ones and are
    # answered from the memo
    c = FiniteGroups(groups)
    t = max(g.threshold for g in groups)
    m = lcm(*(g.modulus for g in groups))
    ranges = [st.integers(t, t + m - 1), st.integers(t + m, 10 ** 9)]
    if t:
        ranges.append(st.integers(0, t - 1))
    xs = data.draw(st.lists(st.one_of(ranges), max_size=12))
    weights = tuple(data.draw(st.lists(st.integers(1, 9), min_size=len(xs),
                                       max_size=len(xs))))
    for x in xs:
        assert c.groups_containing(x) == scan_groups_containing(c, x)
    # weights as a tuple, and as the endless repeat(1) that check_witness
    # passes; dicts compared with their key order
    for ws in (weights, repeat(1)):
        got = c.mass_by_group(xs, ws)
        assert list(got.items()) == list(scan_mass_by_group(c, xs, ws).items())
