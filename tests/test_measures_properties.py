"""Property tests for the integer-inside measures.

`RationalDist` (integer numerators over one denominator) agrees with the
`Fraction`-mass reference in `oracles.py` on items, support, serialization,
repr, equality and error text.  `group_empirical` and a `GroupTally` fed one
element at a time agree with the group probabilities of the empirical
distribution, on random overlapping finite collections and block
partitions and on prefixes with repeats.  `group_empirical`'s memo of its
last prefix never changes an answer or an error text, for prefixes given as
a list changed in place or as views of append-only lists.  `GroupTally.distance`
equals the sup distance of the `Fraction` group probabilities on both
collection shapes, `GroupTally.worst_group` is the smallest group attaining
it, and `RationalDist._from_pairs` equals the `Fraction`
mass constructor, errors included.  Along a stream with repeats, `distance`
equals the `Fraction` sup distance for point masses (in touched and
untouched blocks) and spread masses."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from oracles import FractionRationalDist, induced_group_probs, sup_distance
from repgen.groups import BlockPartition, FiniteGroups
from repgen.measures import (GroupTally, PrefixView, RationalDist, empirical,
                             group_empirical, is_alpha_representative)
from repgen.periodic import PeriodicSet

F = Fraction


@st.composite
def periodic_sets(draw):
    t = draw(st.integers(0, 8))
    m = draw(st.integers(1, 6))
    residues = draw(st.frozensets(st.integers(0, m - 1)))
    prefix = draw(st.frozensets(st.integers(0, t - 1))) if t else frozenset()
    return PeriodicSet(t, m, residues, prefix)


finite_groups = st.lists(periodic_sets(), min_size=1, max_size=5).map(FiniteGroups)
block_partitions = st.builds(
    BlockPartition, st.integers(2, 4),
    st.lists(st.integers(1, 4), max_size=3).map(tuple))
collections = st.one_of(finite_groups, block_partitions)
# a small range makes repeats frequent
prefixes = st.lists(st.integers(0, 40), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(collections, prefixes)
def test_group_empirical_is_induced_empirical(c, prefix):
    assert group_empirical(prefix, c) == induced_group_probs(empirical(prefix), c)


@settings(max_examples=200, deadline=None)
@given(collections, prefixes)
def test_tally_step_by_step_equals_batch(c, prefix):
    tally = GroupTally(c)
    for t, x in enumerate(prefix, 1):
        assert tally.add(x) == (x not in prefix[:t - 1])
        assert tally.weights() == induced_group_probs(empirical(prefix[:t]), c)


def outcome_of(count, prefix, c):
    try:
        return count(prefix, c)
    except ValueError as e:
        return "ValueError", str(e)


def fresh_tally_weights(prefix, c):
    tally = GroupTally(c)
    for x in prefix:
        tally.add(x)
    return tally.weights()


# How each call's prefix is made from the previous one.  "insert" and
# "retype" last for one call: the first puts a non-natural in, the second
# swaps an element for an equal non-int (2 -> 2.0 or Fraction(2)), which
# counted from scratch is rejected only where it is the value's first
# occurrence.
memo_moves = st.one_of(
    st.tuples(st.just("extend"), st.lists(st.integers(0, 40), max_size=4)),
    st.tuples(st.just("repeat"), st.none()),
    st.tuples(st.just("shrink"), st.integers(0, 30)),
    st.tuples(st.just("diverge"), st.tuples(st.integers(0, 30),
                                            st.integers(0, 40))),
    st.tuples(st.just("empty"), st.none()),
    st.tuples(st.just("insert"), st.tuples(
        st.integers(0, 30), st.sampled_from([-1, -7, 2.5, "x", None]))),
    st.tuples(st.just("retype"), st.tuples(st.integers(0, 30),
                                           st.sampled_from([float, F]))),
)


@settings(max_examples=300, deadline=None)
@given(finite_groups, block_partitions,
       st.lists(st.tuples(st.booleans(), memo_moves), max_size=30))
def test_group_empirical_memo_equals_a_fresh_tally(finite, blocks, script):
    """Every call, on either of two collections, answers as a fresh tally
    does, including after a rejected prefix.  The prefix is one list that
    the script changes in place, as a caller's growing history is."""
    prefix = [0]
    for use_blocks, (move, arg) in script:
        c = blocks if use_blocks else finite
        undo = None
        if move == "extend":
            prefix.extend(arg)
        elif move == "shrink":
            del prefix[arg:]
        elif move == "diverge":
            j, x = arg
            del prefix[j:]
            prefix.append(x)
        elif move == "empty":
            prefix.clear()
        elif move == "insert":
            j, bad = arg
            j = min(j, len(prefix))
            prefix.insert(j, bad)
            undo = lambda: prefix.pop(j)
        elif move == "retype" and prefix:
            j, kind = arg
            j %= len(prefix)
            x = prefix[j]
            prefix[j] = kind(x)
            undo = lambda: prefix.__setitem__(j, x)
        assert outcome_of(group_empirical, prefix, c) \
            == outcome_of(fresh_tally_weights, prefix, c)
        if undo:
            undo()


# Views of append-only lists: "append" grows the current list (now and then
# by a non-natural or an equal non-int), "view" asks for a view of its first
# n items (n capped at its length), "switch" starts a new list.
view_moves = st.one_of(
    st.tuples(st.just("append"), st.lists(
        st.integers(0, 40) | st.sampled_from([-1, 2.5, 3.0]), max_size=4)),
    st.tuples(st.just("view"), st.integers(0, 40)),
    st.tuples(st.just("switch"), st.lists(st.integers(0, 40), max_size=6)),
)


@settings(max_examples=300, deadline=None)
@given(finite_groups, block_partitions,
       st.lists(st.tuples(st.booleans(), view_moves), max_size=30))
def test_group_empirical_on_views_equals_a_fresh_tally(finite, blocks, script):
    items = [0]
    for use_blocks, (move, arg) in script:
        c = blocks if use_blocks else finite
        if move == "append":
            items.extend(arg)
            n = len(items)
        elif move == "view":
            n = min(arg, len(items))
        else:
            items = list(arg)
            n = len(items)
        view = PrefixView(items, n)
        assert outcome_of(group_empirical, view, c) \
            == outcome_of(fresh_tally_weights, tuple(view), c)


# Masses are drawn as positive weights and normalised, so they sum to 1.
naturals = st.integers(0, 60)
weights = st.builds(F, st.integers(1, 12), st.integers(1, 12))


@st.composite
def mass_maps(draw):
    w = draw(st.dictionaries(naturals, weights, min_size=1, max_size=8))
    total = sum(w.values())
    return {x: m / total for x, m in w.items()}


def assert_same(dist, ref):
    assert dist.items() == ref.items()
    assert all(type(m) is Fraction for _, m in dist.items())
    assert dist.support() == ref.support()
    assert dist.serialize() == ref.serialize()
    assert repr(dist) == repr(ref)


@settings(max_examples=300, deadline=None)
@given(mass_maps())
def test_dist_matches_fraction_reference(masses):
    assert_same(RationalDist(masses), FractionRationalDist(masses))


@settings(max_examples=200, deadline=None)
@given(st.lists(naturals, min_size=1, max_size=40), naturals)
def test_uniform_and_point_match_fraction_reference(xs, x):
    assert_same(RationalDist.uniform(xs), FractionRationalDist.uniform(xs))
    assert_same(RationalDist.point(x), FractionRationalDist.point(x))
    assert RationalDist.uniform(xs) == RationalDist(
        dict(FractionRationalDist.uniform(xs).items()))
    assert RationalDist.point(x) == RationalDist({x: 1})
    assert hash(RationalDist.point(x)) == hash(RationalDist({x: F(1)}))
    assert RationalDist.point(x).serialize() == RationalDist({x: 1}).serialize()


# A small space, so that equal distributions come up often.
small_maps = st.dictionaries(st.integers(0, 3), st.integers(1, 3),
                             min_size=1, max_size=4).map(
    lambda w: {x: F(n, sum(w.values())) for x, n in w.items()})


@settings(max_examples=300, deadline=None)
@given(small_maps, small_maps)
def test_equality_and_hash_follow_values(p, q):
    a, b = RationalDist(p), RationalDist(q)
    assert (a == b) == (FractionRationalDist(p) == FractionRationalDist(q))
    if a == b:
        assert hash(a) == hash(b)


def outcome(make, masses):
    try:
        return "ok", make(masses).serialize()
    except ValueError as e:
        return "ValueError", str(e)


# Keys may be negative or non-integral and masses nonpositive or off-sum.
raw_maps = st.one_of(
    mass_maps(),
    st.dictionaries(st.one_of(st.integers(-3, 10), st.sampled_from([0.5, 2.5])),
                    st.one_of(st.builds(F, st.integers(-3, 5), st.integers(1, 6)),
                              st.integers(-1, 2)),
                    max_size=5))


@settings(max_examples=400, deadline=None)
@given(raw_maps)
def test_invalid_masses_raise_reference_error(masses):
    assert outcome(RationalDist, masses) \
        == outcome(FractionRationalDist, masses)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 10), st.sampled_from([0.5, 2.5])),
                max_size=6))
def test_invalid_supports_raise_reference_error(xs):
    assert outcome(RationalDist.uniform, xs) \
        == outcome(FractionRationalDist.uniform, xs)
    for x in xs:
        assert outcome(RationalDist.point, x) \
            == outcome(FractionRationalDist.point, x)


# The history draws from 0..40 and mu from 0..60, so on block partitions mu
# often weighs blocks the history never touched, and the reverse.
@settings(max_examples=300, deadline=None)
@given(collections, prefixes, mass_maps(), st.builds(F, st.integers(0, 6),
                                                     st.integers(1, 6)))
@example(BlockPartition(2), [0, 1, 2], {10: F(1)}, F(1, 2))
@example(BlockPartition(3, (1,)), [40], {0: F(1, 2), 60: F(1, 2)}, F(0))
def test_tally_distance_equals_fraction_sup_distance(c, prefix, masses, alpha):
    mu = RationalDist(masses)
    tally = GroupTally(c)
    for x in prefix:
        tally.add(x)
    d = tally.distance(mu)
    assert type(d) is Fraction
    lam, pihat = induced_group_probs(mu, c), tally.weights()
    assert d == sup_distance(lam, pihat)
    gaps = {i: abs(lam.get(i, 0) - pihat.get(i, 0))
            for i in lam.keys() | pihat.keys()}
    assert tally.worst_group(mu) == min(i for i, gap in gaps.items()
                                        if gap == d)
    assert is_alpha_representative(mu, prefix, c, alpha) == (d <= alpha, d)


@st.composite
def numerator_maps(draw):
    """Positive numerators and their sum, both scaled by a common factor,
    so the masses are valid but often not in lowest terms."""
    w = draw(st.dictionaries(naturals, st.integers(1, 12), min_size=1,
                             max_size=8))
    k = draw(st.integers(1, 6))
    return {x: n * k for x, n in w.items()}, sum(w.values()) * k


# Keys may be negative or non-integral, numerators nonpositive, and the
# denominator other than their sum.
raw_numerator_maps = st.tuples(
    st.dictionaries(st.one_of(st.integers(-3, 10), st.sampled_from([0.5, 2.5])),
                    st.integers(-3, 6), max_size=5),
    st.integers(1, 12))


@settings(max_examples=400, deadline=None)
@given(st.one_of(numerator_maps(), raw_numerator_maps))
def test_from_pairs_equals_fraction_masses(args):
    nums, den = args
    masses = {x: F(n, den) for x, n in nums.items()}
    # the pairs in the map's order, which is not sorted
    got = outcome(lambda m: RationalDist._from_pairs(list(m.items()), den),
                  nums)
    assert got == outcome(RationalDist, masses)
    if got[0] == "ok":
        dist = RationalDist._from_pairs(list(nums.items()), den)
        assert dist == RationalDist(masses)
        assert hash(dist) == hash(RationalDist(masses))
        assert_same(dist, FractionRationalDist(masses))


# One step of a checked stream: add an element (often a repeat), or ask the
# distance of a point mass (0..60: beyond the history's 0..40, so often in
# an untouched block) or of a spread distribution.
tally_moves = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 40)),
    st.tuples(st.just("point"), st.integers(0, 60)),
    st.tuples(st.just("spread"), mass_maps()),
)


@settings(max_examples=300, deadline=None)
@given(collections, st.integers(0, 40),
       st.lists(tally_moves, min_size=1, max_size=40))
@example(BlockPartition(2), 0, [("point", 50), ("add", 1), ("point", 50)])
@example(FiniteGroups([PeriodicSet(0, 2, {0}), PeriodicSet(0, 1, {0})]), 3,
         [("point", 3), ("add", 3), ("point", 3), ("add", 5), ("point", 3)])
def test_tally_distance_weighs_point_masses(c, first, script):
    tally = GroupTally(c)
    tally.add(first)
    for move, arg in script:
        if move == "add":
            tally.add(arg)
            continue
        mu = RationalDist.point(arg) if move == "point" else RationalDist(arg)
        got = tally.distance(mu)
        assert type(got) is Fraction
        assert got == sup_distance(induced_group_probs(mu, c),
                                   tally.weights())
