"""Exact rational distributions, group marginals, the sup metric, the
representativeness predicate, and prefix views with the tally memo that
reads them."""

import random
from collections.abc import Sequence
from fractions import Fraction

import pytest

from repgen import measures
from repgen.dimension import check_witness
from repgen.generators import GeneratorSession
from repgen.groups import BlockPartition, FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.measures import (GroupTally, PrefixView, RationalDist, empirical,
                             format_fraction, group_empirical,
                             is_alpha_representative, parse_fraction,
                             prefix_tally)
from repgen.periodic import (ALL, EVENS, ODDS, from_finite, from_threshold,
                             multiples)
from oracles import induced_group_probs, sup_distance

F = Fraction


def test_rational_dist_validation():
    with pytest.raises(ValueError):
        RationalDist({})
    with pytest.raises(ValueError):
        RationalDist({0: F(1, 2)})         # does not sum to 1
    with pytest.raises(ValueError):
        RationalDist({0: F(3, 2), 1: F(-1, 2)})  # negative mass
    d = RationalDist({3: F(1)})
    assert d.items() == ((3, F(1)),) and d.support() == (3,)


@pytest.mark.parametrize("masses", [{0: 0.5, 1: 0.5}, {0: True},
                                    {0: "1/2", 1: "1/2"},
                                    {0: F(1, 2), 1: 0.5}])
def test_rational_dist_refuses_inexact_masses(masses):
    # a float, a truth value or a string never becomes a mass, whatever
    # Fraction would make of it
    with pytest.raises(TypeError, match="must be an int or Fraction"):
        RationalDist(masses)


def test_point_and_uniform():
    assert RationalDist.point(4).items() == ((4, F(1)),)
    u = RationalDist.uniform([2, 4, 6])
    assert u.items() == ((2, F(1, 3)), (4, F(1, 3)), (6, F(1, 3)))


@pytest.mark.parametrize("x", [-1, 1.5, "3", True])
def test_point_rejects_what_the_constructor_rejects(x):
    # point checks its one element itself: the same exception type and
    # message as the generic constructor's check
    with pytest.raises(Exception) as want:
        RationalDist({x: 1})
    with pytest.raises(Exception) as got:
        RationalDist.point(x)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


ZERO_REST = FiniteGroups([from_finite([0]), from_threshold(1)])
EVERYTHING = HypothesisClass([Hypothesis("all", ALL)])


def _tally_after(prefix):
    prefix_tally([1, 2], ZERO_REST)  # a remembered prefix that True extends
    return prefix_tally(prefix, ZERO_REST)


# Every place an element is admitted refuses a bool (`RationalDist.point`
# above): True == 1 and hashes alike, so a bool would otherwise pass as the
# natural 1 and serialize as `true`.
BOOL_ADMISSIONS = {
    "session step": lambda: GeneratorSession(
        "empirical", EVERYTHING, ZERO_REST, F(1, 2)).step(True),
    "tally add": lambda: GroupTally(ZERO_REST).add(True),
    "constructor": lambda: RationalDist({True: 1}),
    "uniform": lambda: RationalDist.uniform([0, True]),
    "from pairs": lambda: RationalDist._from_pairs([(True, 1)], 1),
    "check witness": lambda: check_witness(EVERYTHING, ZERO_REST, F(1, 2),
                                           (0, True)),
    "representative": lambda: is_alpha_representative(
        RationalDist.point(0), [True], ZERO_REST, F(1, 2)),
    "remembered prefix": lambda: _tally_after([True, 2, 3]),
}


@pytest.mark.parametrize("admit", BOOL_ADMISSIONS.values(),
                         ids=BOOL_ADMISSIONS.keys())
def test_a_bool_is_not_a_natural(admit):
    with pytest.raises(ValueError, match="naturals, got True$"):
        admit()


@pytest.mark.parametrize("c", [ZERO_REST, BlockPartition(2, (2,))],
                         ids=["finite", "blocks"])
@pytest.mark.parametrize("x", [-1, -2])
def test_a_tally_refuses_a_negative_element(c, x):
    tally = GroupTally(c)
    with pytest.raises(ValueError, match=f"naturals, got {x}$"):
        tally.add(x)
    assert not tally.seen


def _add_both(x, y):
    tally = GroupTally(ZERO_REST)
    tally.add(x)
    return tally.add(y)


# A value equal to a seen natural is checked as any element is, not passed
# as a repeat of it.
SEEN_EQUALS = {
    "representative": (lambda: is_alpha_representative(
        RationalDist.point(0), [1, True], ZERO_REST, F(1, 2)), "True"),
    "group empirical": (lambda: group_empirical((1, 1.0), ZERO_REST), "1.0"),
    "tally add": (lambda: _add_both(3, 3.0), "3.0"),
}


@pytest.mark.parametrize("admit, got", SEEN_EQUALS.values(),
                         ids=SEEN_EQUALS.keys())
def test_a_non_natural_equal_to_a_seen_element_is_refused(admit, got):
    with pytest.raises(ValueError, match=f"naturals, got {got}$"):
        admit()


def test_uniform_path_builds_no_fraction(monkeypatch):
    # Uniform distributions (the empirical baseline's every step) are
    # integer work end to end: with Fraction unusable in the module they
    # still build, report their support and serialize.
    def no_fraction(*args):
        raise AssertionError("Fraction built on the integer path")

    monkeypatch.setattr(measures, "Fraction", no_fraction)
    u = RationalDist.uniform(range(1000))
    assert u.support() == tuple(range(1000))
    assert u.serialize() == [[x, "1/1000"] for x in range(1000)]
    assert RationalDist.point(7).serialize() == [[7, "1/1"]]


def test_distance_builds_one_fraction(monkeypatch):
    # The step check compares integer masses with integer counts over one
    # common denominator; only the returned distance is a Fraction.
    built = []

    def counting(*args):
        built.append(args)
        return F(*args)

    mu = RationalDist.uniform([4, 6, 9])
    parity = GroupTally(FiniteGroups([EVENS, ODDS]))
    for x in (0, 1, 2, 3):
        parity.add(x)
    blocks = GroupTally(BlockPartition(2))
    for x in (0, 1, 2):
        blocks.add(x)
    monkeypatch.setattr(measures, "Fraction", counting)
    assert parity.distance(mu) == F(1, 6)
    assert len(built) == 1
    # mu's blocks 2 and 3 against the history's blocks 1 and 2
    assert blocks.distance(mu) == F(2, 3)
    assert len(built) == 2


def test_from_pairs_and_uniform_emission_build_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built on the integer path")

    cls = HypothesisClass([Hypothesis("all", ALL)])
    groups = FiniteGroups([from_finite([1]), from_finite([0]) | from_threshold(2)])
    # set up before the patch: the session checks that alpha is a Fraction
    session = GeneratorSession("uniform", cls, groups, F(1, 2), d_star=1)
    monkeypatch.setattr(measures, "Fraction", no_fraction)
    d = RationalDist._from_pairs([(9, 4), (2, 8)], 12)
    assert d.serialize() == [[2, "2/3"], [9, "1/3"]]
    assert d == RationalDist._from_pairs([(2, 2), (9, 1)], 3)
    # a uniform step reads integer counts, not Fraction group weights; after
    # [1, 0, 2] group 1 = {1} is exhausted and its weight moves whole onto 3
    for x in (1, 0, 2):
        mu = session.step(x)
    assert mu.serialize() == [[3, "1/1"]]


def test_items_are_fractions_on_demand():
    d = RationalDist({0: F(1, 2), 5: F(1, 4), 9: F(1, 4)})
    assert d.items() == ((0, F(1, 2)), (5, F(1, 4)), (9, F(1, 4)))
    assert all(type(m) is F for _, m in d.items())
    assert d.serialize() == [[0, "1/2"], [5, "1/4"], [9, "1/4"]]
    assert repr(d) == "RationalDist({0: 1/2, 5: 1/4, 9: 1/4})"
    assert repr(RationalDist.point(3)) == "RationalDist({3: 1})"


def test_empirical_worked():
    # uniform over distinct elements, repeats collapse
    d = empirical([0, 0, 0, 3, 7])
    assert d.items() == ((0, F(1, 3)), (3, F(1, 3)), (7, F(1, 3)))
    assert empirical([1, 2, 1]) == RationalDist({1: F(1, 2), 2: F(1, 2)})
    assert empirical([5]) == RationalDist.point(5)


def test_empirical_permutation_invariant():
    rng = random.Random(61)
    for _ in range(50):
        xs = [rng.randrange(0, 8) for _ in range(rng.randrange(1, 12))]
        ys = xs[:]
        rng.shuffle(ys)
        assert empirical(xs) == empirical(ys)


def test_empirical_rejects_empty():
    with pytest.raises(ValueError):
        empirical([])


def test_induced_probs_worked():
    mu = RationalDist({0: F(1, 2), 1: F(1, 2)})
    c = FiniteGroups([ODDS, from_threshold(1)])  # overlapping at 1
    probs = induced_group_probs(mu, c)
    assert probs == {1: F(1, 2), 2: F(1, 2)}
    mu2 = RationalDist({1: F(1)})
    assert induced_group_probs(mu2, c) == {1: F(1), 2: F(1)}


def test_induced_probs_include_zero_groups():
    c = FiniteGroups([EVENS, ODDS])
    probs = induced_group_probs(RationalDist.point(2), c)
    assert probs == {1: F(1), 2: F(0)}


def test_induced_probs_blocks_touch_only():
    b = BlockPartition(base=2)
    mu = RationalDist({0: F(1, 2), 6: F(1, 2)})
    probs = induced_group_probs(mu, b)
    assert probs == {1: F(1, 2), 3: F(1, 2)}
    assert 2 not in probs  # untouched blocks are omitted


def test_group_empirical_worked():
    c = FiniteGroups([from_finite([0, 1]), from_finite([1, 2]) | from_threshold(3)])
    probs = group_empirical([0, 2], c)
    assert probs == {1: F(1, 2), 2: F(1, 2)}


def test_overlap_makes_masses_exceed_one():
    c = FiniteGroups([ODDS, from_threshold(1)])
    probs = induced_group_probs(RationalDist({0: F(1, 2), 1: F(1, 2)}), c)
    # 1 counts toward both groups
    probs2 = induced_group_probs(RationalDist.point(1), c)
    assert sum(probs2.values()) == F(3, 2) or sum(probs.values()) <= F(3, 2)
    assert sum(probs2.values()) == F(2)


def test_sup_distance_worked():
    p = {1: F(1), 2: F(1, 2)}
    q = {1: F(1, 2), 2: F(1, 2)}
    assert sup_distance(p, q) == F(1, 2)


def test_sup_distance_handles_missing_keys():
    assert sup_distance({1: F(1)}, {2: F(1)}) == F(1)
    assert sup_distance({}, {}) == F(0)


def test_sup_distance_is_a_metric():
    rng = random.Random(67)
    for _ in range(100):
        vecs = []
        for _ in range(3):
            vecs.append({i: F(rng.randrange(0, 5), 4) for i in range(3)})
        a, b, c = vecs
        assert sup_distance(a, a) == 0
        assert sup_distance(a, b) == sup_distance(b, a)
        assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c)


def test_is_alpha_representative_worked():
    c = FiniteGroups([from_finite([1]), from_finite([0]) | from_threshold(2)])
    mu = RationalDist.point(3)
    prefix = [1, 0, 2]
    # group shares: 1/3 vs 2/3 in the prefix; mu puts 0 and 1 on them
    ok, dist = is_alpha_representative(mu, prefix, c, F(1, 2))
    assert ok and dist == F(1, 3)
    ok, dist = is_alpha_representative(mu, prefix, c, F(1, 4))
    assert not ok and dist == F(1, 3)


def test_distance_reads_groups_either_side_touches():
    b = BlockPartition(2)  # blocks {0, 1}, {2..5}, {6..13}, ...
    tally = GroupTally(b)
    with pytest.raises(ValueError, match="empty prefix is undefined"):
        tally.distance(RationalDist.point(0))
    for x in (0, 1, 2):  # blocks 1 and 2: 2/3 and 1/3
        tally.add(x)
    # mu only on block 3, which the history does not touch
    assert tally.distance(RationalDist.point(10)) == F(1)
    # mu on block 2 only: block 1 is the history's alone
    assert tally.distance(RationalDist.uniform([3, 4])) == F(2, 3)
    assert tally.distance(RationalDist({0: F(2, 3), 5: F(1, 3)})) == 0
    for mu in (RationalDist.point(10), RationalDist.uniform([1, 3, 12])):
        assert tally.distance(mu) == sup_distance(induced_group_probs(mu, b),
                                                  tally.weights())


def test_representative_boundary_is_inclusive():
    c = FiniteGroups([EVENS, ODDS])
    mu = RationalDist.point(2)
    # empirical split 1/2 each; mu gives 1 and 0; distance exactly 1/2
    ok, dist = is_alpha_representative(mu, [0, 1], c, F(1, 2))
    assert ok and dist == F(1, 2)
    ok, _ = is_alpha_representative(mu, [0, 1], c, F(49, 100))
    assert not ok


@pytest.mark.parametrize("alpha, dist", [
    (F(1, 3), F(1, 3)), (F(1, 3), F(1, 3) + F(1, 3 * 10 ** 15)),
    (0, F(0)), (0, F(1, 10 ** 15)), (1, F(1)), (F(1), F(1))])
def test_alpha_boundary_in_integers_matches_fraction_comparison(alpha, dist):
    # group 1 holds only 0, which is the whole prefix: mu puts 1 - dist on
    # it and dist on 1, so the distance is dist, exactly alpha or just above
    c = FiniteGroups([from_finite([0]), from_threshold(1)])
    masses = {0: 1 - dist, 1: dist} if 0 < dist < 1 else {int(dist): F(1)}
    ok, got = is_alpha_representative(RationalDist(masses), [0], c, alpha)
    assert got == dist
    assert ok is (dist <= alpha)
    assert ok is (dist == alpha)


def test_serialize_round_trip():
    d = RationalDist({4: F(2, 3), 3: F(1, 3)})
    ser = d.serialize()
    assert ser == [[3, "1/3"], [4, "2/3"]]
    rebuilt = RationalDist({x: parse_fraction(s) for x, s in ser})
    assert rebuilt == d


def test_parse_and_format_fraction():
    assert parse_fraction("2/3") == F(2, 3)
    assert parse_fraction("1") == F(1)
    assert format_fraction(F(6, 4)) == "3/2"
    assert format_fraction(F(2)) == "2/1"
    assert parse_fraction(format_fraction(F(2))) == F(2)
    for bad in ("0.5", "2/0", "", "a/b", "1/2/3"):
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_partition_marginals_sum_to_one():
    rng = random.Random(71)
    c = FiniteGroups([EVENS, ODDS])
    for _ in range(50):
        xs = [rng.randrange(0, 10) for _ in range(rng.randrange(1, 9))]
        probs = induced_group_probs(empirical(xs), c)
        assert sum(probs.values()) == 1


def _collections(rng):
    """Overlapping finite families and block partitions, with and without
    prefix sizes."""
    pool = [EVENS, ODDS, from_threshold(5), from_finite([0, 1, 2, 3, 4]),
            from_threshold(1000), multiples(3), multiples(7),
            from_finite([1, 2047, 2048, 4095]), ALL]
    for _ in range(4):
        yield FiniteGroups(rng.sample(pool, rng.randrange(1, 5)))
        sizes = tuple(rng.randrange(1, 40) for _ in range(rng.randrange(3)))
        yield BlockPartition(rng.randrange(2, 5), sizes)
    yield FiniteGroups([EVENS, multiples(4), from_threshold(2048)])
    yield BlockPartition(2)


def _support(rng, c):
    """Elements up to several thousand, many of them on block boundaries."""
    xs = {rng.randrange(5000) for _ in range(20)}
    if isinstance(c, BlockPartition):
        for k in rng.sample(range(1, 9), 4):
            lo, hi = c.block_range(k)
            xs |= {lo, hi - 1, hi}
    else:
        xs |= {0, 4, 5, 999, 1000, 2047, 2048, 4095, 4096}
    return rng.sample(sorted(xs), rng.randrange(1, len(xs) + 1))


def _masses_by_element(rng, xs):
    raw = {x: rng.randrange(1, 30) for x in xs}
    total = sum(raw.values())
    return {x: F(w, total) for x, w in raw.items()}


def _group_mass_oracle(masses, c):
    """Group masses summed one element at a time: by membership in each
    group of a finite family, by the block ranges of a partition (listing
    only the blocks that hold an element)."""
    if isinstance(c, FiniteGroups):
        return {i: sum((m for x, m in masses.items() if x in c.group(i)), F(0))
                for i in c.indices()}
    out = {}
    k, top = 1, max(masses)
    while True:
        lo, hi = c.block_range(k)
        if lo > top:
            return out
        inside = [m for x, m in masses.items() if lo <= x < hi]
        block = c.group(k)
        assert all((x in block) == (lo <= x < hi) for x in masses)
        if inside:
            out[k] = sum(inside, F(0))
        k += 1


def test_group_masses_match_a_per_element_sum():
    rng = random.Random(2024)
    for c in _collections(rng):
        for _ in range(3):
            xs = _support(rng, c)
            masses = _masses_by_element(rng, xs)
            assert induced_group_probs(RationalDist(masses), c) == \
                _group_mass_oracle(masses, c)
            stream = xs + rng.sample(xs, len(xs) // 2)
            rng.shuffle(stream)
            uniform = {x: F(1, len(xs)) for x in xs}
            assert group_empirical(stream, c) == _group_mass_oracle(uniform, c)
            tally = GroupTally(c)
            for x in stream:
                tally.add(x)
            assert tally.weights() == _group_mass_oracle(uniform, c)


def test_prefix_view_reads_as_the_tuple_of_its_items():
    items = [3, 1, 4, 1, 5]
    v, t = PrefixView(items, 4), (3, 1, 4, 1)
    assert isinstance(v, Sequence) and len(v) == 4
    assert [v[i] for i in range(-4, 4)] == [t[i] for i in range(-4, 4)]
    for i in (4, -5):
        with pytest.raises(IndexError):
            v[i]
    for cut in (slice(1, 3), slice(None, None, -1), slice(None, None, 2),
                slice(-2, None), slice(5, None), slice(-9, 9),
                slice(3, 0, -2), slice(None, -1)):
        assert v[cut] == t[cut]
    assert 4 in v and 1 in v and 5 not in v  # 5 is the list's, not the view's
    assert v == t and t == v and hash(v) == hash(t)
    assert v != t[:3] and v != list(t) and v != PrefixView(items, 3)
    other = PrefixView(list(t) + [2], 4)
    assert v == other and hash(v) == hash(other)
    # the list grows; the view stays the first four items
    items.extend([9, 2, 6])
    assert len(v) == 4 and list(v) == list(t) and 9 not in v
    assert v == t and v[-1] == 1 and v[2:] == (4, 1)
    assert PrefixView(items, 0) == () and not PrefixView(items, 0)
    with pytest.raises(ValueError):
        PrefixView(items, 9)


def _counting_groups():
    """A fresh two-group collection, so no remembered tally applies, and the
    elements it is asked to place, in order: `GroupTally.add` places each
    new element once, through `owners`."""
    c = FiniteGroups([EVENS, ODDS])
    placed = []
    owners = c.owners

    def counting(x):
        placed.append(x)
        return owners(x)

    c.owners = counting
    return c, placed


def test_prefix_tally_counts_each_element_of_a_growing_list_once():
    c, placed = _counting_groups()
    items = []
    for x in range(60):
        items.append(x)
        tally = prefix_tally(PrefixView(items, len(items)), c)
        assert len(tally.seen) == len(items)
    assert placed == list(range(60))
    assert tally.weights() == {1: F(1, 2), 2: F(1, 2)}
    # the same view again, and a longer one, count nothing old
    del placed[:]
    prefix_tally(PrefixView(items, 60), c)
    items.append(60)
    prefix_tally(PrefixView(items, 61), c)
    assert placed == [60]
    # a shorter view counts from scratch
    del placed[:]
    assert prefix_tally(PrefixView(items, 5), c).weights() == \
        {1: F(3, 5), 2: F(2, 5)}
    assert placed == list(range(5))
    # a view of another list that does not start with the last prefix
    # counts from scratch; one that does is compared whole, as a tuple is,
    # and counts only what it adds
    del placed[:]
    prefix_tally(PrefixView([7, 1, 2, 3, 4, 5], 6), c)
    assert placed == [7, 1, 2, 3, 4, 5]
    del placed[:]
    prefix_tally(PrefixView([7, 1, 2, 3, 4, 5, 8], 7), c)
    assert placed == [8]


def _outcomes(prefixes, c):
    """prefix_tally's answer on each prefix in turn: the tally's weights,
    or the error text."""
    out = []
    for prefix in prefixes:
        try:
            out.append(prefix_tally(prefix, c).weights())
        except ValueError as e:
            out.append(str(e))
    return out


@pytest.mark.parametrize("tail", [[1.0], [3.0], [-1], ["x"], [1.0, 3.0],
                                  [3, F(3)], [F(3), 3]])
def test_a_view_rejects_a_non_int_suffix_as_a_tuple_does(tail):
    # a non-int is rejected, new or equal to a seen int, and the view
    # answers as the tuple does
    items = [1, 2]
    views = [PrefixView(items, 2)]
    for x in tail:
        items.append(x)
        views.append(PrefixView(items, len(items)))
    tuples = [tuple(v) for v in views]
    assert _outcomes(views, _counting_groups()[0]) == \
        _outcomes(tuples, _counting_groups()[0])
