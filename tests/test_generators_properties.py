"""Property tests for the integer step constructions.

The uniform assembly on integer counts equals its `Fraction`-weight
predecessor in `oracles.py` (output and error text) on random counts,
live/exhausted splits and alphas, including both out-of-contract fallbacks.
`HypothesisClass.critical_among`, which remembers each subset verdict,
equals a fresh subset scan on random classes and repeated queries.
`is_feasible`, which builds its LP rows in integers, skips passes that are
infeasible on their face and decides a pass with one candidate without the
LP, returns the witness that `oracles.fraction_feasible` finds from
membership scans and the rational tableau, as int numerators over one int
denominator, on random histories, collections and alphas, and on fixed
one-candidate boundary cases.  On a collection that is no cover, the mass
may sit outside every group, and the grid search `oracles.mesh_feasible`
agrees.

A session of every kind, which re-emits its last output on a repeat that
leaves the depth unchanged, emits what the pure `*_emit` replay emits on the
history so far, step by step on streams with repeats, and a non-uniform
session plays the uniform construction of the class prefix its thresholds
name.  An in-limit session makes the feasibility calls, with the
witnesses, selects the index and plays the output of `oracles.ScanLimit`,
which rebuilds consistency, criticality and feasibility from the history
alone, while its `holding` masks agree with membership.  The state an
in-limit session keeps from step to step, the piece heads of each
consistent support and the critical indices, equals what membership scans
build from the history alone, on seeded streams with repeats over the
bundled instances and the i01-i06 scenarios.  A uniform or non-uniform
session emits at every step what `oracles.scan_uniform` builds by
membership scans, also on streams whose new elements drop a hypothesis
after d_star, where the session replaces the cursor list it kept.  While
the consistent indices stand, a uniform step calls neither
`StreamState.heads` nor `PeriodicSet.__hash__`, and a point mass is not
built through `RationalDist._assign`.  On block partitions, over 200-500
step streams (the naturals in order, and seeded streams with repeats that
drop hypotheses), every witness read from the kept block ledgers equals
`oracles.fraction_feasible_blocks` at every step.  Wherever a session plays the
empirical distribution, which it reads from its sorted stream state, that
equals `measures.empirical` of the history, hash and serialization
included."""

import random
from fractions import Fraction
from functools import reduce
from itertools import islice
from operator import and_
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from instances import dimension_instances, feasibility_instances
from oracles import (ScanLimit, consistent_among, fraction_assemble_uniform,
                     fraction_feasible, fraction_feasible_blocks,
                     is_subset_scan, mesh_feasible, scan_uniform,
                     unseen_cells)
from repgen import generators
from repgen.generators import (FeasibilityEntry, FeasibilityWitness,
                               GeneratorSession, StreamState, _assemble_uniform,
                               is_feasible)
from repgen.groups import BlockPartition, FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.measures import RationalDist, empirical
from repgen.periodic import (ALL, EVENS, ODDS, PeriodicSet, from_finite,
                             from_threshold, multiples)
from repgen.scenario import build_session, load_scenario, materialize_stream
from test_generators import (_assert_same_state, _count_lp_calls,
                             nonuniform_by_definition, nonuniform_prefix,
                             replay)

F = Fraction


@st.composite
def assemblies(draw):
    """(counts, d, avail, exhausted, alpha, history) as `_uniform` passes
    them: counts per group of d distinct elements, a distinct unseen element
    per live group.  Half the draws give a partition's counts, which sum to
    d; the other half draw each count on its own, as overlapping groups
    would, which is out of contract."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 12))
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=k - 1,
                                    max_size=k - 1)))
        counts = {i: hi - lo for i, (lo, hi)
                  in enumerate(zip([0] + cuts, cuts + [d]), 1)}
    else:
        counts = {i: draw(st.integers(0, d)) for i in range(1, k + 1)}
    live = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    elems = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k,
                          unique=True))
    avail = {i: elems[i - 1] for i in range(1, k + 1) if live[i - 1]}
    exhausted = [i for i in range(1, k + 1) if not live[i - 1]]
    b = draw(st.integers(1, 12))
    alpha = F(draw(st.integers(0, b)), b)
    history = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    return counts, d, avail, exhausted, alpha, history


def outcome(assemble, *args):
    try:
        return "ok", assemble(*args)
    except ValueError as e:
        return "ValueError", str(e)


@settings(max_examples=500, deadline=None)
@given(assemblies())
# chunked redistribution that runs out of live groups (rem > 0)
@example(({1: 5, 2: 1, 3: 0}, 6, {2: 10, 3: 11}, [1], F(1, 10), [0]))
# whole deficit that no live group can absorb (the for ... else branch):
# reachable only when the weights sum past 1, so both raise
@example(({1: 2, 2: 1}, 2, {1: 7}, [2], F(1, 2), [0]))
# every group exhausted: the empirical fallback
@example(({1: 1, 2: 1}, 2, {}, [1, 2], F(1, 3), [4, 0, 4]))
def test_assembly_equals_fraction_reference(args):
    counts, d, avail, exhausted, alpha, history = args
    pi = {i: F(n, d) for i, n in counts.items()}
    assert outcome(_assemble_uniform, counts, d, avail, exhausted, alpha,
                   history) \
        == outcome(fraction_assemble_uniform, pi, avail, exhausted, alpha,
                   history)


# Small moduli and thresholds make containment between supports common.
infinite_sets = st.builds(
    lambda t, m, residues, prefix: PeriodicSet(
        t, m, frozenset(r % m for r in residues),
        frozenset(x for x in prefix if x < t)),
    st.integers(0, 4), st.integers(1, 4),
    st.frozensets(st.integers(0, 3), min_size=1),
    st.frozensets(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(st.lists(infinite_sets, min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(1, 6),
                          st.frozensets(st.integers(1, 6))), max_size=25))
def test_cached_criticality_equals_a_subset_scan(supports, queries):
    cls = HypothesisClass([Hypothesis(f"h{j}", s)
                           for j, s in enumerate(supports, 1)])
    size = len(supports)
    for n, indices in queries:
        n = min(n, size)
        consistent = sorted(i for i in indices if i <= size)
        expected = n in consistent and all(
            cls.get(n).support.is_subset(cls.get(i).support)
            for i in consistent if i < n)
        assert cls.critical_among(n, consistent) == expected


# -- feasibility against the Fraction-row reference ---------------------------

ALPHAS = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)])
small_sets = st.builds(
    lambda t, m, residues, prefix: PeriodicSet(
        t, m, frozenset(r % m for r in residues),
        frozenset(x for x in prefix if x < t)),
    st.integers(0, 6), st.integers(1, 4),
    st.frozensets(st.integers(0, 3)),
    st.frozensets(st.integers(0, 5)))


@st.composite
def finite_collections(draw):
    """Up to three groups: overlapping sets (a cover when ALL is added, as
    the in-limit generator requires), or a partition of the naturals by
    residue mod m."""
    if draw(st.booleans()):
        sets = draw(st.lists(small_sets.filter(lambda s: not s.is_empty()),
                             min_size=1, max_size=3))
        if draw(st.booleans()):
            sets.append(ALL)
        return FiniteGroups(sets)
    m = draw(st.integers(2, 4))
    owner = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    return FiniteGroups([PeriodicSet(0, m, {r for r in range(m) if owner[r] == g})
                         for g in sorted(set(owner))])


@st.composite
def feasibility_cases(draw):
    """(h, collection, history, alpha) with an infinite support, as every
    hypothesis has.  Some draws take a collection of finite groups and a
    history that holds every support element inside them, so only the cell
    outside every group has a candidate; block draws take base 2 or 3 and a
    short explicit prefix."""
    support = draw(infinite_sets)
    h = Hypothesis("h", support)
    kind = draw(st.sampled_from(["finite", "blocks", "outside-only"]))
    history = draw(st.lists(st.integers(0, 24), min_size=1, max_size=10))
    if kind == "finite":
        c = draw(finite_collections())
    elif kind == "blocks":
        c = BlockPartition(draw(st.integers(2, 3)),
                           draw(st.lists(st.integers(1, 3), max_size=3)))
    else:
        groups = draw(st.lists(st.frozensets(st.integers(0, 12), min_size=1),
                               min_size=1, max_size=3))
        c = FiniteGroups([from_finite(g) for g in groups])
        history += sorted(x for g in groups for x in g if x in support)
    return h, c, history, draw(ALPHAS)


NO_COVER = (Hypothesis("all", ALL), FiniteGroups([from_finite([0, 1])]),
            [0, 5], F(0))


def triples(w):
    """A package witness as the reference writes one: (cell, element, mass)
    triples, or None."""
    return w if w is None else tuple(
        (e.cell, e.element, Fraction(e.num, w.den)) for e in w.entries)


def assert_same_witness(h, c, history, alpha):
    got = is_feasible(h, c, history, alpha)
    assert triples(got) == fraction_feasible(h, c, history, alpha)
    if got is not None:
        # equality of num / den alone would accept a float numerator
        assert type(got.den) is int
        assert all(type(e.num) is int for e in got.entries)
        assert len({e.element for e in got.entries}) == len(got.entries)


@settings(max_examples=400, deadline=None)
@given(feasibility_cases())
# a banded pass whose lower-end rows steer the vertex: without them the LP
# stops at 5/6 on 6 and 1/6 on 1, not at the reference's three masses
@example((Hypothesis("all", ALL), FiniteGroups([EVENS, ODDS, from_threshold(3)]),
          [0, 4, 2], F(1, 2)))
# no cover: the group {0, 1} weighs 1/2 after 0, 5, which 1/2 on 1 inside it
# plus 1/2 on 2 outside it tracks exactly
@example(NO_COVER)
def test_feasibility_equals_fraction_reference(case):
    assert_same_witness(*case)


def test_mass_outside_every_group_tracks_a_non_cover():
    w = is_feasible(*NO_COVER)
    assert triples(w) == (((1,), 1, F(1, 2)), ((0,), 2, F(1, 2)))
    assert mesh_feasible(*NO_COVER)


def test_feasibility_equals_fraction_reference_on_mesh_instances():
    # criterion 7's instances, with their boundary witnesses
    for inst in feasibility_instances():
        assert_same_witness(inst["h"], inst["groups"], inst["history"],
                            inst["alpha"])


# One candidate cell decides both passes by its point mass, without the LP.
# The cover {0, 1, 2}, {2, 3, ...} leaves evens the candidate 4 after
# 0, 1, 2, 3, whose point mass is 3/4 off the first group's weight 3/4 and
# 1/2 off the second's; the cover all, evens leaves it the candidate 4 after
# 0, 2, whose point mass tracks both weights exactly; the single group
# {0, 1, 2, 3}, which is no cover, leaves it only the candidate 4 outside
# the group after 0, 2, whose point mass is exactly 1 off the weight 1.
OVERLAP = FiniteGroups([from_finite([0, 1, 2]), from_threshold(2)])
NESTED = FiniteGroups([ALL, EVENS])
FINITE = FiniteGroups([from_finite([0, 1, 2, 3])])


@pytest.mark.parametrize("c, history, alpha, feasible", [
    (OVERLAP, [0, 1, 2, 3], F(3, 4), True),    # distance alpha: non-strict
    (OVERLAP, [0, 1, 2, 3], F(2, 4), False),   # the next alpha over 4
    (NESTED, [0, 2], F(0), True),              # exact tracking at alpha 0
    (FINITE, [0, 2], F(1), True),              # outside the group, at 1
])
def test_at_most_one_candidate_is_decided_without_the_lp(
        monkeypatch, c, history, alpha, feasible):
    h = Hypothesis("evens", EVENS)
    calls = _count_lp_calls(monkeypatch)
    w = is_feasible(h, c, history, alpha)
    assert calls == []
    assert (w is not None) == feasible
    if feasible:
        assert w.distribution() == RationalDist.point(4)
    assert_same_witness(h, c, history, alpha)


def test_a_one_candidate_inlimit_step_builds_no_witness_record(monkeypatch):
    # over i01's bundled stream: the in-limit session emits the point mass
    # of a one-candidate witness without building a FeasibilityEntry or a
    # FeasibilityWitness, and without the shared witness-to-distribution
    # helper; `is_feasible` on the same history still returns the public
    # witness the Fraction reference finds
    s = load_scenario(str(SCENARIO_DIR / "i01-nested3-overlap.json"))
    session = build_session(s)
    built = []
    for record in (FeasibilityEntry, FeasibilityWitness):
        def counting(cls, *args, new=record.__new__, **kwargs):
            built.append(cls.__name__)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(record, "__new__", counting)
    distribution = generators._distribution

    def helper(*args):
        built.append("_distribution")
        return distribution(*args)

    monkeypatch.setattr(generators, "_distribution", helper)
    xs, decided, mu = [], [], None
    for x in materialize_stream(s):
        xs.append(x)
        before, last = len(built), mu
        mu = session.step(x)
        n = session.last_selected
        if mu is not last and n is not None \
                and len(session.state.heads(s.cls.get(n).support)) == 1:
            assert len(built) == before, xs
            decided.append((n, tuple(xs), mu))
    monkeypatch.undo()
    assert set(built) <= {"_distribution"}
    assert len(decided) > 100
    for n, history, mu in decided:
        h = s.cls.get(n)
        assert_same_witness(h, s.groups, history, s.alpha)
        w = is_feasible(h, s.groups, history, s.alpha)
        assert len(w.entries) == 1 and w.den == 1
        assert mu == w.distribution() == RationalDist.point(w.entries[0].element)


# -- sessions against replays --------------------------------------------------

def tail(n):
    """h_n of the provider-backed class of tails: the naturals from n - 1 on."""
    return Hypothesis(f"from{n - 1}", from_threshold(n - 1))


@st.composite
def classes(draw):
    """1-4 hypotheses with small random supports, or the provider-backed
    class of tails, with the number of steps a stream of it may run (three
    times the class size, and 12 for the tails)."""
    if draw(st.integers(0, 4)) == 0:
        return HypothesisClass([], provider=tail), 12
    supports = draw(st.lists(infinite_sets, min_size=1, max_size=4))
    return (HypothesisClass([Hypothesis(f"h{j}", s)
                             for j, s in enumerate(supports, 1)]),
            3 * len(supports))


def partitions():
    """Finite partitions of the naturals: residues mod m, or {0, 1} and the
    rest, or each of {0}, {1} alone and the rest."""
    return st.one_of(
        finite_collections().filter(lambda c: c.validate().partition),
        st.just(FiniteGroups([from_finite([0, 1]), from_threshold(2)])),
        st.just(FiniteGroups([from_finite([0]), from_finite([1]),
                              from_threshold(2)])))


@st.composite
def streams(draw, cls, steps):
    """Up to `steps` elements: about a third repeat an earlier one, the rest
    come from the first ten members of a class member's support."""
    size = 4 if cls.extendable else cls.materialized_count()
    target = cls.get(draw(st.integers(1, size)))
    pool = list(islice(target.support.members(), 10))
    xs = []
    for _ in range(draw(st.integers(1, steps))):
        if xs and draw(st.integers(0, 2)) == 0:
            xs.append(draw(st.sampled_from(xs)))
        else:
            xs.append(draw(st.sampled_from(pool)))
    return xs


@st.composite
def session_games(draw):
    """(kind, class, groups, alpha, d_star, stream) that `GeneratorSession`
    accepts: uniform and non-uniform on a finite partition (uniform on a
    finite class, with an explicit d_star), in-limit on a partition, a
    cover or blocks, empirical on any of them."""
    kind = draw(st.sampled_from(["empirical", "uniform", "nonuniform",
                                 "inlimit"]))
    cls, steps = draw(classes().filter(
        lambda c: kind != "uniform" or not c[0].extendable))
    if kind in ("uniform", "nonuniform"):
        groups = draw(partitions())
    else:
        groups = draw(partitions() | finite_collections().filter(
            lambda c: c.validate().covers) | st.builds(
            BlockPartition, st.integers(2, 3),
            st.lists(st.integers(1, 3), max_size=3).map(tuple)))
    alpha = draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]))
    d_star = draw(st.integers(1, 4)) if kind == "uniform" else None
    return kind, cls, groups, alpha, d_star, draw(streams(cls, steps))


@settings(max_examples=300, deadline=None)
@given(session_games())
def test_a_session_equals_a_replay_on_streams_with_repeats(game):
    # and a non-uniform session emits what its definition asks for
    kind, cls, groups, alpha, d_star, xs = game
    session = GeneratorSession(kind, cls, groups, alpha, d_star=d_star)
    thresholds = []
    for t in range(1, len(xs) + 1):
        history = xs[:t]
        mu = session.step(xs[t - 1])
        game = kind, cls, groups, alpha, d_star, history
        assert mu.serialize() == replay(*game).serialize(), history
        if kind == "nonuniform":
            assert mu == nonuniform_by_definition(cls, groups, alpha, history,
                                                  thresholds), history
        if kind != "inlimit":
            assert session.last_selected is None
        _assert_same_state(session.state, StreamState(cls, groups, history))


@settings(max_examples=200, deadline=None)
@given(session_games().filter(lambda g: g[0] != "nonuniform"))
def test_sorted_state_empirical_equals_the_checked_one(game):
    # the empirical kind on every step, uniform before d_star distinct
    # elements, in-limit where nothing is selected; the streams repeat
    # elements and take them out of order
    kind, cls, groups, alpha, d_star, xs = game
    session = GeneratorSession(kind, cls, groups, alpha, d_star=d_star)
    for t in range(1, len(xs) + 1):
        history = xs[:t]
        mu = session.step(xs[t - 1])
        if (kind == "empirical"
                or kind == "uniform" and len(set(history)) < d_star
                or kind == "inlimit" and session.last_selected is None):
            want = empirical(history)
            assert (mu, hash(mu), mu.serialize()) \
                == (want, hash(want), want.serialize()), history
            assert type(mu.support()) is tuple


# -- uniform sessions against their definition -----------------------------------

ZERO_ONE_REST = FiniteGroups([from_finite([0, 1]), from_threshold(2)])
NESTED = HypothesisClass([Hypothesis("all", ALL), Hypothesis("evens", EVENS),
                          Hypothesis("mult4", multiples(4))])
FROM2_EVENS = HypothesisClass([Hypothesis("from2", from_threshold(2)),
                               Hypothesis("evens", EVENS)])
# Streams on which a new element changes the consistent indices after
# d_star distinct elements, so the session must replace the cursor list it
# kept: mult4 and then evens dropped, under both kinds (the non-uniform
# thresholds of NESTED at 1/2 are all 4), and under the non-uniform kind a
# deeper prefix that appends evens at the second distinct element
# (thresholds 1 and 2) before 3 drops it.
DROP_GAMES = [
    ("uniform", NESTED, ZERO_ONE_REST, F(1, 2), 1,
     [0, 4, 8, 4, 2, 6, 1, 3, 5]),
    ("nonuniform", NESTED, ZERO_ONE_REST, F(1, 2), None,
     [0, 4, 8, 12, 2, 6, 6, 1, 3]),
    ("nonuniform", FROM2_EVENS, ZERO_ONE_REST, F(1, 2), None,
     [2, 4, 6, 3, 5, 3]),
]


def _uniform_by_scan(kind, cls, groups, alpha, d_star, history, thresholds):
    """What `oracles.scan_uniform` builds for a uniform or non-uniform step
    on the history; a non-uniform step reads the class prefix i_t at d_star
    n_{i_t}."""
    if kind == "uniform":
        return scan_uniform(cls, groups, alpha, d_star, history)
    i_t, n_i = nonuniform_prefix(cls, groups, alpha, history, thresholds)
    return scan_uniform(cls, groups, alpha, n_i, history, i_t)


@settings(max_examples=300, deadline=None)
@given(session_games().filter(lambda g: g[0] in ("uniform", "nonuniform")))
@example(DROP_GAMES[0])
@example(DROP_GAMES[1])
@example(DROP_GAMES[2])
def test_uniform_sessions_equal_the_scan_at_every_step(game):
    # the session keeps the closure's cursors from step to step; the scan
    # finds the consistent members, the closure and each group's least
    # unseen closure element by membership from the history alone
    kind, cls, groups, alpha, d_star, xs = game
    session = GeneratorSession(kind, cls, groups, alpha, d_star=d_star)
    thresholds = []
    for t in range(1, len(xs) + 1):
        mu = session.step(xs[t - 1])
        want = _uniform_by_scan(*game[:5], xs[:t], thresholds)
        assert mu.serialize() == want.serialize(), xs[:t]


def test_a_dropped_hypothesis_replaces_the_kept_cursor_list():
    # on each of DROP_GAMES the consistent indices change after d_star, the
    # kept cursor list is replaced then and only then, and every output
    # equals the scan's
    for game in DROP_GAMES:
        kind, cls, groups, alpha, d_star, xs = game
        session = GeneratorSession(kind, cls, groups, alpha, d_star=d_star)
        state = session.state
        thresholds, replaced = [], 0
        for t in range(1, len(xs) + 1):
            kept, consistent = state._closure_cursors, state.consistent
            mu = session.step(xs[t - 1])
            assert mu == _uniform_by_scan(*game[:5], xs[:t], thresholds)
            if kept is not None:
                assert (state._closure_cursors is kept) \
                    == (state.consistent == consistent), (game, xs[:t])
                replaced += state._closure_cursors is not kept
        assert replaced >= 1, game


def test_a_kept_closure_step_looks_nothing_up(monkeypatch):
    # over the bundled streams of u01-u12, every element new: once a
    # session has built its cursor list for a closure, a later step under
    # the same consistent indices calls neither `StreamState.heads` nor
    # `PeriodicSet.__hash__`, and an output with one element, a point mass,
    # is not built through `RationalDist._assign`; every output equals the
    # scan's
    calls = []
    for owner, name in ((StreamState, "heads"), (PeriodicSet, "__hash__"),
                        (RationalDist, "_assign")):
        def counting(*args, original=getattr(owner, name), name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
    played, kept_steps, points = [], 0, 0
    for path in sorted(SCENARIO_DIR.glob("u*.json")):
        s = load_scenario(str(path))
        session = build_session(s)
        state = session.state
        xs = []
        for x in materialize_stream(s):
            xs.append(x)
            kept, consistent = state._closure_cursors, state.consistent
            before = len(calls)
            mu = session.step(x)
            made = calls[before:]
            if kept is not None and state.consistent == consistent:
                assert not {"heads", "__hash__"} & {*made}, (s.name, xs)
                assert state._closure_cursors is kept
                kept_steps += 1
            if len(mu.support()) == 1:
                assert "_assign" not in made, (s.name, xs)
                points += len(xs) >= session.d_star
            played.append((s, session.d_star, tuple(xs), mu))
    monkeypatch.undo()
    assert kept_steps >= 200 and points >= 200
    for s, d_star, history, mu in played:
        assert mu == scan_uniform(s.cls, s.groups, s.alpha, d_star, history)


# -- the in-limit session against its definition ---------------------------------

def multiple(n):
    """h_n of the provider-backed class of multiples: every n-th natural, so
    each new member can change the period of the membership mask."""
    return Hypothesis(f"mult{n}", multiples(n))


@st.composite
def scan_games(draw):
    """(make_class, groups, alpha, stream) for an in-limit session: 1-4
    hypotheses with small random supports, or the provider-backed tails or
    multiples, which materialize members as the depth grows; a partition,
    an overlapping cover or blocks; and a stream with repeats.  Small
    random supports often miss a cell of the collection entirely.
    `make_class` builds a fresh class, so the session and the replay share
    no memo."""
    provider = draw(st.sampled_from([None, None, None, tail, multiple]))
    if provider is None:
        members = [Hypothesis(f"h{j}", s) for j, s in enumerate(
            draw(st.lists(infinite_sets, min_size=1, max_size=4)), 1)]
        make, steps = (lambda: HypothesisClass(members)), 3 * len(members)
    else:
        make, steps = (lambda: HypothesisClass([], provider=provider)), 12
    groups = draw(partitions() | finite_collections().filter(
        lambda c: c.validate().covers) | st.builds(
        BlockPartition, st.integers(2, 3),
        st.lists(st.integers(1, 3), max_size=3).map(tuple)))
    alpha = draw(st.sampled_from([F(0), F(1, 4), F(1, 2), F(2, 3), F(1)]))
    return make, groups, alpha, draw(streams(make(), steps))


@settings(max_examples=300, deadline=None)
@given(scan_games())
# an overlapping cover whose odd cells the supports evens and mult4 miss
@example((lambda: HypothesisClass([Hypothesis("all", ALL),
                                   Hypothesis("evens", EVENS),
                                   Hypothesis("mult4", multiples(4))]),
          FiniteGroups([EVENS, ODDS, from_threshold(3)]), F(1, 2),
          [0, 4, 2, 4, 8, 1, 8, 12]))
# members materialized mid-stream, repeats included
@example((lambda: HypothesisClass([], provider=multiple),
          FiniteGroups([from_finite([0, 1, 2, 3]), EVENS | from_threshold(4)]),
          F(1, 2), [0, 12, 12, 6, 24, 0, 36, 60, 4]))
def test_inlimit_session_equals_a_replay_through_the_scan(game):
    # at every step: the same feasibility calls with the same witnesses,
    # the same selected index, the same output (the selected witness or
    # the empirical distribution), and consistent indices and `holding`
    # masks that agree with membership
    make, groups, alpha, xs = game
    cls = make()
    session = GeneratorSession("inlimit", cls, groups, alpha)
    scan = ScanLimit(make(), groups, alpha)
    feasible = generators._feasible
    calls = []

    def recorded(state, h, alpha):
        found = feasible(state, h, alpha)
        # the plain (entries, den) witness read as the public one
        calls.append((h.id, found and FeasibilityWitness(
            tuple(map(FeasibilityEntry._make, found[0])), found[1])))
        return found

    seen = set()
    with mock.patch.object(generators, "_feasible", recorded):
        for t, x in enumerate(xs, 1):
            calls.clear()
            mu = session.step(x)
            want = scan.step(x)
            seen.add(x)
            assert [(hid, triples(w)) for hid, w in calls] \
                == [(scan.cls.get(n).id, w) for n, w in scan.calls], xs[:t]
            assert session.last_selected == scan.last_selected, xs[:t]
            assert mu.serialize() == want.serialize(), xs[:t]
            state = session.state
            assert state.consistent == scan.consistent, xs[:t]
            assert state._mask == sum(1 << (i - 1) for i in state.consistent)
            size = cls.materialized_count()
            mask = reduce(and_, map(cls.holding, seen), (1 << size) - 1)
            assert mask == sum(1 << (i - 1) for i in cls.consistent_indices(
                seen, upto=size)), xs[:t]


# -- the kept in-limit state against one built from scratch ---------------------

SCENARIO_DIR = Path(__file__).parent / "scenarios"


def kept_state_instances():
    """(name, class, groups, alpha) for an in-limit session: the bundled
    dimension and feasibility instances, the i01-i06 scenarios, and the
    provider-backed multiples, whose members materialize as the depth
    grows."""
    out = [(inst["name"], inst["cls"], inst["groups"], inst["alpha"])
           for inst in dimension_instances()]
    out += [(f"{inst['h'].id}@{n}", HypothesisClass([inst["h"]]),
             inst["groups"], inst["alpha"])
            for n, inst in enumerate(feasibility_instances())]
    for path in sorted(SCENARIO_DIR.glob("i0[1-6]-*.json")):
        s = load_scenario(str(path))
        out.append((s.name, s.cls, s.groups, s.alpha))
    out.append(("multiples", HypothesisClass([], provider=multiple),
                FiniteGroups([from_finite([0, 1, 2, 3]),
                              EVENS | from_threshold(4)]), F(1, 2)))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_kept_inlimit_state_equals_one_built_from_scratch(seed):
    # at every step of a seeded stream with repeats: the piece heads of
    # each consistent support are the smallest unseen element of each cell
    # it meets, in `pieces` order (1 before 0 per coordinate), and the kept
    # critical indices are those of a membership and subset scan
    for name, cls, groups, alpha in kept_state_instances():
        rng = random.Random(f"{seed}:{name}")
        size = 4 if cls.extendable else cls.materialized_count()
        pool = [x for n in range(1, size + 1)
                for x in islice(cls.get(n).support.members(), 12)]
        gsets = [groups.group(i) for i in groups.indices()]
        session = GeneratorSession("inlimit", cls, groups, alpha)
        state = session.state
        xs = []
        for _ in range(30):
            xs.append(rng.choice(xs if xs and rng.random() < 1 / 3
                                 else pool))
            session.step(xs[-1])
            consistent = tuple(range(1, state.checked + 1))
            for x in set(xs):
                consistent = consistent_among(cls, consistent, x)
            assert state.consistent == consistent, (name, xs)
            assert state.critical == [
                n for n in reversed(consistent)
                if all(is_subset_scan(cls.get(n).support, cls.get(i).support)
                       for i in consistent if i < n)], (name, xs)
            for n in consistent:
                support = cls.get(n).support
                heads = state.heads(support)
                want = unseen_cells(support, gsets, xs)
                assert dict(heads) == want, (name, n, xs)
                assert [vec for vec, _ in heads] \
                    == sorted(want, reverse=True), (name, n, xs)


# -- the block ledger over long streams ------------------------------------------

# supports for the long block games: nested, overlapping and cofinite, so
# that enumerating one drops the others at different steps
LEDGER_SUPPORTS = (ALL, EVENS, multiples(3), from_threshold(4),
                   ALL - from_finite([1, 5]), ODDS | from_finite([0]))


@st.composite
def ledger_games(draw):
    """(class, blocks, alpha, stream) for an in-limit session on a block
    partition over 200-500 steps.  Either the naturals in order, the
    geometric shape, where each block is shown whole and then left for
    good; or a seeded stream with repeats over 1-3 hypotheses: a quarter of
    the steps repeat a seen element, the rest take the next unseen member
    of one hypothesis's support (after step 40 now and then skipping one,
    which leaves its block live; the first 40 steps skip none, so the
    first block holding a member is exhausted), and part way through the
    stream moves on to another support from 0, which fills holes in
    touched blocks and drops the hypotheses whose supports miss its
    elements."""
    supports = draw(st.lists(st.one_of(st.sampled_from(LEDGER_SUPPORTS),
                                       infinite_sets),
                             min_size=1, max_size=3))
    in_order = draw(st.booleans())
    if in_order:
        supports[0] = ALL
    cls = HypothesisClass([Hypothesis(f"h{j}", s)
                           for j, s in enumerate(supports, 1)])
    blocks = draw(st.builds(BlockPartition, st.integers(2, 3),
                            st.lists(st.integers(1, 3), max_size=3).map(tuple)))
    alpha = draw(st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3),
                                  F(1)]))
    steps = draw(st.integers(200, 500))
    if in_order:
        return cls, blocks, alpha, list(range(steps))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sources = [rng.choice(supports), rng.choice((ALL, *supports))]
    switch = rng.randrange(steps // 4, 3 * steps // 4)
    xs, seen, walk = [], set(), sources[0].members()
    for t in range(steps):
        if t == switch:
            walk = sources[1].members()
        if xs and rng.random() < 0.25:
            xs.append(rng.choice(xs))
            continue
        x = next(walk)
        while x in seen or (t >= 40 and rng.random() < 0.1):
            x = next(walk)
        xs.append(x)
        seen.add(x)
    return cls, blocks, alpha, xs


@settings(max_examples=20, deadline=None)
@given(ledger_games())
@example((HypothesisClass([Hypothesis("all", ALL)]), BlockPartition(2, (2,)),
          F(1, 2), list(range(300))))
@example((HypothesisClass([Hypothesis("all", ALL), Hypothesis("evens", EVENS)]),
          BlockPartition(3, (3,)), F(2, 3), list(range(400))))
def test_block_ledger_witnesses_equal_the_scan_over_long_streams(game):
    # at every step: every feasibility witness the in-limit step computes,
    # and one for each hypothesis still consistent, read from the kept
    # ledgers, equals `oracles.fraction_feasible_blocks` on the history
    # (entries in order, each mass num / den, and den = d * b); the block
    # weights it is given are counted here, by block ranges
    cls, blocks, alpha, xs = game
    session = GeneratorSession("inlimit", cls, blocks, alpha)
    feasible = generators._feasible
    calls = []

    def recorded(state, h, alpha):
        found = feasible(state, h, alpha)
        calls.append((h, found))
        return found

    counts, seen = {}, set()
    for t, x in enumerate(xs, 1):
        if x not in seen:
            seen.add(x)
            k = 1
            while blocks.block_range(k)[1] <= x:
                k += 1
            counts[k] = counts.get(k, 0) + 1
        pihat = {k: F(n, len(seen)) for k, n in counts.items()}
        calls.clear()
        with mock.patch.object(generators, "_feasible", recorded):
            session.step(x)
        consistent = [h for h in map(cls.get, range(
            1, cls.materialized_count() + 1))
            if all(y in h.support for y in seen)]
        calls += [(h, feasible(session.state, h, alpha)) for h in consistent]
        for h, found in calls:
            want = fraction_feasible_blocks(h, blocks, xs[:t], pihat, alpha)
            got = found and tuple((k, e, F(n, found[1]))
                                  for k, e, n in found[0])
            assert got == want, (h.id, xs[:t])
            assert not found or found[1] == len(seen) * alpha.denominator
    # the games reach what the ledger is for: blocks exhausted and kept
    # only in its figures
    assert any(ledger.total for ledger in session.state._ledgers.values())
