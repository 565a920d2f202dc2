"""Property tests for the closed-form dimension on random small instances:
wherever the count-vector search's depth bound B keeps the tuple walk
affordable, it returns the same depth, witness tuple and condition as both
references kept in `oracles.py`; at alpha = 0, where B may be unbounded, its
finite and infinite verdicts agree with a tuple walk two depths further.
Every depth a span of the search names is witnessed: the walk finds a
witness at both ends of a bounded span and at the first three depths of an
unbounded one.
`check_witness` returns what the `Fraction` reference returns on tuples
drawn from a hypothesis's support, against finite and block partitions
(against a finite one also on the tuple of the closure's lone members, one
per group it meets in exactly one element, which often meets condition 2),
and the witness of every instance with d >= 1 forces the uniform
construction at d_star = d, the empirical baseline and the in-limit
generator into a report that `verify_report` accepts.  The uniform construction with d_star
derived as d + 1 meets the paper's guarantee on random streams with
repeats: every step is alpha-representative, and plays only unseen
closure elements once d_star distinct elements are seen, both checked
through the `oracles.py` references and membership.  The non-uniform construction on a provider-backed class has
thresholds that never decrease, and is consistent and alpha-representative
on the target h_i*'s stream from the step that has shown n_i* distinct
elements at a depth of at least i*, checked the same way."""

from fractions import Fraction
from functools import partial
from itertools import combinations, islice, takewhile
from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from oracles import (_tuple_candidate_pool, count_vector_depth_bound,
                     count_vector_gc_dimension, induced_group_probs,
                     rational_check_witness, sup_distance, tuple_gc_dimension)
from repgen.adversaries import gc_witness_adversary, verify_report
from repgen.dimension import (_atoms, _closures, _spans, check_witness,
                              gc_depth, gc_dimension)
from repgen.errors import ConfigError
from repgen.generators import GeneratorSession, nonuniform_thresholds
from repgen.groups import BlockPartition, FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.periodic import PeriodicSet, from_threshold
from test_generators import assert_uniform_guarantee

F = Fraction

ALPHAS = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
# Tuples the reference may decide per example; keeps each example fast.
WALK_BUDGET = 3000


@st.composite
def instances(draw, min_groups=1):
    """A class of 1-3 hypotheses and a partition into `min_groups` to 4
    groups, at least `min_groups` of them nonempty, all built from the
    cells {0}, ..., {t - 1} and the residue classes mod m at or above t
    (1 <= t <= 3, m <= 4); the other groups may be empty.  Supports often
    hold every cell {x}, and half the partitions give each cell a group of
    its own and the residue classes group t + 1 (t >= 2), since exhausted
    singleton groups are what condition 2 weighs against the live ones."""
    singletons = draw(st.booleans())
    t = draw(st.integers(2 if singletons else 1, 3))
    m = draw(st.integers(1, 4))

    def cells_set(prefix, residues):
        return PeriodicSet(t, m, residues, prefix)

    hyps = []
    for n in range(draw(st.integers(1, 3))):
        residues = draw(st.frozensets(st.integers(0, m - 1), min_size=1))
        prefix = draw(st.just(range(t)) | st.frozensets(st.integers(0, t - 1)))
        hyps.append(Hypothesis(f"h{n + 1}", cells_set(prefix, residues)))
    if singletons:
        k = t + 1
        owner = list(range(1, k)) + [k] * m
    else:
        k = draw(st.integers(min_groups, 4))
        # residue classes lean to group k, so that more groups are finite
        owner = (draw(st.lists(st.integers(1, k), min_size=t, max_size=t))
                 + draw(st.lists(st.integers(1, k) | st.just(k),
                                 min_size=m, max_size=m)))
        assume(len(set(owner)) >= min_groups)
    groups = [cells_set([x for x in range(t) if owner[x] == i],
                        [r for r in range(m) if owner[t + r] == i])
              for i in range(1, k + 1)]
    return HypothesisClass(hyps), FiniteGroups(groups)


def _walk_within_budget(cls, groups, depth):
    pool = _tuple_candidate_pool(cls, groups, depth)
    return sum(comb(len(pool), d) for d in range(1, depth + 1)) <= WALK_BUDGET


def _first_walk_witness(cls, groups, alpha, depth):
    """The first tuple of exactly `depth` candidates, in lexicographic order
    over the walk's pool, that `check_witness` accepts, or None."""
    pool = _tuple_candidate_pool(cls, groups, depth)
    return next((xs for xs in combinations(pool, depth)
                 if check_witness(cls, groups, alpha, xs) is not None), None)


@settings(max_examples=200, deadline=None)
@given(instances(), st.sampled_from(ALPHAS))
def test_closed_form_matches_both_oracles(instance, alpha):
    cls, groups = instance
    assert groups.validate().partition
    bound = count_vector_depth_bound(cls, groups, alpha)
    assume(bound is not None and _walk_within_budget(cls, groups, bound))
    r = gc_dimension(cls, groups, alpha)
    assert r.status == "exact"
    got = (r.d, r.witness, r.condition)
    assert got == tuple_gc_dimension(cls, groups, alpha, bound)
    assert got == count_vector_gc_dimension(cls, groups, alpha, bound)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_no_witness_beyond_the_bound(instance):
    # at alpha = 0 a finite dimension has no witness past it, and an
    # infinite one (d the lower end of an unbounded span) witnesses at d,
    # its witness the walk's first there, and at the next two depths
    cls, groups = instance
    alpha = F(0)
    r = gc_dimension(cls, groups, alpha)
    assume(_walk_within_budget(cls, groups, r.d + 2))
    if r.status == "exact":
        assert tuple_gc_dimension(cls, groups, alpha, r.d + 2) \
            == (r.d, r.witness, r.condition)
    else:
        assert r.status == "infinite" and r.d >= 1
        assert _first_walk_witness(cls, groups, alpha, r.d) == r.witness
        for depth in (r.d + 1, r.d + 2):
            assert _first_walk_witness(cls, groups, alpha, depth) is not None


@settings(max_examples=200, deadline=None)
@given(instances(), st.sampled_from(ALPHAS))
def test_every_depth_a_span_names_is_witnessed(instance, alpha):
    # the spans with no element taken: a tuple that takes E's closure atoms
    # whole and between low and high elements of every other group's
    # witnesses each depth from lo to top, so the independent walk finds a
    # witness at both ends of a bounded span, and at lo, lo + 1 and lo + 2
    # of an unbounded one
    cls, groups = instance
    atoms = _atoms(cls, groups)
    spans = set(_spans(atoms, _closures(atoms, groups.k), alpha,
                       [0] * len(atoms), [a.size for a in atoms]))
    depths = sorted({d for lo, top in spans
                     for d in ((lo, lo + 1, lo + 2) if top is None
                               else (lo, top))})
    assume(_walk_within_budget(cls, groups, max(depths, default=0)))
    for d in depths:
        assert _first_walk_witness(cls, groups, alpha, d) is not None, d


@st.composite
def block_instances(draw):
    """A class of 1-3 hypotheses built like `instances`' (1 <= t <= 6),
    often all holding {0, ..., t - 1} and each its own residue, so that
    closures are often finite, and a block partition."""
    t = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    prefixes = st.just(range(t)) | st.frozensets(st.integers(0, t - 1))
    hyps = [Hypothesis(f"h{n + 1}", PeriodicSet(
                t, m, draw(st.just({n % m}) | st.frozensets(
                    st.integers(0, m - 1), min_size=1)),
                draw(prefixes)))
            for n in range(draw(st.integers(1, 3)))]
    blocks = BlockPartition(draw(st.integers(2, 3)),
                            tuple(draw(st.lists(st.integers(1, 3),
                                                max_size=3))))
    return HypothesisClass(hyps), blocks


def _support_tuple(data, cls, groups, alpha):
    """Distinct members among the first eight of the supports' intersection
    of some hypotheses (or of one support, when they do not meet), in any
    order: often their first ones, which exhaust groups, or, on a finite
    partition, the dimension's witness, which witnesses.  When the
    intersection meets some groups of a finite partition in finitely many
    members, half the draws take its first members up to and including the
    last of those, which exhausts every such group at once, as condition 2
    needs."""
    chosen = data.draw(st.sets(st.integers(1, cls.materialized_count()),
                               min_size=1))
    s = cls.closure_of_indices(sorted(chosen))
    if s.is_empty():
        s = cls.get(min(chosen)).support
    members = list(islice(s.members(), 8))
    k = data.draw(st.integers(1, len(members)))
    options = [st.just(members[:k]), st.just(members), st.lists(
        st.sampled_from(members), min_size=1, max_size=k, unique=True)]
    if isinstance(groups, FiniteGroups):
        witness = gc_dimension(cls, groups, alpha).witness
        if witness:
            options.append(st.just(list(witness)))
        meets = [s & groups.group(i) for i in groups.indices()]
        finite = [x for m in meets if m.is_finite() for x in m.members()]
        if finite and data.draw(st.booleans()):
            options = [st.just(list(takewhile(lambda x: x <= max(finite),
                                              s.members())))]
    return data.draw(st.one_of(options).flatmap(st.permutations))


@settings(max_examples=300, deadline=None)
@given(instances(min_groups=2) | block_instances(), st.data())
def test_check_witness_matches_the_fraction_reference(instance, data):
    # condition 2 is checked after condition 1, so it needs an alpha that
    # no exhausted group's weight alone exceeds: on a finite partition,
    # where it can hold, two draws in three take alpha from 1/3 to 3/4,
    # 1/2 listed first (hypothesis favours a list's first entry, and at
    # 1/3 two exhausted singletons of a two-element tuple meet condition
    # 1), and the partition has two groups or more, since one group meets
    # condition 2 only at alpha 1 (below it condition 1 fires first)
    cls, groups = instance
    alphas = st.sampled_from(ALPHAS)
    if isinstance(groups, FiniteGroups):
        useful = st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F(1, 3)])
        alphas = st.one_of(useful, useful, alphas)
    alpha = data.draw(alphas)
    xs = _support_tuple(data, cls, groups, alpha)
    tuples = [xs]
    if isinstance(groups, FiniteGroups):
        # and the lone members: the member of each group that the closure
        # of xs meets in exactly one element.  Together they exhaust each
        # such group at weight 1, so condition 1 fails from alpha 1 / len
        # on, and condition 2 holds while alpha times the spare groups
        # stays below 1
        closure = cls.closure(xs)
        singles = [x for i in groups.indices()
                   for m in [closure & groups.group(i)]
                   if m.size_if_finite() == 1 for x in m.members()]
        if len(singles) > 1:
            tuples.append(singles)
    for ys in tuples:
        assert check_witness(cls, groups, alpha, ys) \
            == rational_check_witness(cls, groups, alpha, ys)


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from(ALPHAS[1:-1]))
def test_witness_forces_every_generator(instance, alpha):
    cls, groups = instance
    r = gc_dimension(cls, groups, alpha)
    assume(r.d >= 1)
    for kind, d_star in (("uniform", r.d), ("empirical", None),
                         ("inlimit", None)):
        report = gc_witness_adversary(
            partial(GeneratorSession, kind, cls, groups, alpha, d_star),
            cls, groups, alpha, r.witness)
        support = (cls.by_id(report.hypothesis)[1].support
                   if report.reason == "out-of-support" else None)
        assert verify_report(report, groups=groups, support=support), kind


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from(ALPHAS[1:]), st.data())
def test_uniform_generator_meets_its_guarantee(instance, alpha, data):
    # the uniform construction with d_star = d + 1 derived: on a stream of
    # a random target's first members with repeats, every step tracks the
    # group weights of the distinct elements so far to within alpha, and
    # every step after d_star distinct elements emits only unseen members
    # of the closure, decided by membership
    cls, groups = instance
    session = GeneratorSession("uniform", cls, groups, alpha)
    d_star = gc_dimension(cls, groups, alpha).d + 1
    assert session.d_star == d_star
    target = cls.get(data.draw(st.integers(1, cls.materialized_count())))
    fresh = target.support.members()
    seen: list[int] = []
    for repeat in data.draw(st.lists(st.booleans(), min_size=1,
                                     max_size=d_star + 6)):
        x = data.draw(st.sampled_from(seen)) if repeat and seen else next(fresh)
        mu = session.step(x)
        if x not in seen:
            seen.append(x)
        weights = {i: F(sum(y in groups.group(i) for y in seen), len(seen))
                   for i in groups.indices()}
        assert sup_distance(induced_group_probs(mu, groups), weights) <= alpha
        if len(seen) >= d_star:
            assert_uniform_guarantee(cls, groups, alpha, seen, mu)


def _countable(cls):
    """A provider-backed class that starts with cls's k hypotheses and goes
    on with h_n = h_j cut below c, for n = c*k + j (1 <= j <= k): every
    support stays infinite, and the cuts change which groups its finite
    prefix meets, so the prefix thresholds can grow."""
    base = [cls.get(j) for j in range(1, cls.materialized_count() + 1)]
    k = len(base)

    def provider(n):
        c, j = divmod(n - 1, k)
        return Hypothesis(f"h{n}", base[j].support & from_threshold(c))

    return HypothesisClass(base, provider)


@settings(max_examples=100, deadline=None)
@given(instances(), st.sampled_from(ALPHAS[1:]), st.data())
def test_nonuniform_generator_meets_its_guarantee(instance, alpha, data):
    # the non-uniform construction on a provider-backed class: its prefix
    # thresholds n_1 <= n_2 <= ... never decrease, each at least one more
    # than its prefix's dimension, and on a stream of the target h_i*'s
    # members with repeats, every step from the one that has shown n_i*
    # distinct elements, at a depth t >= i* (the construction considers
    # prefixes up to t), emits only unseen members of the target's support
    # and tracks the group weights of the distinct elements to within alpha
    cls, groups = _countable(instance[0]), instance[1]
    i_star = data.draw(st.integers(1, cls.materialized_count() + 3))
    try:
        need = nonuniform_thresholds(cls, groups, alpha, i_star)[-1]
    except ConfigError:  # some prefix has no finite dimension
        assume(False)
    target = cls.get(i_star)
    length = max(need, i_star) + data.draw(st.integers(0, 3))
    session = GeneratorSession("nonuniform", cls, groups, alpha)
    fresh = target.support.members()
    seen: list[int] = []
    for t in range(1, length + 1):
        # a repeat only where the steps left still show `need` elements
        repeat = (seen and length - t >= need - len(seen)
                  and data.draw(st.booleans()))
        x = data.draw(st.sampled_from(seen)) if repeat else next(fresh)
        mu = session.step(x)
        if x not in seen:
            seen.append(x)
        if len(seen) >= need and t >= i_star:
            assert all(y in target.support and y not in seen
                       for y in mu.support())
            weights = {i: F(sum(y in groups.group(i) for y in seen),
                            len(seen)) for i in groups.indices()}
            assert sup_distance(induced_group_probs(mu, groups),
                                weights) <= alpha
    assert len(seen) >= need
    n = nonuniform_thresholds(cls, groups, alpha, length)
    assert all(a <= b for a, b in zip(n, n[1:]))
    assert all(n_i > gc_depth(cls.prefix_class(i), groups, alpha).d
               for i, n_i in enumerate(n, 1))
