"""Generator constructions: the uniform/non-uniform/in-limit emitters, the
feasibility decision procedure, and the stateful session wrapper.  A
session equals its pure `*_emit` replay and meets its kind's definition:
the uniform guarantee decided by membership (`assert_uniform_guarantee`),
the non-uniform prefix choice (`nonuniform_by_definition`), and the
in-limit step of `oracles.ScanLimit`."""

import random
import re
from fractions import Fraction

import pytest

from repgen.adversaries import geometric_adversary
from repgen.dimension import gc_depth
from repgen.errors import ConfigError
from repgen import generators, simplex
from repgen.generators import (FeasibilityEntry, FeasibilityWitness,
                               GeneratorSession, StreamState, _distribution,
                               _feasible, _feasible_blocks, is_feasible,
                               limit_emit,
                               nonuniform_emit, nonuniform_thresholds,
                               uniform_emit)
from repgen.groups import BlockPartition, FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.measures import (RationalDist, empirical, group_empirical,
                             is_alpha_representative)
from repgen.periodic import (ALL, EVENS, ODDS, from_finite, from_threshold,
                             multiples)
from repgen.simplex import feasible_point_int
from oracles import (ScanLimit, induced_group_probs, mesh_feasible,
                     sup_distance)

F = Fraction


def _cls(named):
    return HypothesisClass([Hypothesis(n, s) for n, s in named])


ALL_CLS = _cls([("all", ALL)])
SPLIT1 = FiniteGroups([from_finite([1]), from_finite([0]) | from_threshold(2)])
PARITY = FiniteGroups([EVENS, ODDS])
TAILS = HypothesisClass(  # h_n = [n - 1, oo), materialized on demand
    [], provider=lambda n: Hypothesis(f"from{n - 1}", from_threshold(n - 1)))


def test_uniform_worked_deficit_small():
    # group 1 = {1} is exhausted after [1,0,2]; its 1/3 weight fits under
    # alpha and moves whole onto the other group's smallest unseen element
    mu = uniform_emit(ALL_CLS, SPLIT1, F(1, 2), 1, [1, 0, 2])
    assert mu == RationalDist.point(3)
    probs = induced_group_probs(mu, SPLIT1)
    assert sup_distance(probs, group_empirical([1, 0, 2], SPLIT1)) == F(1, 3)


def test_uniform_worked_unseen_group():
    mu = uniform_emit(ALL_CLS, SPLIT1, F(1, 2), 1, [0, 2])
    assert mu == RationalDist.point(3)
    probs = induced_group_probs(mu, SPLIT1)
    assert sup_distance(probs, group_empirical([0, 2], SPLIT1)) == 0


def test_uniform_worked_unreachable_group():
    cls = _cls([("evens", EVENS)])
    mu = uniform_emit(cls, PARITY, F(1, 4), 1, [0])
    assert mu == RationalDist.point(2)
    probs = induced_group_probs(mu, PARITY)
    assert sup_distance(probs, group_empirical([0], PARITY)) == 0


def test_uniform_pre_dstar_and_bot_are_empirical():
    assert uniform_emit(ALL_CLS, PARITY, F(1, 2), 3, [4, 4]) == empirical([4])
    cls = _cls([("evens", EVENS)])
    # odd element kills the only hypothesis: empirical fallback
    assert uniform_emit(cls, PARITY, F(1, 2), 1, [0, 3]) == empirical([0, 3])


def test_uniform_large_deficit_spreads_alpha_chunks():
    # three finite groups all exhausted at once; their combined 3/4 weight
    # exceeds alpha = 1/4 and is doled out in alpha-sized portions
    groups = FiniteGroups([from_finite([0]), from_finite([1]),
                           from_finite([2]), from_threshold(3)])
    mu = uniform_emit(ALL_CLS, groups, F(1, 4), 1, [0, 1, 2, 3])
    # pi = (1/4, 1/4, 1/4, 1/4); deficit 3/4; live group 4 takes its target
    # 1/4 plus one alpha chunk, remainder degrades onto the same element
    assert mu == RationalDist.point(4)
    ok, dist = is_alpha_representative(mu, [0, 1, 2, 3], groups, F(1, 4))
    assert not ok and dist == F(3, 4)


def test_uniform_representative_on_valid_streams():
    # d_star = GC + 1 = 2 for this instance; representativeness holds at
    # every step of every in-support stream
    groups = FiniteGroups([from_finite([0]), from_threshold(1)])
    rng = random.Random(79)
    for _ in range(50):
        hist = []
        pool = list(range(12))
        rng.shuffle(pool)
        for x in pool[:rng.randrange(2, 9)]:
            hist.append(x)
            mu = uniform_emit(ALL_CLS, groups, F(1, 2), 2, hist)
            ok, _ = is_alpha_representative(mu, hist, groups, F(1, 2))
            assert ok, hist


def test_uniform_consistent_after_dstar():
    groups = FiniteGroups([from_finite([0]), from_threshold(1)])
    cls = _cls([("evens", EVENS), ("all", ALL)])
    rng = random.Random(83)
    for _ in range(30):
        hist = []
        seen = set()
        for _ in range(8):
            x = rng.choice([v for v in range(0, 24, 2) if v not in seen])
            hist.append(x)
            seen.add(x)
            mu = uniform_emit(cls, groups, F(1, 2), 2, hist)
            if len(seen) >= 2:
                for y in mu.support():
                    assert y % 2 == 0 and y not in seen


def test_feasible_worked_balanced():
    h = Hypothesis("all", ALL)
    w = is_feasible(h, PARITY, [0, 1, 2], F(1, 4))
    assert w is not None
    assert w.distribution() == RationalDist({4: F(2, 3), 3: F(1, 3)})


def test_feasible_worked_infeasible_then_boundary():
    h = Hypothesis("evens", EVENS)
    assert is_feasible(h, PARITY, [0, 1, 2], F(1, 4)) is None
    w = is_feasible(h, PARITY, [0, 1, 2], F(1, 3))
    assert w is not None
    mu = w.distribution()
    probs = induced_group_probs(mu, PARITY)
    assert sup_distance(probs, group_empirical([0, 1, 2], PARITY)) == F(1, 3)


def test_feasible_rejects_empty_history():
    with pytest.raises(ValueError):
        is_feasible(Hypothesis("all", ALL), PARITY, [], F(1, 2))


@pytest.mark.parametrize("alpha", [0.5, "1/2", None, 1.0])
def test_feasible_rejects_a_non_rational_alpha(alpha):
    with pytest.raises(TypeError, match="alpha must be an int or Fraction"):
        is_feasible(Hypothesis("all", ALL), PARITY, [0, 1, 2], alpha)


@pytest.mark.parametrize("alpha", [F(-1, 2), F(3, 2), -1, 2])
def test_feasible_rejects_alpha_outside_unit_interval(alpha):
    # no distribution has distance <= -1/2, yet a witness used to come back
    with pytest.raises(ConfigError) as e:
        is_feasible(Hypothesis("all", ALL), PARITY, [0, 1, 2], alpha)
    assert str(e.value) == f"alpha must be in [0, 1], got {alpha}"


ALPHA_ENTRIES = {
    "is_feasible": lambda alpha: is_feasible(Hypothesis("all", ALL), PARITY,
                                             [0, 1, 2], alpha),
    "session": lambda alpha: GeneratorSession("empirical", ALL_CLS, PARITY,
                                              alpha),
    "geometric": lambda alpha: geometric_adversary(
        lambda cls, groups, a: GeneratorSession("empirical", cls, groups, a),
        alpha, 1),
    "gc_depth": lambda alpha: gc_depth(ALL_CLS, PARITY, alpha),
    "uniform_emit": lambda alpha: uniform_emit(ALL_CLS, PARITY, alpha, 1,
                                               [0, 1, 2]),
    "nonuniform_emit": lambda alpha: nonuniform_emit(ALL_CLS, PARITY, alpha,
                                                     [0, 1, 2]),
    "limit_emit": lambda alpha: limit_emit(ALL_CLS, PARITY, alpha, [0, 1, 2]),
}


@pytest.mark.parametrize("entry", ALPHA_ENTRIES)
@pytest.mark.parametrize("alpha, error, text", [
    (0.5, TypeError, "alpha must be an int or Fraction, got float 0.5"),
    # a bool is an int, but no exact alpha
    (True, TypeError, "alpha must be an int or Fraction, got bool True"),
    (F(3, 2), ConfigError, "alpha must be in [0, 1], got 3/2"),
    (-1, ConfigError, "alpha must be in [0, 1], got -1"),
])
def test_every_entry_checks_alpha_alike(entry, alpha, error, text):
    with pytest.raises(error) as e:
        ALPHA_ENTRIES[entry](alpha)
    assert type(e.value) is error and str(e.value) == text


@pytest.mark.parametrize("alpha", [0, 1, F(0), F(1)])
def test_feasible_accepts_the_ends_of_the_unit_interval(alpha):
    w = is_feasible(Hypothesis("all", ALL), PARITY, [0, 1, 2], alpha)
    assert w is not None
    assert w.distribution() == RationalDist({4: F(2, 3), 3: F(1, 3)})


def _count_lp_calls(monkeypatch):
    """The (n_vars, rows) of every `feasible_point_int` call until the
    patch is undone."""
    calls = []

    def counting(n_vars, rows):
        calls.append((n_vars, rows))
        return feasible_point_int(n_vars, rows)

    monkeypatch.setattr(simplex, "feasible_point_int", counting)
    return calls


def test_faced_infeasible_pass_makes_no_lp_call(monkeypatch):
    # evens has no unseen element in {0, 1}, so group 1 (weight 1/2) has
    # no candidate cell: the exact pass is skipped, and so is the banded
    # pass at alpha 1/4, whose lower end 1/4 is positive too
    calls = _count_lp_calls(monkeypatch)
    h = Hypothesis("evens", EVENS)
    c = FiniteGroups([from_finite([0, 1]), from_threshold(2)])
    assert is_feasible(h, c, [0, 1, 2, 3], F(1, 4)) is None
    assert calls == []
    # with the rest split by multiples of 4, two cells hold a candidate (4
    # and 6); at alpha 1/2 every lower end is 0, so only the banded pass
    # reaches the LP, with no >= row
    c = FiniteGroups([from_finite([0, 1]), from_threshold(2) & multiples(4),
                      from_threshold(2) - multiples(4)])
    w = is_feasible(h, c, [0, 1, 2, 3], F(1, 2))
    assert w.distribution() == RationalDist({4: F(1, 2), 6: F(1, 2)})
    assert [(n, [rel for _, rel, _ in rows]) for n, rows in calls] \
        == [(2, [simplex.EQ, simplex.LE, simplex.LE, simplex.LE])]


def test_a_single_candidate_makes_no_lp_call(monkeypatch):
    # 4 is evens' only candidate outside {0, 1}; its point mass is 1/2 off
    # both groups' weights, which alpha 1/2 allows without an LP
    calls = _count_lp_calls(monkeypatch)
    h = Hypothesis("evens", EVENS)
    c = FiniteGroups([from_finite([0, 1]), from_threshold(2)])
    w = is_feasible(h, c, [0, 1, 2, 3], F(1, 2))
    assert [e.element for e in w.entries] == [4]
    assert w.distribution() == RationalDist.point(4)
    assert calls == []


@pytest.mark.parametrize("history, alpha, entries", [
    ([0, 2, 4, 6, 8], F(1, 2), 3),   # surplus spread in alpha chunks
    ([1, 3, 5], F(1, 3), 2),
    ([0, 1, 2, 3], F(1, 2), 2),      # block 1 exhausted within alpha
    ([0, 1, 2, 3], F(0), 0),         # ... but not at alpha 0
    ([0, 1, 3, 4, 5, 6], F(1, 6), 0),
])
def test_blocks_build_no_fraction(monkeypatch, history, alpha, entries):
    h = Hypothesis("evens", EVENS)
    state = StreamState(HypothesisClass([h]), BlockPartition(2, [2]), history)
    made = _count_fractions(monkeypatch)
    found = _feasible_blocks(state, h, alpha)
    mu = found and _distribution(*found)
    monkeypatch.undo()
    assert made == []
    assert (len(found[0]) if found else 0) == entries
    if found:
        # masses over D = d*b, d the distinct count and alpha = a/b
        got, den = found
        assert den == len(set(history)) * alpha.denominator
        assert mu == RationalDist({x: F(num, den) for _, x, num in got})


class _CountedCounts(dict):
    """A tally's per-block counts that log every read of a block's count."""

    def __init__(self, counts, reads):
        super().__init__(counts)
        self.reads = reads

    def __getitem__(self, k):
        self.reads.append(k)
        return super().__getitem__(k)

    def __contains__(self, k):
        self.reads.append(k)
        return super().__contains__(k)

    def get(self, k, default=None):
        self.reads.append(k)
        return super().get(k, default)


class _CountedSeen(set):
    """A tally's seen set that logs every membership test."""

    def __init__(self, seen, reads):
        super().__init__(seen)
        self.reads = reads

    def __contains__(self, x):
        self.reads.append(x)
        return super().__contains__(x)


def _block_reads(depth, offsets):
    """The reads of the tally's per-block counts and seen set made by an
    in-limit session over the geometric blocks at alpha 1/2, fed the
    naturals in order, at each step that shows the element at one of the
    offsets into block depth + 1."""
    blocks = BlockPartition(2, (2,))
    session = GeneratorSession("inlimit", ALL_CLS, blocks, F(1, 2))
    lo, hi = blocks.block_range(depth + 1)
    for x in range(lo):
        session.step(x)
    tally, reads, per_step = session.state.tally, [], []
    tally.counts = _CountedCounts(tally.counts, reads)
    tally.seen = _CountedSeen(tally.seen, reads)
    for x in range(lo, hi):
        reads.clear()
        mu = session.step(x)
        if x - lo in offsets or x == hi - 1:
            # the fallback's support is the history; a witness's is not
            selected = session.last_selected
            per_step.append((len(reads), selected,
                             selected and len(mu.support())))
    return per_step


def test_an_inlimit_block_step_reads_as_much_past_12_blocks_as_past_6():
    # counted, not timed: the step reads the live block and the surplus
    # chunks through the support's ledger and never an exhausted block, so
    # each step into block 13 reads the counts and the seen set as often
    # as the same step into block 7, the last one (which exhausts its
    # block) included; a pass over every touched block would read about
    # twice as much past 12 blocks
    offsets = range(64)
    early, late = _block_reads(6, offsets), _block_reads(12, offsets)
    assert early == late
    assert len(early) == 65 and max(n for n, _, _ in early) <= 12
    # both shapes are met: the fallback while block 6 is too heavy, and
    # witnesses spread over the live block and two chunks
    assert {(selected, size) for _, selected, size in early} \
        == {(None, None), (1, 3)}


def test_finite_cells_build_no_fraction_from_vertex_to_distribution(
        monkeypatch):
    state, alpha = StreamState(ALL_CLS, PARITY, [0, 1, 2]), F(1, 4)
    made = _count_fractions(monkeypatch)
    mu = _distribution(*_feasible(state, Hypothesis("all", ALL), alpha))
    monkeypatch.undo()
    assert made == []
    assert mu == RationalDist({4: F(2, 3), 3: F(1, 3)})


def _count_fractions(monkeypatch):
    """The argument tuples of every Fraction built until the patch is
    undone."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_feasible_witness_lands_on_unseen_support():
    rng = random.Random(89)
    hyps = [Hypothesis("all", ALL), Hypothesis("evens", EVENS),
            Hypothesis("tail", from_threshold(5))]
    collections = [PARITY,
                   FiniteGroups([from_finite([0, 1]), from_threshold(2)]),
                   FiniteGroups([from_finite([0]), from_finite([1, 2]),
                                 from_threshold(3)])]
    points = 0
    for _ in range(120):
        h = rng.choice(hyps)
        c = rng.choice(collections)
        hist = [rng.randrange(0, 10) for _ in range(rng.randrange(1, 7))]
        alpha = rng.choice([F(0), F(1, 4), F(1, 3), F(1, 2), F(1)])
        w = is_feasible(h, c, hist, alpha)
        if w is None:
            continue
        mu = w.distribution()
        want = RationalDist({e.element: F(e.num, w.den) for e in w.entries})
        assert mu == want and hash(mu) == hash(want)
        assert mu.serialize() == want.serialize()
        points += len(w.entries) == 1
        seen = set(hist)
        for x in mu.support():
            assert x in h.support and x not in seen
        d = sup_distance(induced_group_probs(mu, c),
                         group_empirical(hist, c))
        assert d <= alpha
    assert points > 0


def test_a_one_entry_witness_is_the_point_mass_from_pairs_builds():
    # over den 1 and over an unreduced den, as block witnesses keep it; a
    # one-entry witness whose mass is not 1 is still rejected
    for cell, den in (((1, 0), 1), (3, 6), ((0, 1), 12)):
        mu = FeasibilityWitness((FeasibilityEntry(cell, 7, den),),
                                den).distribution()
        want = RationalDist._from_pairs([(7, den)], den)
        assert mu == want and hash(mu) == hash(want)
        assert mu.serialize() == want.serialize() == [[7, "1/1"]]
    with pytest.raises(ValueError, match="masses must sum to 1, got 1/3"):
        FeasibilityWitness((FeasibilityEntry(3, 7, 2),), 6).distribution()


def test_witness_records_are_immutable_and_built_alike_by_keyword():
    # entries and witnesses cannot be changed once built, and keyword
    # construction gives the record positional construction gives
    entry = FeasibilityEntry((1, 0), 7, 2)
    assert entry == FeasibilityEntry(cell=(1, 0), element=7, num=2)
    assert hash(entry) == hash(FeasibilityEntry(cell=(1, 0), element=7, num=2))
    w = FeasibilityWitness((entry, FeasibilityEntry(4, 9, 1)), 3)
    by_name = FeasibilityWitness(
        entries=(FeasibilityEntry(num=2, element=7, cell=(1, 0)),
                 FeasibilityEntry(4, 9, num=1)), den=3)
    assert w == by_name and hash(w) == hash(by_name)
    assert w.distribution() == RationalDist({7: F(2, 3), 9: F(1, 3)})
    for record, fields in ((entry, ("cell", "element", "num")),
                           (w, ("entries", "den"))):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
    assert (entry.cell, entry.element, entry.num) == ((1, 0), 7, 2)
    assert w.den == 3


def test_feasible_matches_mesh_oracle():
    # randomized agreement sweep; the acceptance suite runs the curated list
    rng = random.Random(97)
    hyps = [Hypothesis("all", ALL), Hypothesis("evens", EVENS),
            Hypothesis("odds", ODDS)]
    collections = [PARITY,
                   FiniteGroups([from_finite([0, 1]), from_threshold(2)]),
                   FiniteGroups([EVENS, ODDS, from_threshold(0) & EVENS])]
    checked = 0
    for _ in range(60):
        h = rng.choice(hyps)
        c = rng.choice(collections[:2])
        hist = [rng.randrange(0, 8) for _ in range(rng.randrange(1, 6))]
        alpha = rng.choice([F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2)])
        got = is_feasible(h, c, hist, alpha) is not None
        want = mesh_feasible(h, c, hist, alpha)
        if got != want:
            # the mesh can only err by missing a feasible point off-grid;
            # denominators here are all mesh-aligned, so demand agreement
            assert False, (h.id, hist, alpha, got, want)
        checked += 1
    assert checked == 60


def test_nonuniform_thresholds_monotone():
    cls = _cls([("evens", EVENS), ("mult4", multiples(4)),
                ("mult8", multiples(8))])
    n = nonuniform_thresholds(cls, PARITY, F(1, 2), 3)
    assert n == sorted(n)
    assert all(v >= 1 for v in n)


def test_nonuniform_requires_exact_dimension():
    cls = _cls([("all", ALL)])
    groups = FiniteGroups([from_finite([0]), from_finite([1]),
                           from_threshold(2)])
    # at alpha 1/4 the dimension is 7 at any depth, so the threshold is 8
    assert nonuniform_thresholds(cls, groups, F(1, 4), 1) == [8]
    # at alpha 0 {0} and any tail elements witness: no threshold exists
    with pytest.raises(ConfigError, match=r"^dimension of class prefix 1 is "
                       r"not finite \(GC unbounded \(least unbounded span "
                       r"from depth 1\)\)$"):
        nonuniform_thresholds(cls, groups, F(0), 1)
    with pytest.raises(ConfigError, match="^cannot derive d_star: GC "
                                          "unbounded"):
        GeneratorSession("uniform", cls, groups, F(0))


def test_set_up_reads_the_dimension_without_a_witness(monkeypatch):
    def no_witness(*args):
        raise AssertionError("witness built")

    monkeypatch.setattr("repgen.dimension._witness", no_witness)
    groups = FiniteGroups([from_finite([0]), from_finite([1]),
                           from_threshold(2)])
    assert GeneratorSession("uniform", ALL_CLS, groups, F(1, 4)).d_star == 8
    assert nonuniform_thresholds(ALL_CLS, groups, F(1, 4), 1) == [8]


def test_nonuniform_delegation_is_bitwise():
    cls = _cls([("evens", EVENS), ("mult4", multiples(4)),
                ("mult8", multiples(8))])
    cache: list[int] = []
    rng = random.Random(101)
    hist = []
    prev_i = 1
    for _ in range(25):
        hist.append(rng.choice(range(0, 32, 2)))
        mu = nonuniform_emit(cls, PARITY, F(1, 2), hist)
        d_t = len(set(hist))
        upto = min(len(hist), 3)
        n = nonuniform_thresholds(cls, PARITY, F(1, 2), upto, cache)
        i_t = 1
        for i in range(1, upto + 1):
            if n[i - 1] <= d_t:
                i_t = i
        assert i_t >= prev_i  # selection index never moves backwards
        prev_i = i_t
        want = uniform_emit(cls.prefix_class(i_t), PARITY, F(1, 2),
                            n[i_t - 1], hist)
        assert mu == want
        assert mu.serialize() == want.serialize()


def test_limit_emit_worked_first_step():
    mu = limit_emit(ALL_CLS, PARITY, F(1, 2), [0])
    # h1 is critical and feasible; the witness lands on unseen elements
    assert 0 not in mu.support()
    ok, _ = is_alpha_representative(mu, [0], PARITY, F(1, 2))
    assert ok


def test_limit_emit_empirical_fallback():
    cls = _cls([("evens", EVENS)])
    groups = FiniteGroups([from_finite([0, 2]), ODDS | from_threshold(4)])
    # after [0, 2] the only hypothesis has group 1 exhausted at weight 1,
    # infeasible at alpha = 1/4: fall back to the empirical distribution
    mu = limit_emit(cls, groups, F(1, 4), [0, 2])
    assert mu == empirical([0, 2])


def test_limit_emit_selects_largest_index():
    cls = _cls([("evens", EVENS), ("mult4", multiples(4))])
    hist = []
    selected_two = False
    for x in range(0, 200, 4):
        hist.append(x)
        mu = limit_emit(cls, PARITY, F(1, 2), hist)
        if len(hist) >= 2:
            # both hypotheses consistent, mult4 has the larger index and is
            # critical (its support is nested inside evens)
            for y in mu.support():
                assert y % 4 == 0 and y not in set(hist)
            selected_two = True
        if len(hist) >= 50:
            break
    assert selected_two


def test_an_inlimit_step_checks_consistency_only_while_the_depth_grows(
        monkeypatch):
    # the depth is t capped by a finite class: a class of two stops asking
    # after its second step, while an extendable class asks for one more
    # index on every step
    asked = []
    upto = StreamState.consistent_upto

    def recorded(self, n):
        asked.append(n)
        return upto(self, n)

    monkeypatch.setattr(StreamState, "consistent_upto", recorded)
    finite = _cls([("evens", EVENS), ("mult4", multiples(4))])
    extendable = HypothesisClass(
        [], provider=lambda n: Hypothesis(f"mult{n}", multiples(n)))
    for cls, want in ((finite, [1, 2]), (extendable, list(range(1, 11)))):
        asked.clear()
        session = GeneratorSession("inlimit", cls, PARITY, F(1, 2))
        for x in range(0, 40, 4):
            session.step(x)
        assert asked == want


def test_a_uniform_step_checks_consistency_only_while_its_prefix_grows(
        monkeypatch):
    # a uniform session asks for its whole class once, at its first step
    # with d_star distinct elements, and never reads the class size again;
    # a non-uniform session asks once more when i_t grows (the thresholds
    # of from2, evens against {0, 1} and the rest at 1/2 are 1 and 2)
    asked = []
    upto = StreamState.consistent_upto

    def recorded(self, n):
        asked.append(n)
        return upto(self, n)

    monkeypatch.setattr(StreamState, "consistent_upto", recorded)
    zero_one_rest = FiniteGroups([from_finite([0, 1]), from_threshold(2)])
    nested = _cls([("all", ALL), ("evens", EVENS), ("mult4", multiples(4))])
    from2 = _cls([("from2", from_threshold(2)), ("evens", EVENS)])
    for kind, cls, d_star, want in (("uniform", nested, 2, [3]),
                                    ("nonuniform", from2, None, [1, 2])):
        asked.clear()
        session = GeneratorSession(kind, cls, zero_one_rest, F(1, 2),
                                   d_star=d_star)
        monkeypatch.setattr(cls, "materialized_count", None)
        for x in range(4, 44, 4):
            session.step(x)
        assert asked == want


def _assert_same_state(stepped, once):
    assert stepped.t == once.t
    assert stepped.tally.seen == once.tally.seen
    assert stepped.distinct == once.distinct == sorted(once.tally.seen)
    assert stepped.tally.weights() == once.tally.weights()
    n = stepped.checked
    # the stepped state filters with the class's `holding` mask, one
    # element at a time; the reference looks every member up through `get`
    cls = stepped.cls
    assert stepped.consistent_upto(n) == once.consistent_upto(n) == tuple(
        i for i in range(1, n + 1)
        if all(x in cls.get(i).support for x in once.tally.seen))
    assert stepped._mask == sum(1 << (i - 1) for i in stepped.consistent)
    assert stepped.critical == once.critical
    # every kept cursor table reads as a fresh state's; a block ledger only
    # for a consistent support, the only kind an in-limit step reads
    for s in list(stepped._cursors):
        assert stepped.heads(s) == once.heads(s)
    for s in {cls.get(i).support for i in stepped.consistent} \
            & stepped._ledgers.keys():
        assert ledger_view(stepped.ledger(s)) == ledger_view(once.ledger(s))


def ledger_view(ledger):
    """A block ledger's figures and its live (block, head) pairs."""
    return ([(k, head) for k, _, head in ledger.live], ledger.total,
            ledger.largest, ledger.untouched, ledger.known)


def assert_uniform_guarantee(cls, c, alpha, history, mu):
    """The uniform construction's guarantee once d* distinct elements are
    seen: mu is alpha-representative of the history, and supported on
    unseen elements of the closure, the supports of the members consistent
    with the history intersected, all decided by membership."""
    seen = set(history)
    consistent = [h.support for h in map(cls.get, range(
        1, cls.materialized_count() + 1)) if all(x in h.support for x in seen)]
    assert sup_distance(induced_group_probs(mu, c), induced_group_probs(
        empirical(history), c)) <= alpha, history
    assert all(x not in seen and all(x in s for s in consistent)
               for x in mu.support()), history


def nonuniform_by_definition(cls, c, alpha, history, thresholds):
    """The non-uniform output: `uniform_emit` on the class prefix i_t at
    d_star = n_{i_t}, as `nonuniform_prefix` finds them."""
    i_t, n_i = nonuniform_prefix(cls, c, alpha, history, thresholds)
    return uniform_emit(cls.prefix_class(i_t), c, alpha, n_i, history)


def nonuniform_prefix(cls, c, alpha, history, thresholds):
    """(i_t, n_{i_t}) of the non-uniform step, where i_t = max{i <= t :
    n_i <= d_t} (or 1), d_t is the distinct count, t is capped by a finite
    class, and the threshold n_i is one more than the dimension of prefix
    i, forced non-decreasing.  `thresholds` keeps the n_i found so far."""
    t = len(history)
    upto = t if cls.extendable else min(t, cls.materialized_count())
    while len(thresholds) < upto:
        n_i = gc_depth(cls.prefix_class(len(thresholds) + 1), c, alpha).d + 1
        thresholds.append(max(thresholds[-1:] + [n_i]))
    d_t = len(set(history))
    i_t = max((i for i in range(1, upto + 1) if thresholds[i - 1] <= d_t),
              default=1)
    return i_t, thresholds[i_t - 1]


def replay(kind, cls, groups, alpha, d_star, history):
    """What the pure function of the kind emits on the history."""
    if kind == "empirical":
        return empirical(history)
    if kind == "uniform":
        return uniform_emit(cls, groups, alpha, d_star, history)
    if kind == "nonuniform":
        return nonuniform_emit(cls, groups, alpha, history)
    return limit_emit(cls, groups, alpha, history)


def test_session_matches_free_functions():
    # every kind, a block partition, a provider-backed class and streams
    # with repeats: the session's state, fed one element per step between
    # emissions, equals a state built from the whole history at once; the
    # session emits what the pure function (a replay through a fresh
    # session) emits, and what the kind's definition asks for
    groups = FiniteGroups([from_finite([0]), from_threshold(1)])
    tail2 = _cls([("all", ALL), ("tail", from_threshold(2))])
    nested = _cls([("evens", EVENS), ("mult4", multiples(4))])
    blocks = BlockPartition(base=2, prefix_sizes=(2,))
    evens_cls = _cls([("all", ALL), ("evens", EVENS)])
    cases = [
        ("empirical", tail2, groups, range(10)),
        ("uniform", tail2, groups, range(10)),
        ("inlimit", tail2, groups, range(10)),
        ("nonuniform", nested, PARITY, range(0, 40, 4)),
        ("inlimit", evens_cls, blocks, range(0, 60, 2)),
        ("inlimit", TAILS, PARITY, range(12)),
    ]
    rng = random.Random(103)
    alpha = F(1, 2)
    for kind, cls, c, pool in cases:
        session = GeneratorSession(kind, cls, c, alpha)
        scan, thresholds = ScanLimit(cls, c, alpha), []
        hist = []
        for _ in range(15):
            x = rng.choice(hist) if hist and rng.random() < 0.3 else rng.choice(pool)
            hist.append(x)
            mu = session.step(x)
            want = replay(kind, cls, c, alpha, session.d_star, hist)
            assert mu == want, (kind, hist)
            assert mu.serialize() == want.serialize()
            if kind == "uniform" and len(set(hist)) >= session.d_star:
                assert_uniform_guarantee(cls, c, alpha, hist, mu)
            elif kind == "nonuniform":
                assert mu == nonuniform_by_definition(cls, c, alpha, hist,
                                                      thresholds), hist
            elif kind == "inlimit":
                assert mu == scan.step(x), (kind, hist)
                assert session.last_selected == scan.last_selected, hist
            _assert_same_state(session.state, StreamState(cls, c, hist))
        assert len(set(hist)) < len(hist), (kind, hist)
        assert kind != "uniform" or len(set(hist)) >= session.d_star


def test_a_repeat_that_grows_the_depth_reruns_the_construction():
    # 0 three times: every step repeats the element, but the depth grows
    # from 1 to 3, so each step admits one more hypothesis and the in-limit
    # pick moves from all to evens to mult4; a session that re-emitted on
    # every repeat would play {2: 1} with h_1 selected throughout.  A fourth
    # 0 leaves the depth at the class size and changes nothing
    cls = _cls([("all", ALL), ("evens", EVENS), ("mult4", multiples(4))])
    state = StreamState(cls, PARITY)
    assert [state.add(0) for _ in range(4)] == [True, True, True, False]
    inlimit = GeneratorSession("inlimit", cls, PARITY, F(1, 2))
    nonuniform = GeneratorSession("nonuniform", cls, PARITY, F(1, 2))
    hist = []
    for x, point, selected in ((0, 2, 1), (0, 2, 2), (0, 4, 3)):
        hist.append(x)
        mu = inlimit.step(x)
        assert mu.serialize() == RationalDist.point(point).serialize()
        assert inlimit.last_selected == selected
        assert nonuniform.step(x).serialize() \
            == nonuniform_emit(cls, PARITY, F(1, 2), hist).serialize()


def test_a_repeat_after_a_failed_step_reruns_it(monkeypatch):
    # the construction fails once, on the new element 2; the repeat of 2
    # leaves the depth at the class size, yet it must run the construction
    # rather than re-emit the output of step 1
    cls = _cls([("all", ALL), ("evens", EVENS)])
    session = GeneratorSession("inlimit", cls, PARITY, F(1, 2))
    session.step(0)
    limit = generators._limit

    def fail(state, alpha):
        raise RuntimeError("construction failed")
    monkeypatch.setattr(generators, "_limit", fail)
    with pytest.raises(RuntimeError, match="construction failed"):
        session.step(2)
    monkeypatch.setattr(generators, "_limit", limit)
    mu = session.step(2)
    assert mu.serialize() \
        == limit_emit(cls, PARITY, F(1, 2), [0, 2, 2]).serialize()
    assert session.last_selected == 2


EMITS = {
    "uniform": lambda cls, c, d_star, h: uniform_emit(cls, c, F(1, 2),
                                                      d_star, h),
    "nonuniform": lambda cls, c, d_star, h: nonuniform_emit(cls, c, F(1, 2), h),
    "inlimit": lambda cls, c, d_star, h: limit_emit(cls, c, F(1, 2), h),
}


@pytest.mark.parametrize("kind, cls, groups, d_star, history", [
    # not a partition: the bare construction played {2: 1}
    ("uniform", ALL_CLS, FiniteGroups([EVENS, ALL]), 1, [0]),
    # not a cover: in-limit played {2: 1}, uniform failed on its masses
    ("inlimit", ALL_CLS, FiniteGroups([EVENS]), None, [0]),
    ("uniform", ALL_CLS, FiniteGroups([EVENS]), 1, [0]),
    # an infinite class: the bare construction played the empirical one
    ("uniform", TAILS, PARITY, 1, [0, 1]),
    ("uniform", ALL_CLS, PARITY, 0, [0]),
    # not naturals, first or last in the history
    ("uniform", ALL_CLS, PARITY, 1, [True, 2]),
    ("nonuniform", ALL_CLS, PARITY, None, [0, -1]),
    ("inlimit", ALL_CLS, PARITY, None, [-3, 0]),
    ("inlimit", ALL_CLS, PARITY, None, [1, False]),
])
def test_a_pure_emit_refuses_what_its_session_refuses(kind, cls, groups,
                                                      d_star, history):
    with pytest.raises(Exception) as want:
        session = GeneratorSession(kind, cls, groups, F(1, 2), d_star=d_star)
        for x in history:
            session.step(x)
    with pytest.raises(want.type) as got:
        EMITS[kind](cls, groups, d_star, history)
    assert type(got.value) is want.type
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", EMITS)
def test_a_pure_emit_needs_a_nonempty_history(kind):
    # the bare uniform and in-limit constructions failed on the empirical
    # distribution of the empty prefix instead
    with pytest.raises(ValueError) as e:
        EMITS[kind](ALL_CLS, PARITY, 1 if kind == "uniform" else None, [])
    assert str(e.value) == f"{kind} step needs a nonempty history"


def test_session_nonuniform_matches_free_function():
    cls = _cls([("evens", EVENS), ("mult4", multiples(4))])
    session = GeneratorSession("nonuniform", cls, PARITY, F(1, 2))
    hist = []
    rng = random.Random(107)
    for _ in range(12):
        x = rng.choice(range(0, 40, 4))
        hist.append(x)
        mu = session.step(x)
        want = nonuniform_emit(cls, PARITY, F(1, 2), hist)
        assert mu == want


def test_session_validation():
    with pytest.raises(ConfigError):
        GeneratorSession("bogus", ALL_CLS, PARITY, F(1, 2))
    with pytest.raises(ConfigError):
        GeneratorSession("uniform", ALL_CLS, PARITY, F(3, 2))
    with pytest.raises(ConfigError):
        GeneratorSession("uniform", ALL_CLS,
                         FiniteGroups([EVENS, ALL]), F(1, 2))
    with pytest.raises(ConfigError):
        GeneratorSession("uniform", ALL_CLS, PARITY, F(1, 2), d_star=0)


def test_session_refuses_d_star_on_other_kinds():
    # the scenario reader refuses this too; a session used to drop it
    blocks = BlockPartition(base=2, prefix_sizes=(2,))
    for kind, groups in (("empirical", PARITY), ("nonuniform", PARITY),
                         ("inlimit", PARITY), ("inlimit", blocks)):
        with pytest.raises(ConfigError, match="^only the uniform generator "
                                              f"takes d_star, not '{kind}'$"):
            GeneratorSession(kind, ALL_CLS, groups, F(1, 2), d_star=2)
        assert GeneratorSession(kind, ALL_CLS, groups, F(1, 2),
                                d_star=None).d_star is None


def test_session_refuses_a_d_star_that_is_not_an_int():
    # 2.5 used to play like 3 and True like 1
    for d_star, shown in ((2.5, "float 2.5"), (True, "bool True"),
                          (F(2), "Fraction Fraction(2, 1)"), ("2", "str '2'")):
        with pytest.raises(TypeError, match=f"^d_star must be an int, got "
                                            f"{re.escape(shown)}$"):
            GeneratorSession("uniform", ALL_CLS, PARITY, F(1, 2),
                             d_star=d_star)
    assert GeneratorSession("uniform", ALL_CLS, PARITY, F(1, 2),
                            d_star=3).d_star == 3


def test_session_uniform_autoderives_dstar():
    groups = FiniteGroups([from_finite([0]), from_threshold(1)])
    s = GeneratorSession("uniform", ALL_CLS, groups, F(1, 2))
    assert s.d_star == 2  # dimension 1, plus one


def test_session_rejects_bad_elements():
    s = GeneratorSession("empirical", ALL_CLS, PARITY, F(1, 2))
    with pytest.raises(ValueError):
        s.step(-1)
    with pytest.raises(ValueError):
        s.step("x")


def test_determinism_byte_equal():
    groups = FiniteGroups([from_finite([0]), from_threshold(1)])
    runs = []
    for _ in range(2):
        s = GeneratorSession("uniform", ALL_CLS, groups, F(1, 2))
        out = [s.step(x).serialize() for x in [0, 1, 2, 3, 4]]
        runs.append(repr(out))
    assert runs[0] == runs[1]
