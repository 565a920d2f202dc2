"""Adversary constructions: the dimension-witness game, the geometric
block stream, and the membership-query protocol, with report verification."""

import dataclasses
import gc
import inspect
import pickle
import random
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest

from repgen.adversaries import (BUDGET_EXCEEDED, INCONSISTENT,
                                MAX_QUERY_BUDGET, UNREPRESENTATIVE,
                                ConstantQueryFree,
                                ConstantSession, GreedyQuerier,
                                MembershipOracle, QueryAdversaryState,
                                QueryBudgetExceeded, QueryThenEmit,
                                ViolationReport,
                                gc_witness_adversary, geometric_adversary,
                                query_adversary, verify_report)
from repgen.cli import _baseline_session_factory
from repgen.dimension import gc_dimension
from repgen.errors import ConfigError, InvariantViolation
from repgen.generators import GeneratorSession
from repgen.groups import BlockPartition, FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.measures import GroupTally, PrefixView, RationalDist, empirical
from repgen.periodic import ALL, EVENS, ODDS, from_finite, from_threshold
from instances import dimension_instances
from oracles import ScanQueryThenEmit, induced_group_probs, sup_distance

F = Fraction

ALL_CLS = HypothesisClass([Hypothesis("all", ALL)])
ZERO_REST = FiniteGroups([from_finite([0]), from_threshold(1)])


def test_gc_witness_rejects_non_witness():
    with pytest.raises(ConfigError):
        gc_witness_adversary(
            lambda: GeneratorSession("empirical", ALL_CLS, ZERO_REST, F(1, 2)),
            ALL_CLS, ZERO_REST, F(1, 2), (0, 5))


def test_gc_witness_vs_empirical():
    r = gc_witness_adversary(
        lambda: GeneratorSession("empirical", ALL_CLS, ZERO_REST, F(1, 2)),
        ALL_CLS, ZERO_REST, F(1, 2), (0,))
    assert r.step == 1 and r.kind == INCONSISTENT
    assert r.reason == "already-seen" and r.element == 0
    assert verify_report(r, groups=ZERO_REST, support=ALL)
    assert len(r.continuation) == 3


def test_gc_witness_vs_underbudgeted_uniform():
    # d_star = 1 is below the required GC + 1 = 2, so the construction runs
    # too early and the exhausted singleton group forces distance 1
    r = gc_witness_adversary(
        lambda: GeneratorSession("uniform", ALL_CLS, ZERO_REST, F(1, 2),
                                 d_star=1),
        ALL_CLS, ZERO_REST, F(1, 2), (0,))
    assert r.kind == UNREPRESENTATIVE
    assert r.distance == F(1) and r.group == 1
    assert verify_report(r, groups=ZERO_REST)


def test_gc_witness_vs_constant():
    r = gc_witness_adversary(
        lambda: ConstantSession(5),
        ALL_CLS, ZERO_REST, F(1, 2), (0,))
    assert r.kind == UNREPRESENTATIVE and r.distance == F(1)
    assert verify_report(r, groups=ZERO_REST)

    r2 = gc_witness_adversary(
        lambda: ConstantSession(0),
        ALL_CLS, ZERO_REST, F(1, 2), (0,))
    assert r2.kind == INCONSISTENT and r2.reason == "already-seen"
    assert verify_report(r2, groups=ZERO_REST, support=ALL)


def test_gc_witness_out_of_support():
    cls = HypothesisClass([Hypothesis("evens", EVENS)])
    groups = FiniteGroups([from_finite([0, 2]),
                           ODDS | (EVENS & from_threshold(4))])
    r = gc_witness_adversary(
        lambda: ConstantSession(3),
        cls, groups, F(1, 2), (0, 2))
    assert r.kind == INCONSISTENT and r.reason == "out-of-support"
    assert r.element == 3 and r.hypothesis == "evens"
    assert r.continuation == (4, 6, 8)
    assert verify_report(r, groups=groups, support=EVENS)


def test_gc_witness_distance_matches_fraction_reference():
    # On every zoo instance with a witness, an under-budgeted uniform
    # session and a point mass on the first unseen closure element both
    # land inside the closure, so the report names a group and a distance:
    # the smallest group attaining the Fraction sup distance, and its weight.
    reports = 0
    for inst in dimension_instances():
        cls, groups, alpha = inst["cls"], inst["groups"], inst["alpha"]
        gc = gc_dimension(cls, groups, alpha)
        if not gc.d:
            continue
        witness = gc.witness
        inside = cls.closure(witness).nth_unseen(set(witness), 0)
        for make in (lambda: GeneratorSession("uniform", cls, groups, alpha,
                                              d_star=gc.d),
                     lambda: ConstantSession(inside)):
            r = gc_witness_adversary(make, cls, groups, alpha, witness)
            if r.kind != UNREPRESENTATIVE:
                continue
            reports += 1
            lam = induced_group_probs(r.distribution, groups)
            pihat = induced_group_probs(empirical(witness), groups)
            gaps = {i: abs(lam.get(i, 0) - pihat.get(i, 0))
                    for i in lam.keys() | pihat.keys()}
            assert r.distance == sup_distance(lam, pihat), inst["name"]
            assert r.group == min(i for i, gap in gaps.items()
                                  if gap == r.distance), inst["name"]
            assert r.pi_hat == pihat[r.group], inst["name"]
    assert reports >= 10


def test_geometric_checkpoints_layout():
    # block i is reported at its end t_i = b + ... + b^i, on the history
    # 0, ..., t_i - 1
    for alpha, depth, steps in ((F(1, 2), 6, [2, 6, 14, 30, 62, 126]),
                                (F(2, 3), 3, [3, 12, 39])):
        reports = geometric_adversary(lambda *_: ConstantSession(0), alpha,
                                      depth)
        assert [r.step for r in reports] == steps
        assert [r.checkpoint for r in reports] == list(range(1, depth + 1))
        assert all(r.history == tuple(range(r.step)) for r in reports)


def test_geometric_vs_empirical():
    reports = geometric_adversary(
        lambda cls, groups, alpha: GeneratorSession("empirical", cls,
                                                    groups, alpha),
        F(1, 2), 6)
    assert [r.step for r in reports] == [2, 6, 14, 30, 62, 126]
    assert [r.pi_hat for r in reports] == [F(1), F(2, 3), F(4, 7), F(8, 15),
                                           F(16, 31), F(32, 63)]
    for r in reports:
        assert r.kind == INCONSISTENT and r.reason == "already-seen"
        assert r.pi_hat > F(1, 2)
        assert verify_report(r, support=ALL)


def test_geometric_vs_inlimit():
    reports = geometric_adversary(
        lambda cls, groups, alpha: GeneratorSession("inlimit", cls,
                                                    groups, alpha),
        F(1, 2), 4)
    assert [r.step for r in reports] == [2, 6, 14, 30]
    for r in reports:
        # at each checkpoint the completed block is both exhausted and too
        # heavy, so feasibility fails and the empirical fallback replays
        # seen elements
        assert r.kind == INCONSISTENT and r.reason == "already-seen"
        assert verify_report(r, support=ALL)


def test_geometric_vs_fresh_element_player():
    reports = geometric_adversary(
        lambda cls, groups, alpha: ConstantSession(10 ** 9),
        F(1, 2), 3)
    assert [r.step for r in reports] == [2, 6, 14]
    for r in reports:
        assert r.kind == UNREPRESENTATIVE
        assert r.distance == F(1)  # all mass in an untouched far block
        assert r.distance > F(1, 2)


def test_geometric_base_three():
    reports = geometric_adversary(
        lambda cls, groups, alpha: GeneratorSession("empirical", cls,
                                                    groups, alpha),
        F(2, 3), 3)
    assert [r.step for r in reports] == [3, 12, 39]
    assert all(r.pi_hat > F(2, 3) for r in reports)


def test_geometric_config_errors():
    factory = lambda cls, groups, alpha: ConstantSession(0)
    with pytest.raises(ConfigError):
        geometric_adversary(factory, F(1, 3), 2)  # 1/(1-a) = 3/2
    with pytest.raises(ConfigError):
        geometric_adversary(factory, F(0), 2)
    with pytest.raises(ConfigError):
        geometric_adversary(factory, F(1, 2), 0)


@pytest.mark.parametrize("play", [
    lambda n: query_adversary(QueryThenEmit(), n),
    lambda n: query_adversary(QueryThenEmit(), 2, query_budget=n),
    lambda n: geometric_adversary(
        lambda cls, groups, alpha: ConstantSession(0), F(1, 2), n),
], ids=["steps", "query_budget", "depth"])
@pytest.mark.parametrize("n", [True, False, 1.0, "1", None])
def test_adversary_counts_must_be_ints(play, n):
    # True is not the count 1, as it is not a d_star either
    with pytest.raises(TypeError, match="must be an int"):
        play(n)


def test_query_adversary_vs_query_then_emit():
    reports, st = query_adversary(QueryThenEmit(), 40)
    assert len(reports) == 40
    for r in reports:
        assert r.kind in (INCONSISTENT, UNREPRESENTATIVE)
        if r.kind == UNREPRESENTATIVE:
            assert r.distance >= F(1, 2)
            assert r.distance == r.pi_hat
    # the enumeration is a valid in-support prefix
    assert all(st.hyp.get(x) == 1 for x in st.enumeration)
    # the group-one share of distinct elements never dips below half
    distinct = []
    seen = set()
    for x in st.enumeration:
        if x not in seen:
            seen.add(x)
            distinct.append(x)
        ones = sum(1 for y in seen if st.grp.get(y) == 1)
        assert 2 * ones >= len(seen)


def test_query_adversary_vs_query_free_constant():
    reports, st = query_adversary(ConstantQueryFree(10 ** 6), 40)
    assert len(reports) == 40
    assert all(r.kind == INCONSISTENT for r in reports)
    reports2, _ = query_adversary(ConstantQueryFree(0), 40)
    assert all(r.kind == INCONSISTENT for r in reports2)
    assert reports2[0].reason == "already-seen"


class ScriptedQueryFree:
    """Ignores the oracle and plays a fixed distribution per round."""

    def __init__(self, mus):
        self.mus = iter(mus)

    def emit(self, prefix, oracle):
        return next(self.mus)


def test_query_adversary_reports_the_least_offender():
    # round 1: 6 and 8 were never queried; the least, 6, is declared out and
    # 8 stays undecided.  Round 2: 6 is now out and outranks the smaller
    # never-queried 3, which stays undecided too.  Round 3: of the two
    # offenders, enumerated 0 and declared-out 6, the least is reported
    mus = [RationalDist.uniform([8, 6]), RationalDist.uniform([6, 3]),
           RationalDist.uniform([6, 0])]
    reports, st = query_adversary(ScriptedQueryFree(mus), 3)
    assert [(r.element, r.reason) for r in reports] == [
        (6, "out-of-support"), (6, "out-of-support"), (0, "already-seen")]
    assert st.hyp[6] == 0 and st.grp[6] == 2
    assert 8 not in st.hyp and 3 not in st.hyp
    support = ALL - from_finite([6])
    assert all(verify_report(r, support=support) for r in reports)


def test_query_adversary_budget():
    reports, st = query_adversary(GreedyQuerier(), 40, query_budget=100)
    assert reports[-1].kind == BUDGET_EXCEEDED
    assert len(reports) <= 40
    assert verify_report(reports[-1])


class GroupThenEmit:
    """Asks group_member about `queries` elements nobody asked about before,
    then plays the first of them as a point mass."""

    def __init__(self, queries: int):
        self.queries = queries
        self.asked: list[int] = []
        self.answers: list[bool] = []

    def emit(self, prefix, oracle):
        first = 10 ** 6 + len(self.asked)
        for x in range(first, first + self.queries):
            self.answers.append(oracle.group_member(x))
            self.asked.append(x)
        return RationalDist.point(first)


def test_query_adversary_vs_group_member_queries():
    gen = GroupThenEmit(queries=2)
    reports, st = query_adversary(gen, 30, query_budget=2)
    assert len(reports) == 30 and len(gen.asked) == 60
    # fresh elements are answered "not in group one" and stay in-support
    assert gen.answers == [False] * 60
    assert all(st.grp[x] == 2 and st.hyp[x] == 1 for x in gen.asked)
    # they are queued and replayed in the order asked
    replayed = [x for x in st.enumeration if x in set(gen.asked)]
    assert len(replayed) == 15  # one per even round
    assert replayed + list(st.queue) == gen.asked
    group_one = from_finite(x for x, g in st.grp.items() if g == 1)
    groups = FiniteGroups([group_one, ALL - group_one])
    support = ALL - from_finite(x for x, h in st.hyp.items() if h == 0)
    for r in reports:
        assert r.kind == UNREPRESENTATIVE
        # query reports carry no alpha; their distances are >= 1/2
        assert verify_report(dataclasses.replace(r, alpha=F(1, 3)),
                             groups=groups, support=support)
    # every group_member call is charged against the per-step budget
    reports, _ = query_adversary(GroupThenEmit(queries=3), 30, query_budget=2)
    assert [r.kind for r in reports] == [BUDGET_EXCEEDED]
    assert verify_report(reports[0])


class RecountCheck:
    """Wraps a query generator and checks, before each of its moves, that
    the state's running group-one fraction equals a recount over the whole
    enumeration."""

    def __init__(self, inner):
        self.inner = inner
        self.checked = 0

    def emit(self, prefix, oracle):
        st = oracle._state
        assert tuple(st.enumeration) == prefix
        assert st.group_one_fraction() == _recounted_fraction(st)
        self.checked += 1
        return self.inner.emit(prefix, oracle)


def _recounted_fraction(st):
    """The group-one share of the enumeration, counted from scratch."""
    t = len(st.enumeration)
    return F(sum(1 for y in st.enumeration if st.grp.get(y) == 1), t)


@pytest.mark.parametrize("make", [QueryThenEmit,
                                  lambda: GroupThenEmit(queries=1)])
def test_query_adversary_running_count_matches_recount(make, monkeypatch):
    steps = 300
    check = RecountCheck(make())
    reports, st = query_adversary(check, steps)
    assert check.checked == len(reports) == steps
    # both generators query fresh elements, which come back as group-two
    # replays on every even round
    assert sum(st.grp[x] == 2 for x in st.enumeration) == steps // 2
    # the reports equal those of the from-scratch recount
    monkeypatch.setattr(QueryAdversaryState, "group_one_fraction",
                        _recounted_fraction)
    assert query_adversary(make(), steps) == (reports, st)


class LowersGroupOne:
    """Sets the state's group-one count to `group_one` once the enumeration
    reaches `at` elements, then plays a freshly queried element, which lies
    in group two, so the adversary reaches its group-one invariant."""

    def __init__(self, at, group_one):
        self.at, self.group_one = at, group_one

    def emit(self, prefix, oracle):
        st = oracle._state
        if len(prefix) == self.at:
            st.group_one = self.group_one
        x = st.next_fresh()
        oracle.hyp_member(x)
        return RationalDist.point(x)


def test_query_invariant_is_decided_on_counts():
    # Exactly half holds on every even round of a normal game; below half is
    # an internal impossibility, reported with the `Fraction` snapshot.
    with pytest.raises(InvariantViolation,
                       match="dropped below a half") as caught:
        query_adversary(LowersGroupOne(at=3, group_one=1), 3)
    assert caught.value.snapshot == {"t": 3, "fraction": "1/3"}
    with pytest.raises(InvariantViolation) as caught:
        query_adversary(LowersGroupOne(at=1, group_one=0), 1)
    assert caught.value.snapshot == {"t": 1, "fraction": "0"}


class DeclaresOut:
    """Every third round plays a point mass ahead of the scan (at three
    times the prefix's length, declared out of support when never queried),
    otherwise defers to the wrapped query generator; so that generator meets
    naturals answered out of support below its last answer."""

    def __init__(self, inner):
        self.inner = inner

    def emit(self, prefix, oracle):
        if len(prefix) % 3 == 0:
            return RationalDist.point(3 * len(prefix))
        return self.inner.emit(prefix, oracle)


@pytest.mark.parametrize("budget", [10 ** 6, 10])
def test_query_then_emit_cursor_matches_scan_from_zero(budget):
    # One cursor emitter is reused across games: each game restarts its
    # prefix, and the declared-out naturals make the cursor ask again.
    cursor, scan = QueryThenEmit(), ScanQueryThenEmit()
    last = []
    for steps, wrap in ((200, lambda g: g), (150, DeclaresOut),
                        (120, DeclaresOut), (60, lambda g: g)):
        got = query_adversary(wrap(cursor), steps, query_budget=budget)
        want = query_adversary(wrap(scan), steps, query_budget=budget)
        assert got == want
        last.append(want[0][-1].kind)
    # the small budget runs out once enough naturals are declared out
    assert (BUDGET_EXCEEDED in last) == (budget == 10)


def test_query_then_emit_cursor_matches_scan_when_interleaved():
    # One emitter serves two games in turn; prefixes extend, repeat or jump
    # at random, and each game starts with naturals already declared out.
    rng = random.Random(83)

    def state():
        st = QueryAdversaryState()
        for x in (1, 3, 4, 5, 7, 9, 11, 12, 20):
            st.hyp[x], st.grp[x] = 0, 2
        return st

    cursor, scan = QueryThenEmit(), ScanQueryThenEmit()
    games = [[state(), state(), ()] for _ in range(2)]
    exceeded = 0
    for _ in range(400):
        game = rng.choice(games)
        op = rng.random()
        if op < 0.15:
            game[2] = tuple(rng.choices(range(30), k=rng.randrange(6)))
        elif op < 0.9:
            game[2] += tuple(rng.choices(range(40), k=rng.randrange(4)))
        budget = rng.randrange(1, 6)
        answers = []
        for emitter, st in ((cursor, game[0]), (scan, game[1])):
            oracle = MembershipOracle(st, budget)
            try:
                answers.append(emitter.emit(game[2], oracle))
            except QueryBudgetExceeded:
                answers.append(BUDGET_EXCEEDED)
            answers.append(oracle._spent)
        assert answers[:2] == answers[2:]
        assert game[0] == game[1]
        exceeded += answers[0] == BUDGET_EXCEEDED
    assert 0 < exceeded < 400


class QueriesFirst:
    """Queries the given elements in its first round; emits far out."""

    def __init__(self, *xs):
        self.xs = xs

    def emit(self, prefix, oracle):
        if len(prefix) == 1:
            for x in self.xs:
                oracle.hyp_member(x)
        return RationalDist.point(10 ** 6)


@pytest.mark.parametrize("x", [-1, 2.5, True])
def test_a_query_must_be_a_natural(x):
    # such queries used to be enumerated: over 6 rounds, QueriesFirst(-1,
    # 2.5, True) gave st.enumeration == [0, -1, 2, 2.5, 3, True]
    with pytest.raises(ValueError, match=f"^queries must be naturals, got "
                                         f"{x!r}$"):
        query_adversary(QueriesFirst(x), 6)
    st = QueryAdversaryState()
    oracle = MembershipOracle(st, 1)
    for ask in oracle.hyp_member, oracle.group_member:
        with pytest.raises(ValueError):
            ask(x)
    assert (oracle._spent, st.hyp, st.queue) == (0, {}, deque())
    # nothing was charged: the one query of the budget is left
    assert oracle.hyp_member(4) and oracle._spent == 1


def test_game_length_is_bounded_by_max_steps(monkeypatch):
    monkeypatch.setattr("repgen.adversaries.MAX_STEPS", 14)
    factory = lambda cls, groups, alpha: ConstantSession(0)
    assert len(geometric_adversary(factory, F(1, 2), 3)) == 3  # 2 + 4 + 8
    with pytest.raises(ConfigError, match="depth 4 at base 2 needs more "
                                          "than 14 steps"):
        geometric_adversary(factory, F(1, 2), 4)
    with pytest.raises(ConfigError, match="needs more than 14 steps"):
        geometric_adversary(factory, F(2, 3), 10 ** 12)
    assert len(query_adversary(QueryThenEmit(), 14)[0]) == 14
    with pytest.raises(ConfigError, match="steps must be <= 14, got 15"):
        query_adversary(QueryThenEmit(), 15)


def test_query_budget_is_bounded():
    # every fresh query is stored, so a budget above the cap is refused
    # before the first step instead of growing memory until it trips
    for budget, text in ((-1, "query budget must be >= 0, got -1"),
                         (MAX_QUERY_BUDGET + 1, "query budget must be <= "
                          f"{MAX_QUERY_BUDGET}, got {MAX_QUERY_BUDGET + 1}")):
        with pytest.raises(ConfigError) as e:
            query_adversary(GreedyQuerier(), 1, query_budget=budget)
        assert str(e.value) == text
    # both ends are accepted: budget 0 trips at the first query, and the
    # cap is the default
    reports, _ = query_adversary(GreedyQuerier(), 1, query_budget=0)
    assert [r.kind for r in reports] == [BUDGET_EXCEEDED]
    assert query_adversary.__defaults__ == (MAX_QUERY_BUDGET,)
    assert len(query_adversary(QueryThenEmit(), 3,
                               query_budget=MAX_QUERY_BUDGET)[0]) == 3


def test_verifying_a_query_game_counts_each_element_once():
    """Verifying a game's reports in order hands the group collection about
    one new element per report, not each report's whole history: the tally
    places each new element through `owners`, and the distance weighs each
    report's one-element distribution through `owners` too."""
    steps = 600
    reports, st = query_adversary(QueryThenEmit(), steps)
    group_one = from_finite(x for x, g in st.grp.items() if g == 1)
    groups = FiniteGroups([group_one, ALL - group_one])
    support = ALL - from_finite(x for x, h in st.hyp.items() if h == 0)
    counted = 0
    mass_by_group = groups.mass_by_group
    owners = groups.owners

    def counting(xs, weights):
        nonlocal counted
        counted += len(xs)
        return mass_by_group(xs, weights)

    def placing(x):
        nonlocal counted
        counted += 1
        return owners(x)

    groups.mass_by_group = counting
    groups.owners = placing
    for r in reports:
        r = dataclasses.replace(r, alpha=F(1, 3))
        assert verify_report(r, groups=groups, support=support)
    assert steps <= counted <= 2 * steps


def test_verifying_a_query_game_builds_no_fraction(monkeypatch):
    # an unrepresentative verdict is decided on integers: the tally's gap
    # against the report's distance, and that distance against alpha
    reports, st = query_adversary(QueryThenEmit(), 600)
    group_one = from_finite(x for x, g in st.grp.items() if g == 1)
    groups = FiniteGroups([group_one, ALL - group_one])
    support = ALL - from_finite(x for x, h in st.hyp.items() if h == 0)
    reports = [dataclasses.replace(r, alpha=F(1, 3)) for r in reports]
    assert any(r.kind == UNREPRESENTATIVE for r in reports)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert all(verify_report(r, groups=groups, support=support)
               for r in reports)
    monkeypatch.undo()
    assert built == []


def _stored_field_by_field(**values):
    """A report built as the generated frozen __init__ builds one: one
    object.__setattr__ per field, in field order, defaults filled in."""
    r = object.__new__(ViolationReport)
    for f in dataclasses.fields(ViolationReport):
        object.__setattr__(r, f.name, values.get(f.name, f.default))
    return r


def _sample_reports():
    reports, _ = query_adversary(QueryThenEmit(), 12)
    reports += query_adversary(ConstantQueryFree(7), 2)[0]
    reports += geometric_adversary(
        lambda cls, groups, alpha: ConstantSession(10 ** 9), F(1, 2), 3)
    reports += geometric_adversary(
        lambda cls, groups, alpha: GeneratorSession("empirical", cls,
                                                    groups, alpha),
        F(2, 3), 2)
    reports.append(gc_witness_adversary(
        lambda: ConstantSession(0), ALL_CLS, ZERO_REST, F(1, 2), (0,)))
    reports.append(ViolationReport(step=1, kind=BUDGET_EXCEEDED,
                                   history=(0,), distribution=None))
    return reports


def test_report_init_stores_fields_as_the_generated_init_does():
    names = [f.name for f in dataclasses.fields(ViolationReport)]
    kinds = set()
    for r in _sample_reports():
        kinds.add((r.kind, r.reason))
        values = {n: getattr(r, n) for n in names}
        twin = _stored_field_by_field(**values)
        assert list(vars(r)) == list(vars(twin)) == names
        assert r == twin and hash(r) == hash(twin) and repr(r) == repr(twin)
        assert dataclasses.asdict(r) == dataclasses.asdict(twin)
        assert dataclasses.astuple(r) == dataclasses.astuple(twin)
        assert pickle.dumps(r) == pickle.dumps(twin)
        back = pickle.loads(pickle.dumps(r))
        assert back == r and hash(back) == hash(r) and vars(back) == vars(r)
        for change in ({"alpha": F(1, 3)}, {"history": tuple(r.history)},
                       {"checkpoint": 7}):
            assert dataclasses.replace(r, **change) == \
                dataclasses.replace(twin, **change)
            assert dataclasses.replace(r, **change) == \
                _stored_field_by_field(**{**values, **change})
        # positional arguments fill the fields in order
        assert ViolationReport(*values.values()) == r
        for name in ("step", "distance", "history"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(r, name)
        assert vars(r) == values
    assert kinds == {(INCONSISTENT, "already-seen"),
                     (INCONSISTENT, "out-of-support"),
                     (UNREPRESENTATIVE, None), (BUDGET_EXCEEDED, None)}


def test_report_init_signature_is_the_fields():
    # the hand-written __init__ must take every field, in order, with its
    # default: a field added later and left out of it fails here
    params = list(inspect.signature(ViolationReport.__init__).parameters.values())
    assert params[0].name == "self"
    fields = dataclasses.fields(ViolationReport)
    assert [p.name for p in params[1:]] == [f.name for f in fields]
    for p, f in zip(params[1:], fields):
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert f.default_factory is dataclasses.MISSING
        assert p.default == (inspect.Parameter.empty
                             if f.default is dataclasses.MISSING
                             else f.default), f.name
    # defaults alone fill in the optional fields
    r = ViolationReport(1, INCONSISTENT, (0,), RationalDist.point(0))
    assert r == _stored_field_by_field(step=1, kind=INCONSISTENT,
                                       history=(0,),
                                       distribution=RationalDist.point(0))


def test_query_reports_share_one_history():
    # each report's history is a view of the one enumeration, equal to and
    # hashed as the tuple of its first `step` entries
    reports, st = query_adversary(QueryThenEmit(), 50)
    for r in reports:
        assert isinstance(r.history, PrefixView)
        assert r.history == tuple(st.enumeration[:r.step])
        assert hash(r.history) == hash(tuple(st.enumeration[:r.step]))
        assert dataclasses.replace(r, history=tuple(r.history)) == r
        assert hash(dataclasses.replace(r, history=tuple(r.history))) \
            == hash(r)


def _held_bytes(steps):
    """Bytes tracemalloc sees held by a finished query game's reports and
    state."""
    gc.collect()
    tracemalloc.start()
    try:
        game = query_adversary(QueryThenEmit(), steps)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(game[0]) == steps
    return held


def test_query_game_memory_is_linear_in_its_length():
    # reports that each copied their history would hold T(T+1)/2 elements,
    # about four times as much per doubling
    held = [_held_bytes(steps) for steps in (600, 1200, 2400)]
    assert held[1] <= 2.5 * held[0] and held[2] <= 2.5 * held[1], held


def test_query_then_emit_restarts_on_a_view_it_does_not_extend():
    # views of one growing list, then of another list, then shorter ones:
    # answers and queries equal the scan from 0 throughout
    def game():
        st = QueryAdversaryState()
        for x in (1, 4, 6, 7):
            st.hyp[x], st.grp[x] = 0, 2
        return st

    cursor, scan = QueryThenEmit(), ScanQueryThenEmit()
    states = (game(), game())
    first, second = [], []
    for lst, n in ((first, None), (first, None), (first, None),
                   (second, None), (second, None), (first, 2), (first, None),
                   (second, 1), (first, 1), (first, 3), (first, None)):
        if n is None:
            lst.append(len(lst) * 3 % 11)
            n = len(lst)
        view = PrefixView(lst, n)
        answers = []
        for emitter, st in zip((cursor, scan), states):
            oracle = MembershipOracle(st, 100)
            answers.append((emitter.emit(view, oracle), oracle._spent))
        assert answers[0] == answers[1], view
        assert states[0] == states[1]


def test_query_adversary_rejects_bad_generator():
    class Liar:
        def emit(self, prefix, oracle):
            return {"not": "a distribution"}

    with pytest.raises(ConfigError):
        query_adversary(Liar(), 3)
    with pytest.raises(ConfigError):
        query_adversary(QueryThenEmit(), 0)


def test_verify_report_rejections():
    ok = ViolationReport(step=1, kind=INCONSISTENT, history=(0,),
                         distribution=RationalDist.point(0),
                         element=0, reason="already-seen")
    assert verify_report(ok)
    # element not actually carrying mass
    bad1 = ViolationReport(step=1, kind=INCONSISTENT, history=(0,),
                           distribution=RationalDist.point(3),
                           element=0, reason="already-seen")
    assert not verify_report(bad1)
    # wrong distance claim
    bad2 = ViolationReport(step=1, kind=UNREPRESENTATIVE, history=(0,),
                           distribution=RationalDist.point(1),
                           alpha=F(1, 2), group=1, distance=F(1, 3))
    assert not verify_report(bad2, groups=ZERO_REST)
    # distance not above alpha
    bad3 = ViolationReport(step=1, kind=UNREPRESENTATIVE, history=(0, 1),
                           distribution=RationalDist.point(2),
                           alpha=F(1), group=1, distance=F(1, 2))
    assert not verify_report(bad3, groups=ZERO_REST)
    # budget reports must carry no distribution
    bad4 = ViolationReport(step=1, kind=BUDGET_EXCEEDED, history=(0,),
                           distribution=RationalDist.point(0))
    assert not verify_report(bad4)
    # missing context
    good_unrep = ViolationReport(step=1, kind=UNREPRESENTATIVE, history=(0,),
                                 distribution=RationalDist.point(1),
                                 alpha=F(1, 2), group=1, distance=F(1))
    assert verify_report(good_unrep, groups=ZERO_REST)
    assert not verify_report(good_unrep)  # no groups supplied
    # empirical weight of the named group misstated
    weighed = dataclasses.replace(good_unrep, pi_hat=F(1))
    assert verify_report(weighed, groups=ZERO_REST)
    tampered = dataclasses.replace(good_unrep, pi_hat=F(1, 2))
    assert not verify_report(tampered, groups=ZERO_REST)


def test_verify_report_refuses_an_empty_history():
    # no empirical weights to be far from: False, not an error from the
    # tally's gap
    empty = ViolationReport(step=0, kind=UNREPRESENTATIVE, history=(),
                            distribution=RationalDist.point(1),
                            alpha=F(1, 2), group=1, distance=F(1))
    assert verify_report(empty, groups=ZERO_REST) is False
    assert verify_report(dataclasses.replace(empty, pi_hat=F(0)),
                         groups=ZERO_REST) is False
    assert verify_report(dataclasses.replace(empty, history=(0,)),
                         groups=ZERO_REST)


@pytest.mark.parametrize("field", ["alpha", "distance", "pi_hat"])
@pytest.mark.parametrize("value", [0.5, 1.0, True, False])
def test_verify_report_refuses_an_inexact_field(field, value):
    # a float or a bool in a rational field is a TypeError naming the
    # field, as check_alpha's, before any verdict; an int is exact
    good = ViolationReport(step=1, kind=UNREPRESENTATIVE, history=(0,),
                           distribution=RationalDist.point(1),
                           alpha=F(1, 2), group=1, distance=F(1), pi_hat=F(1))
    assert verify_report(good, groups=ZERO_REST)
    bad = dataclasses.replace(good, **{field: value})
    with pytest.raises(TypeError, match=rf"^{field} must be an int or "
                       rf"Fraction, got {type(value).__name__} {value!r}$"):
        verify_report(bad, groups=ZERO_REST)
    with pytest.raises(TypeError, match=f"^{field} must be"):
        verify_report(bad)  # refused before the missing groups are noticed
    # an int reads as the equal Fraction
    exact, same = (dataclasses.replace(good, **{field: v})
                   for v in (int(value), F(int(value))))
    assert verify_report(exact, groups=ZERO_REST) \
        == verify_report(same, groups=ZERO_REST)


def _element_by_element(self, k):
    """`GroupTally.add_block` as one `add` per element of the block."""
    for x in range(*self.groups.block_range(k)):
        self.add(x)


def _geometric_outcome(baseline, alpha, depth):
    """The reports of a geometric game as field tuples, or the error."""
    build = _baseline_session_factory(baseline, 10 ** 6 if depth % 2 else 5)
    try:
        reports = geometric_adversary(build, alpha, depth)
    except ConfigError as e:
        return "ConfigError", str(e)
    return [dataclasses.astuple(r) for r in reports]


@pytest.mark.parametrize("baseline",
                         ["empirical", "inlimit", "uniform-low", "constant"])
@pytest.mark.parametrize("alpha, depth", [
    *((F(1, 2), depth) for depth in range(1, 11)),
    *((F(2, 3), depth) for depth in range(1, 8)),
    *((F(3, 4), depth) for depth in range(1, 6)),
    (F(3, 4), 9),  # refused: past MAX_STEPS
])
def test_geometric_reports_equal_an_element_by_element_tally(
        baseline, alpha, depth, monkeypatch):
    # the adversary records each fully shown block with one add_block
    # call; a reference that adds its elements one at a time gives the
    # same reports, field by field (or the same refusal)
    got = _geometric_outcome(baseline, alpha, depth)
    monkeypatch.setattr(GroupTally, "add_block", _element_by_element)
    assert got == _geometric_outcome(baseline, alpha, depth)
    # the uniform baseline needs a finite partition; depth 9 at base 4 runs
    # past MAX_STEPS
    refused = baseline == "uniform-low" or (alpha, depth) == (F(3, 4), 9)
    assert (type(got) is list) != refused


def test_add_block_refuses_a_block_holding_a_seen_element():
    blocks = BlockPartition(2, (2,))
    tally, by_element = GroupTally(blocks), GroupTally(blocks)
    tally.add(3)  # block 2 is {2, 3, 4, 5}
    with pytest.raises(ValueError, match="block 2 already holds a seen"):
        tally.add_block(2)
    assert (tally.seen, tally.counts) == ({3}, {2: 1})  # unchanged
    for k in (1, 3):
        tally.add_block(k)
        _element_by_element(by_element, k)
    with pytest.raises(ValueError, match="block 3 already holds a seen"):
        tally.add_block(3)
    by_element.add(3)
    assert (tally.seen, tally.counts) == (by_element.seen, by_element.counts)
    for k, error in ((True, TypeError), (1.0, TypeError), (0, IndexError)):
        with pytest.raises(error):
            tally.add_block(k)


def test_add_block_refuses_a_finite_family():
    tally = GroupTally(ZERO_REST)
    with pytest.raises(TypeError, match="needs a block partition"):
        tally.add_block(1)
    assert (tally.seen, tally.counts) == (set(), {1: 0, 2: 0})
