"""Property tests for report verification.

`verify_report` decides an unrepresentative report in integers: the
tally's gap against the report's distance, that distance against alpha, and
the named group's count against `pi_hat`.  Its verdict equals a recomputation
from `Fraction` group probabilities (`sup_distance` over
`induced_group_probs`, sharing no code with the tally) on every report of
query and geometric games, for point-mass and spread players, and on copies
of those reports with one field wrong: the distance's numerator moved by
one, the distance equal to alpha (refused: the check is strict), `pi_hat`
off by one count, or no alpha.  `is_alpha_representative` accepts at alpha
equal to the distance (its check is inclusive) and refuses just below it."""

import dataclasses
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from oracles import induced_group_probs, sup_distance
from repgen.adversaries import (UNREPRESENTATIVE, geometric_adversary,
                                query_adversary, verify_report)
from repgen.groups import FiniteGroups
from repgen.measures import RationalDist, empirical, is_alpha_representative
from repgen.periodic import ALL, from_finite

F = Fraction


class SpreadQuerier:
    """Query generator that plays the uniform distribution over the first
    `k` unseen naturals the oracle confirms in support (k = 1 is
    `QueryThenEmit`'s answer)."""

    def __init__(self, k: int):
        self.k = k

    def emit(self, prefix, oracle):
        seen, picked, x = set(prefix), [], 0
        while len(picked) < self.k:
            if x not in seen and oracle.hyp_member(x):
                picked.append(x)
            x += 1
        return RationalDist.uniform(picked)


class AheadSession:
    """Geometric-game session that, shown x, plays the uniform distribution
    over x + offset, ..., x + offset + k - 1: unseen elements, one block on
    or several, so every checkpoint report is unrepresentative."""

    def __init__(self, offset: int, k: int):
        self.offset, self.k = offset, k

    def step(self, x):
        lo = x + self.offset
        return RationalDist.uniform(range(lo, lo + self.k))


def query_game(steps, k):
    reports, st_ = query_adversary(SpreadQuerier(k), steps)
    group_one = from_finite(x for x, g in st_.grp.items() if g == 1)
    return reports, FiniteGroups([group_one, ALL - group_one])


def geometric_game(alpha, depth, offset, k):
    groups = []

    def make(cls, g, a):
        groups.append(g)
        return AheadSession(offset, k)

    return geometric_adversary(make, alpha, depth), groups[0]


def fraction_verdict(r, emp, probs):
    """An unrepresentative report's verdict from `Fraction` group
    probabilities: emp of its history's empirical distribution, probs of
    its distribution."""
    if r.distance is None or r.alpha is None:
        return False
    if (r.group is not None and r.pi_hat is not None
            and emp.get(r.group, F(0)) != r.pi_hat):
        return False
    return sup_distance(probs, emp) == r.distance and r.distance > r.alpha


def mutations(r):
    """Copies of a report that are each wrong in one field or sit at the
    strict boundary; none of them may verify."""
    p, q = r.distance.numerator, r.distance.denominator
    n = len(set(r.history))
    count = r.pi_hat * n
    assert count.denominator == 1
    return [dataclasses.replace(r, distance=F(p + 1, q)),
            dataclasses.replace(r, distance=F(p - 1, q)),
            dataclasses.replace(r, alpha=r.distance),
            dataclasses.replace(r, pi_hat=F(count + 1, n)),
            dataclasses.replace(r, pi_hat=F(count - 1, n)),
            dataclasses.replace(r, alpha=None)]


alphas = st.builds(F, st.integers(0, 12), st.just(12))
games = st.one_of(
    st.tuples(st.just("query"), st.integers(1, 80), st.integers(1, 3),
              st.one_of(st.none(), alphas)),
    st.tuples(st.just("geometric"),
              st.sampled_from([(F(1, 2), 6), (F(2, 3), 4), (F(3, 4), 3)]),
              st.integers(1, 40), st.integers(1, 3),
              st.one_of(st.none(), alphas)))


@settings(max_examples=40, deadline=None)
@given(games)
@example(("query", 80, 1, None))
@example(("geometric", (F(1, 2), 6), 1, 1, None))
@example(("geometric", (F(2, 3), 4), 30, 3, F(1)))
def test_integer_verdicts_match_fraction_recomputation(game):
    if game[0] == "query":
        _, steps, k, alpha = game
        reports, groups = query_game(steps, k)
        # query reports carry no alpha; every distance is 1/2 or more
        if alpha is None:
            alpha = F(1, 3)
    else:
        _, (game_alpha, depth), offset, k, alpha = game
        reports, groups = geometric_game(game_alpha, depth, offset, k)
    checked = 0
    for r in reports:
        if r.kind != UNREPRESENTATIVE:
            continue
        if alpha is not None:
            r = dataclasses.replace(r, alpha=alpha)
        emp = induced_group_probs(empirical(r.history), groups)
        probs = induced_group_probs(r.distribution, groups)
        expected = fraction_verdict(r, emp, probs)
        assert expected is (r.distance > r.alpha)
        assert verify_report(r, groups=groups) is expected
        for m in mutations(r):
            assert not fraction_verdict(m, emp, probs)
            assert verify_report(m, groups=groups) is False
        # the representativeness check is inclusive at alpha
        dist = sup_distance(probs, emp)
        for a, ok in ((dist, True), (dist - F(1, 10 ** 6), False)):
            if 0 <= a:
                assert is_alpha_representative(
                    r.distribution, r.history, groups, a) == (ok, dist)
        checked += 1
    assert checked
