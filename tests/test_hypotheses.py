"""Hypothesis classes: consistency filtering, closure, criticality, and
the prefix/extension machinery."""

import random

import pytest

from oracles import consistent_among
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.periodic import (ALL, EVENS, ODDS, PeriodicSet, from_finite,
                             from_threshold, multiples)


def _cls(*supports):
    return HypothesisClass([Hypothesis(f"h{i + 1}", s)
                            for i, s in enumerate(supports)])


def test_infinite_support_required():
    with pytest.raises(ValueError):
        Hypothesis("tiny", from_finite([1, 2]))


def test_consistent_indices_worked():
    c = _cls(EVENS)
    assert c.consistent_indices([2, 4]) == [1]
    assert c.consistent_indices([3]) == []
    c2 = _cls(EVENS, multiples(4) | ODDS)
    assert c2.consistent_indices([4, 8]) == [1, 2]
    assert c2.consistent_indices([2]) == [1]


def test_closure_worked():
    c = _cls(EVENS, multiples(4) | ODDS)
    assert c.closure([4]) == multiples(4)
    assert c.closure([2]) == EVENS
    # 2 rules out h2, 3 rules out h1: nothing left
    assert c.closure([2, 3]) is None


def test_closure_in_every_support():
    rng = random.Random(37)
    for _ in range(60):
        supports = [_random_infinite(rng) for _ in range(rng.randrange(1, 4))]
        c = _cls(*supports)
        prefix = _random_prefix(rng, supports)
        if prefix is None:
            continue
        cl = c.closure(prefix)
        idx = c.consistent_indices(prefix)
        if not idx:
            assert cl is None
            continue
        for i in idx:
            assert cl.is_subset(c.get(i).support)
        for x in prefix:
            assert x in cl


def test_closure_grows_with_prefix():
    # longer prefixes keep fewer hypotheses, so the intersection widens
    rng = random.Random(41)
    for _ in range(60):
        supports = [_random_infinite(rng) for _ in range(rng.randrange(1, 4))]
        c = _cls(*supports)
        prefix = _random_prefix(rng, supports, length=5)
        if prefix is None:
            continue
        prev = None
        for k in range(1, len(prefix) + 1):
            cl = c.closure(prefix[:k])
            if cl is None:
                break
            if prev is not None:
                assert prev.is_subset(cl)
            prev = cl


def test_consistent_set_shrinks():
    rng = random.Random(43)
    for _ in range(60):
        supports = [_random_infinite(rng) for _ in range(rng.randrange(1, 5))]
        c = _cls(*supports)
        prefix = _random_prefix(rng, supports, length=6)
        if prefix is None:
            continue
        prev = None
        for k in range(len(prefix) + 1):
            cur = set(c.consistent_indices(prefix[:k]))
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_is_critical_worked():
    c = _cls(EVENS, multiples(4))
    assert c.is_critical(2, [4, 8])
    assert c.is_critical(1, [4, 8])
    assert not c.is_critical(2, [4])  # index exceeds prefix length


def test_is_critical_requires_consistency():
    c = _cls(EVENS, ODDS)
    assert not c.is_critical(1, [1, 3])  # evens inconsistent with odd element
    assert c.is_critical(2, [1, 3])


def test_is_critical_support_containment():
    # h2's support is not inside h1's, so h2 is not critical at stage 2
    c = _cls(multiples(4), EVENS)
    assert not c.is_critical(2, [4, 8])
    # reversed nesting: the smaller support comes later
    c2 = _cls(EVENS, multiples(4))
    assert c2.is_critical(2, [4, 8])


def test_provider_extension():
    base = [Hypothesis("a", EVENS), Hypothesis("b", ODDS)]

    def provider(i):
        return Hypothesis(f"gen{i}", ALL)

    c = HypothesisClass(base, provider=provider)
    assert c.extendable
    assert c.materialized_count() == 2
    assert c.get(4).id == "gen4"
    assert c.materialized_count() == 4
    # the membership mask covers the materialized members only, and agrees
    # with looking each one up
    assert c.holding(2) == 0b1101
    assert consistent_among(c, range(1, 5), 2) == (1, 3, 4)
    assert c.materialized_count() == 4
    p2 = c.prefix_class(2)
    assert not p2.extendable
    assert p2.materialized_count() == 2
    # bound must be explicit when the class is open-ended
    with pytest.raises(ValueError):
        c.consistent_indices([2], upto=None)
    assert c.consistent_indices([2], upto=3) == [1, 3]


def test_indexing_is_one_based():
    c = _cls(EVENS)
    assert c.get(1).support == EVENS
    with pytest.raises(IndexError):
        c.get(0)
    with pytest.raises(IndexError):
        c.get(2)
    assert c.by_id("h1") == (1, c.get(1))
    with pytest.raises(KeyError):
        c.by_id("missing")


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        HypothesisClass([Hypothesis("x", EVENS), Hypothesis("x", ODDS)])


def _random_infinite(rng):
    while True:
        m = rng.randrange(1, 6)
        rs = tuple(r for r in range(m) if rng.random() < 0.5)
        if not rs:
            continue
        t = rng.randrange(0, 5)
        fs = tuple(x for x in range(t) if rng.random() < 0.3)
        return PeriodicSet(t, m, rs, fs)


def _random_prefix(rng, supports, length=4):
    # draw from a random support so consistency is plausible
    s = supports[rng.randrange(len(supports))]
    out = []
    for x in s.members():
        if len(out) >= length:
            break
        if rng.random() < 0.6:
            out.append(x)
    return out if out else None


def test_holding_mask_equals_a_member_scan():
    # one memo entry per membership class, however many elements ask: x
    # below T, T + (x - T) mod M from T on; here T = 4 and M = 12
    rng = random.Random(7)
    supports = [PeriodicSet(4, 4, (1, 2), (0, 3)), multiples(3),
                from_threshold(2), ODDS]
    c = _cls(*supports)
    xs = list(range(200)) + rng.sample(range(200, 10 ** 9), 2000)
    for x in xs:
        assert c.holding(x) == sum(1 << n for n, s in enumerate(supports)
                                   if x in s), x
    assert len(c._holding_memo) <= 4 + 12


def test_holding_mask_starts_afresh_when_a_member_is_materialized():
    # h_n = multiples(n): each new member changes M, so a memo kept across
    # materializing would answer with the old period and miss the new bit
    c = HypothesisClass([], provider=lambda n: Hypothesis(f"m{n}", multiples(n)))
    c.ensure(2)
    assert c.holding(6) == 0b11
    assert c.holding(9) == 0b01
    c.ensure(3)
    assert c.holding(9) == 0b101
    assert c.holding(6) == 0b111
    c.ensure(6)
    for x in range(100):
        assert c.holding(x) == sum(1 << (n - 1) for n in range(1, 7)
                                   if x % n == 0), x
        assert consistent_among(c, range(1, 7), x) == tuple(
            n for n in range(1, 7) if c.holding(x) >> (n - 1) & 1)
