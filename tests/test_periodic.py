"""Set algebra: canonical forms, boolean operations, decision procedures,
and the textual notation, checked against pointwise membership oracles."""

import random

import pytest

from repgen.periodic import (ALL, EMPTY, EVENS, MAX_PARSED, ODDS, PeriodicSet,
                             format_set, from_finite, from_threshold, interval,
                             multiples, parse_set)
from oracles import scan_bound


def test_membership_basics():
    assert 4 in EVENS
    assert 7 not in EVENS
    s = PeriodicSet(3, 3, (1,), (0,))
    assert 0 in s
    assert 1 not in s
    assert 4 in s  # 4 >= 3 and 4 % 3 == 1
    assert 3 not in s


def test_intersection_union_worked():
    assert (EVENS & ODDS) == EMPTY
    assert (EVENS | ODDS) == ALL
    s = PeriodicSet(4, 3, (1,))  # x>=4, x=1 mod 3
    expect = PeriodicSet(4, 6, (4,))  # x>=4, x=4 mod 6
    assert (s & EVENS) == expect


def test_finiteness_and_size():
    assert EMPTY.is_empty() and EMPTY.is_finite() and EMPTY.size_if_finite() == 0
    assert not EVENS.is_finite()
    s = PeriodicSet(5, 1, (), (1, 3))
    assert s.size_if_finite() == 2


def test_nth_unseen_worked():
    assert EVENS.nth_unseen({0, 2}) == 4
    assert EMPTY.nth_unseen(set()) is None
    s = PeriodicSet(0, 3, (1,))
    assert s.nth_unseen({1, 4, 7}, k=1) == 13


@pytest.mark.parametrize("s", [EVENS, EMPTY, from_finite([3])])
@pytest.mark.parametrize("k, error", [(-1, ValueError), (-5, ValueError),
                                      (True, TypeError), (False, TypeError),
                                      (1.0, TypeError), ("1", TypeError)])
def test_nth_unseen_refuses_a_bad_k_before_enumerating(s, k, error):
    # a negative k used to enumerate an infinite set forever
    with pytest.raises(error, match="k must be"):
        s.nth_unseen(set(), k)


def test_subset_and_equality():
    assert multiples(4).is_subset(EVENS)
    assert not EVENS.is_subset(multiples(4))
    # {1} + evens from 2 is not the odds
    s = PeriodicSet(2, 2, (0,), (1,))
    assert s != ODDS


def test_canonical_redundant_period():
    # period 4 with residues {0,2} collapses to period 2
    s = PeriodicSet(0, 4, (0, 2))
    assert s == EVENS
    assert s.modulus == 2


def test_canonical_threshold_folding():
    # prefix elements that agree with the periodic pattern fold into it
    s = PeriodicSet(4, 2, (0,), (0, 2))
    assert s == EVENS
    assert s.threshold == 0


def test_complement_involution():
    rng = random.Random(7)
    for _ in range(100):
        s = _random_set(rng)
        assert s.complement().complement() == s


def test_validation_errors():
    with pytest.raises(ValueError):
        PeriodicSet(0, 0, ())
    with pytest.raises(ValueError):
        PeriodicSet(0, 2, (2,))
    with pytest.raises(ValueError):
        PeriodicSet(2, 2, (0,), (5,))  # prefix element beyond threshold


@pytest.mark.parametrize("build", [
    lambda: from_finite([1.5]),             # threshold 2.5, prefix {1.5}
    lambda: from_finite([True]),
    lambda: PeriodicSet(0, 3, (1.5,)),      # used to become empty
    lambda: PeriodicSet(0, 3, (True,)),
    lambda: PeriodicSet(2.0, 3, (1,)),
    lambda: PeriodicSet(0, 2.0, (1,)),
    lambda: PeriodicSet(True, 2, (1,)),
    lambda: PeriodicSet(0, True, (0,)),
    lambda: PeriodicSet(3, 2, (1,), (0.0,)),
    lambda: PeriodicSet(3, 2, (1,), (False,)),
])
def test_non_int_fields_are_refused(build):
    with pytest.raises(TypeError, match="must be ints"):
        build()


def _random_set(rng):
    t = rng.randrange(0, 8)
    m = rng.randrange(1, 7)
    rs = tuple(r for r in range(m) if rng.random() < 0.4)
    fs = tuple(x for x in range(t) if rng.random() < 0.4)
    return PeriodicSet(t, m, rs, fs)


def _raw_member(x, t, m, rs, fs):
    return x in fs or (x >= t and x % m in rs)


def test_canonicalization_preserves_membership():
    rng = random.Random(11)
    for _ in range(300):
        t = rng.randrange(0, 8)
        m = rng.randrange(1, 7)
        rs = tuple(r for r in range(m) if rng.random() < 0.4)
        fs = tuple(x for x in range(t) if rng.random() < 0.4)
        s = PeriodicSet(t, m, rs, fs)
        for x in range(t + 3 * m + 5):
            assert (x in s) == _raw_member(x, t, m, rs, fs), (s, x)


def test_algebra_against_pointwise_oracle():
    rng = random.Random(13)
    for _ in range(200):
        a, b = _random_set(rng), _random_set(rng)
        bound, period = scan_bound([a, b])
        for x in range(bound + period):
            assert (x in (a & b)) == ((x in a) and (x in b))
            assert (x in (a | b)) == ((x in a) or (x in b))
            assert (x in (a - b)) == ((x in a) and not (x in b))
        assert all((x in a.complement()) != (x in a)
                   for x in range(bound + period))


def test_subset_matches_scan():
    rng = random.Random(17)
    for _ in range(200):
        a, b = _random_set(rng), _random_set(rng)
        bound, period = scan_bound([a, b])
        scan = all((x not in a) or (x in b) for x in range(bound + period))
        assert a.is_subset(b) == scan


def test_emptiness_finiteness_match_scan():
    rng = random.Random(19)
    for _ in range(200):
        s = _random_set(rng)
        bound, period = scan_bound([s])
        elems = [x for x in range(bound + period) if x in s]
        assert s.is_empty() == (not elems)
        tail = [x for x in range(bound, bound + period) if x in s]
        assert s.is_finite() == (not tail)
        if s.is_finite():
            assert s.size_if_finite() == len(elems)
        else:
            assert s.size_if_finite() is None


def test_members_enumeration_sorted_and_complete():
    rng = random.Random(23)
    for _ in range(100):
        s = _random_set(rng)
        bound, period = scan_bound([s])
        want = [x for x in range(bound + period) if x in s]
        got = []
        for x in s.members():
            if x >= bound + period:
                break
            got.append(x)
        assert got == want


def test_nth_unseen_strictly_increasing():
    rng = random.Random(29)
    for _ in range(100):
        s = _random_set(rng)
        excluded = {rng.randrange(0, 20) for _ in range(rng.randrange(0, 6))}
        vals = [s.nth_unseen(excluded, k) for k in range(5)]
        defined = [v for v in vals if v is not None]
        assert defined == sorted(set(defined))
        # None only after the set runs out, never in between
        seen_none = False
        for v in vals:
            if v is None:
                seen_none = True
            else:
                assert not seen_none


def test_notation_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        s = _random_set(rng)
        assert parse_set(format_set(s)) == s


def test_notation_named_forms():
    assert format_set(EVENS) == "evens"
    assert format_set(ODDS) == "odds"
    assert format_set(ALL) == "all"
    assert format_set(EMPTY) == "empty"
    assert parse_set("finite:{1,3,5}") == from_finite([1, 3, 5])
    assert parse_set("ap:3,2,{1},{0}") == PeriodicSet(3, 2, (1,), (0,))


def test_notation_rejects_garbage():
    for bad in ("evns", "ap:1,2", "finite:{1,", "ap:0,0,{},{}", ""):
        with pytest.raises(ValueError):
            parse_set(bad)


@pytest.mark.parametrize("text,refused", [
    ("ap:0,1000000007,{1},{}", "modulus must be <= 10000, got 1000000007"),
    ("ap:10001,2,{1},{}", "threshold must be <= 10000, got 10001"),
    ("finite:{3,10001}", "finite elements must be <= 10000, got 10001"),
])
def test_notation_refuses_values_above_the_bound(text, refused, monkeypatch):
    # refused before any set is built: construction is O(modulus)
    monkeypatch.setattr(PeriodicSet, "__init__", None)
    with pytest.raises(ValueError) as e:
        parse_set(text)
    assert str(e.value) == refused


def test_notation_accepts_values_at_the_bound():
    assert MAX_PARSED == 10 ** 4
    assert parse_set("ap:10000,10000,{1},{}").modulus == 10000
    assert parse_set("finite:{10000}") == from_finite([10000])


def test_interval_and_threshold_helpers():
    assert list(interval(3, 6).members()) == [3, 4, 5]
    s = from_threshold(4)
    assert 3 not in s and 4 in s and not s.is_finite()
    assert multiples(3).nth_unseen(set()) == 0
