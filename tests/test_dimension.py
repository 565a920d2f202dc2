"""Group closure dimension: witness conditions, the bounded exact search,
and agreement with an independent exhaustive oracle."""

import glob
import os
import random
from fractions import Fraction

import pytest

import repgen.dimension
from repgen.dimension import (MAX_D, Condition1, Condition2, GcSearch,
                              _atoms, check_witness, gc_dimension,
                              witnessed_unbounded)
from repgen.errors import ConfigError, InvariantViolation
from repgen.groups import BlockPartition, FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.periodic import (ALL, EVENS, ODDS, PeriodicSet, format_set,
                             from_finite, from_threshold)
from repgen.scenario import load_scenario
from instances import dimension_instances, worked_example_index
from oracles import _tuple_candidate_pool, naive_gc, tuple_gc_dimension

F = Fraction


def _cls(*supports):
    return HypothesisClass([Hypothesis(f"h{i + 1}", s)
                            for i, s in enumerate(supports)])


ALL_CLS = _cls(ALL)
ZERO_REST = FiniteGroups([from_finite([0]), from_threshold(1)])
SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "scenarios")


def _uniform_scenarios():
    return {os.path.basename(path): load_scenario(path)
            for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "u*.json")))}


def _search_instances():
    """(name, class, groups, alpha) for the bundled uniform scenarios and the
    zoo, each distinct instance once: eight zoo entries repeat a uniform
    scenario (u09 is nested-evens-mult4, for one)."""
    out = {}
    named = [(name, s.cls, s.groups, s.alpha)
             for name, s in _uniform_scenarios().items()]
    named += [(i["name"], i["cls"], i["groups"], i["alpha"])
              for i in dimension_instances()]
    for name, cls, groups, alpha in named:
        key = (tuple(format_set(cls.get(n).support)
                     for n in range(1, cls.materialized_count() + 1)),
               tuple(format_set(groups.group(i)) for i in groups.indices()),
               alpha)
        out.setdefault(key, (name, cls, groups, alpha))
    return list(out.values())


def _as_walk(result, max_d):
    """A search result as the tuple walk to max_d reports it, once its
    status is checked: exact iff the depth bound is within max_d."""
    exact = result.bound is not None and result.bound <= max_d
    assert result.status == ("exact" if exact else "at_least"), result
    return result.d, result.witness, result.condition


def test_check_witness_worked():
    assert check_witness(ALL_CLS, FiniteGroups([ALL]), F(1, 2), (0,)) is None
    cond = check_witness(ALL_CLS, ZERO_REST, F(1, 2), (0,))
    assert cond == Condition1(1)
    # with a second example the weight halves and both inequalities are
    # strict, so nothing fires
    assert check_witness(ALL_CLS, ZERO_REST, F(1, 2), (0, 5)) is None


def test_check_witness_condition2():
    c = FiniteGroups([from_finite([0]), from_finite([1]), from_threshold(2)])
    cond = check_witness(ALL_CLS, c, F(2, 3), (0, 1))
    assert cond == Condition2((1, 2), 1)


def test_check_witness_rejects_bad_tuples():
    with pytest.raises(ValueError):
        check_witness(ALL_CLS, ZERO_REST, F(1, 2), (0, 0))
    with pytest.raises(ValueError):
        check_witness(ALL_CLS, ZERO_REST, F(1, 2), ())


def test_check_witness_requires_partition():
    overlapping = FiniteGroups([EVENS, ALL])
    with pytest.raises(ConfigError):
        check_witness(ALL_CLS, overlapping, F(1, 2), (0,))


def test_check_witness_bot_closure():
    c = _cls(EVENS, ODDS)
    assert check_witness(c, FiniteGroups([EVENS, ODDS]), F(1, 2), (0, 1)) is None


def test_check_witness_blocks_condition1():
    b = BlockPartition(base=2)
    cond = check_witness(ALL_CLS, b, F(1, 2), (0, 1))
    assert cond == Condition1(1)


def test_check_witness_blocks_infinite_leftover():
    # the closure keeps infinitely many blocks alive, so the countable form
    # of condition 2 can never fire, and no touched block is exhausted here
    b = BlockPartition(base=2)
    assert check_witness(ALL_CLS, b, F(1, 1), (0, 1)) is None
    assert check_witness(ALL_CLS, b, F(1, 2), (0,)) is None


def test_check_witness_blocks_finite_leftover():
    # supports intersect in exactly {0, 1}: after seeing both, every block
    # is exhausted and the finite-leftover branch runs
    c = _cls(EVENS | from_finite([1]), ODDS | from_finite([0]))
    b = BlockPartition(base=2)
    cond = check_witness(c, b, F(1, 2), (0, 1))
    assert cond == Condition1(1)
    cond2 = check_witness(c, b, F(1, 1), (0, 1))
    assert cond2 == Condition2((1,), 0)


def test_gc_dimension_worked():
    r = gc_dimension(ALL_CLS, FiniteGroups([ALL]), F(1, 2))
    assert r.status == "exact" and r.d == 0 and r.witness is None

    r2 = gc_dimension(ALL_CLS, ZERO_REST, F(1, 2))
    assert r2.status == "exact" and r2.d == 1
    assert r2.witness == (0,) and r2.condition == Condition1(1)


def test_gc_dimension_deep_instance():
    c = FiniteGroups([from_finite([0]), from_finite([1]), from_threshold(2)])
    capped = gc_dimension(ALL_CLS, c, F(1, 4), GcSearch(max_d=5))
    assert capped.d == naive_gc(ALL_CLS, c, F(1, 4), max_d=5) == 5
    assert capped.status == "at_least" and capped.bound == 7
    full = gc_dimension(ALL_CLS, c, F(1, 4), GcSearch(max_d=8))
    assert full.status == "exact" and full.d == 7
    assert check_witness(ALL_CLS, c, F(1, 4), full.witness) == full.condition


def test_exact_only_once_the_depth_bound_is_searched():
    # u01 with its zero group widened to {0, ..., 5}: only tuples that take
    # all six, at depths 6..11, witness, so a shallow search sees nothing
    c = FiniteGroups([from_finite(range(6)), from_threshold(6)])
    for max_d in range(1, 13):
        r = gc_dimension(ALL_CLS, c, F(1, 2), GcSearch(max_d=max_d))
        assert r.bound == 11
        assert r.status == ("exact" if max_d >= 11 else "at_least")
        assert r.d == (min(max_d, 11) if max_d >= 6 else 0)


def test_advice_names_the_depth_bound():
    r = gc_dimension(ALL_CLS, ZERO_REST, F(1, 2), GcSearch(max_d=1))
    assert r.advice() == "raise gc_search.max_d to 1"
    # at alpha 0, {0} and any further elements witness
    r = gc_dimension(ALL_CLS, ZERO_REST, F(0))
    assert (r.status, r.bound) == ("at_least", None)
    assert r.advice() == "witness depth is unbounded"
    wide = FiniteGroups([from_finite(range(20)), from_threshold(20)])
    r = gc_dimension(ALL_CLS, wide, F(1, 4))
    assert (r.status, r.bound) == ("at_least", 79)
    assert r.advice() == f"witnesses may be 79 deep, beyond MAX_D = {MAX_D}"


def test_gc_dimension_config_errors():
    with pytest.raises(ConfigError):
        gc_dimension(ALL_CLS, BlockPartition(base=2), F(1, 2))
    with pytest.raises(ConfigError):
        gc_dimension(ALL_CLS, FiniteGroups([EVENS, ALL]), F(1, 2))
    open_cls = HypothesisClass([Hypothesis("a", ALL)],
                               provider=lambda i: Hypothesis(f"g{i}", ALL))
    with pytest.raises(ConfigError):
        gc_dimension(open_cls, ZERO_REST, F(1, 2))
    # the depth bound holds only for alpha >= 0
    for alpha in (F(-1, 2), F(3, 2)):
        with pytest.raises(ConfigError, match="alpha must be in"):
            gc_dimension(ALL_CLS, ZERO_REST, alpha)


def test_no_finite_atom_means_dimension_zero(monkeypatch):
    # Three mod-12 hypotheses against the residues mod 3: every atom is
    # infinite, so no tuple exhausts a group it holds elements of.  The
    # search answers 0 without deciding vectors, even at the largest depth.
    def no_vectors(*args):
        raise AssertionError("count vectors enumerated")

    monkeypatch.setattr(repgen.dimension, "_count_vectors", no_vectors)

    def mod12(*residues):
        return PeriodicSet(0, 12, frozenset(residues), frozenset())

    cls = _cls(mod12(0, 1, 2, 3, 4, 5, 6, 7), mod12(2, 3, 4, 5, 6, 7, 8, 9),
               mod12(4, 5, 6, 7, 8, 9, 10, 11, 0, 1))
    groups = FiniteGroups([PeriodicSet(0, 3, frozenset([r]), frozenset())
                           for r in range(3)])
    atoms = _atoms(cls, groups, 4)
    assert len(atoms) == 11 and all(a.size is None for a in atoms)
    for alpha in (F(0), F(1, 4), F(1, 2), F(1)):
        for max_d in (1, 2):
            search = GcSearch(max_d=max_d)
            assert _as_walk(gc_dimension(cls, groups, alpha, search), max_d) \
                == tuple_gc_dimension(cls, groups, alpha, max_d)
        deep = gc_dimension(cls, groups, alpha, GcSearch(max_d=MAX_D))
        assert (deep.status, deep.d, deep.witness, deep.bound) \
            == ("exact", 0, None, 0)


def test_gc_search_caps_max_d():
    assert GcSearch(max_d=MAX_D).max_d == MAX_D
    for max_d in (MAX_D + 1, 1_000_000_000):
        with pytest.raises(ConfigError,
                           match=f"must be <= {MAX_D}, got {max_d}$"):
            GcSearch(max_d=max_d)


def test_agreement_with_naive_oracle():
    for inst in dimension_instances():
        got = gc_dimension(inst["cls"], inst["groups"], inst["alpha"],
                           GcSearch(max_d=4))
        want = naive_gc(inst["cls"], inst["groups"], inst["alpha"], max_d=4)
        assert got.d == want, inst["name"]
        if inst["known"] is not None:
            assert got.d == inst["known"], inst["name"]
            assert got.status == "exact", inst["name"]


def test_worked_example_is_in_the_zoo():
    inst = dimension_instances()[worked_example_index()]
    r = gc_dimension(inst["cls"], inst["groups"], inst["alpha"])
    assert r.d == 1 and r.status == "exact"


def test_returned_witnesses_reverify():
    for inst in dimension_instances():
        r = gc_dimension(inst["cls"], inst["groups"], inst["alpha"],
                         GcSearch(max_d=4))
        if r.witness is not None:
            cond = check_witness(inst["cls"], inst["groups"], inst["alpha"],
                                 r.witness)
            assert cond == r.condition, inst["name"]
            assert len(r.witness) == r.d


def test_exact_means_no_deeper_witness():
    rng = random.Random(73)
    for inst in dimension_instances():
        r = gc_dimension(inst["cls"], inst["groups"], inst["alpha"],
                         GcSearch(max_d=4))
        if r.status != "exact":
            continue
        pool = _tuple_candidate_pool(inst["cls"], inst["groups"], 4)
        if len(pool) <= r.d:
            continue
        for _ in range(1000):
            xs = tuple(sorted(rng.sample(pool, min(r.d + 1, len(pool)))))
            assert check_witness(inst["cls"], inst["groups"], inst["alpha"],
                                 xs) is None, (inst["name"], xs)


def test_condition1_witness_transfers_to_smaller_alpha():
    for inst in dimension_instances():
        r = gc_dimension(inst["cls"], inst["groups"], inst["alpha"],
                         GcSearch(max_d=4))
        if r.witness is None or not isinstance(r.condition, Condition1):
            continue
        smaller = inst["alpha"] / 2
        assert check_witness(inst["cls"], inst["groups"], smaller,
                             r.witness) is not None, inst["name"]


def test_witnessed_unbounded():
    b = BlockPartition(base=2)
    fam = [tuple(range(2)), tuple(range(3)), tuple(range(6)),
           tuple(range(14))]
    r = witnessed_unbounded(ALL_CLS, b, F(1, 2), fam)
    assert r.status == "infinite" and r.d == 14
    assert isinstance(r.condition, Condition1)

    with pytest.raises(ValueError):
        witnessed_unbounded(ALL_CLS, b, F(1, 2), [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        witnessed_unbounded(ALL_CLS, b, F(1, 2), [(3, 4)])  # block 1 alive
    with pytest.raises(ValueError):
        witnessed_unbounded(ALL_CLS, b, F(1, 2), [])


def test_count_search_matches_tuple_walk():
    instances = _search_instances()
    assert len(instances) == 16
    for name, cls, groups, alpha in instances:
        for max_d in range(1, 7):
            got = gc_dimension(cls, groups, alpha, GcSearch(max_d=max_d))
            assert _as_walk(got, max_d) \
                == tuple_gc_dimension(cls, groups, alpha, max_d), (name, max_d)


def test_count_search_matches_tuple_walk_on_the_bundled_settings():
    for name, s in _uniform_scenarios().items():
        max_d = s.gc_search.max_d
        got = gc_dimension(s.cls, s.groups, s.alpha, s.gc_search)
        assert _as_walk(got, max_d) \
            == tuple_gc_dimension(s.cls, s.groups, s.alpha, max_d), name


def test_search_verifies_only_its_witness(monkeypatch):
    calls = []
    verify = repgen.dimension.check_witness

    def counted(*args):
        calls.append(args[3])
        return verify(*args)

    monkeypatch.setattr(repgen.dimension, "check_witness", counted)
    for name, cls, groups, alpha in _search_instances():
        calls.clear()
        r = gc_dimension(cls, groups, alpha, GcSearch(max_d=6))
        assert calls == ([r.witness] if r.witness else []), name


def test_search_reports_a_disagreeing_verifier(monkeypatch):
    monkeypatch.setattr(repgen.dimension, "check_witness",
                        lambda *args: None)
    with pytest.raises(InvariantViolation, match="check_witness says None"):
        gc_dimension(ALL_CLS, ZERO_REST, F(1, 2))


def test_deep_search_is_practical():
    s = _uniform_scenarios()["u06-pairs-twothirds.json"]
    r = gc_dimension(s.cls, s.groups, s.alpha, GcSearch(max_d=40))
    assert r.status == "exact" and r.d == 5
    assert check_witness(s.cls, s.groups, s.alpha, r.witness) == r.condition
