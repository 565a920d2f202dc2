"""Group closure dimension: witness conditions, the closed form, and
agreement with an independent exhaustive oracle and the two earlier
searches kept in `oracles.py`."""

import glob
import os
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

import repgen.dimension
from repgen.dimension import (MAX_CHOICES, MAX_D, Condition1, Condition2,
                              _atoms, check_witness, gc_depth, gc_dimension)
from repgen.errors import ConfigError, InvariantViolation
from repgen.groups import BlockPartition, FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.periodic import (ALL, EVENS, ODDS, PeriodicSet, format_set,
                             from_finite, from_threshold, multiples,
                             parse_set)
from repgen.scenario import load_scenario
from instances import dimension_instances, worked_example_index
from oracles import (_tuple_candidate_pool, count_vector_depth_bound,
                     count_vector_gc_dimension, naive_gc,
                     rational_check_witness, tuple_gc_dimension)

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


def _both_oracles(cls, groups, alpha):
    """(d, witness, condition) from the tuple walk and from the count-vector
    search, each run to the count-vector depth bound B, which makes both
    exact; they must agree before either stands as the reference."""
    bound = count_vector_depth_bound(cls, groups, alpha)
    assert bound is not None
    want = tuple_gc_dimension(cls, groups, alpha, bound)
    assert count_vector_gc_dimension(cls, groups, alpha, bound) == want
    return want


def _exact(result):
    assert result.status == "exact", result
    return result.d, result.witness, result.condition


def _x01(k):
    """u01 with its zero group widened to {0, ..., k - 1}: at alpha 1/2 only
    tuples that take all k witness, at depths k to 2k - 1."""
    return FiniteGroups([from_finite(range(k)), from_threshold(k)])


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
    # 1.0 lies in every support that holds 1, but is not a natural
    with pytest.raises(ValueError, match="got 1.0$"):
        check_witness(ALL_CLS, ZERO_REST, F(1, 2), (0, 1.0))
    # -1 is an int but no natural: refused before the closure is asked
    with pytest.raises(ValueError,
                       match="^elements must be naturals, got -1$"):
        check_witness(ALL_CLS, ZERO_REST, F(1, 2), (-1,))


def test_check_witness_rejects_bad_alpha():
    # a float never reaches an exact verdict, however it compares
    with pytest.raises(TypeError, match="alpha must be an int or Fraction"):
        check_witness(ALL_CLS, ZERO_REST, 0.5, (0,))
    for alpha in (F(-1, 2), F(3, 2), 2):
        with pytest.raises(ConfigError, match=r"alpha must be in \[0, 1\]"):
            check_witness(ALL_CLS, ZERO_REST, alpha, (0,))
    assert check_witness(ALL_CLS, ZERO_REST, 0, (0,)) == Condition1(1)


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
    # blocks {0, 1}, {2..5}, {6..13}: a whole block outweighs 1/2 of
    # range(k) however deep; a tuple that leaves block 1 alive does not
    for k, block in ((3, 1), (6, 2), (14, 3)):
        assert check_witness(ALL_CLS, b, F(1, 2), range(k)) \
            == Condition1(block)
    assert check_witness(ALL_CLS, b, F(1, 2), (3, 4)) is None


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


def test_check_witness_matches_the_fraction_reference_on_witness_subsets():
    # the bundled witnesses reach condition 2 against up to four groups,
    # which random small instances seldom do
    for name, cls, groups, alpha in _search_instances():
        witness = gc_dimension(cls, groups, alpha).witness or ()
        for a in {alpha, F(1, 4), F(1, 2), F(1)}:
            for n in range(1, len(witness) + 1):
                for xs in combinations(witness, n):
                    assert check_witness(cls, groups, a, xs) \
                        == rational_check_witness(cls, groups, a, xs), \
                        (name, a, xs)


def test_gc_dimension_worked():
    r = gc_dimension(ALL_CLS, FiniteGroups([ALL]), F(1, 2))
    assert r.status == "exact" and r.d == 0 and r.witness is None

    r2 = gc_dimension(ALL_CLS, ZERO_REST, F(1, 2))
    assert r2.status == "exact" and r2.d == 1
    assert r2.witness == (0,) and r2.condition == Condition1(1)


def test_gc_dimension_deep_instance():
    c = FiniteGroups([from_finite([0]), from_finite([1]), from_threshold(2)])
    r = gc_dimension(ALL_CLS, c, F(1, 4))
    assert (r.status, r.d) == ("exact", 7)
    assert naive_gc(ALL_CLS, c, F(1, 4), max_d=8) == 7
    assert check_witness(ALL_CLS, c, F(1, 4), r.witness) == r.condition


def test_x01_family_matches_the_count_vector_oracle():
    # witnesses skip depths 1 to k - 1, so no shallow search sees one
    for k in (6, 12, 24):
        groups = _x01(k)
        r = gc_dimension(ALL_CLS, groups, F(1, 2))
        assert (r.status, r.d, r.witness) == ("exact", 2 * k - 1,
                                              tuple(range(2 * k - 1)))
        bound = count_vector_depth_bound(ALL_CLS, groups, F(1, 2))
        assert bound == 2 * k - 1
        assert _exact(r) == count_vector_gc_dimension(ALL_CLS, groups,
                                                      F(1, 2), bound)


def test_unbounded_dimension_at_alpha_zero():
    # {0} with any further elements witnesses: infinite from depth 1
    r = gc_dimension(ALL_CLS, ZERO_REST, F(0))
    assert (r.status, r.d, r.witness, r.condition) \
        == ("infinite", 1, (0,), Condition1(1))
    assert str(r) == "GC unbounded (least unbounded span from depth 1)"
    # (0,) alone exhausts {0, 1}, and so does every tuple that adds even
    # elements: they drop the second hypothesis and leave the tail a live
    # group that never runs out, so the unbounded span starts at depth 1
    cls = _cls(EVENS, from_finite([0]) | (ODDS & from_threshold(3)))
    pair_rest = FiniteGroups([from_finite([0, 1]), from_threshold(2)])
    r = gc_dimension(cls, pair_rest, F(0))
    assert (r.status, r.d, r.witness) == ("infinite", 1, (0,))
    assert check_witness(cls, pair_rest, F(0), (0,)) is not None
    # the supports meet in {0}: after any second element the closure is
    # infinite inside the one group, so nothing deeper witnesses
    cls = _cls(from_finite([0]) | ODDS, EVENS)
    r = gc_dimension(cls, FiniteGroups([ALL]), F(0))
    assert (r.status, r.d, r.witness, r.condition) \
        == ("exact", 1, (0,), Condition1(1))
    # a positive alpha always bounds the depth: 20 elements must all be
    # taken, and condition 1 holds below 20 / (1/4)
    r = gc_dimension(ALL_CLS, _x01(20), F(1, 4))
    assert (r.status, r.d) == ("exact", 79)


@pytest.mark.parametrize("supports, groups, want", [
    # taking group 1, {2, 3}, whole under S = {h3} opens a span with no cap
    # from depth 2, though those two elements keep h1 as well: the further
    # elements of h3 alone drop it later; (0, 1) comes first, exhausting
    # group 2 under every hypothesis
    (["ap:3,2,{1},{0,1,2}", "ap:4,2,{1},{0,1}", "ap:4,2,{0},{0,1,2,3}"],
     ["finite:{2,3}", "ap:4,1,{0},{0,1}"], (2, (0, 1), Condition1(2))),
    # taking 0 exhausts group 4 under S = {h3, h4}, a span with no cap from
    # depth 1; (1,) witnesses as well, but 0 comes first
    (["ap:3,1,{0},{}", "ap:3,1,{0},{1}", "all", "ap:3,1,{0},{0}"],
     ["empty", "ap:3,1,{0},{}", "finite:{1}", "finite:{0,2}"],
     (1, (0,), Condition1(4))),
])
def test_least_unbounded_span_and_its_first_witness(supports, groups, want):
    # at alpha = 0 both are unbounded from depth d, and the tuple walk to
    # depth d finds the same first witness and condition
    cls = _cls(*map(parse_set, supports))
    c = FiniteGroups([parse_set(g) for g in groups])
    r = gc_dimension(cls, c, F(0))
    assert (r.status, r.d, r.witness, r.condition) == ("infinite", *want)
    assert tuple_gc_dimension(cls, c, F(0), r.d) == want


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
    # closed form answers 0 without building a witness, at every alpha.
    def no_witness(*args):
        raise AssertionError("witness built")

    monkeypatch.setattr(repgen.dimension, "_witness", no_witness)

    def mod12(*residues):
        return PeriodicSet(0, 12, frozenset(residues), frozenset())

    cls = _cls(mod12(0, 1, 2, 3, 4, 5, 6, 7), mod12(2, 3, 4, 5, 6, 7, 8, 9),
               mod12(4, 5, 6, 7, 8, 9, 10, 11, 0, 1))
    groups = FiniteGroups([PeriodicSet(0, 3, frozenset([r]), frozenset())
                           for r in range(3)])
    atoms = _atoms(cls, groups)
    assert len(atoms) == 11 and all(a.size is None for a in atoms)
    for alpha in (F(0), F(1, 4), F(1, 2), F(1)):
        r = gc_dimension(cls, groups, alpha)
        assert (r.status, r.d, r.witness) == ("exact", 0, None)
        assert tuple_gc_dimension(cls, groups, alpha, 2)[0] == 0


def test_max_d_caps_the_dimension(monkeypatch):
    def no_witness(*args):
        raise AssertionError("witness built")

    # u01 at alpha 1/10^9: the value is immediate, its witness would not be
    monkeypatch.setattr(repgen.dimension, "_witness", no_witness)
    with pytest.raises(ConfigError, match=f"^dimension 999999999 exceeds "
                                          f"MAX_D = {MAX_D}$"):
        gc_dimension(ALL_CLS, ZERO_REST, F(1, 10 ** 9))
    monkeypatch.undo()
    # the cap is inclusive
    monkeypatch.setattr(repgen.dimension, "MAX_D", 11)
    assert gc_dimension(ALL_CLS, _x01(6), F(1, 2)).d == 11
    monkeypatch.setattr(repgen.dimension, "MAX_D", 10)
    with pytest.raises(ConfigError, match="^dimension 11 exceeds MAX_D = 10$"):
        gc_dimension(ALL_CLS, _x01(6), F(1, 2))


def distinct_sizes(k):
    """Groups of sizes 1, ..., k over consecutive naturals, plus a tail: no
    two are alike, so the search has 2^k choices of exhausted groups."""
    groups, start = [], 0
    for size in range(1, k + 1):
        groups.append(from_finite(range(start, start + size)))
        start += size
    return FiniteGroups(groups + [from_threshold(start)])


def test_max_choices_caps_the_exhausted_group_search(monkeypatch):
    # 2^20 choices are refused, and counted, before any is tried; this
    # search once took 16.9 s
    start = time.perf_counter()
    with pytest.raises(ConfigError) as e:
        gc_depth(ALL_CLS, distinct_sizes(20), F(1, 4))
    assert time.perf_counter() - start < 0.1
    assert str(e.value) == ("dimension search needs 1048576 choices of "
                            "exhausted groups, at most 1048576 per closure "
                            f"mask, above MAX_CHOICES = {MAX_CHOICES}")
    # 28 alike singletons need only 29 choices
    singles = FiniteGroups([from_finite([i]) for i in range(28)]
                           + [from_threshold(28)])
    assert gc_depth(ALL_CLS, singles, F(1, 4)).d == 111
    # the cap is inclusive, and the witness search keeps within it
    monkeypatch.setattr(repgen.dimension, "MAX_CHOICES", 16)
    r = gc_dimension(ALL_CLS, distinct_sizes(4), F(1, 4))
    assert (r.status, r.d) == ("exact", gc_depth(ALL_CLS, distinct_sizes(4),
                                                 F(1, 4)).d)
    assert check_witness(ALL_CLS, distinct_sizes(4), F(1, 4), r.witness)
    monkeypatch.setattr(repgen.dimension, "MAX_CHOICES", 15)
    with pytest.raises(ConfigError, match="^dimension search needs 16 "
                                          "choices of exhausted groups, at "
                                          "most 16 per closure mask, above "
                                          "MAX_CHOICES = 15$"):
        gc_depth(ALL_CLS, distinct_sizes(4), F(1, 4))
    # a group with no closure atom under a mask must be exhausted, so it
    # takes one choice: {0}, {1} and a tail against ALL and EVENS take 3
    # choices on the mask {ALL}, where {0} and {1} are alike, and 2 on
    # {ALL, EVENS}, where {1} has none
    cls = _cls(ALL, EVENS)
    groups = FiniteGroups([from_finite([0]), from_finite([1]),
                           from_threshold(2)])
    monkeypatch.setattr(repgen.dimension, "MAX_CHOICES", 5)
    assert gc_dimension(cls, groups, F(1, 4)).d == 7
    monkeypatch.setattr(repgen.dimension, "MAX_CHOICES", 4)
    with pytest.raises(ConfigError, match="^dimension search needs 5 "
                                          "choices of exhausted groups, at "
                                          "most 3 per closure mask, above "
                                          "MAX_CHOICES = 4$"):
        gc_depth(cls, groups, F(1, 4))


PARITY = FiniteGroups([EVENS, ODDS])


def without_residue(h):
    """h_j = the naturals minus residue j mod 32, for j < h: their supports
    AND to 2^h - 1 closure masks."""
    return _cls(*(PeriodicSet(0, 32, frozenset(range(32)) - {j})
                  for j in range(h)))


def test_max_choices_caps_the_closure_masks(monkeypatch):
    # each mask takes a choice of exhausted groups at least, so 2^18 - 1
    # masks are refused as soon as the fixpoint passes the cap; building
    # them all once took 7 s
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=(
            f"^dimension search needs at least {MAX_CHOICES + 1} closure "
            "masks, each with a choice of exhausted groups, above "
            f"MAX_CHOICES = {MAX_CHOICES}$")):
        gc_depth(without_residue(18), PARITY, F(1, 4))
    assert time.perf_counter() - start < 0.5
    # the cap is inclusive: four hypotheses take fifteen masks, one choice
    # each
    monkeypatch.setattr(repgen.dimension, "MAX_CHOICES", 15)
    assert gc_dimension(without_residue(4), PARITY, F(1, 4)).d == 0
    monkeypatch.setattr(repgen.dimension, "MAX_CHOICES", 14)
    with pytest.raises(ConfigError, match="^dimension search needs at least "
                                          "15 closure masks, each with a "
                                          "choice of exhausted groups, above "
                                          "MAX_CHOICES = 14$"):
        gc_depth(without_residue(4), PARITY, F(1, 4))


def test_a_search_at_max_choices_is_practical():
    # sixteen distinct groups, 2^16 choices on one closure mask: 0.22-0.23 s
    # (three runs, Python 3.11.7, 2-vCPU x86-64 VM); the bound is generous
    assert MAX_CHOICES == 2 ** 16
    start = time.perf_counter()
    r = gc_depth(ALL_CLS, distinct_sizes(16), F(1, 4))
    assert time.perf_counter() - start < 5
    assert (r.status, r.d) == ("exact", 543)


def test_agreement_with_naive_oracle():
    # the naive oracle walks to depth 4 and at least one depth past the
    # dimension: witnessed at d, not beyond
    for inst in dimension_instances():
        got = gc_dimension(inst["cls"], inst["groups"], inst["alpha"])
        want = naive_gc(inst["cls"], inst["groups"], inst["alpha"],
                        max_d=max(4, got.d + 1))
        assert got.status == "exact", inst["name"]
        assert got.d == want == inst["known"], inst["name"]


def test_worked_example_is_in_the_zoo():
    inst = dimension_instances()[worked_example_index()]
    r = gc_dimension(inst["cls"], inst["groups"], inst["alpha"])
    assert r.d == 1 and r.status == "exact"


def test_returned_witnesses_reverify():
    for inst in dimension_instances():
        r = gc_dimension(inst["cls"], inst["groups"], inst["alpha"])
        if r.witness is not None:
            cond = check_witness(inst["cls"], inst["groups"], inst["alpha"],
                                 r.witness)
            assert cond == r.condition, inst["name"]
            assert len(r.witness) == r.d


def test_exact_means_no_deeper_witness():
    rng = random.Random(73)
    for inst in dimension_instances():
        r = gc_dimension(inst["cls"], inst["groups"], inst["alpha"])
        assert r.status == "exact", inst["name"]
        pool = _tuple_candidate_pool(inst["cls"], inst["groups"], r.d + 1)
        if len(pool) <= r.d:
            continue
        for _ in range(1000):
            xs = tuple(sorted(rng.sample(pool, r.d + 1)))
            assert check_witness(inst["cls"], inst["groups"], inst["alpha"],
                                 xs) is None, (inst["name"], xs)


def test_condition1_witness_transfers_to_smaller_alpha():
    for inst in dimension_instances():
        r = gc_dimension(inst["cls"], inst["groups"], inst["alpha"])
        if r.witness is None or not isinstance(r.condition, Condition1):
            continue
        smaller = inst["alpha"] / 2
        assert check_witness(inst["cls"], inst["groups"], smaller,
                             r.witness) is not None, inst["name"]


def test_count_search_matches_tuple_walk():
    instances = _search_instances()
    assert len(instances) == 16
    for name, cls, groups, alpha in instances:
        assert _exact(gc_dimension(cls, groups, alpha)) \
            == _both_oracles(cls, groups, alpha), name


def test_count_search_matches_tuple_walk_on_the_bundled_settings():
    # every bundled uniform scenario, and each class prefix the
    # non-uniform scenario derives a threshold from
    cases = [(name, s.cls, s.alpha, s.groups)
             for name, s in _uniform_scenarios().items()]
    n01 = load_scenario(os.path.join(SCENARIO_DIR,
                                     "n01-nested3-exhausted-half.json"))
    cases += [(f"n01 prefix {i}", n01.cls.prefix_class(i), n01.alpha,
               n01.groups) for i in range(1, 4)]
    for name, cls, alpha, groups in cases:
        assert _exact(gc_dimension(cls, groups, alpha)) \
            == _both_oracles(cls, groups, alpha), name


def test_search_verifies_only_its_witness(monkeypatch):
    calls = []
    verify = repgen.dimension.check_witness

    def counted(*args):
        calls.append(args[3])
        return verify(*args)

    monkeypatch.setattr(repgen.dimension, "check_witness", counted)
    for name, cls, groups, alpha in _search_instances():
        calls.clear()
        r = gc_dimension(cls, groups, alpha)
        assert calls == ([r.witness] if r.witness else []), name


def test_gc_depth_is_gc_dimension_without_the_witness(monkeypatch):
    cases = [(inst["cls"], inst["groups"], inst["alpha"])
             for inst in dimension_instances()]
    cases += [(s.cls, s.groups, s.alpha)
              for s in _uniform_scenarios().values()]
    cases.append((ALL_CLS, ZERO_REST, F(0)))
    results = [gc_dimension(*case) for case in cases]
    assert any(r.status == "infinite" for r in results)

    def no_witness(*args):
        raise AssertionError("witness built")

    monkeypatch.setattr(repgen.dimension, "_witness", no_witness)
    for case, r in zip(cases, results):
        assert gc_depth(*case) == replace(r, witness=None, condition=None)


def test_search_reports_a_disagreeing_verifier(monkeypatch):
    monkeypatch.setattr(repgen.dimension, "check_witness",
                        lambda *args: None)
    with pytest.raises(InvariantViolation, match="check_witness says None"):
        gc_dimension(ALL_CLS, ZERO_REST, F(1, 2))


def test_deep_search_is_practical():
    # four hypotheses, multiples of m plus the multiples of 3 up to 18:
    # fifteen closure masks and a dimension far past any depth-by-depth
    # search
    cls = _cls(*(multiples(m) | from_finite(range(0, 19, 3))
                 for m in (2, 3, 5, 7)))
    groups = FiniteGroups([from_finite(range(10)), from_threshold(10)])
    start = time.perf_counter()
    r = gc_dimension(cls, groups, F(1, 2))
    assert time.perf_counter() - start < 0.5
    assert (r.status, r.d) == ("exact", 13)
    assert check_witness(cls, groups, F(1, 2), r.witness) == r.condition
    # ten singleton groups and a tail: only how many are exhausted matters
    singles = FiniteGroups([from_finite([i]) for i in range(10)]
                           + [from_threshold(10)])
    r = gc_dimension(ALL_CLS, singles, F(1, 10))
    assert (r.status, r.d, r.witness) == ("exact", 99, tuple(range(99)))
    # twenty of them: condition 2 holds below 20 / (1/10), and 2^20
    # exhausted-group choices collapse to 21 counts
    singles = FiniteGroups([from_finite([i]) for i in range(20)]
                           + [from_threshold(20)])
    start = time.perf_counter()
    r = gc_dimension(ALL_CLS, singles, F(1, 10))
    assert time.perf_counter() - start < 0.5
    assert (r.status, r.d, r.witness) == ("exact", 199, tuple(range(199)))
