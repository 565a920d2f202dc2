"""Property tests for the count-vector dimension search on random small
instances: it returns the same depth, witness tuple and condition as the
tuple walk kept in `oracles.py`, and its depth bound holds, so an exact
result has no deeper witness at all."""

from fractions import Fraction
from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from oracles import _tuple_candidate_pool, tuple_gc_dimension
from repgen.dimension import GcSearch, gc_dimension
from repgen.groups import FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.periodic import PeriodicSet

F = Fraction

ALPHAS = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
# Tuples the reference may decide per example; keeps each example fast.
WALK_BUDGET = 3000


@st.composite
def instances(draw):
    """A class of 1-3 hypotheses and a partition into 1-4 groups, all built
    from the cells {0}, ..., {t - 1} and the residue classes mod m at or
    above t (1 <= t <= 3, m <= 4); a group may be empty."""
    t = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))

    def cells_set(prefix, residues):
        return PeriodicSet(t, m, residues, prefix)

    hyps = []
    for n in range(draw(st.integers(1, 3))):
        residues = draw(st.frozensets(st.integers(0, m - 1), min_size=1))
        prefix = draw(st.frozensets(st.integers(0, t - 1)))
        hyps.append(Hypothesis(f"h{n + 1}", cells_set(prefix, residues)))
    k = draw(st.integers(1, 4))
    # residue classes lean to group k, so that more groups are finite
    owner = (draw(st.lists(st.integers(1, k), min_size=t, max_size=t))
             + draw(st.lists(st.integers(1, k) | st.just(k),
                             min_size=m, max_size=m)))
    groups = [cells_set([x for x in range(t) if owner[x] == i],
                        [r for r in range(m) if owner[t + r] == i])
              for i in range(1, k + 1)]
    return HypothesisClass(hyps), FiniteGroups(groups)


def _walk_within_budget(cls, groups, depth):
    pool = _tuple_candidate_pool(cls, groups, depth)
    return sum(comb(len(pool), d) for d in range(1, depth + 1)) <= WALK_BUDGET


@settings(max_examples=200, deadline=None)
@given(instances(), st.sampled_from(ALPHAS), st.integers(1, 5))
def test_count_search_matches_tuple_walk(instance, alpha, max_d):
    cls, groups = instance
    assert groups.validate().partition
    assume(_walk_within_budget(cls, groups, max_d))
    r = gc_dimension(cls, groups, alpha, GcSearch(max_d=max_d))
    exact = r.bound is not None and r.bound <= max_d
    assert r.status == ("exact" if exact else "at_least")
    assert (r.d, r.witness, r.condition) \
        == tuple_gc_dimension(cls, groups, alpha, max_d)


@settings(max_examples=200, deadline=None)
@given(instances(), st.sampled_from(ALPHAS), st.integers(1, 5))
def test_no_witness_beyond_the_bound(instance, alpha, max_d):
    cls, groups = instance
    r = gc_dimension(cls, groups, alpha, GcSearch(max_d=max_d))
    assume(r.bound is not None)
    depth = r.bound + 2
    assume(_walk_within_budget(cls, groups, depth))
    walk = tuple_gc_dimension(cls, groups, alpha, depth)
    assert walk[0] <= r.bound
    if r.status == "exact":
        assert walk == (r.d, r.witness, r.condition)
