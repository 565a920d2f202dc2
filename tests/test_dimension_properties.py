"""Property tests for the closed-form dimension on random small instances:
wherever the count-vector search's depth bound B keeps the tuple walk
affordable, it returns the same depth, witness tuple and condition as both
references kept in `oracles.py`; at alpha = 0, where B may be unbounded, its
finite and infinite verdicts agree with a tuple walk two depths further."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from oracles import (_tuple_candidate_pool, count_vector_depth_bound,
                     count_vector_gc_dimension, tuple_gc_dimension)
from repgen.dimension import check_witness, gc_dimension
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
