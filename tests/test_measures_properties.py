"""Property tests for the integer-count group weights: `group_empirical` and
a `GroupTally` fed one element at a time agree with the group probabilities
of the empirical distribution, on random overlapping finite collections and
block partitions and on prefixes with repeats."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repgen.groups import BlockPartition, FiniteGroups
from repgen.measures import (GroupTally, empirical, group_empirical,
                             induced_group_probs)
from repgen.periodic import PeriodicSet


@st.composite
def periodic_sets(draw):
    t = draw(st.integers(0, 8))
    m = draw(st.integers(1, 6))
    residues = draw(st.frozensets(st.integers(0, m - 1)))
    prefix = draw(st.frozensets(st.integers(0, t - 1))) if t else frozenset()
    return PeriodicSet(t, m, residues, prefix)


finite_groups = st.lists(periodic_sets(), min_size=1, max_size=5).map(FiniteGroups)
block_partitions = st.builds(
    BlockPartition, st.integers(2, 4),
    st.lists(st.integers(1, 4), max_size=3).map(tuple))
collections = st.one_of(finite_groups, block_partitions)
# a small range makes repeats frequent
prefixes = st.lists(st.integers(0, 40), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(collections, prefixes)
def test_group_empirical_is_induced_empirical(c, prefix):
    assert group_empirical(prefix, c) == induced_group_probs(empirical(prefix), c)


@settings(max_examples=200, deadline=None)
@given(collections, prefixes)
def test_tally_step_by_step_equals_batch(c, prefix):
    tally = GroupTally(c)
    for t, x in enumerate(prefix, 1):
        assert tally.add(x) == (x not in prefix[:t - 1])
        assert tally.weights() == induced_group_probs(empirical(prefix[:t]), c)
