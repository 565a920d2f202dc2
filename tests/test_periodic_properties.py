"""Property tests for `PeriodicSet`'s kept hash: a set built any way hashes
like every equal set, including one built fresh from its fields, and the
kept hash is not a dataclass field."""

import copy
import dataclasses
import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings

from repgen.periodic import PeriodicSet, format_set, parse_set
from test_groups_properties import periodic_sets


@settings(max_examples=300, deadline=None)
@given(periodic_sets(), periodic_sets())
def test_equal_sets_built_different_ways_hash_equal(a, b):
    s = a & b
    fresh = PeriodicSet(s.threshold, s.modulus, s.residues, s.prefix)
    assert hash(s) == hash(fresh)
    # s has kept its hash before it is copied
    for other in (b & a, parse_set(format_set(s)), copy.deepcopy(s),
                  pickle.loads(pickle.dumps(s))):
        assert other == s and hash(other) == hash(s)
    for other in (a | b, b | a):
        assert other == a | b and hash(other) == hash(a | b)


@settings(max_examples=100, deadline=None)
@given(periodic_sets())
def test_the_kept_hash_is_not_a_field(s):
    hash(s)
    assert [f.name for f in dataclasses.fields(PeriodicSet)] == [
        "threshold", "modulus", "residues", "prefix"]
    assert dataclasses.astuple(s) == (s.threshold, s.modulus, s.residues,
                                      s.prefix)
