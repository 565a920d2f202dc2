"""The phase-one simplex on its integer tableau: the same vertex as the
rational-tableau reference in `oracles.py` on random mixed-sign systems and
on 0/1 cell systems shaped like the generators' feasibility LPs, every
returned entry a Fraction that meets every constraint exactly, and the
input checks at the kernel boundary.  The integer entry returns that vertex
too, as int numerators over a positive int denominator, when every row
comes multiplied by one shared positive scale."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from math import lcm

from hypothesis import example, given, settings, strategies as st

from oracles import fraction_feasible_point
from repgen.simplex import EQ, GE, LE, feasible_point, feasible_point_int

F = Fraction


def check(n_vars, constraints):
    """feasible_point agrees with the reference; a returned point is a
    nonnegative Fraction vector meeting every constraint exactly."""
    got = feasible_point(n_vars, constraints)
    # equality alone would accept floats (Fraction(1, 2) == 0.5)
    assert got == fraction_feasible_point(n_vars, constraints)
    if got is None:
        return None
    assert len(got) == n_vars
    assert all(type(v) is Fraction for v in got)
    assert all(v >= 0 for v in got)
    for coeffs, rel, rhs in constraints:
        lhs = sum((c * v for c, v in zip(coeffs, got)), F(0))
        assert {LE: lhs <= rhs, GE: lhs >= rhs, EQ: lhs == rhs}[rel]
    return got


def test_wrong_arity_raises():
    with pytest.raises(ValueError, match="arity 1 != 2"):
        feasible_point(2, [([F(1), F(1)], LE, F(1)), ([F(1)], EQ, F(0))])


def test_all_le_system_has_no_artificials():
    # the origin is feasible, so the slack basis is already optimal
    assert check(2, [([F(1), F(1)], LE, F(3)), ([F(1), F(-1)], LE, F(1))]) \
        == [F(0), F(0)]
    assert check(1, [([F(1, 3)], LE, F(0))]) == [F(0)]


def test_zero_variables():
    assert check(0, []) == []
    assert check(0, [([], EQ, F(0)), ([], LE, F(2)), ([], GE, F(-1, 2))]) == []
    assert check(0, [([], EQ, F(1))]) is None
    assert check(0, [([], LE, F(-1))]) is None


def test_negative_right_hand_sides():
    # -x <= -2 is x >= 2
    assert check(1, [([F(-1)], LE, F(-2))]) == [F(2)]
    assert check(2, [([F(-1), F(-1, 2)], EQ, F(-3, 2)),
                     ([F(1), F(0)], LE, F(1, 3))]) == [F(1, 3), F(7, 3)]
    assert check(1, [([F(1)], GE, F(-5)), ([F(-2)], GE, F(-1))]) == [F(0)]
    assert check(1, [([F(1)], LE, F(-1))]) is None


def test_int_coefficients_give_fraction_results():
    assert check(2, [([1, 2], EQ, 3), ([1, 0], GE, 1)]) == [F(1), F(1)]
    assert check(1, [([3], EQ, 1)]) == [F(1, 3)]


def test_weighted_artificials_keep_the_rational_path():
    # Scaled by the lcm of its own denominators, each row would get 6 and 1,
    # and unit phase-one costs on artificials of different scales end on
    # (0, 3/4, 7/4).  One shared scale, 6, keeps Bland's path, and its
    # vertex, the rational tableau's.
    constraints = [([F(1, 2), F(-1), F(-1, 3)], EQ, F(-4, 3)),
                   ([F(2), F(1), F(-1)], LE, F(-1))]
    assert check(3, constraints) == [F(6), F(0), F(13)]


@pytest.mark.parametrize("bad", [0.5, "1/2", None])
def test_non_rational_inputs_are_rejected(bad):
    with pytest.raises(TypeError, match="constraint 1: "):
        feasible_point(1, [([F(1)], LE, F(1)), ([bad], LE, F(1))])
    with pytest.raises(TypeError, match="constraint 1: "):
        feasible_point(1, [([F(1)], LE, F(1)), ([F(1)], EQ, bad)])


def test_bools_are_rejected_before_any_other_check():
    # True is an int, but not a coefficient; it is refused even where the
    # row would fail on its length or relation
    with pytest.raises(TypeError, match="constraint 0: bool True"):
        feasible_point(1, [([True], LE, True)])
    with pytest.raises(TypeError, match="constraint 0: bool False"):
        feasible_point(1, [([F(1)], GE, False)])
    with pytest.raises(TypeError, match="constraint 0: "):
        feasible_point(2, [([True], "<", F(1))])


@pytest.mark.parametrize("rhs", [F(1), F(-1)])
@pytest.mark.parametrize("rel", ["<", None])
def test_unknown_relations_are_rejected(rel, rhs):
    # a nonnegative right-hand side used to read an unknown relation as >=,
    # a negative one to fail on a bare KeyError
    with pytest.raises(ValueError, match="constraint 1: "):
        feasible_point(1, [([F(1)], LE, F(1)), ([F(1)], rel, rhs)])


RELS = st.sampled_from([LE, GE, EQ])
rationals = st.one_of(st.integers(-4, 4),
                      st.builds(F, st.integers(-6, 6), st.integers(1, 6)))


@st.composite
def mixed_systems(draw):
    n = draw(st.integers(0, 5))
    row = st.tuples(st.lists(rationals, min_size=n, max_size=n), RELS, rationals)
    return n, draw(st.lists(row, max_size=5))


@st.composite
def cell_systems(draw):
    """The generators' LP: one q per candidate cell, total mass 1, and per
    group either the exact weight (EQ) or the band [pihat - alpha,
    pihat + alpha] (LE, plus GE when the lower end is positive).  Weights
    and alpha share small denominators, so ties and boundary points are
    common."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 8))
    vecs = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                         min_size=n, max_size=n))
    pihat = [F(draw(st.integers(0, d)), d) for _ in range(k)]
    alpha = F(draw(st.integers(0, d)), draw(st.sampled_from([1, 2, 3, 4, d])))
    exact = draw(st.booleans())
    constraints = [([F(1)] * n, EQ, F(1))]
    for i in range(k):
        row = [F(v[i]) for v in vecs]
        if exact:
            constraints.append((row, EQ, pihat[i]))
        else:
            constraints.append((row, LE, pihat[i] + alpha))
            if pihat[i] - alpha > 0:
                constraints.append((row, GE, pihat[i] - alpha))
    return n, constraints


@settings(max_examples=400, deadline=None)
@given(mixed_systems())
def test_mixed_systems_match_reference(system):
    check(*system)


@settings(max_examples=400, deadline=None)
@given(cell_systems())
def test_cell_systems_match_reference(system):
    check(*system)


FLIP = {LE: GE, GE: LE, EQ: EQ}


def integer_rows(constraints, k):
    """The rows in integers for `feasible_point_int`: a row with a negative
    right-hand side flipped, then every row multiplied by one shared scale,
    the lcm of all the system's denominators times k."""
    flipped = []
    for coeffs, rel, rhs in constraints:
        coeffs, rhs = [F(v) for v in coeffs], F(rhs)
        if rhs < 0:
            coeffs, rhs, rel = [-v for v in coeffs], -rhs, FLIP[rel]
        flipped.append((coeffs, rel, rhs))
    scale = k * lcm(*(v.denominator for coeffs, _, rhs in flipped
                      for v in (*coeffs, rhs)))
    return [([int(v * scale) for v in coeffs], rel, int(rhs * scale))
            for coeffs, rel, rhs in flipped]


@st.composite
def scaled_systems(draw):
    """A rational system, mixed or cell-shaped, and a positive factor for
    all its rows."""
    n, constraints = draw(st.one_of(mixed_systems(), cell_systems()))
    return n, constraints, draw(st.sampled_from([1, 2, 3, 7, 60, 1000]))


@settings(max_examples=400, deadline=None)
@given(scaled_systems())
# rows whose own denominators differ (lcms 6 and 1): with unit costs, a
# scale per row would end on another vertex
@example((3, [([F(1, 2), F(-1), F(-1, 3)], EQ, F(-4, 3)),
              ([F(2), F(1), F(-1)], LE, F(-1))], 1))
@example((3, [([F(1, 2), F(-1), F(-1, 3)], EQ, F(-4, 3)),
              ([F(2), F(1), F(-1)], LE, F(-1))], 7))
# artificials whose own lcms are 1 and 2: the same
@example((5, [([0] * 5, LE, 0), ([0] * 5, LE, 0),
              ([0, 0, -2, 0, 0], LE, -1), ([0, 0, -2, 1, -1], GE, -1),
              ([0, 0, 1, F(-1, 2), 0], LE, -1)], 1))
def test_integer_rows_in_any_positive_scale_keep_the_vertex(system):
    n, constraints, k = system
    got = feasible_point_int(n, integer_rows(constraints, k))
    want = fraction_feasible_point(n, constraints)
    if want is None:
        assert got is None
        return
    nums, delta = got
    assert all(type(v) is int for v in (*nums, delta)) and delta > 0
    # delta may differ between scales; each nums[j] / delta may not
    assert [F(v, delta) for v in nums] == want
