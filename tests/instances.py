"""Shared bundled instances for dimension-agreement and feasibility tests.

Each dimension instance keeps the candidate structure small enough that the
naive exhaustive search over {0..12} is adequate, so the two independent
search paths must agree exactly.
"""

from fractions import Fraction

from repgen.groups import FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.periodic import (ALL, EVENS, ODDS, from_finite, from_threshold,
                             multiples, parse_set)

F = Fraction


def _cls(named):
    return HypothesisClass([Hypothesis(n, s) for n, s in named])


def _inst(name, cls, groups, alpha, known):
    return {"name": name, "cls": cls, "groups": groups,
            "alpha": alpha, "known": known}


def dimension_instances():
    """Instances for the search-vs-naive agreement suite.

    `known` is the hand-derived exact dimension."""
    singleton0 = from_finite([0])
    singleton1 = from_finite([1])
    pair01 = from_finite([0, 1])
    pair23 = from_finite([2, 3])
    pair02 = from_finite([0, 2])
    return [
        _inst("trivial-single-group",
              _cls([("all", ALL)]),
              FiniteGroups([ALL]), F(1, 2), known=0),
        _inst("zero-vs-rest",
              _cls([("all", ALL)]),
              FiniteGroups([singleton0, from_threshold(1)]), F(1, 2), known=1),
        _inst("three-singleton-quarter",
              _cls([("all", ALL)]),
              FiniteGroups([singleton0, singleton1, from_threshold(2)]),
              F(1, 4), known=7),
        _inst("three-singleton-twothirds",
              _cls([("all", ALL)]),
              FiniteGroups([singleton0, singleton1, from_threshold(2)]),
              F(2, 3), known=2),
        _inst("parity-no-witness",
              _cls([("all", ALL)]),
              FiniteGroups([EVENS, ODDS]), F(1, 2), known=0),
        _inst("evens-class-parity-groups",
              _cls([("evens", EVENS)]),
              FiniteGroups([EVENS, ODDS]), F(1, 2), known=0),
        _inst("nested-evens-mult4",
              _cls([("evens", EVENS), ("mult4", multiples(4))]),
              FiniteGroups([pair02, parse_set("ap:3,1,{0},{1}")]),
              F(1, 2), known=3),
        _inst("two-pairs-tail-half",
              _cls([("all", ALL)]),
              FiniteGroups([pair01, pair23, from_threshold(4)]),
              F(1, 2), known=7),
        _inst("two-pairs-tail-twothirds",
              _cls([("all", ALL)]),
              FiniteGroups([pair01, pair23, from_threshold(4)]),
              F(2, 3), known=5),
        _inst("four-groups-singletons",
              _cls([("all", ALL)]),
              FiniteGroups([singleton0, singleton1, from_finite([2]),
                            from_threshold(3)]), F(1, 2), known=5),
        _inst("parity-split-pair",
              _cls([("evens", EVENS), ("odds", ODDS)]),
              FiniteGroups([pair01, from_threshold(2)]), F(1, 2), known=1),
        _inst("parity-split-pair-quarter",
              _cls([("evens", EVENS), ("odds", ODDS)]),
              FiniteGroups([pair01, from_threshold(2)]), F(1, 4), known=3),
    ]


def worked_example_index():
    """Position of the acceptance suite's pinned GC = 1 instance."""
    return 1


def feasibility_instances():
    """Curated decision instances for the feasibility-vs-mesh agreement
    sweep.  Every empirical denominator here divides 60, so the 1/60 mesh
    realizes every relevant distribution exactly and the oracle verdict is
    authoritative.  The [0,1,2] evens instances pin the worked boundary
    behavior: infeasible at 1/4, feasible with distance exactly 1/3."""
    h_all = Hypothesis("all", ALL)
    h_evens = Hypothesis("evens", EVENS)
    h_odds = Hypothesis("odds", ODDS)
    h_tail = Hypothesis("tail", from_threshold(5))
    parity = FiniteGroups([EVENS, ODDS])
    pair_rest = FiniteGroups([from_finite([0, 1]), from_threshold(2)])
    three = FiniteGroups([from_finite([0]), from_finite([1, 2]),
                          from_threshold(3)])
    out = []
    for h, c, hist, alphas in [
        (h_all, parity, [0, 1, 2], ["0", "1/6", "1/4", "1/2"]),
        (h_evens, parity, [0, 1, 2], ["1/4", "1/3", "1/2"]),
        (h_odds, parity, [0, 1, 2], ["1/3", "2/3"]),
        (h_evens, parity, [0, 2, 4], ["0", "1/4"]),
        (h_all, pair_rest, [0, 1], ["0", "1/6", "1/2"]),
        (h_tail, pair_rest, [0, 1], ["1/4", "1/2", "2/3"]),
        (h_tail, pair_rest, [0, 1, 2, 3], ["1/4", "1/2"]),
        (h_all, three, [0, 1, 2], ["0", "1/6", "1/3"]),
        (h_evens, three, [0, 1, 2], ["1/6", "1/3", "2/3"]),
        (h_odds, three, [1, 2, 3], ["0", "1/4", "5/12"]),
        (h_all, three, [0, 1, 2, 3, 4, 5], ["1/6", "1/2"]),
        (h_tail, three, [0, 1, 2], ["1/3", "2/3"]),
    ]:
        for a in alphas:
            out.append({"h": h, "groups": c, "history": list(hist),
                        "alpha": F(a)})
    return out
