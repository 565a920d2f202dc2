"""Finite-support exact distributions and group-level probabilities.

All masses are `fractions.Fraction`; nothing in this module ever touches a
float, so representativeness verdicts at the boundary are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .groups import BlockPartition, FiniteGroups, GroupCollection

ZERO = Fraction(0)
ONE = Fraction(1)


class RationalDist:
    """Probability distribution with finite support over the naturals.

    Invariants enforced at construction: every mass is a positive rational
    and the masses sum to exactly 1.
    """

    __slots__ = ("_items",)

    def __init__(self, masses: Mapping[int, Fraction]):
        items = []
        total = ZERO
        for x in sorted(masses):
            m = masses[x]
            if not isinstance(m, Fraction):
                m = Fraction(m)
            if m <= 0:
                raise ValueError(f"mass at {x} must be positive, got {m}")
            if x < 0 or not isinstance(x, int):
                raise ValueError(f"support elements must be naturals, got {x!r}")
            items.append((x, m))
            total += m
        if total != ONE:
            raise ValueError(f"masses must sum to 1, got {total}")
        self._items = tuple(items)

    @classmethod
    def point(cls, x: int) -> "RationalDist":
        return cls({x: ONE})

    @classmethod
    def uniform(cls, xs: Iterable[int]) -> "RationalDist":
        xs = sorted(set(xs))
        if not xs:
            raise ValueError("uniform distribution needs a nonempty support")
        w = Fraction(1, len(xs))
        return cls({x: w for x in xs})

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self._items

    def support(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalDist) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{x}: {m}" for x, m in self._items)
        return "RationalDist({%s})" % body

    def serialize(self) -> list[list]:
        """Sorted [element, "numerator/denominator"] pairs."""
        return [[x, f"{m.numerator}/{m.denominator}"] for x, m in self._items]


def empirical(prefix: Sequence[int]) -> RationalDist:
    """Uniform distribution over the distinct elements of the prefix."""
    if not prefix:
        raise ValueError("empirical distribution of an empty prefix is undefined")
    return RationalDist.uniform(prefix)


def induced_group_probs(mu: RationalDist, c: GroupCollection) -> dict[int, Fraction]:
    """Total mass per group index.

    For a finite collection the result has an entry for every group (zeros
    included); for a block partition only touched blocks appear, absent
    meaning zero.  With overlapping groups the values may sum to more than 1.
    """
    if isinstance(c, FiniteGroups):
        out = {i: ZERO for i in c.indices()}
        for x, m in mu.items():
            for i in c.groups_containing(x):
                out[i] += m
        return out
    assert isinstance(c, BlockPartition)
    out = {}
    for x, m in mu.items():
        i = c.group_index(x)
        out[i] = out.get(i, ZERO) + m
    return out


class GroupTally:
    """Distinct elements of a stream and, per group, how many of them it
    contains (every group of a finite collection; touched blocks only for a
    block partition).  A repeat changes nothing, so feeding the stream one
    element at a time costs O(K) per new element and O(1) per repeat."""

    __slots__ = ("groups", "seen", "counts")

    def __init__(self, c: GroupCollection):
        self.groups = c
        self.seen: set[int] = set()
        self.counts: dict[int, int] = (dict.fromkeys(c.indices(), 0)
                                       if isinstance(c, FiniteGroups) else {})

    def add(self, x: int) -> bool:
        """Record x; returns whether it was new."""
        if x in self.seen:
            return False
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"elements must be naturals, got {x!r}")
        self.seen.add(x)
        c = self.groups
        if isinstance(c, FiniteGroups):
            for i in c.groups_containing(x):
                self.counts[i] += 1
        else:
            i = c.group_index(x)
            self.counts[i] = self.counts.get(i, 0) + 1
        return True

    def weights(self) -> dict[int, Fraction]:
        """Group probabilities induced by the empirical distribution of the
        elements added so far: count / distinct, exactly."""
        d = len(self.seen)
        if not d:
            raise ValueError("empirical distribution of an empty prefix is undefined")
        return {i: Fraction(n, d) for i, n in self.counts.items()}


def group_empirical(prefix: Sequence[int], c: GroupCollection) -> dict[int, Fraction]:
    """Group probabilities induced by the empirical distribution of the
    prefix; equal to `induced_group_probs(empirical(prefix), c)`."""
    tally = GroupTally(c)
    for x in prefix:
        tally.add(x)
    return tally.weights()


def sup_distance(p: Mapping[int, Fraction], q: Mapping[int, Fraction]) -> Fraction:
    """Largest absolute difference across all group indices present in either
    argument (absent entries read as 0)."""
    keys = set(p) | set(q)
    if not keys:
        return ZERO
    return max(abs(p.get(i, ZERO) - q.get(i, ZERO)) for i in keys)


def is_alpha_representative(mu: RationalDist, prefix: Sequence[int],
                            c: GroupCollection, alpha: Fraction
                            ) -> tuple[bool, Fraction]:
    """Exact check that mu's group probabilities track the prefix's empirical
    ones to within alpha in sup distance.  Returns (verdict, distance)."""
    d = sup_distance(induced_group_probs(mu, c), group_empirical(prefix, c))
    return d <= alpha, d


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or an integer literal; rejects decimal notation so that
    every configured quantity stays exact."""
    text = text.strip()
    if "." in text:
        raise ValueError(f"expected rational 'p/q', got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"expected rational 'p/q', got {text!r}") from e


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"
