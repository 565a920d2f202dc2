"""Hypotheses, ordered hypothesis classes, consistency and closure.

A hypothesis is an identified infinite subset of the naturals (its support).
A class is an ordered enumeration h_1, h_2, ...; the order matters because
both criticality and the non-uniform generator's thresholds are defined in
terms of enumeration position.  Indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable, Sequence

from .periodic import PeriodicSet


@dataclass(frozen=True)
class Hypothesis:
    id: str
    support: PeriodicSet

    def __post_init__(self):
        # Supports must be infinite: a finite support would make the notion
        # of generating unseen examples from it degenerate.
        if self.support.is_finite():
            raise ValueError(f"hypothesis {self.id!r} must have infinite support")


class HypothesisClass:
    """Ordered list of hypotheses, optionally extendable on demand.

    `provider(n)` (1-based) supplies h_n for countable classes; materialized
    members are cached.  All operations that quantify over the class take an
    explicit index bound for provider-backed classes.

    Which materialized members hold a natural is itself ultimately periodic:
    with T the largest threshold and M the lcm of the moduli of their
    supports, x >= T is held by the same members as T + (x - T) mod M.
    `holding` decides it once per such class, as a bitmask, and the memo
    starts afresh whenever a provider materializes a new member.
    """

    def __init__(self, hypotheses: Sequence[Hypothesis],
                 provider: Callable[[int], Hypothesis] | None = None):
        self._members: list[Hypothesis] = list(hypotheses)
        self._provider = provider
        self._ids: set[str] = set()
        for h in self._members:
            if h.id in self._ids:
                raise ValueError(f"duplicate hypothesis id {h.id!r}")
            self._ids.add(h.id)
        if not self._members and provider is None:
            raise ValueError("hypothesis class must not be empty")
        # closure depends only on which hypotheses are consistent, so the
        # cache is keyed by the tuple of consistent indices rather than by
        # the (much larger) set of distinct prefix elements.
        self._closure_cache: dict[tuple[int, ...], PeriodicSet | None] = {}
        # (n, i) -> whether h_n's support lies inside h_i's; members are
        # never replaced, so a verdict holds for the life of the class.
        self._subset_cache: dict[tuple[int, int], bool] = {}
        # `holding` memo and its (T, M), built on first use
        self._holding_memo: dict[int, int] | None = None
        self._holding_period = (0, 1)

    @property
    def extendable(self) -> bool:
        return self._provider is not None

    def materialized_count(self) -> int:
        return len(self._members)

    def ensure(self, n: int) -> None:
        """Materialize members up to 1-based index n."""
        while len(self._members) < n:
            if self._provider is None:
                raise IndexError(
                    f"class has {len(self._members)} hypotheses, no provider for index {n}")
            h = self._provider(len(self._members) + 1)
            if h.id in self._ids:
                raise ValueError(f"provider produced duplicate hypothesis id {h.id!r}")
            self._ids.add(h.id)
            self._members.append(h)
            self._holding_memo = None  # T and M may change

    def get(self, n: int) -> Hypothesis:
        if n < 1:
            raise IndexError(f"hypothesis indices are 1-based, got {n}")
        self.ensure(n)
        return self._members[n - 1]

    def by_id(self, hid: str) -> tuple[int, Hypothesis]:
        for i, h in enumerate(self._members, start=1):
            if h.id == hid:
                return i, h
        raise KeyError(f"no hypothesis with id {hid!r}")

    def prefix_class(self, n: int) -> "HypothesisClass":
        """The finite class {h_1, ..., h_n} in the same order."""
        self.ensure(n)
        return HypothesisClass(self._members[:n])

    def _bound(self, upto: int | None) -> int:
        if upto is None:
            if self.extendable:
                raise ValueError("provider-backed class needs an explicit index bound")
            return len(self._members)
        self.ensure(upto)
        return upto

    def consistent_indices(self, prefix: Iterable[int],
                           upto: int | None = None) -> list[int]:
        """1-based indices of hypotheses whose support contains every prefix element."""
        xs = set(prefix)
        n = self._bound(upto)
        return [i for i in range(1, n + 1)
                if all(x in self._members[i - 1].support for x in xs)]

    def holding(self, x: int) -> int:
        """Bitmask of the materialized members whose support holds the
        natural x, bit n - 1 for h_n; decided once per membership class: x
        itself below T, T + (x - T) mod M from T on.  Nothing new is
        materialized."""
        memo = self._holding_memo
        if memo is None:
            supports = [h.support for h in self._members]
            self._holding_period = (max((s.threshold for s in supports),
                                        default=0),
                                    lcm(*(s.modulus for s in supports)))
            memo = self._holding_memo = {}
        t, m = self._holding_period
        key = x if x < t else t + (x - t) % m
        mask = memo.get(key)
        if mask is None:
            mask = memo[key] = sum(1 << n for n, h in enumerate(self._members)
                                   if key in h.support)
        return mask

    def closure_of_indices(self, indices: Sequence[int]) -> PeriodicSet | None:
        """Intersection of the supports at the given indices; None for the empty family."""
        key = tuple(indices)
        if key in self._closure_cache:
            return self._closure_cache[key]
        if not key:
            result: PeriodicSet | None = None
        else:
            result = self._members[key[0] - 1].support
            for i in key[1:]:
                result = result & self._members[i - 1].support
        self._closure_cache[key] = result
        return result

    def closure(self, prefix: Iterable[int],
                upto: int | None = None) -> PeriodicSet | None:
        """Intersection of the supports of all hypotheses consistent with the
        prefix, or None when no hypothesis is consistent (the bottom value)."""
        return self.closure_of_indices(self.consistent_indices(prefix, upto))

    def is_critical(self, n: int, prefix: Sequence[int]) -> bool:
        """Whether h_n is critical after the given example sequence.

        True iff n <= len(prefix), h_n is consistent with the prefix, and the
        support of h_n is contained in the support of every consistent
        earlier hypothesis.
        """
        if n < 1 or n > len(prefix):
            return False
        return self.critical_among(n, self.consistent_indices(prefix, upto=n))

    def critical_among(self, n: int, consistent: Sequence[int]) -> bool:
        """Whether h_n is critical, given the indices of the hypotheses
        consistent with the prefix (at least those below n)."""
        if n not in consistent:
            return False
        cache = self._subset_cache
        for i in consistent:
            if i >= n:
                continue
            inside = cache.get((n, i))
            if inside is None:
                inside = cache[n, i] = self._members[n - 1].support.is_subset(
                    self._members[i - 1].support)
            if not inside:
                return False
        return True
