"""Group collections over the naturals.

Two shapes are supported: a finite, possibly overlapping family of periodic
sets, and an infinite partition into consecutive finite blocks whose sizes
follow an explicit list with a geometric tail.  Group indices are 1-based.
Both shapes share `group(i)` (a `PeriodicSet`), `owners(x)` (the indices
of the groups that hold x, as a tuple the collection may keep and share),
its list copy `groups_containing(x)`, `mass_by_group(xs, weights)` (total
weight per group: every group of a finite family, the touched blocks of a
partition), `members_in(s, part)` (the members of a set inside a cell,
named by its membership vector, or a block, in increasing order) and
`validate()`, so callers that count, weigh or enumerate elements never ask
which shape they hold.
Membership in a finite family is itself ultimately periodic: with T the
largest threshold and M the lcm of the moduli, x >= T holds the same groups
as T + (x - T) mod M.  `FiniteGroups` decides which groups hold an element
once per such class and looks it up after that, so its memo never holds more
than T + M entries.  It cuts each set once into `pieces(s)` with
`periodic.refine`, the all-zeros vector keying the part in no group, and
keeps the cut; `validate()` reads the same `periodic.classify` masks.  Each
`members_in` call starts a fresh walk of a piece; the stream state's cursors
keep theirs and only move forward, so a piece is walked once per state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import lcm
from typing import Collection, Iterable, Iterator, Sequence, Union

from .hypotheses import Hypothesis
from .periodic import EMPTY, PeriodicSet, classify, interval, refine


@dataclass(frozen=True)
class ValidationReport:
    covers: bool
    partition: bool


class FiniteGroups:
    """Ordered finite family A_1, ..., A_K of periodic sets."""

    def __init__(self, groups: Sequence[PeriodicSet]):
        if not groups:
            raise ValueError("group collection must not be empty")
        self._groups = tuple(groups)
        self._report: ValidationReport | None = None
        # membership is periodic with threshold T and period M beyond it
        self._t = max(g.threshold for g in self._groups)
        self._m = lcm(*(g.modulus for g in self._groups))
        self._owners_memo: dict[int, tuple[int, ...]] = {}
        # (index, bound membership test) per group, for a new class
        self._has = tuple(enumerate((g.__contains__ for g in self._groups),
                                    start=1))
        self._pieces: dict[PeriodicSet, dict[tuple[int, ...], PeriodicSet]] = {}
        # e_1, ..., e_K: the vector of each group alone, a partition's cells
        k = len(self._groups)
        self.units = tuple(tuple(int(n == i) for n in range(k)) for i in range(k))

    @property
    def k(self) -> int:
        return len(self._groups)

    def group(self, i: int) -> PeriodicSet:
        if not (1 <= i <= len(self._groups)):
            raise IndexError(f"group indices are 1-based up to {len(self._groups)}, got {i}")
        return self._groups[i - 1]

    def indices(self) -> range:
        return range(1, len(self._groups) + 1)

    def validate(self) -> ValidationReport:
        """Covers: every membership class in some group; a partition: in
        exactly one, its `classify` mask a single bit."""
        if self._report is None:
            masks = classify(self._groups)[2]
            covers = all(masks)
            self._report = ValidationReport(
                covers, covers and not any(mask & (mask - 1) for mask in masks))
        return self._report

    def owners(self, x: int) -> tuple[int, ...]:
        """The indices of the groups that hold the natural x, decided once
        per membership class: x itself below T, T + (x - T) mod M from T
        on.  The tuple is the memo's own, shared by every x of the class."""
        t = self._t
        key = x if x < t else t + (x - t) % self._m
        owners = self._owners_memo.get(key)
        if owners is None:
            owners = self._owners_memo[key] = tuple(
                [i for i, has in self._has if has(key)])
        return owners

    def groups_containing(self, x: int) -> list[int]:
        return list(self.owners(x))

    def mass_by_group(self, xs: Collection[int],
                      weights: Iterable[int]) -> dict[int, int]:
        """Total weight of xs per group, zeros included.  Each argument is
        read once, in step: collections, or an endless `repeat` of
        weights."""
        sums = dict.fromkeys(range(1, len(self._groups) + 1), 0)
        owners = self.owners
        for x, w in zip(xs, weights):
            for i in owners(x):
                sums[i] += w
        return sums

    def pieces(self, s: PeriodicSet) -> dict[tuple[int, ...], PeriodicSet]:
        """The nonempty parts of s cut by the groups, keyed by membership
        vector, 1 before 0 per coordinate; the zero vector keys the part of
        s in no group.  Cut once per set with `refine`, one membership
        pass over s and each group, and kept."""
        cut = self._pieces.get(s)
        if cut is None:
            k = len(self._groups)
            cut = self._pieces[s] = {
                tuple(mask >> n & 1 for n in range(k)): piece
                for mask, piece in refine(s, self._groups)}
        return cut

    def members_in(self, s: PeriodicSet, vec: tuple[int, ...]) -> Iterator[int]:
        """The members of s inside the cell whose membership vector `vec`
        is, in increasing order: a walk of that piece of s from its least
        member."""
        return self.pieces(s).get(vec, EMPTY).members()

    def __repr__(self) -> str:
        return f"FiniteGroups(k={self.k})"


class BlockPartition:
    """Partition of the naturals into consecutive finite blocks.

    Block k (1-based) has size sizes[k] where sizes follows the explicit
    `prefix_sizes` list and then grows geometrically: each further block is
    `base` times the previous one.  With an empty prefix the sizes are
    base, base^2, base^3, ... so block 1 is {0, ..., base - 1}.
    """

    def __init__(self, base: int, prefix_sizes: Sequence[int] = ()):
        prefix_sizes = tuple(prefix_sizes)
        for n in (base, *prefix_sizes):
            if type(n) is not int:  # a bool is an int, not a size
                raise TypeError(f"block base and sizes must be ints, got "
                                f"{type(n).__name__} {n!r}")
        if base < 2:
            raise ValueError(f"block growth base must be >= 2, got {base}")
        if any(s < 1 for s in prefix_sizes):
            raise ValueError("block sizes must be >= 1")
        self.base = base
        self.prefix_sizes = prefix_sizes
        self._bounds = [0]  # cumulative: block k covers [_bounds[k-1], _bounds[k])

    def size(self, k: int) -> int:
        if k < 1:
            raise IndexError(f"block indices are 1-based, got {k}")
        if k <= len(self.prefix_sizes):
            return self.prefix_sizes[k - 1]
        last = self.prefix_sizes[-1] if self.prefix_sizes else 1
        return last * self.base ** (k - len(self.prefix_sizes))

    def _extend_bounds(self, k: int) -> None:
        while len(self._bounds) <= k:
            self._bounds.append(self._bounds[-1] + self.size(len(self._bounds)))

    def block_range(self, k: int) -> tuple[int, int]:
        """Half-open element range [lo, hi) of block k."""
        if k < 1:
            raise IndexError(f"block indices are 1-based, got {k}")
        self._extend_bounds(k)
        return self._bounds[k - 1], self._bounds[k]

    def group(self, k: int) -> PeriodicSet:
        lo, hi = self.block_range(k)
        return interval(lo, hi)

    def group_index(self, x: int) -> int:
        """The block that holds x."""
        if x < 0:
            raise ValueError(f"elements are naturals, got {x}")
        bounds = self._bounds
        while bounds[-1] <= x:
            self._extend_bounds(len(bounds))
        return bisect_right(bounds, x)

    def owners(self, x: int) -> tuple[int, ...]:
        """(group_index(x),), bisecting the cached bounds directly when they
        already reach past x; a negative x or one beyond them goes through
        `group_index`, which refuses the one and extends them for the
        other."""
        bounds = self._bounds
        if 0 <= x < bounds[-1]:
            return (bisect_right(bounds, x),)
        return (self.group_index(x),)

    def groups_containing(self, x: int) -> list[int]:
        return [self.group_index(x)]

    def mass_by_group(self, xs: Collection[int],
                      weights: Iterable[int]) -> dict[int, int]:
        """Total weight of xs per block, touched blocks only."""
        sums: dict[int, int] = {}
        index = self.group_index
        for x, w in zip(xs, weights):
            i = index(x)
            sums[i] = sums.get(i, 0) + w
        return sums

    def members_in(self, s: PeriodicSet, k: int) -> Iterator[int]:
        """The members of s inside block k, in increasing order: the block
        is finite, so its range is filtered by membership in s, with no set
        algebra."""
        return filter(s.__contains__, range(*self.block_range(k)))

    def validate(self) -> ValidationReport:
        # Consecutive blocks tile the naturals by construction.
        return ValidationReport(covers=True, partition=True)

    def __repr__(self) -> str:
        return f"BlockPartition(base={self.base}, prefix_sizes={list(self.prefix_sizes)})"


GroupCollection = Union[FiniteGroups, BlockPartition]


def finite_support_size(h: Hypothesis, c: FiniteGroups) -> int:
    """Sum, over nonempty subfamilies whose intersection with the support is
    finite, of the size of that intersection.

    The empty subfamily is excluded, so only actual group overlap structure
    contributes; empty intersections contribute 0.  A subfamily's
    intersection is the union of the support's pieces whose vectors hold
    it, so it is finite exactly when each of them is.
    """
    sizes = [(sum(bit << n for n, bit in enumerate(vec)), piece.size_if_finite())
             for vec, piece in c.pieces(h.support).items()]
    total = 0
    for sub in range(1, 2 ** c.k):
        inter = [n for mask, n in sizes if mask & sub == sub]
        if None not in inter:
            total += sum(inter)
    return total
