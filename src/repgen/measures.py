"""Finite-support exact distributions and group-level probabilities.

Every mass is exact and nothing in this module ever touches a float, so
representativeness verdicts at the boundary are exact.  Inside, a
distribution is integers over one common denominator: one positive numerator
per support element and the least denominator they share, so building a
distribution from integer numerators and summing masses per group are
integer work.  The representativeness check is integer work too:
`GroupTally.gap` compares a distribution's per-group numerators with the
tally's per-group counts over the product of the two denominators and
returns the largest difference as an integer numerator and denominator, so
a verdict against alpha is one cross-multiplication.  `GroupTally.distance`
is the `Fraction` view of that gap, built only where a caller keeps or
returns it, and `GroupTally.worst_group` names a group attaining it.  A
point mass needs no per-group masses: its gap comes from the owner groups
of its one element and the counts.  A tally keeps no result between
checks: every `gap` call counts afresh.  Which groups hold an element is
the group collection's business (`mass_by_group`, `owners`), so nothing
here depends on the collection's shape.  `prefix_tally` remembers
the tally of its last prefix, so checking the prefixes of one stream in
order, as report verification does, counts each element once rather than
once per prefix; when those prefixes are `PrefixView`s of one append-only
list, neither the check nor the prefixes themselves copy the stream.
`fractions.Fraction` appears only at the interface: masses passed in,
`items()`, the group probabilities and the distance returned.
`is_alpha_representative` decides distance <= alpha in integers, from the
gap and alpha's numerator and denominator, and so does `check_alpha` its
[0, 1] range.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm
from typing import Collection, Iterable, Mapping

from .errors import ConfigError
from .groups import GroupCollection


class RationalDist:
    """Probability distribution with finite support over the naturals.

    Stored as the sorted support, one positive integer numerator per element
    and their least common denominator, so structural equality is value
    equality.  Invariants enforced at construction: every mass is a positive
    rational and the masses sum to exactly 1.  A mass that is not an int or
    a Fraction, a bool included, is a TypeError, raised before any other
    check.
    """

    __slots__ = ("_xs", "_nums", "_den")

    def __init__(self, masses: Mapping[int, Fraction]):
        xs = sorted(masses)
        fs = []
        for x in xs:
            m = masses[x]
            if type(m) is bool or not isinstance(m, (int, Fraction)):
                raise TypeError(f"mass at {x!r} must be an int or Fraction, "
                                f"got {type(m).__name__} {m!r}")
            fs.append(m if isinstance(m, Fraction) else Fraction(m))
        den = lcm(*(m.denominator for m in fs))
        self._assign(tuple(xs), tuple(m.numerator * (den // m.denominator)
                                      for m in fs), den)

    def _assign(self, xs: tuple[int, ...], nums: tuple[int, ...],
                den: int) -> "RationalDist":
        """Validate and store mass nums[j] / den at xs[j].  The caller passes
        xs sorted and distinct and den the least common denominator of the
        masses, which makes gcd(den, *nums) 1."""
        # `type(x) is int`, not isinstance: a bool is an int, not a natural
        if not (xs and {*map(type, xs)} <= {int} and xs[0] >= 0
                and min(nums) > 0):
            for x, n in zip(xs, nums):
                if n <= 0:
                    raise ValueError(
                        f"mass at {x} must be positive, got {Fraction(n, den)}")
                if type(x) is not int or x < 0:
                    raise ValueError(f"support elements must be naturals, got {x!r}")
        total = sum(nums)
        if total != den:
            raise ValueError(f"masses must sum to 1, got {Fraction(total, den)}")
        self._xs, self._nums, self._den = xs, nums, den
        return self

    @classmethod
    def _from_pairs(cls, pairs: list[tuple[int, int]],
                    den: int) -> "RationalDist":
        """Mass num / den at x for each (x, num) pair, the xs distinct: the
        same distribution, and the same errors, as
        `RationalDist({x: Fraction(num, den)})`, built without a
        `Fraction`.  The pairs are sorted in place, split with `zip`,
        reduced by one gcd and checked by `_assign`; one pair holding the
        whole denominator is the point mass, made by `point` (removing that
        measured uniform-fuzz steps/s ×0.935, p50 ×1.124, late ×1.174).  den
        must be positive; the masses need not be reduced."""
        if len(pairs) == 1 and pairs[0][1] == den:
            return cls.point(pairs[0][0])
        pairs.sort()
        xs, nums = zip(*pairs) if pairs else ((), ())
        g = gcd(den, *nums)
        return cls.__new__(cls)._assign(xs, tuple([n // g for n in nums]),
                                        den // g)

    @classmethod
    def point(cls, x: int) -> "RationalDist":
        """The point mass at x: `RationalDist({x: 1})`, with the same
        check and error on x, made directly rather than through `_assign`."""
        if type(x) is not int or x < 0:
            raise ValueError(f"support elements must be naturals, got {x!r}")
        self = cls.__new__(cls)
        self._xs, self._nums, self._den = (x,), (1,), 1
        return self

    @classmethod
    def uniform(cls, xs: Iterable[int]) -> "RationalDist":
        xs = tuple(sorted(set(xs)))
        if not xs:
            raise ValueError("uniform distribution needs a nonempty support")
        return cls.__new__(cls)._assign(xs, (1,) * len(xs), len(xs))

    @classmethod
    def _uniform_sorted(cls, xs: tuple[int, ...]) -> "RationalDist":
        """`uniform(xs)` without its checks, for a caller whose xs is
        already a nonempty, increasing tuple of naturals (a stream state's
        distinct elements, each checked when it arrived)."""
        self = cls.__new__(cls)
        self._xs, self._nums, self._den = xs, (1,) * len(xs), len(xs)
        return self

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(zip(self._xs, map(Fraction, self._nums, repeat(self._den))))

    def support(self) -> tuple[int, ...]:
        return self._xs

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalDist) and self._den == other._den
                and self._xs == other._xs and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self._xs, self._nums, self._den))

    def __repr__(self) -> str:
        body = ", ".join(f"{x}: {m}" for x, m in self.items())
        return "RationalDist({%s})" % body

    def serialize(self) -> list[list]:
        """Sorted [element, "numerator/denominator"] pairs, each reduced."""
        den = self._den
        out = []
        for x, n in zip(self._xs, self._nums):
            g = gcd(n, den)
            out.append([x, f"{n // g}/{den // g}"])
        return out


def empirical(prefix: Collection[int]) -> RationalDist:
    """Uniform distribution over the distinct elements of the prefix."""
    if not prefix:
        raise ValueError("empirical distribution of an empty prefix is undefined")
    return RationalDist.uniform(prefix)


class PrefixView(Sequence):
    """Read-only view of the first n items of a list that is only ever
    appended to, so the view never changes: n stays its length however long
    the list grows.  It compares and hashes like the tuple of those items,
    and indexing, slicing and membership touch only them.  Views of one
    list share it, so a game's reports hold its history once rather than
    once per report."""

    __slots__ = ("_items", "_n")

    def __init__(self, items: list[int], n: int):
        if not 0 <= n <= len(items):
            raise ValueError(f"view length {n} outside 0..{len(items)}")
        self._items = items
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._items.__getitem__,
                             range(*i.indices(self._n))))
        n = self._n
        if not -n <= i < n:
            raise IndexError("view index out of range")
        return self._items[i + n if i < 0 else i]

    def __iter__(self):
        return islice(self._items, self._n)

    def __contains__(self, x) -> bool:
        try:
            self._items.index(x, 0, self._n)
        except ValueError:
            return False
        return True

    def __eq__(self, other) -> bool:
        if isinstance(other, PrefixView):
            if other._items is self._items and other._n == self._n:
                return True
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(other) == self._n and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"PrefixView({tuple(self)!r})"

    def suffix_after(self, known) -> list[int] | None:
        """The items this view adds to `known` when `known` is a view of the
        same list and no longer, else None: an O(1) test for an extension,
        which relies on the list's first items never changing."""
        if (type(known) is PrefixView and known._items is self._items
                and known._n <= self._n):
            return self._items[known._n:self._n]
        return None


class GroupTally:
    """Distinct elements of a stream and, per group, how many of them it
    contains (every group of a finite collection; touched blocks only for a
    block partition).  A repeat changes nothing, so feeding the stream one
    element at a time costs O(K) per new element and O(1) per repeat; a
    block partition's block may also be recorded whole (`add_block`)."""

    __slots__ = ("groups", "seen", "counts")

    def __init__(self, c: GroupCollection):
        self.groups = c
        self.seen: set[int] = set()
        self.counts: dict[int, int] = c.mass_by_group((), ())

    def add(self, x: int) -> bool:
        """Record x; returns whether it was new.  x is checked before the
        seen test: 1.0 or True equals a seen 1 but is no natural."""
        if type(x) is not int or x < 0:
            raise ValueError(f"elements must be naturals, got {x!r}")
        if x in self.seen:
            return False
        self.seen.add(x)
        counts = self.counts
        for i in self.groups.owners(x):
            counts[i] = counts.get(i, 0) + 1
        return True

    def add_block(self, k: int) -> None:
        """Record every element of block k of a block partition at once, as
        `add` of each would: the block's elements join `seen` and its count
        is its size.  A block that already holds a seen element (its count
        is in `counts`) is a ValueError, so the count is never short of what
        one `add` per element would give; a collection that is not a block
        partition (it has no `block_range`), or a k that is not an int (a
        bool included), is a TypeError."""
        block_range = getattr(self.groups, "block_range", None)
        if block_range is None:
            raise TypeError(f"add_block needs a block partition, got "
                            f"{self.groups!r}")
        if type(k) is not int:
            raise TypeError(f"block indices are ints, got "
                            f"{type(k).__name__} {k!r}")
        if k in self.counts:
            raise ValueError(f"block {k} already holds a seen element")
        lo, hi = block_range(k)
        self.seen.update(range(lo, hi))
        self.counts[k] = hi - lo

    def weights(self) -> dict[int, Fraction]:
        """Group probabilities induced by the empirical distribution of the
        elements added so far: count / distinct, exactly."""
        d = len(self.seen)
        if not d:
            raise ValueError("empirical distribution of an empty prefix is undefined")
        return {i: Fraction(n, d) for i, n in self.counts.items()}

    def gap(self, mu: RationalDist) -> tuple[int, int]:
        """Sup distance between mu's group probabilities and the weights of
        the elements added so far, over every group either side touches, as
        an integer numerator over mu's denominator times the distinct count
        (not reduced).  Both sides are integers over that denominator, so
        the maximum is integer work and a caller decides against it by
        cross-multiplying.  A point mass at x (den 1) skips
        `mass_by_group`: a group's gap is d - count if it holds x and count
        if not, so an owner of x that the tally never touched gives d.
        Removing that branch measured inlimit-long steps/s ×0.862, p50
        ×1.214, and adversary-blocks steps/s ×0.960."""
        d = len(self.seen)
        if not d:
            raise ValueError("empirical distribution of an empty prefix is undefined")
        den = mu._den
        counts = self.counts
        worst = 0
        if den == 1:
            owners = self.groups.owners(mu._xs[0])
            # an owner the tally never touched (a block) has count 0
            for i in owners:
                short = d - counts.get(i, 0)
                if short > worst:
                    worst = short
            for i, n in counts.items():
                if n > worst and i not in owners:
                    worst = n
        else:
            masses = self.groups.mass_by_group(mu._xs, mu._nums)
            for i, m in masses.items():
                gap = m * d - counts.get(i, 0) * den
                if gap > worst:
                    worst = gap
                elif -gap > worst:
                    worst = -gap
            # groups the history touches and mu does not (blocks only; a
            # finite collection's masses and counts both hold every group)
            for i in counts.keys() - masses.keys():
                missed = counts[i] * den
                if missed > worst:
                    worst = missed
        return worst, den * d

    def distance(self, mu: RationalDist) -> Fraction:
        """`gap(mu)` as a reduced `Fraction`."""
        return Fraction(*self.gap(mu))

    def worst_group(self, mu: RationalDist) -> int:
        """The smallest group index at which mu's group probability and the
        weight of the elements added so far differ by `distance(mu)`,
        compared in integers over the same denominator."""
        d = len(self.seen)
        if not d:
            raise ValueError("empirical distribution of an empty prefix is undefined")
        den = mu._den
        counts = self.counts
        masses = self.groups.mass_by_group(mu._xs, mu._nums)
        return min(masses.keys() | counts.keys(),
                   key=lambda i: (-abs(masses.get(i, 0) * d
                                       - counts.get(i, 0) * den), i))


# prefix_tally's one-entry memo: the prefix of its last call (a tuple copy,
# or the `PrefixView` itself) and that prefix's tally (whose `groups` is the
# call's collection).
_memo: tuple[Sequence[int], GroupTally] | None = None


def prefix_tally(prefix: Sequence[int], c: GroupCollection) -> GroupTally:
    """The `GroupTally` of the prefix's elements over c.

    The last call is remembered: its prefix and that prefix's tally, which
    the caller must not change.  A call with the same collection object and
    a prefix of ints that starts with the remembered one counts only the
    elements it adds, so checking the prefixes of one stream in order counts
    each element once instead of once per call.  A `PrefixView` that extends
    a remembered view of the same list is recognised in O(1); any other
    prefix is copied and compared in O(length), at C speed.  Any other call
    counts from scratch.  The memo is module state: it is not thread-safe
    (repgen runs in one thread) and keeps one prefix and its collection
    alive."""
    global _memo
    memo = _memo
    # `type(...) is`: an isinstance test against an ABC subclass such as
    # PrefixView costs about ten times as much, on every call
    view = type(prefix) is PrefixView
    if not view:
        prefix = tuple(prefix)
    suffix = None
    if memo is not None and memo[1].groups is c:
        known = memo[0]
        if view:
            suffix = prefix.suffix_after(known)
        # The type pass keeps rejections exact: a value such as 1.0 or True
        # equals a remembered 1, but `GroupTally.add` rejects it.  An
        # extending view shares the remembered items themselves, and `add`
        # checks every suffix element, so a view needs no pass.
        if suffix is None and prefix[:len(known)] == known \
                and {*map(type, prefix)} <= {int}:
            suffix = prefix[len(known):]
    if suffix is None:
        tally = GroupTally(c)
        suffix = prefix
    else:
        _memo = None  # its tally changes below
        tally = memo[1]
    for x in suffix:
        tally.add(x)
    _memo = (prefix, tally)
    return tally


def group_empirical(prefix: Sequence[int], c: GroupCollection) -> dict[int, Fraction]:
    """Group probabilities induced by the empirical distribution of the
    prefix.  Counted through `prefix_tally`, so the prefixes of one stream,
    asked in order, count each element once."""
    return prefix_tally(prefix, c).weights()


def is_alpha_representative(mu: RationalDist, prefix: Sequence[int],
                            c: GroupCollection, alpha: Fraction
                            ) -> tuple[bool, Fraction]:
    """Exact check that mu's group probabilities track the prefix's empirical
    ones to within alpha in sup distance.  Returns (verdict, distance)."""
    tally = prefix_tally(prefix, c)
    num, den = tally.gap(mu)
    # gap <= alpha in integers (an int alpha has denominator 1)
    return (num * alpha.denominator <= alpha.numerator * den,
            Fraction(num, den))


def check_exact(name: str, value: Fraction) -> None:
    """Reject a value that is not an int or a Fraction, or is a bool
    (TypeError naming it), so that no float or truth value reaches an exact
    verdict."""
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name} must be an int or Fraction, got "
                        f"{type(value).__name__} {value!r}")


def check_alpha(alpha: Fraction) -> None:
    """Reject an alpha that is not an int or a Fraction, or is a bool
    (TypeError, `check_exact`), or that lies outside [0, 1]
    (ConfigError)."""
    check_exact("alpha", alpha)
    # 0 <= p/q <= 1 with q > 0
    if not 0 <= alpha.numerator <= alpha.denominator:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")


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
