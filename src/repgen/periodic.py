"""Exact algebra of ultimately periodic subsets of the naturals.

A set is described by a finite exception region below a threshold plus a
union of residue classes modulo a period at and above it:

    prefix  ∪  { x >= threshold : x mod modulus in residues }

This family is closed under union, intersection, difference and complement,
and membership, emptiness, finiteness and inclusion are all decidable.  That
is what lets every verdict in this package be computed exactly instead of
being sampled.

Instances canonicalize on construction (minimal eventual period, then
minimal threshold), so structural equality coincides with equality of the
denoted sets.  An instance is immutable, so its hash is computed once, on
first use, and kept with it: the stream state's unseen-element cursors and
a finite family's pieces, which are keyed by sets, then hash each set once.

Every operation on several sets reads one table, `classify`: which of the
sets hold each membership class.  `&`, `|`, `-` and `complement` select the
classes by their mask, and `refine` groups them by it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from math import isqrt, lcm
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class PeriodicSet:
    threshold: int
    modulus: int
    residues: frozenset[int]
    prefix: frozenset[int]

    def __init__(self, threshold: int, modulus: int,
                 residues: Iterable[int] = (), prefix: Iterable[int] = ()):
        residues = frozenset(residues)
        prefix = frozenset(prefix)
        # `type(x) is int`, not isinstance: a bool is not a count or an element
        if not {type(threshold), type(modulus), *map(type, residues),
                *map(type, prefix)} <= {int}:
            bad = next(x for x in (threshold, modulus, *residues, *prefix)
                       if type(x) is not int)
            raise TypeError(f"threshold, modulus, residues and prefix "
                            f"elements must be ints, got "
                            f"{type(bad).__name__} {bad!r}")
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if any(not (0 <= r < modulus) for r in residues):
            raise ValueError(f"residues must lie in [0, {modulus}): {sorted(residues)}")
        if any(not (0 <= f < threshold) for f in prefix):
            raise ValueError(f"prefix elements must lie in [0, {threshold}): {sorted(prefix)}")

        # Minimal eventual period: the set of eventual periods of an
        # ultimately periodic set is closed under gcd, so it suffices to try
        # divisors of the given modulus in increasing order.  A shift by d
        # maps the residues onto themselves iff into them: it is a bijection.
        small = [d for d in range(1, isqrt(modulus) + 1) if modulus % d == 0]
        modulus2 = next(d for d in small + [modulus // d for d in small[::-1]]
                        if all((r + d) % modulus in residues for r in residues))
        residues2 = frozenset(r for r in residues if r < modulus2)

        # Minimal threshold for that period: fold prefix elements into the
        # periodic part while they agree with it.
        t = threshold
        while t and (t - 1 in prefix) == ((t - 1) % modulus2 in residues2):
            t -= 1
        prefix2 = frozenset(x for x in prefix if x < t)

        object.__setattr__(self, "threshold", t)
        object.__setattr__(self, "modulus", modulus2)
        object.__setattr__(self, "residues", residues2)
        object.__setattr__(self, "prefix", prefix2)

    # The hash of the four fields, computed on first use and kept on the
    # instance.  Not a field: unannotated, so equality, `fields` and the
    # canonical form see only the four above.
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.threshold, self.modulus, self.residues, self.prefix))
            object.__setattr__(self, "_hash", h)
        return h

    # -- membership and classification ------------------------------------

    def __contains__(self, x: int) -> bool:
        if x < self.threshold:
            return x in self.prefix
        return (x % self.modulus) in self.residues

    def is_finite(self) -> bool:
        return not self.residues

    def is_empty(self) -> bool:
        return not self.residues and not self.prefix

    def size_if_finite(self) -> int | None:
        """Number of elements, or None for infinite sets."""
        if self.residues:
            return None
        return len(self.prefix)

    # -- boolean algebra ---------------------------------------------------

    def _combine(self, other: "PeriodicSet", keep) -> "PeriodicSet":
        """The set of the membership classes whose `classify` mask over
        (self, other) passes `keep`: bit 0 for self, bit 1 for other."""
        t, m, masks = classify((self, other))
        return _from_keys(t, m, [k for k, mask in enumerate(masks) if keep(mask)])

    def __and__(self, other: "PeriodicSet") -> "PeriodicSet":
        return self._combine(other, lambda mask: mask == 3)

    def __or__(self, other: "PeriodicSet") -> "PeriodicSet":
        return self._combine(other, bool)

    def __sub__(self, other: "PeriodicSet") -> "PeriodicSet":
        return self._combine(other, lambda mask: mask == 1)

    def complement(self) -> "PeriodicSet":
        return ALL - self

    def is_subset(self, other: "PeriodicSet") -> bool:
        return (self - other).is_empty()

    # -- enumeration --------------------------------------------------------

    def members(self) -> Iterator[int]:
        """Yield elements in increasing order (endless for infinite sets)."""
        yield from sorted(self.prefix)
        if not self.residues:
            return
        rs = sorted(self.residues)
        base = self.threshold - (self.threshold % self.modulus)
        while True:
            for r in rs:
                x = base + r
                if x >= self.threshold:
                    yield x
            base += self.modulus

    def nth_unseen(self, excluded, k: int = 0) -> int | None:
        """k-th (0-based) member not in `excluded`; None if exhausted.

        `excluded` must be finite, otherwise enumeration of an infinite set
        would not terminate.  A k that is not an int (a bool included) is a
        TypeError, and a negative k a ValueError.
        """
        if type(k) is not int:
            raise TypeError(f"k must be an int, got {type(k).__name__} {k!r}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        unseen = (x for x in self.members() if x not in excluded)
        return next(islice(unseen, k, None), None)

    def __repr__(self) -> str:
        return f"PeriodicSet({format_set(self)!r})"


EMPTY = PeriodicSet(0, 1)
ALL = PeriodicSet(0, 1, (0,))
EVENS = PeriodicSet(0, 2, (0,))
ODDS = PeriodicSet(0, 2, (1,))


def classify(sets: Sequence[PeriodicSet]) -> tuple[int, int, list[int]]:
    """Which of `sets` hold each membership class.  With T the largest
    threshold and M the lcm of the moduli, every x >= T lies in the same
    sets as T + (x - T) mod M, so the T + M keys 0, ..., T + M - 1 stand
    for all the naturals.  Returns (T, M, masks), masks[k] having bit n set
    iff sets[n] holds key k: one pass of T + M membership tests per set."""
    t = max((s.threshold for s in sets), default=0)
    m = lcm(*(s.modulus for s in sets))
    masks = [0] * (t + m)
    for n, s in enumerate(sets):
        bit = 1 << n
        for k in filter(s.__contains__, range(t + m)):
            masks[k] |= bit
    return t, m, masks


def _from_keys(t: int, m: int, keys: list[int]) -> PeriodicSet:
    """The set made of the membership classes `keys`, numbered as by
    `classify` with threshold t and period m."""
    return PeriodicSet(t, m, (k % m for k in keys if k >= t),
                       (k for k in keys if k < t))


def refine(base: PeriodicSet,
           sets: Sequence[PeriodicSet]) -> list[tuple[int, PeriodicSet]]:
    """The nonempty pieces of `base` cut by `sets`, each tagged with the
    bitmask of the sets that hold it (bit n for sets[n]): the membership
    classes of `base` grouped by their `classify` mask, in the order of
    cutting by each set in turn, the piece inside a set before the piece
    outside it.  One pass of T + M membership tests per set."""
    t, m, masks = classify((base, *sets))
    keys: dict[int, list[int]] = {}
    for k, mask in enumerate(masks):
        if mask & 1:
            keys.setdefault(mask >> 1, []).append(k)
    order = sorted(keys, reverse=True,  # the tag's bits from bit 0 on, 1 first
                   key=lambda tag: f"{tag:0{len(sets)}b}"[::-1])
    return [(tag, _from_keys(t, m, keys[tag])) for tag in order]


def from_finite(elements: Iterable[int]) -> PeriodicSet:
    elements = frozenset(elements)
    if not elements:
        return EMPTY
    t = max(elements) + 1
    return PeriodicSet(t, 1, (), elements)


def from_threshold(threshold: int) -> PeriodicSet:
    """All naturals at or above `threshold`."""
    return PeriodicSet(threshold, 1, (0,), ())


def interval(lo: int, hi: int) -> PeriodicSet:
    """Half-open integer range [lo, hi)."""
    return from_finite(range(lo, hi))


def multiples(m: int) -> PeriodicSet:
    return PeriodicSet(0, m, (0,))


# -- textual notation -------------------------------------------------------
#
# Named forms: "all", "empty", "evens", "odds".
# Finite sets:  "finite:{1,3,5}"  (sorted, no spaces; "finite:{}" is empty).
# General:      "ap:T,m,{r1,r2},{f1,f2}"  on canonical fields.
#
# format_set emits the most specific form, so parse_set(format_set(s)) == s
# for every set within MAX_PARSED, and formatting is idempotent on its own
# output.

# Largest modulus, threshold or finite element that parse_set accepts, and
# (scenario.parse_scenario) the largest lcm of a scenario's moduli.  The
# algebra is O(lcm + threshold) per operand, so the bound is what keeps
# hostile input from hanging.  Best of three perf_counter runs (Python
# 3.11.7, 2-vCPU x86-64 VM): `&` of ap:0,100,{1},{} and ap:0,101,{2},{}
# (lcm 10,100) takes 0.004 s, at lcm 90,300 0.03 s, at lcm 1,001,000 0.4 s.
# u01 with its support all but residue 99 mod 100 and its groups the
# multiples of 101 and the rest runs `gc-dim` in 0.012 s and `run` in
# 0.02 s; mod 1000 against mod 1001 (cap lifted) in 1.2 s and 2.6 s.
MAX_PARSED = 10 ** 4

_NAMED = {"all": ALL, "empty": EMPTY, "evens": EVENS, "odds": ODDS}
_NAMES = {s: name for name, s in _NAMED.items()}
_AP_RE = re.compile(r"^ap:(\d+),(\d+),\{([\d,]*)\},\{([\d,]*)\}$")
_FINITE_RE = re.compile(r"^finite:\{([\d,]*)\}$")


def _parse_ints(body: str) -> list[int]:
    if not body:
        return []
    return [int(p) for p in body.split(",")]


def _bounded(what: str, value: int) -> None:
    if value > MAX_PARSED:
        raise ValueError(f"{what} must be <= {MAX_PARSED}, got {value}")


def parse_set(text: str) -> PeriodicSet:
    text = text.strip()
    if text in _NAMED:
        return _NAMED[text]
    m = _FINITE_RE.match(text)
    if m:
        elements = _parse_ints(m.group(1))
        _bounded("finite elements", max(elements, default=0))
        return from_finite(elements)
    m = _AP_RE.match(text)
    if m:
        t, mod = int(m.group(1)), int(m.group(2))
        _bounded("threshold", t)
        _bounded("modulus", mod)
        return PeriodicSet(t, mod, _parse_ints(m.group(3)), _parse_ints(m.group(4)))
    raise ValueError(f"unrecognized set notation: {text!r}")


def format_set(s: PeriodicSet) -> str:
    if s in _NAMES:
        return _NAMES[s]
    if s.is_finite():
        return "finite:{%s}" % ",".join(str(x) for x in sorted(s.prefix))
    return "ap:%d,%d,{%s},{%s}" % (
        s.threshold, s.modulus,
        ",".join(str(r) for r in sorted(s.residues)),
        ",".join(str(x) for x in sorted(s.prefix)))
