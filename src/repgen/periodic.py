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
a collection's regions, which are keyed by sets, then hash each set once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from math import lcm
from typing import Iterable, Iterator


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


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
        # divisors of the given modulus in increasing order.
        for d in _divisors(modulus):
            if all(((r + d) % modulus in residues) == (r in residues)
                   for r in range(modulus)):
                modulus2 = d
                residues2 = frozenset(r for r in range(d) if r in residues)
                break

        # Minimal threshold for that period: fold prefix elements into the
        # periodic part while they agree with it.
        t = threshold
        while t > 0:
            x = t - 1
            if (x in prefix) != ((x % modulus2) in residues2):
                break
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

    def _combine(self, other: "PeriodicSet", op) -> "PeriodicSet":
        t = max(self.threshold, other.threshold)
        m = lcm(self.modulus, other.modulus)
        prefix = (x for x in range(t) if op(x in self, x in other))
        # Any representative >= t of each residue class mod m decides the
        # periodic part, because both operands are periodic beyond t.
        def rep(r: int) -> int:
            return t + ((r - t) % m)
        residues = (r for r in range(m) if op(rep(r) in self, rep(r) in other))
        return PeriodicSet(t, m, residues, prefix)

    def __and__(self, other: "PeriodicSet") -> "PeriodicSet":
        return self._combine(other, lambda a, b: a and b)

    def __or__(self, other: "PeriodicSet") -> "PeriodicSet":
        return self._combine(other, lambda a, b: a or b)

    def __sub__(self, other: "PeriodicSet") -> "PeriodicSet":
        return self._combine(other, lambda a, b: a and not b)

    def complement(self) -> "PeriodicSet":
        return PeriodicSet(
            self.threshold, self.modulus,
            (r for r in range(self.modulus) if r not in self.residues),
            (x for x in range(self.threshold) if x not in self.prefix))

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
# algebra is O(lcm + threshold) per operation, superlinear in the lcm once
# the minimal period is searched, so the bound is what keeps hostile input
# from hanging.  Measured with perf_counter (Python 3.11, 2-vCPU VM): `&` of
# ap:0,100,{1},{} and ap:0,101,{2},{} (lcm 10,100) takes 0.04 s, at lcm
# 90,300 1.3 s, and at lcm 1,001,000 21 s; u01 with its support taken mod
# 100 and its groups mod 101 runs `gc-dim` in 0.06 s and `run` in 0.08 s,
# and mod 1000 against mod 1001 in 3.2 s and 5.6 s.
MAX_PARSED = 10 ** 4

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
    named = {"all": ALL, "empty": EMPTY, "evens": EVENS, "odds": ODDS}
    if text in named:
        return named[text]
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
    if s == ALL:
        return "all"
    if s == EMPTY:
        return "empty"
    if s == EVENS:
        return "evens"
    if s == ODDS:
        return "odds"
    if s.is_finite():
        return "finite:{%s}" % ",".join(str(x) for x in sorted(s.prefix))
    return "ap:%d,%d,{%s},{%s}" % (
        s.threshold, s.modulus,
        ",".join(str(r) for r in sorted(s.residues)),
        ",".join(str(x) for x in sorted(s.prefix)))
