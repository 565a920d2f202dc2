"""Group closure dimension: witness checking and its exact closed form.

A tuple of d distinct examples witnesses dimension >= d when the closure of
the tuple is nonempty and the groups it exhausts (no unseen closure element
left) carry too much empirical weight for any consistent continuation to
track: either one exhausted group alone exceeds alpha (condition 1), or,
against a finite partition of K groups, the exhausted groups' combined
weight strictly exceeds the alpha-budget of the remaining ones (condition 2).
Both inequalities are strict.

The dimension is computed on the atoms of the instance, the joint
refinement of the partition and the hypothesis supports, whose elements are
exchangeable: a tuple witnesses or not by how many of its elements fall in
each atom.  Given the hypotheses S consistent with a tuple and the groups E
it exhausts, the witnessed depths form one interval, a span, so the
dimension is the largest span top: exact at every depth, or unbounded when
a span is (only at alpha = 0).  The witness is built greedily from the same
spans.  `check_witness` decides a tuple from its counts per group, in
integers like the spans, and shares no code with them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from heapq import merge
from itertools import combinations, product, repeat
from math import prod
from operator import and_
from typing import Iterator, NamedTuple, Sequence

from .errors import ConfigError, InvariantViolation
from .groups import BlockPartition, FiniteGroups, GroupCollection
from .hypotheses import HypothesisClass
from .measures import check_alpha
from .periodic import PeriodicSet, refine


@dataclass(frozen=True)
class Condition1:
    """One exhausted group whose empirical weight strictly exceeds alpha."""
    group: int


@dataclass(frozen=True)
class Condition2:
    """Exhausted groups jointly outweigh the alpha budget of the rest.

    `exhausted` lists the exhausted groups that carry empirical weight (for a
    finite partition: all exhausted groups); `spare_groups` is the number of
    non-exhausted groups the budget alpha * spare_groups refers to.
    """
    exhausted: tuple[int, ...]
    spare_groups: int


Condition = Condition1 | Condition2


def check_witness(cls: HypothesisClass, c: GroupCollection, alpha: Fraction,
                  xs: Sequence[int]) -> Condition | None:
    """Decide whether the distinct tuple xs witnesses dimension >= len(xs).

    Returns the first satisfied condition, checking condition 1 before
    condition 2 and lower group indices first, or None.  Decided on the
    tuple's counts per group: the tuple lies inside its closure, so group i
    is exhausted iff the closure meets it in exactly counts[i] elements, and
    with alpha = p/q and d = len(xs) condition 1 reads counts[i] q > p d and
    condition 2 p d spare < q times the exhausted groups' counts.
    """
    check_alpha(alpha)
    xs = list(xs)
    if len(set(xs)) != len(xs):
        raise ValueError(f"witness tuple must have distinct elements: {xs}")
    if not xs:
        raise ValueError("witness tuple must be nonempty")
    for x in xs:
        if type(x) is not int or x < 0:  # a bool is an int, not a natural
            raise ValueError(f"elements must be naturals, got {x!r}")
    closure = cls.closure(xs)
    if closure is None:
        return None
    counts = c.mass_by_group(xs, repeat(1))
    if isinstance(c, FiniteGroups):
        if not c.validate().partition:
            raise ConfigError("dimension is defined against partitions only")
        candidates = c.indices()
    else:
        assert isinstance(c, BlockPartition)
        # Only blocks that carry tuple weight count as exhausted.
        candidates = sorted(counts)
    exhausted = [i for i in candidates
                 if (closure & c.group(i)).size_if_finite() == counts[i]]
    if isinstance(c, FiniteGroups):
        spare = c.k - len(exhausted)
    elif closure.is_finite():
        # Finitely many blocks keep an unseen closure element.
        seen = set(xs)
        spare = len({c.group_index(x) for x in closure.members()
                     if x not in seen})
    else:
        # Infinitely many blocks stay alive, so the countable form of
        # condition 2 cannot hold; only condition 1 can fire.
        spare = None
    p, q, d = alpha.numerator, alpha.denominator, len(xs)
    for i in exhausted:
        if counts[i] * q > p * d:
            return Condition1(i)
    heavy = sum(counts[i] for i in exhausted)
    if spare is not None and p * d * spare < q * heavy:
        return Condition2(tuple(exhausted), spare)
    return None


# Largest accepted dimension, as the witness has d elements, one span test
# each.  At d = 34,999 `gc_dimension` takes 1.13-1.45 s (ten singleton
# groups and a tail, alpha = 1/3500) and 0.50-0.63 s (a 17,500-element group
# and a tail, alpha = 1/2); at 49,999, 1.35-2.03 s and 0.70-0.79 s (6 and 3
# runs, Python 3.11.7, 2-vCPU x86-64 VM).
MAX_D = 35_000

# Most choices of exhausted groups `_spans` enumerates, summed over the
# closure masks; they are counted before any is tried.  Alike groups take
# one choice per count, but each distinct group doubles them: groups of
# sizes 1, ..., K plus a tail at alpha = 1/4 (one mask, 2^K choices) take
# 0.19-0.27 s at K = 14 and 0.74-0.95 s at K = 16, the cap, while K = 17
# and K = 20 are refused in 7 and 11 ms (three runs, Python 3.11.7, 2-vCPU
# x86-64 VM).
MAX_CHOICES = 2 ** 16

# Most closure masks `_closures` builds, counted as the fixpoint runs: H
# hypotheses can AND to 2^H - 1 of them before `_spans` counts a choice.
# Every mask takes at least one choice when `_spans` starts from no element
# taken, so no instance above the cap gets past MAX_CHOICES either; the cap
# only refuses it sooner.  With h_j the naturals minus residue j mod 32,
# parity groups and alpha = 1/4, H = 16 (65,535 masks) is decided in
# 1.6-2.3 s, while H = 18 (262,143 masks), which MAX_CHOICES refused only
# after 6.6 s, is refused here in 0.07-0.10 s (nine runs each, Python
# 3.11.7, 2-vCPU x86-64 VM on a shared host).
MAX_MASKS = 2 ** 16


@dataclass(frozen=True)
class GcResult:
    status: str  # "exact" | "infinite"
    d: int
    witness: tuple[int, ...] | None = None  # None at d = 0, from `gc_depth`
    condition: Condition | None = None

    def __str__(self) -> str:
        if self.status == "exact":
            return f"GC = {self.d}"
        return f"GC unbounded (least unbounded span from depth {self.d})"


@dataclass(frozen=True)
class _Atom:
    """One atom of the joint refinement, as the search sees it."""
    elements: PeriodicSet
    size: int | None  # None for an infinite atom
    group: int
    hyps: int  # bit n - 1 set iff the support of h_n contains the atom


def _atoms(cls: HypothesisClass, c: FiniteGroups) -> list[_Atom]:
    """Joint refinement of the partition and the hypothesis supports."""
    supports = [cls.get(n).support
                for n in range(1, cls.materialized_count() + 1)]
    return [_Atom(piece, piece.size_if_finite(), i, hyps)
            for i in c.indices()
            for hyps, piece in refine(c.group(i), supports)]


def _closures(atoms: Sequence[_Atom], k: int) -> list[tuple[int, list]]:
    """Every closure mask S, a nonzero AND of atom masks (the hypotheses
    consistent with some tuple), with its closure atoms, those inside every
    support of S, per group: their indices and the AND of their masks.
    More than MAX_MASKS masks is a ConfigError, raised as soon as the
    fixpoint passes the cap."""
    base = {a.hyps for a in atoms} - {0}
    masks, new = set(base), list(base)
    while new:
        grown = []
        for m in new:
            for b in base:
                both = m & b
                if both and both not in masks:
                    masks.add(both)
                    grown.append(both)
                    if len(masks) > MAX_MASKS:
                        raise ConfigError(
                            f"dimension search needs at least {len(masks)} "
                            f"closure masks, above MAX_MASKS = {MAX_MASKS}")
        new = grown
    out = []
    for s in sorted(masks):
        per_group = [[j for j, a in enumerate(atoms)
                      if a.group == i and a.hyps & s == s]
                     for i in range(1, k + 1)]
        out.append((s, [(js, reduce(and_, (atoms[j].hyps for j in js), -1))
                        for js in per_group]))
    return out


class _Group(NamedTuple):
    """A group under one closure mask S."""
    atoms: list[int]  # its closure atoms
    full: int  # F_i, its count when exhausted (0 when it cannot be)
    low: int  # least count when live
    high: int | None  # most count when live (None: no cap)
    mask: int  # AND of its closure atoms' masks


def _fewest(atoms: Sequence[_Atom], ub: Sequence[int | None],
            live: list[_Group], need: int) -> int | None:
    """Fewest untouched closure atoms of the live groups, one element each
    and within each group's room, whose masks clear every bit of `need`, or
    None.  A touched atom's mask holds every bit of `need` (they lie inside
    the touched atoms' common mask), so only untouched atoms clear one.  One
    atom per bit suffices, so at most popcount(need) are tried."""
    options = {(g, atoms[j].hyps & need): None
               for g, group in enumerate(live) for j in group.atoms
               if ub[j] != 0 and need & ~atoms[j].hyps}
    for r in range(1, need.bit_count() + 1):
        for chosen in combinations(options, r):
            if not reduce(and_, (bits for _, bits in chosen), need) and all(
                    live[g].high is None or n <= live[g].high - live[g].low
                    for g, n in Counter(g for g, _ in chosen).items()):
                return r
    return None


def _spans(atoms: Sequence[_Atom], closures: list[tuple[int, list]],
           alpha: Fraction, lb: Sequence[int],
           ub: Sequence[int | None]) -> Iterator[tuple[int, int | None]]:
    """The witnessed depths [lo, top] (top None: unbounded) of every closure
    mask S and exhausted group set E that witness at all, over the tuples
    taking lb[j] to ub[j] elements of atom j (None: no cap).

    An exhausted group holds all F_i elements of its closure atoms; a live
    group leaves one out, or has an atom that cannot be filled.  With C_E
    the sum of F_i over E and alpha = p/q, condition 1 holds iff
    d < F_i q / p for an i in E and condition 2 iff d p (K - |E|) < q C_E,
    so both cap d (not at alpha = 0), as do the live groups.  The least
    depth adds the fewest atoms that bring the consistent mask down to S.
    More than MAX_CHOICES choices of E in all is a ConfigError.
    """
    p, q = alpha.numerator, alpha.denominator
    held = reduce(and_, (a.hyps for a, m in zip(atoms, lb) if m), -1)
    plans = []
    for s, per_group in closures:
        if held & s != s:
            continue
        classes: dict[tuple, list[_Group]] = {}
        for js, mask in per_group:
            whole, total, low = True, 0, 0
            for j in js:
                whole = whole and ub[j] == atoms[j].size is not None
                total = None if total is None or ub[j] is None \
                    else total + ub[j]
                low += lb[j]
            high = total - 1 if whole else total
            # Groups alike in count bounds and mask are interchangeable, so
            # only how many of them are exhausted matters: once one is, the
            # bits `_fewest` must clear lie inside their common mask, which
            # none of their atoms can clear.
            key = (whole, high is None or low <= high, total, low, mask)
            classes.setdefault(key, []).append(
                _Group(js, total if whole else 0, low, high, mask))
        # exhausted counts per class, most first: all, or none, or any
        counts = [range(len(gs) if whole else 0,
                        -1 if can_live else len(gs) - 1, -1)
                  for (whole, can_live, *_), gs in classes.items()]
        plans.append((s, list(classes.values()), counts))
    per_mask = [prod(map(len, counts)) for _, _, counts in plans]
    choices = sum(per_mask)
    if choices > MAX_CHOICES:
        raise ConfigError(f"dimension search needs {choices} choices of "
                          f"exhausted groups, at most {max(per_mask)} per "
                          f"closure mask, above MAX_CHOICES = {MAX_CHOICES}")
    for s, groups, counts in plans:
        for choice in product(*counts):
            exhausted = [g for gs, n in zip(groups, choice) for g in gs[:n]]
            live = [g for gs, n in zip(groups, choice) for g in gs[n:]]
            heavy = sum(g.full for g in exhausted)
            if not heavy:
                continue
            top = None
            if p and live:
                fmax = max(g.full for g in exhausted)
                top = max(-(-fmax * q // p),
                          -(-q * heavy // (p * len(live)))) - 1
            if all(g.high is not None for g in live):
                hi = heavy + sum(g.high for g in live)
                top = hi if top is None else min(top, hi)
            lo = heavy + sum(g.low for g in live)
            mask = reduce(and_, (g.mask for g in exhausted), held)
            if mask != s and (top is None or lo <= top):
                extra = _fewest(atoms, ub, live, mask & ~s)
                lo = None if extra is None else lo + extra
            if lo is not None and (top is None or lo <= top):
                yield lo, top


def _witness(atoms: Sequence[_Atom], closures: list[tuple[int, list]],
             alpha: Fraction, d: int) -> tuple[int, ...]:
    """The lexicographically first witnessing tuple of depth d, built
    greedily over the members of all atoms in increasing order: a member is
    taken when a span still holds d after it, and passing over one closes
    its atom, as a later member of it could only stand in for this one."""
    lb = [0] * len(atoms)
    ub = [a.size for a in atoms]

    def members(j: int) -> Iterator[tuple[int, int]]:
        for x in atoms[j].elements.members():
            if lb[j] == ub[j]:  # closed, or taken whole
                return
            yield x, j

    xs: list[int] = []
    merged = merge(*(members(j) for j, a in enumerate(atoms) if a.hyps))
    for x, j in merged:
        if lb[j] == ub[j]:
            continue
        lb[j] += 1
        if not any(lo <= d and (top is None or d <= top)
                   for lo, top in _spans(atoms, closures, alpha, lb, ub)):
            lb[j] -= 1
            ub[j] = lb[j]
            continue
        xs.append(x)
        if len(xs) == d:
            return tuple(xs)
    raise InvariantViolation(f"no witness of depth {d} extends {xs}",
                             snapshot={"depth": d, "prefix": xs})


def _closed_form(cls: HypothesisClass, c: GroupCollection, alpha: Fraction
                 ) -> tuple[GcResult, list[_Atom], list[tuple[int, list]]]:
    """The result of `gc_depth`, with the atoms and closures it read."""
    if not isinstance(c, FiniteGroups):
        raise ConfigError("dimension search needs a finite partition; "
                          "block partitions support witness checks only")
    if not c.validate().partition:
        raise ConfigError("dimension is defined against partitions only")
    if cls.extendable:
        raise ConfigError("dimension search needs a finite hypothesis class")
    check_alpha(alpha)
    atoms = _atoms(cls, c)
    closures = _closures(atoms, c.k)
    spans = list(_spans(atoms, closures, alpha,
                        [0] * len(atoms), [a.size for a in atoms]))
    unbounded = [lo for lo, top in spans if top is None]
    d = min(unbounded) if unbounded else max((top for _, top in spans),
                                              default=0)
    if d > MAX_D:
        raise ConfigError(f"dimension {d} exceeds MAX_D = {MAX_D}")
    return (GcResult("infinite" if unbounded else "exact", d), atoms,
            closures)


def gc_depth(cls: HypothesisClass, c: GroupCollection,
             alpha: Fraction) -> GcResult:
    """`gc_dimension` without its witness: the status and `d` alone, for
    callers that read only `d`.  It refuses a `d` above `MAX_D` as well, so
    set-up accepts the instances `gc-dim` does."""
    return _closed_form(cls, c, alpha)[0]


def gc_dimension(cls: HypothesisClass, c: GroupCollection,
                 alpha: Fraction) -> GcResult:
    """The group closure dimension, exact at every depth: the largest top of
    a span (`_spans`), or status "infinite" when some span has none, with
    `d` the smallest lower end of an unbounded span.  The witness is the
    lexicographically first witnessing tuple at depth `d` (`_witness`) and
    the condition `check_witness` on it, which must hold.  A `d` above
    `MAX_D` is a `ConfigError`, raised before the witness is built."""
    result, atoms, closures = _closed_form(cls, c, alpha)
    if not result.d:
        return result
    witness = _witness(atoms, closures, alpha, result.d)
    condition = check_witness(cls, c, alpha, witness)
    if condition is None:
        raise InvariantViolation(f"closed form found {witness}, check_witness "
                                 "says None", snapshot={"witness": witness})
    return replace(result, witness=witness, condition=condition)
