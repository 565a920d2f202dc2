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
each atom.  A closure mask S (hypotheses consistent with some tuple) and
a set E of groups exhausted under it, read as how many it takes from each
class of interchangeable groups, witness one interval of depths, a span;
every witness lies in the span of its own S and E, so the dimension is the
largest span top: exact at every depth, or unbounded when a span is (only
at alpha = 0).  The witness is built greedily from the same spans.
`check_witness` decides a tuple from its counts per group, in integers
like the spans, and shares no code with them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from heapq import merge
from itertools import product, repeat
from math import prod
from operator import and_, mul
from typing import Iterator, Sequence

from .errors import ConfigError, InvariantViolation
from .groups import BlockPartition, FiniteGroups, GroupCollection
from .hypotheses import HypothesisClass
from .measures import check_alpha
from .periodic import ALL, PeriodicSet, refine


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
# each.  At d = 34,999 `gc_dimension` takes 0.50-0.54 s (ten singleton
# groups and a tail, alpha = 1/3500) and 0.39-0.41 s (a 17,500-element group
# and a tail, alpha = 1/2); at 49,999, 0.70-1.00 s and 0.54-0.76 s (three
# runs each, Python 3.11.7, 2-vCPU x86-64 VM).
MAX_D = 35_000

# Most choices of exhausted groups `_spans` enumerates, summed over the
# closure masks; they are counted before any is tried.  Alike groups take
# one choice per count, but each distinct group doubles them: groups of
# sizes 1, ..., K plus a tail at alpha = 1/4 (one mask, 2^K choices) take
# 0.06 s at K = 14 and 0.22-0.23 s at K = 16, the cap, while K = 17 and
# K = 20 are refused in 1-2 ms.  Every closure mask takes a choice or more
# when no element is taken, so `_closures` counts the masks against the
# cap as its fixpoint runs: with h_j the naturals minus residue j mod 32,
# parity groups and alpha = 1/4, H = 16 hypotheses (65,535 masks) are
# decided in 0.74-0.79 s and H = 18 (262,143 masks) is refused in
# 0.05-0.06 s (three runs each, Python 3.11.7, 2-vCPU x86-64 VM).
MAX_CHOICES = 2 ** 16


@dataclass(frozen=True)
class GcResult:
    """The dimension `d` when "exact"; when "infinite", the least lower end
    of an unbounded span: every depth from `d` on witnesses."""
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
    """Joint refinement of the partition and the hypothesis supports, in
    one cut of the naturals: a piece's tag holds its group's bit below bit
    K and its supports' bits from bit K up, and `refine`, which orders tags
    from bit 0 up, 1 first, yields the pieces group by group."""
    supports = [cls.get(n).support
                for n in range(1, cls.materialized_count() + 1)]
    k = c.k
    return [_Atom(piece, piece.size_if_finite(),
                  (tag & ~(-1 << k)).bit_length(), tag >> k)
            for tag, piece in refine(ALL, [*map(c.group, c.indices()),
                                           *supports])]


def _closures(atoms: Sequence[_Atom], k: int) -> list[tuple[int, list]]:
    """Every closure mask S, a nonzero AND of atom masks (the hypotheses
    consistent with some tuple), with the indices of its closure atoms,
    those inside every support of S, per group, bucketed in one pass over
    the atoms.  Each mask takes at least one choice of exhausted groups in
    `_spans`, so more than MAX_CHOICES masks is a ConfigError, raised as
    soon as the fixpoint passes the cap."""
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
                    if len(masks) > MAX_CHOICES:
                        raise ConfigError(
                            f"dimension search needs at least {len(masks)} "
                            "closure masks, each with a choice of exhausted "
                            f"groups, above MAX_CHOICES = {MAX_CHOICES}")
        new = grown
    closures = []
    for s in sorted(masks):
        per_group = [[] for _ in range(k)]
        for j, a in enumerate(atoms):
            if a.hyps & s == s:
                per_group[a.group - 1].append(j)
        closures.append((s, per_group))
    return closures


def _spans(atoms: Sequence[_Atom], closures: list[tuple[int, list]],
           alpha: Fraction, lb: Sequence[int],
           ub: Sequence[int | None]) -> Iterator[tuple[int, int | None]]:
    """The witnessed depths [lo, top] (top None: unbounded) of every closure
    mask S and exhausted group set E that witness at all, over the tuples
    taking lb[j] to ub[j] elements of atom j (None: no cap).

    An exhausted group holds all F_i elements of its closure atoms; a live
    group leaves one out (its high is F_i - 1), or has an atom that cannot
    be filled.  Groups alike in count bounds are interchangeable, so a
    choice of E is how many groups it takes from each class of them, and
    every bound is a sum over those counts.  With C_E the sum of F_i over E
    and alpha = p/q, condition 1 holds iff d < F_i q / p for an i in E and
    condition 2 iff d p (K - |E|) < q C_E, so both cap d (not at alpha =
    0).  So does the sum of every group's high plus |E|, when every group
    has one.  The least depth is C_E plus every group's low less E's.

    Each depth of a span has a witness that extends the taken elements:
    E's closure atoms whole, low to high elements of every other group's.
    Its consistent mask, an AND of masks that contain S, contains S, and
    each atom of E is taken, so stays a closure atom: E stays exhausted.  A
    further exhausted group only raises C_E, the largest F_i and |E|, so
    both conditions still hold.  And every witness lies in the span of its
    own S and E.  More than MAX_CHOICES choices of E in all is a
    ConfigError.
    """
    p, q = alpha.numerator, alpha.denominator
    held = reduce(and_, (a.hyps for a, m in zip(atoms, lb) if m), -1)
    plans = []
    for s, per_group in closures:
        if held & s != s:
            continue
        classes = Counter()
        for js in per_group:
            whole, total, low = True, 0, 0
            for j in js:
                whole = whole and ub[j] == atoms[j].size is not None
                total = None if total is None or ub[j] is None \
                    else total + ub[j]
                low += lb[j]
            classes[whole, total - 1 if whole else total, low] += 1
        # exhausted counts per class, most first: all, or none, or any
        counts = [range(n if whole else 0,
                        -1 if high is None or low <= high else n - 1, -1)
                  for (whole, high, low), n in classes.items()]
        plans.append((classes, counts))
    per_mask = [prod(map(len, counts)) for _, counts in plans]
    choices = sum(per_mask)
    if choices > MAX_CHOICES:
        raise ConfigError(f"dimension search needs {choices} choices of "
                          f"exhausted groups, at most {max(per_mask)} per "
                          f"closure mask, above MAX_CHOICES = {MAX_CHOICES}")
    for classes, counts in plans:
        _, highs, lows = zip(*classes)
        sizes = list(classes.values())
        k = sum(sizes)
        # F_i, a whole group's high plus one; no other group is exhausted
        fulls = [high + 1 if whole else 0 for whole, high, _ in classes]
        low_sum = sum(map(mul, sizes, lows))
        high_sum = None if None in highs else sum(map(mul, sizes, highs))
        for choice in product(*counts):
            heavy = sum(map(mul, choice, fulls))
            if not heavy:
                continue
            size = sum(choice)
            top = None
            if p and size < k:
                fmax = max(f for n, f in zip(choice, fulls) if n)
                top = max(-(-fmax * q // p),
                          -(-q * heavy // (p * (k - size)))) - 1
            if high_sum is not None:
                top = high_sum + size if top is None \
                    else min(top, high_sum + size)
            lo = heavy + low_sum - sum(map(mul, choice, lows))
            if top is None or lo <= top:
                yield lo, top


def _witness(atoms: Sequence[_Atom], closures: list[tuple[int, list]],
             alpha: Fraction, d: int) -> tuple[int, ...]:
    """The lexicographically first witnessing tuple of depth d, built
    greedily over the members of all atoms in increasing order: a member is
    taken when a span still holds d after it, and passing over one closes
    its atom, as a later member of it could only stand in for this one.

    Every member the merge yields comes from an open atom.  Each atom's
    walk checks that its atom is open before it yields, and `heapq.merge`
    pulls an atom's next member only after the loop has handled the
    current one.  The members waiting in the merge's heap belong to other
    atoms, and only the current member's atom is taken whole or closed, so
    none of them can have closed since its walk yielded it."""
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
    `d` the smallest lower end of an unbounded span: every depth from `d`
    on witnesses.  The witness is the lexicographically first witnessing
    tuple at depth `d` (`_witness`) and the condition `check_witness` on
    it, which must hold.  A `d` above `MAX_D` is a `ConfigError`, raised
    before the witness is built."""
    result, atoms, closures = _closed_form(cls, c, alpha)
    if not result.d:
        return result
    witness = _witness(atoms, closures, alpha, result.d)
    condition = check_witness(cls, c, alpha, witness)
    if condition is None:
        raise InvariantViolation(f"closed form found {witness}, check_witness "
                                 "says None", snapshot={"witness": witness})
    return replace(result, witness=witness, condition=condition)
