"""Group closure dimension: witness checking and bounded exact search.

A tuple of d distinct examples witnesses dimension >= d when the closure of
the tuple is nonempty and the groups it exhausts (no unseen closure element
left) carry too much empirical weight for any consistent continuation to
track: either one exhausted group alone exceeds alpha (condition 1), or,
against a finite partition of K groups, the exhausted groups' combined
weight strictly exceeds the alpha-budget of the remaining ones (condition 2).
Both inequalities are strict.

The search certifies exact values only when its candidate pool provably
covers enough of every atom of the instance; otherwise it reports a lower
bound.  Everything is computed in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ConfigError
from .groups import BlockPartition, FiniteGroups, GroupCollection
from .hypotheses import HypothesisClass
from .measures import ZERO, group_empirical
from .periodic import from_finite


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
    condition 2 and lower group indices first, or None.
    """
    xs = list(xs)
    if len(set(xs)) != len(xs):
        raise ValueError(f"witness tuple must have distinct elements: {xs}")
    if not xs:
        raise ValueError("witness tuple must be nonempty")
    closure = cls.closure(xs)
    if closure is None:
        return None
    pihat = group_empirical(xs, c)
    tuple_set = from_finite(xs)

    if isinstance(c, FiniteGroups):
        if not c.validate().partition:
            raise ConfigError("dimension is defined against partitions only")
        exhausted = [i for i in c.indices()
                     if (closure & c.group(i) - tuple_set).is_empty()]
        for i in exhausted:
            if pihat[i] > alpha:
                return Condition1(i)
        spare = c.k - len(exhausted)
        if alpha * spare < sum((pihat[i] for i in exhausted), ZERO):
            return Condition2(tuple(exhausted), spare)
        return None

    assert isinstance(c, BlockPartition)
    leftover = closure - tuple_set
    if leftover.is_finite():
        # Finitely many blocks keep an unseen closure element; every other
        # block is exhausted.
        alive = {c.group_index(x) for x in leftover.members()}
        exhausted_weighted = sorted(i for i in pihat if i not in alive)
        for i in exhausted_weighted:
            if pihat[i] > alpha:
                return Condition1(i)
        if alpha * len(alive) < sum((pihat[i] for i in exhausted_weighted), ZERO):
            return Condition2(tuple(exhausted_weighted), len(alive))
        return None
    # Infinitely many blocks stay alive, so the countable form of
    # condition 2 cannot hold; only condition 1 can fire, and only on
    # blocks that carry tuple weight.
    for i in sorted(pihat):
        if pihat[i] > alpha and (closure & c.block_set(i) - tuple_set).is_empty():
            return Condition1(i)
    return None


@dataclass(frozen=True)
class GcSearch:
    max_d: int = 4
    horizon: int | None = None

    def __post_init__(self):
        if self.max_d < 1:
            raise ConfigError(f"gc search max_d must be >= 1, got {self.max_d}")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError(f"gc search horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class GcResult:
    status: str  # "exact" | "at_least" | "infinite"
    d: int
    witness: tuple[int, ...] | None
    condition: Condition | None
    pool_sufficient: bool
    family: str | None = None

    def __str__(self) -> str:
        if self.status == "exact":
            return f"GC = {self.d}"
        if self.status == "at_least":
            return f"GC >= {self.d}"
        return f"GC unbounded ({self.family})"


def _atoms(cls: HypothesisClass, c: FiniteGroups):
    """Joint refinement of the hypothesis supports and the partition."""
    parts = [c.group(i) for i in c.indices()]
    for n in range(1, cls.materialized_count() + 1):
        s = cls.get(n).support
        refined = []
        for p in parts:
            for piece in (p & s, p - s):
                if not piece.is_empty():
                    refined.append(piece)
        parts = refined
    return parts


def candidate_pool(cls: HypothesisClass, c: FiniteGroups, max_d: int,
                   horizon: int | None) -> tuple[list[int], bool]:
    """Candidate tuple elements: all of every finite atom, and the max_d + 1
    smallest elements of every infinite atom.  Within an atom, elements are
    exchangeable for the witness conditions, so this pool suffices for an
    exact search up to max_d; a horizon that truncates it forfeits that."""
    pool: set[int] = set()
    sufficient = True
    for atom in _atoms(cls, c):
        if atom.is_finite():
            chosen = sorted(atom.prefix)
        else:
            chosen = []
            for x in atom.members():
                chosen.append(x)
                if len(chosen) >= max_d + 1:
                    break
        if horizon is not None:
            kept = [x for x in chosen if x <= horizon]
            if len(kept) < len(chosen):
                sufficient = False
            chosen = kept
        pool.update(chosen)
    return sorted(pool), sufficient


def gc_dimension(cls: HypothesisClass, c: GroupCollection, alpha: Fraction,
                 search: GcSearch = GcSearch()) -> GcResult:
    """Bounded search for the largest witnessed dimension.

    Status "exact" requires a sufficient pool and no witness at any depth in
    (d, max_d]; a witness at max_d itself, or a truncated pool, degrades the
    result to the lower bound "at_least".  At each depth, tuples are tried in
    lexicographic order over the sorted pool and the first witness is kept.
    """
    if not isinstance(c, FiniteGroups):
        raise ConfigError("dimension search needs a finite partition; "
                          "block partitions support witness checks only")
    if not c.validate().partition:
        raise ConfigError("dimension is defined against partitions only")
    if cls.extendable:
        raise ConfigError("dimension search needs a finite hypothesis class")
    pool, sufficient = candidate_pool(cls, c, search.max_d, search.horizon)
    best_d = 0
    best_witness: tuple[int, ...] | None = None
    best_condition: Condition | None = None
    for d in range(1, search.max_d + 1):
        for combo in combinations(pool, d):
            cond = check_witness(cls, c, alpha, combo)
            if cond is not None:
                best_d, best_witness, best_condition = d, combo, cond
                break
    if sufficient and best_d < search.max_d:
        status = "exact"
    else:
        status = "at_least"
    return GcResult(status, best_d, best_witness, best_condition, sufficient)


def witnessed_unbounded(cls: HypothesisClass, c: GroupCollection,
                        alpha: Fraction,
                        family: Iterable[Sequence[int]]) -> GcResult:
    """Verify a caller-supplied family of witnesses of strictly growing size.

    Every tuple is re-checked; the result records the deepest verified
    dimension with status "infinite" as evidence that no finite bound holds
    for this instance (the family is the caller's claim of unboundedness,
    checked as far as it goes)."""
    depths = []
    last = None
    last_cond: Condition | None = None
    for xs in family:
        xs = tuple(xs)
        if depths and len(xs) <= depths[-1]:
            raise ValueError("witness family must have strictly increasing sizes")
        cond = check_witness(cls, c, alpha, xs)
        if cond is None:
            raise ValueError(f"claimed witness {xs} fails verification")
        depths.append(len(xs))
        last, last_cond = xs, cond
    if not depths:
        raise ValueError("witness family must be nonempty")
    return GcResult("infinite", depths[-1], last, last_cond, True,
                    family=f"verified witnesses at d = {depths}")
