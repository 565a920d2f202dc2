"""Group closure dimension: witness checking and bounded exact search.

A tuple of d distinct examples witnesses dimension >= d when the closure of
the tuple is nonempty and the groups it exhausts (no unseen closure element
left) carry too much empirical weight for any consistent continuation to
track: either one exhausted group alone exceeds alpha (condition 1), or,
against a finite partition of K groups, the exhausted groups' combined
weight strictly exceeds the alpha-budget of the remaining ones (condition 2).
Both inequalities are strict.

The search works on the atoms of the instance, the joint refinement of the
partition and the hypothesis supports.  Every support and every group
either contains a whole atom or misses it, so the elements of one atom are
exchangeable: whether a tuple witnesses depends only on how many of its
elements fall in each atom.  The search therefore decides count vectors,
C(d + A - 1, A - 1) of them at most per depth d for A atoms, instead of the
C(|pool|, d) tuples of a candidate pool.  The atoms also bound how deep a
witness can go, so the search looks no deeper and is exact iff its depth
cap reaches that bound; otherwise it reports a lower bound.  Everything is
computed in exact arithmetic: `check_witness` in rationals, the count
vectors and the bound in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import ConfigError, InvariantViolation
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
        if pihat[i] > alpha and (closure & c.group(i) - tuple_set).is_empty():
            return Condition1(i)
    return None


# Largest accepted search depth.  Every infinite atom contributes max_d
# candidates and the search enumerates count vectors of every size up to
# max_d, so an unbounded max_d would let one configuration value exhaust
# memory and time; the bundled scenarios use at most 8.
MAX_D = 64


@dataclass(frozen=True)
class GcSearch:
    max_d: int = 4

    def __post_init__(self):
        if self.max_d < 1:
            raise ConfigError(f"gc search max_d must be >= 1, got {self.max_d}")
        if self.max_d > MAX_D:
            raise ConfigError(
                f"gc search max_d must be <= {MAX_D}, got {self.max_d}")


@dataclass(frozen=True)
class GcResult:
    status: str  # "exact" | "at_least" | "infinite"
    d: int
    witness: tuple[int, ...] | None
    condition: Condition | None
    bound: int | None  # no witness is deeper; None when unbounded
    family: str | None = None

    def __str__(self) -> str:
        if self.status == "exact":
            return f"GC = {self.d}"
        if self.status == "at_least":
            return f"GC >= {self.d}"
        return f"GC unbounded ({self.family})"

    def advice(self) -> str:
        """Why an "at_least" result is not exact, and the max_d that would
        make it so when one is accepted; for error messages."""
        if self.bound is None:
            return "witness depth is unbounded"
        if self.bound > MAX_D:
            return f"witnesses may be {self.bound} deep, beyond MAX_D = {MAX_D}"
        return f"raise gc_search.max_d to {self.bound}"


@dataclass(frozen=True)
class _Atom:
    """One atom of the joint refinement, as the search sees it."""
    size: int | None  # None for an infinite atom
    group: int
    hyps: int  # bit n - 1 set iff the support of h_n contains the atom
    candidates: tuple[int, ...]  # increasing


def _atoms(cls: HypothesisClass, c: FiniteGroups, max_d: int) -> list[_Atom]:
    """Joint refinement of the partition and the hypothesis supports, with
    each atom's candidate elements: all of a finite atom, and the max_d
    smallest elements of an infinite one, as many as a tuple of at most
    max_d elements can take from it."""
    parts = [(c.group(i), i, 0) for i in c.indices()]
    for n in range(1, cls.materialized_count() + 1):
        s = cls.get(n).support
        refined = []
        for p, group, hyps in parts:
            for piece, bits in ((p & s, hyps | 1 << (n - 1)), (p - s, hyps)):
                if not piece.is_empty():
                    refined.append((piece, group, bits))
        parts = refined
    atoms = []
    for piece, group, hyps in parts:
        size = piece.size_if_finite()
        chosen = islice(piece.members(), max_d if size is None else size)
        atoms.append(_Atom(size, group, hyps, tuple(chosen)))
    return atoms


def _depth_bound(atoms: Sequence[_Atom], hyp_count: int,
                 alpha: Fraction) -> int | None:
    """A depth no witness exceeds, or None when the atoms bound none.

    A witness needs an exhausted group holding tuple elements.  They lie in
    finite closure atoms, taken whole, so inside every consistent h_n: at
    least one and at most F_n, the size of the finite atoms inside h_n.  For
    alpha = p/q > 0 both conditions give d < F_n * q / p, or d <= F_n when
    no group is spare (the closure is taken whole); at alpha = 0 only a
    finite h_n bounds d, by F_n.
    """
    p, q = alpha.numerator, alpha.denominator
    bound = 0
    for n in range(hyp_count):
        inside = [a.size for a in atoms if a.hyps >> n & 1]
        finite = sum(size for size in inside if size is not None)
        if p > 0:
            bound = max(bound, finite, -(-finite * q // p) - 1)
        elif finite == 0 or None not in inside:
            bound = max(bound, finite)
        else:
            return None
    return bound


def _count_vectors(caps: Sequence[int], d: int, hyps: Sequence[int],
                   everyone: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Count vectors v with sum d and v[k] <= caps[k] whose used atoms lie in
    a common hypothesis support, each with the bitmask of those supports.
    A vector without one has closure bottom and witnesses nothing."""
    n = len(caps)
    room = [0] * (n + 1)  # room[k]: most elements atoms k.. can take
    for k in range(n - 1, -1, -1):
        room[k] = room[k + 1] + caps[k]
    v = [0] * n

    def fill(k: int, left: int, consistent: int):
        if left == 0:
            yield tuple(v), consistent
            return
        if room[k] < left:
            return
        yield from fill(k + 1, left, consistent)
        narrowed = consistent & hyps[k]
        if narrowed:
            for m in range(1, min(caps[k], left) + 1):
                v[k] = m
                yield from fill(k + 1, left - m, narrowed)
            v[k] = 0

    return fill(0, d, everyone)


def _vector_condition(atoms: Sequence[_Atom], k_groups: int, alpha: Fraction,
                      v: Sequence[int], consistent: int) -> Condition | None:
    """`check_witness` on any tuple taking v[k] candidates of atom k, given
    the nonzero bitmask of the hypotheses consistent with it, decided from
    the counts alone in integer arithmetic."""
    counts = [0] * (k_groups + 1)
    alive = set()
    for a, m in zip(atoms, v):
        counts[a.group] += m
        # A closure atom (inside every consistent support) keeps an unseen
        # element unless it is finite and fully taken.
        if a.hyps & consistent == consistent and m != a.size:
            alive.add(a.group)
    exhausted = [i for i in range(1, k_groups + 1) if i not in alive]
    d = sum(v)
    p, q = alpha.numerator, alpha.denominator
    for i in exhausted:
        if counts[i] * q > p * d:
            return Condition1(i)
    spare = k_groups - len(exhausted)
    if p * spare * d < q * sum(counts[i] for i in exhausted):
        return Condition2(tuple(exhausted), spare)
    return None


def gc_dimension(cls: HypothesisClass, c: GroupCollection, alpha: Fraction,
                 search: GcSearch = GcSearch()) -> GcResult:
    """Bounded search for the largest witnessed dimension.

    The atoms give a depth B that no witness exceeds (`_depth_bound`), and
    the search covers every depth up to min(B, max_d).  Status "exact" holds
    iff B <= max_d; otherwise the result is the lower bound "at_least" and
    `bound` names B (None when unbounded).  The witness is the
    lexicographically first witnessing tuple over the sorted candidate pool
    at the deepest witnessed depth.

    Elements of one atom are exchangeable, so a tuple is decided by how many
    of its elements fall in each atom.  For A atoms the search decides at
    most C(d + A - 1, A - 1) count vectors per depth d, where a walk over
    tuples would try up to C(|pool|, d); it goes down from min(B, max_d) and
    stops at the first depth with a witness.  Among the tuples with one
    count vector, the one taking the smallest candidates of every atom comes
    first, so the witness is the least such tuple over the witnessing
    vectors.  It is re-verified once with `check_witness`.
    """
    if not isinstance(c, FiniteGroups):
        raise ConfigError("dimension search needs a finite partition; "
                          "block partitions support witness checks only")
    if not c.validate().partition:
        raise ConfigError("dimension is defined against partitions only")
    if cls.extendable:
        raise ConfigError("dimension search needs a finite hypothesis class")
    if not 0 <= alpha <= 1:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    atoms = _atoms(cls, c, search.max_d)
    bound = _depth_bound(atoms, cls.materialized_count(), alpha)
    everyone = (1 << cls.materialized_count()) - 1
    caps = [len(a.candidates) for a in atoms]
    hyps = [a.hyps for a in atoms]
    best_witness: tuple[int, ...] | None = None
    best_condition: Condition | None = None
    top = search.max_d if bound is None else min(bound, search.max_d)
    for d in range(top, 0, -1):
        for v, consistent in _count_vectors(caps, d, hyps, everyone):
            cond = _vector_condition(atoms, c.k, alpha, v, consistent)
            if cond is None:
                continue
            xs = tuple(sorted(x for a, m in zip(atoms, v)
                              for x in a.candidates[:m]))
            if best_witness is None or xs < best_witness:
                best_witness, best_condition = xs, cond
        if best_witness is not None:
            break
    if best_witness is not None:
        verified = check_witness(cls, c, alpha, best_witness)
        if verified != best_condition:
            raise InvariantViolation(
                f"count-vector search found {best_condition} for "
                f"{best_witness}, check_witness says {verified}",
                snapshot={"witness": best_witness,
                          "condition": best_condition,
                          "verified": verified})
    exact = bound is not None and bound <= search.max_d
    status = "exact" if exact else "at_least"
    return GcResult(status, len(best_witness or ()), best_witness,
                    best_condition, bound)


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
    return GcResult("infinite", depths[-1], last, last_cond, None,
                    family=f"verified witnesses at d = {depths}")
