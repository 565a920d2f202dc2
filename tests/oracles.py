"""Reference oracles for the test suite; each shares with the package only
what its line names (data types, membership, set algebra), never one of
the package's searches, tallies, cursors or LPs.

- `scan_bound` and its scans decide by membership up to the largest
  threshold plus one period; `naive_gc` searches small tuples by membership.
- `unseen_cells` finds each cell's smallest unseen support element by such
  a scan; `mesh_feasible`'s grid search reads only that.
- `brute_support_size` enumerates subsets of groups by membership.
- `fraction_feasible_point`, the rational tableau, shares `EQ`, `GE`, `LE`.
- `rational_check_witness` shares `HypothesisClass.closure` and the set
  algebra, and counts the tuple per group by membership.
- `tuple_gc_dimension` and `count_vector_gc_dimension` share the set algebra
  and decide by `rational_check_witness`.
- `induced_group_probs` and `sup_distance` sum masses by membership.
- `FractionRationalDist` shares nothing; `ScanQueryThenEmit` shares the
  oracle it is handed and `RationalDist.point`.
- `fraction_assemble_uniform` shares the `RationalDist` constructor and
  `empirical`; `scan_uniform` finds the consistent members, the closure and
  each group's least unseen closure element by membership scans and hands
  them to it.
- `fraction_feasible` solves over `unseen_cells` (or `block_range` scans)
  with `fraction_feasible_point`, weighing groups by membership.
- `product_cells` shares the set algebra, and through it `classify`, the
  pass `refine` cuts with, so the cut is also checked by membership alone;
  `scan_groups_containing`, `scan_mass_by_group` and `consistent_among`
  share membership.
- `ScanLimit`, Kleinberg & Mullainathan's critical-hypothesis step, rebuilds
  consistency and criticality by membership scans and asks
  `fraction_feasible`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, islice, product
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from repgen.dimension import Condition, Condition1, Condition2
from repgen.errors import ConfigError, InvariantViolation
from repgen.groups import BlockPartition, FiniteGroups, GroupCollection
from repgen.hypotheses import HypothesisClass
from repgen.measures import RationalDist, empirical
from repgen.periodic import PeriodicSet, from_finite
from repgen.simplex import EQ, GE, LE


def scan_bound(sets, extra_elements=()):
    """A bound B and period L such that any ultimately periodic combination
    of `sets` is empty beyond B iff it has no element in [B, B+L)."""
    thresholds = [s.threshold for s in sets]
    moduli = [s.modulus for s in sets]
    b = max([0] + thresholds + [x + 1 for x in extra_elements])
    period = lcm(*moduli) if moduli else 1
    return b, period


def tail_nonempty(pred, b, period):
    return any(pred(x) for x in range(b, b + period))


def elements_up_to(pred, bound):
    return [x for x in range(bound) if pred(x)]


def naive_gc(cls, groups, alpha, max_d=4, universe=range(13)):
    """Exhaustive dimension search over all distinct tuples from `universe`.

    Order inside a tuple cannot matter (every defining quantity depends on
    the tuple's set of elements), so combinations suffice.
    """
    members = [cls.get(i) for i in range(1, cls.materialized_count() + 1)]
    gsets = [groups.group(i) for i in groups.indices()]
    k = len(gsets)

    def witness_ok(combo):
        consistent = [h for h in members
                      if all(x in h.support for x in combo)]
        if not consistent:
            return False
        b, period = scan_bound([h.support for h in consistent] + gsets, combo)
        combo_set = set(combo)

        def in_target(x, gi):
            return (all(x in h.support for h in consistent)
                    and x in gsets[gi] and x not in combo_set)

        exhausted = []
        for gi in range(k):
            if not any(in_target(x, gi) for x in range(b + period)):
                exhausted.append(gi)
        d = len(combo)
        pihat = [Fraction(sum(1 for x in combo if x in gsets[gi]), d)
                 for gi in range(k)]
        if any(pihat[gi] > alpha for gi in exhausted):
            return True
        spare = k - len(exhausted)
        heavy = sum((pihat[gi] for gi in exhausted), Fraction(0))
        return heavy > alpha * spare

    best = 0
    for d in range(1, max_d + 1):
        if any(witness_ok(c) for c in combinations(universe, d)):
            best = d
    return best


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def unseen_cells(support, gsets, history):
    """Each membership vector over `gsets` that an unseen element of
    `support` realizes, mapped to its smallest such element, in increasing
    order of that element.  Past the scan bound every unseen element
    repeats the vectors of the period before it, as the history lies below
    the bound."""
    seen = set(history)
    b, period = scan_bound([support] + gsets, history)
    cells = {}
    for x in range(b + period):
        if x not in seen and x in support:
            cells.setdefault(tuple(1 if x in g else 0 for g in gsets), x)
    return cells


def mesh_feasible(h, groups, history, alpha, denom=60):
    """Grid-search feasibility: does any distribution with masses in
    (1/denom)-steps over the realized unseen-support cells track the group
    empirical weights within alpha?

    Sound for 'feasible' answers always; complete only on instances whose
    feasible region, when nonempty, contains a grid point (the bundled
    agreement instances are built that way).
    """
    gsets = [groups.group(i) for i in groups.indices()]
    k = len(gsets)
    vecs = list(unseen_cells(h.support, gsets, history))
    distinct = sorted(set(history))
    t = len(distinct)
    pihat = [Fraction(sum(1 for x in distinct if x in g), t) for g in gsets]
    if not vecs:
        return all(abs(pihat[gi]) <= alpha for gi in range(k))
    lo = [pihat[gi] - alpha for gi in range(k)]
    hi = [pihat[gi] + alpha for gi in range(k)]
    for q in _compositions(denom, len(vecs)):
        ok = True
        for gi in range(k):
            covered = Fraction(sum(qq for qq, v in zip(q, vecs) if v[gi]), denom)
            if not (lo[gi] <= covered <= hi[gi]):
                ok = False
                break
        if ok:
            return True
    return False


def brute_support_size(h, groups):
    """Subset-enumeration finite support size: for every nonempty subfamily
    of groups, count the intersection with the support when that
    intersection is finite."""
    gsets = [groups.group(i) for i in groups.indices()]
    total = 0
    for r in range(1, len(gsets) + 1):
        for combo in combinations(range(len(gsets)), r):
            chosen = [gsets[i] for i in combo]
            b, period = scan_bound([h.support] + chosen)

            def member(x):
                return x in h.support and all(x in g for g in chosen)

            if tail_nonempty(member, b, period):
                continue
            total += len(elements_up_to(member, b))
    return total


ZERO = Fraction(0)
ONE = Fraction(1)


def fraction_feasible_point(
        n_vars: int,
        constraints: Sequence[tuple[Sequence[Fraction], str, Fraction]]
) -> list[Fraction] | None:
    """A nonnegative solution of the constraint system, or None.

    The rational-tableau phase-one simplex that `repgen.simplex` used
    before its integer tableau, kept verbatim as the reference the
    integer version must match vertex for vertex.

    Builds the standard phase-one tableau: slacks for inequalities,
    artificials wherever no slack can start basic, and minimizes the sum of
    artificials.  Feasible iff that minimum is zero.
    """
    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if len(coeffs) != n_vars:
            raise ValueError(f"constraint arity {len(coeffs)} != {n_vars}")
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        rows.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in rows if rel != EQ)
    # Artificials: == rows always; >= rows always (their surplus starts
    # negative); <= rows start basic on their own slack.
    art_rows = [i for i, (_, rel, _) in enumerate(rows) if rel != LE]
    n_art = len(art_rows)
    width = n_vars + n_slack + n_art

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = 0
    art_at = 0
    for i, (coeffs, rel, rhs) in enumerate(rows):
        row = list(coeffs) + [ZERO] * (n_slack + n_art) + [rhs]
        if rel != EQ:
            row[n_vars + slack_at] = ONE if rel == LE else -ONE
            slack_col = n_vars + slack_at
            slack_at += 1
        if rel == LE:
            basis.append(slack_col)
        else:
            col = n_vars + n_slack + art_at
            row[col] = ONE
            basis.append(col)
            art_at += 1
        tableau.append(row)

    # Objective: minimize sum of artificials.  Work with reduced costs
    # directly: cost[j] = c_j - sum over basic rows of c_B * row.
    cost = [ZERO] * (width + 1)
    for j in range(n_vars + n_slack, width):
        cost[j] = ONE
    for r, b in enumerate(basis):
        if b >= n_vars + n_slack:  # basic artificial, eliminate from cost row
            for j in range(width + 1):
                cost[j] -= tableau[r][j]

    while True:
        enter = -1
        for j in range(width):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for r in range(len(tableau)):
            a = tableau[r][enter]
            if a > 0:
                ratio = tableau[r][width] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            # Unbounded phase-one objective cannot happen (it is bounded
            # below by 0); guard anyway.
            return None
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for r in range(len(tableau)):
            if r != leave and tableau[r][enter] != 0:
                f = tableau[r][enter]
                tableau[r] = [v - f * w for v, w in zip(tableau[r], tableau[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [v - f * w for v, w in zip(cost, tableau[leave])]
        basis[leave] = enter

    # cost[width] holds -(current objective value).
    if -cost[width] != 0:
        return None
    solution = [ZERO] * n_vars
    for r, b in enumerate(basis):
        if b < n_vars:
            solution[b] = tableau[r][width]
    return solution


def rational_check_witness(cls: HypothesisClass, c: GroupCollection,
                           alpha: Fraction,
                           xs: Sequence[int]) -> Condition | None:
    """Decide whether the distinct tuple xs witnesses dimension >= len(xs).

    Returns the first satisfied condition, checking condition 1 before
    condition 2 and lower group indices first, or None.  The package's
    `check_witness` as it was before it decided a tuple from its counts per
    group, as the reference for it: exhaustion by set difference, and the
    weights counted per group by membership.
    """
    xs = list(xs)
    if len(set(xs)) != len(xs):
        raise ValueError(f"witness tuple must have distinct elements: {xs}")
    if not xs:
        raise ValueError("witness tuple must be nonempty")
    closure = cls.closure(xs)
    if closure is None:
        return None
    pihat = induced_group_probs(empirical(xs), c)
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


def _tuple_atoms(cls, c):
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


def _tuple_candidate_pool(cls, c, max_d):
    """Candidate tuple elements: all of every finite atom, and the max_d + 1
    smallest elements of every infinite atom.  Within an atom, elements are
    exchangeable for the witness conditions, so this pool suffices for an
    exact search up to max_d."""
    pool: set[int] = set()
    for atom in _tuple_atoms(cls, c):
        if atom.is_finite():
            chosen = sorted(atom.prefix)
        else:
            chosen = []
            for x in atom.members():
                chosen.append(x)
                if len(chosen) >= max_d + 1:
                    break
        pool.update(chosen)
    return sorted(pool)


def tuple_gc_dimension(cls, c, alpha, max_d):
    """The tuple-walk dimension search that `repgen.dimension.gc_dimension`
    ran before its count-vector search, kept (pool included) as the
    reference for the deepest witnessed depth up to max_d, its witness and
    its condition, returned as (d, witness, condition).  It decides every
    candidate tuple with `rational_check_witness`, the independent
    verifier, and shares nothing with the search or its depth bound.  At
    each depth, tuples are tried in lexicographic order over the sorted pool
    and the first witness is kept.
    """
    if not isinstance(c, FiniteGroups):
        raise ConfigError("dimension search needs a finite partition; "
                          "block partitions support witness checks only")
    if not c.validate().partition:
        raise ConfigError("dimension is defined against partitions only")
    if cls.extendable:
        raise ConfigError("dimension search needs a finite hypothesis class")
    pool = _tuple_candidate_pool(cls, c, max_d)
    best_d = 0
    best_witness = None
    best_condition = None
    for d in range(1, max_d + 1):
        for combo in combinations(pool, d):
            cond = rational_check_witness(cls, c, alpha, combo)
            if cond is not None:
                best_d, best_witness, best_condition = d, combo, cond
                break
    return best_d, best_witness, best_condition


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
    """`rational_check_witness` on any tuple taking v[k] candidates of atom k, given
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


def count_vector_depth_bound(cls, c, alpha):
    """The depth bound B of the count-vector search below: no witness is
    deeper than B, or None when the atoms bound none (alpha = 0 only)."""
    return _depth_bound(_atoms(cls, c, 1), cls.materialized_count(), alpha)


def count_vector_gc_dimension(cls, c, alpha, max_d):
    """The count-vector dimension search that
    `repgen.dimension.gc_dimension` ran before its closed form, kept
    verbatim (bar the signature and the return value) with its atoms, depth
    bound, vector enumeration and vector condition, as the reference for the
    deepest witnessed depth up to min(B, max_d), returned as
    (d, witness, condition).  It is exact once max_d reaches the bound B of
    `count_vector_depth_bound`.  It shares the set algebra with the package,
    not the closed form, and re-checks with `rational_check_witness`.
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
    atoms = _atoms(cls, c, max_d)
    bound = _depth_bound(atoms, cls.materialized_count(), alpha)
    everyone = (1 << cls.materialized_count()) - 1
    caps = [len(a.candidates) for a in atoms]
    hyps = [a.hyps for a in atoms]
    best_witness: tuple[int, ...] | None = None
    best_condition: Condition | None = None
    top = max_d if bound is None else min(bound, max_d)
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
        verified = rational_check_witness(cls, c, alpha, best_witness)
        if verified != best_condition:
            raise InvariantViolation(
                f"count-vector search found {best_condition} for "
                f"{best_witness}, rational_check_witness says {verified}",
                snapshot={"witness": best_witness,
                          "condition": best_condition,
                          "verified": verified})
    return len(best_witness or ()), best_witness, best_condition


def induced_group_probs(mu, c):
    """Total mass of mu per group index, summed by membership.

    For a finite collection the result has an entry for every group (zeros
    included); for a block partition only touched blocks appear, absent
    meaning zero.  With overlapping groups the values may sum to more than 1.
    """
    items = mu.items()
    if isinstance(c, BlockPartition):
        probs = {}
        top = max(x for x, _ in items)
        k, (lo, hi) = 1, c.block_range(1)
        while lo <= top:
            m = sum((v for x, v in items if lo <= x < hi), ZERO)
            if m:
                probs[k] = m
            k += 1
            lo, hi = c.block_range(k)
        return probs
    return {i: sum((v for x, v in items if x in c.group(i)), ZERO)
            for i in c.indices()}


def sup_distance(p: Mapping[int, Fraction], q: Mapping[int, Fraction]) -> Fraction:
    """Largest absolute difference across all group indices present in either
    argument (absent entries read as 0)."""
    keys = set(p) | set(q)
    if not keys:
        return ZERO
    return max(abs(p.get(i, ZERO) - q.get(i, ZERO)) for i in keys)


class FractionRationalDist:
    """The `Fraction`-mass distribution that `repgen.measures.RationalDist`
    was before it kept integer numerators over one denominator, kept
    verbatim (bar the name) as the reference the integer version must match
    in items, support, serialization, repr, equality and error text.

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
    def point(cls, x: int) -> "FractionRationalDist":
        return cls({x: ONE})

    @classmethod
    def uniform(cls, xs: Iterable[int]) -> "FractionRationalDist":
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
        return isinstance(other, FractionRationalDist) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{x}: {m}" for x, m in self._items)
        return "RationalDist({%s})" % body

    def serialize(self) -> list[list]:
        """Sorted [element, "numerator/denominator"] pairs."""
        return [[x, f"{m.numerator}/{m.denominator}"] for x, m in self._items]


class ScanQueryThenEmit:
    """The query generator that `repgen.adversaries.QueryThenEmit` was
    before it kept a cursor, kept verbatim (bar the name) as the reference
    the cursor version must match query for query: scans the naturals from 0
    for the first element that is unseen and confirmed in-support, then
    plays it as a point mass."""

    def emit(self, prefix, oracle):
        seen = set(prefix)
        x = 0
        while True:
            if x not in seen and oracle.hyp_member(x):
                return RationalDist.point(x)
            x += 1


def fraction_assemble_uniform(pi: dict[int, Fraction], avail: dict[int, int],
                              exhausted: list[int], alpha: Fraction,
                              history: Sequence[int]) -> RationalDist:
    """The `Fraction`-weight uniform assembly that
    `repgen.generators._assemble_uniform` was before it worked on integer
    counts, kept verbatim (bar the name and this paragraph) as the reference
    the integer version must match, output and error text alike.

    Build the emitted distribution from per-group weights, one unseen
    closure element per non-exhausted group, and the exhausted set.

    With a correctly chosen d_star the redistribution always fits the alpha
    cap; the two fallback branches keep emission total (and deterministic)
    when a caller configures d_star below the dimension threshold, which the
    adversary constructions do on purpose.
    """
    if not exhausted:
        return RationalDist({avail[i]: pi[i] for i in avail if pi[i] > 0})
    if not avail:
        return empirical(history)  # closure fully consumed; out of contract
    masses = {i: pi[i] for i in avail}
    order = sorted(avail)
    deficit = sum((pi[i] for i in exhausted), ZERO)
    if deficit > alpha:
        rem = deficit
        for i in order:
            if rem <= 0:
                break
            add = min(alpha, rem)
            masses[i] += add
            rem -= add
        if rem > 0:
            masses[order[0]] += rem  # out of contract (d_star too small)
    elif deficit > 0:
        for i in order:
            if masses[i] <= 1 - deficit:
                masses[i] += deficit
                break
        else:
            masses[order[0]] += deficit  # unreachable with a correct d_star
    return RationalDist({avail[i]: m for i, m in masses.items() if m > 0})


def scan_uniform(cls, c, alpha, d_star, history, upto=None):
    """The uniform construction for the class prefix h_1, ..., h_upto (the
    whole finite class when upto is None), from its definition.

    Before d_star distinct elements, or when no member of the prefix holds
    every seen element, the empirical distribution.  Otherwise the closure
    holds an element when every consistent support does, and each group's
    candidate is its least unseen closure element, found by scanning up to
    `scan_bound`: past the bound the closure repeats the period before it,
    and every seen element lies below the bound.  A group without one is
    exhausted.  The group weights count the distinct seen elements by
    membership, and `fraction_assemble_uniform` builds the output."""
    seen = set(history)
    if len(seen) < d_star:
        return empirical(history)
    n = cls.materialized_count() if upto is None else upto
    consistent = [h.support for h in map(cls.get, range(1, n + 1))
                  if all(x in h.support for x in seen)]
    if not consistent:
        return empirical(history)
    gsets = [c.group(i) for i in c.indices()]
    b, period = scan_bound(consistent + gsets, seen)
    avail, exhausted = {}, []
    for i, g in enumerate(gsets, 1):
        least = next((x for x in range(b + period)
                      if x in g and x not in seen
                      and all(x in s for s in consistent)), None)
        if least is None:
            exhausted.append(i)
        else:
            avail[i] = least
    pi = {i: Fraction(sum(x in g for x in seen), len(seen))
          for i, g in enumerate(gsets, 1)}
    return fraction_assemble_uniform(pi, avail, exhausted, alpha, history)


def fraction_feasible(h, c, history, alpha):
    """Whether some distribution over the unseen support of h tracks the
    history's group weights within alpha, as the witness the package must
    return: a tuple of (cell, element, mass) triples, or None.

    The candidates are each cell's smallest unseen element of the support
    (`unseen_cells`), the zero vector of the part in no group included, in
    the cells' documented order: 1 before 0 per coordinate.  Their masses
    q_v >= 0 sum to 1, and per group the covered mass lands within
    [pihat - alpha, pihat + alpha], solved by `fraction_feasible_point`:
    distance-0 witnesses are preferred, so an exact-tracking system is
    tried before the banded one.
    """
    pihat = induced_group_probs(empirical(history), c)
    if isinstance(c, BlockPartition):
        return fraction_feasible_blocks(h, c, history, pihat, alpha)
    found = unseen_cells(h.support, [c.group(i) for i in c.indices()], history)
    candidates = [(vec, found[vec]) for vec in sorted(found, reverse=True)]
    for exact in (True, False):
        constraints: list = [([ONE] * len(candidates), EQ, ONE)]
        for i in c.indices():
            row = [ONE if vec[i - 1] else ZERO for vec, _ in candidates]
            if exact:
                constraints.append((row, EQ, pihat[i]))
            else:
                constraints.append((row, LE, pihat[i] + alpha))
                if pihat[i] - alpha > 0:
                    constraints.append((row, GE, pihat[i] - alpha))
        q = fraction_feasible_point(len(candidates), constraints)
        if q is not None:
            return tuple((vec, elem, m)
                         for (vec, elem), m in zip(candidates, q) if m > 0)
    return None


def fraction_feasible_blocks(h, c, history, pihat, alpha):
    """Block partitions have one cell per block, so feasibility reduces to
    interval checks: every exhausted touched block must already be within
    alpha of its weight, and any surplus is spread in alpha-sized chunks
    over untouched blocks in index order (each finite block keeps unseen
    support elements in infinitely many later blocks, the support being
    infinite).  A block's candidate is found by scanning its `block_range`."""
    seen = set(history)

    def unseen(k):
        return next((x for x in range(*c.block_range(k))
                     if x not in seen and x in h.support), None)

    entries = []
    surplus = ZERO
    for i in sorted(pihat):
        elem = unseen(i)
        if elem is None:
            if pihat[i] > alpha:
                return None
            surplus += pihat[i]
        else:
            entries.append((i, elem, pihat[i]))
    if surplus > 0:
        if alpha == 0:
            return None
        j = 1
        while surplus > 0:
            if j not in pihat:
                elem = unseen(j)
                if elem is not None:
                    chunk = min(alpha, surplus)
                    entries.append((j, elem, chunk))
                    surplus -= chunk
            j += 1
    return tuple(entries)


def product_cells(c: FiniteGroups,
                  s: PeriodicSet) -> list[tuple[tuple[int, ...], PeriodicSet]]:
    """The pieces of s cut by the groups of c, by product enumeration: every
    membership vector that a member of s realizes, the zero vector
    included, paired with its exact part of s, vectors enumerated with 1
    before 0 per coordinate, at O(2^K) vectors.  Its `&` and `-` read the
    same `classify` pass as `refine`; `test_refine_cuts_by_membership_alone`
    checks the cut without it."""
    groups = [c.group(i) for i in c.indices()]
    out = []
    for vec in product((1, 0), repeat=len(groups)):
        cell = s
        for bit, g in zip(vec, groups):
            cell = (cell & g) if bit else (cell - g)
            if cell.is_empty():
                break
        if not cell.is_empty():
            out.append((vec, cell))
    return out


def scan_groups_containing(c: FiniteGroups, x: int) -> list[int]:
    """The groups of c that hold x: `FiniteGroups.groups_containing` before
    its owners memo, one membership test per group."""
    return [i for i in c.indices() if x in c.group(i)]


def scan_mass_by_group(c: FiniteGroups, xs: Iterable[int],
                       weights: Iterable[int]) -> dict[int, int]:
    """Total weight of xs per group of c, zeros included:
    `FiniteGroups.mass_by_group` before its owners memo, which reads both
    arguments once per group (so xs must be a collection, and weights a
    collection or an endless `repeat`)."""
    return {i: sum(compress(weights, map(c.group(i).__contains__, xs)))
            for i in c.indices()}


def consistent_among(cls: HypothesisClass, indices: Iterable[int],
                     x: int) -> tuple[int, ...]:
    """The indices, in order, whose hypothesis's support holds x:
    `HypothesisClass.consistent_among` before the `holding` mask, one pass
    over already materialized members (so nothing new is materialized)."""
    return tuple(i for i in indices if x in cls.get(i).support)


def is_subset_scan(s: PeriodicSet, t: PeriodicSet) -> bool:
    """s <= t, decided by membership up to `scan_bound`."""
    b, period = scan_bound([s, t])
    return all(x in t for x in range(b + period) if x in s)


class ScanLimit:
    """The in-limit generator from its definition, after the critical
    hypotheses of Kleinberg & Mullainathan.  A step that changes what a
    step reads (a new element, or a repeat that grows the depth, t capped
    by a finite class) rebuilds from the history alone: the indices up to
    the depth whose support holds every seen element; h_n critical when
    h_n <= h_i for every consistent i < n (`is_subset_scan`); and, from the
    largest critical index down, the first that `fraction_feasible`
    accepts, whose witness is the output, or the empirical distribution
    when none is.  Any other repeat re-emits and keeps `last_selected`.
    `calls` lists the step's feasibility calls as (index, witness) pairs."""

    def __init__(self, cls: HypothesisClass, groups: GroupCollection,
                 alpha: Fraction):
        self.cls, self.groups, self.alpha = cls, groups, alpha
        self.history: list[int] = []
        self.consistent: tuple[int, ...] = ()
        self.last_selected: int | None = None
        self.calls: list[tuple[int, object]] = []
        self.output: RationalDist | None = None

    def step(self, x: int) -> RationalDist:
        cls, history = self.cls, self.history
        new = x not in history
        history.append(x)
        self.calls = []
        t = len(history)
        if not (new or cls.extendable or t <= cls.materialized_count()):
            return self.output
        depth = t if cls.extendable else min(t, cls.materialized_count())
        supports = [cls.get(i).support for i in range(1, depth + 1)]
        self.consistent = tuple(i for i, s in enumerate(supports, 1)
                                if all(y in s for y in history))
        self.last_selected, self.output = None, empirical(history)
        for n in reversed(self.consistent):
            if all(is_subset_scan(supports[n - 1], supports[i - 1])
                   for i in self.consistent if i < n):
                w = fraction_feasible(cls.get(n), self.groups, history,
                                      self.alpha)
                self.calls.append((n, w))
                if w is not None:
                    self.last_selected = n
                    self.output = RationalDist({y: m for _, y, m in w})
                    break
        return self.output
