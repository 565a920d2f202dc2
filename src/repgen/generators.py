"""Generator constructions and the exact feasibility decision.

Four generator kinds share one session interface:

  empirical   - uniform over the distinct examples seen so far (baseline)
  uniform     - tracks group empirical weights with unseen closure elements,
                redistributing the weight of exhausted groups within an
                alpha cap once d_star distinct examples have been observed
  nonuniform  - per-step delegation to the uniform construction of the
                deepest class prefix whose threshold is met
  inlimit     - plays the feasibility witness of the largest-index critical
                hypothesis, falling back to the empirical distribution

All of them read the stream through one `StreamState`, which a session
feeds one element at a time (`observe`, or `step`, which also emits).  The
pure `uniform_emit`, `nonuniform_emit` and `limit_emit` replay their history
through a session, so each kind has one entry and one set of input checks.

The uniform step reads the closure of the consistent indices through a
cursor per group that the state keeps until those indices change, so while
they stand a step hashes no set and looks up no table.  It builds its
(element, numerator) pairs in one pass and emits a point mass directly.

One feasibility decision, `_feasible`, serves both the public `is_feasible`
and the in-limit step.  It returns its witness as plain (entries, den) data;
the step emits a point mass over den 1 directly and reads every other
witness through the helper `FeasibilityWitness.distribution` also calls,
which builds it from sorted (element, num) pairs as the uniform assembly
does, so only `is_feasible` builds the public named tuples.  On a block
partition the decision reads the support's `BlockLedger`, which the state
keeps: the live touched blocks with their cursors, and the exhausted ones
only as a total and a largest count, so a step never revisits an exhausted
block.

Everything is deterministic and exact: same configuration and history, same
distribution, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from fractions import Fraction
from itertools import islice
from typing import Collection, Iterable, NamedTuple, Sequence

from . import simplex
from .dimension import gc_depth
from .errors import ConfigError
from .groups import BlockPartition, FiniteGroups, GroupCollection
from .hypotheses import Hypothesis, HypothesisClass
from .measures import GroupTally, RationalDist, check_alpha, empirical
from .periodic import PeriodicSet

KINDS = ("empirical", "uniform", "nonuniform", "inlimit")


# -- stream state ------------------------------------------------------------

class BlockLedger:
    """What the feasibility check on a block partition keeps of one
    support s between reads (`StreamState.ledger`).  The touched blocks,
    those holding a seen element, that still hold an unseen member of s are
    `live`: one [block, walk, head] cursor each, in block order, the head
    the least unseen member of s in the block.  Of the touched blocks that
    hold none, the exhausted ones, only the total of their counts (`total`)
    and the largest count (`largest`) are kept.  `untouched` is the least
    block that holds no seen element, where the surplus chunks start, and
    `fresh` keeps by block the cursor of each untouched block a chunk was
    read from, which moves to `live` once the block is touched.  `known`
    is how many touched blocks the ledger has taken in.

    Exactness.  An exhausted block's count is read once, when its cursor
    runs out, and kept only inside `total` and `largest`.  It cannot
    change while s is read: every member of s in the block is seen, so a
    new element there lies outside s and makes s inconsistent with the
    stream, and the in-limit step reads only the supports of consistent
    indices, while `is_feasible` reads a fresh state once.  So the two
    figures stay what a pass over the exhausted blocks would count, and
    every exhausted block passes its check, count * b <= a * d, exactly
    when the largest does.  d only grows, so "largest count * b <= a * d"
    stays true once true: no exhausted block needs to be looked at
    again."""

    __slots__ = ("support", "live", "total", "largest", "untouched",
                 "fresh", "known")

    def __init__(self, support: PeriodicSet):
        self.support = support
        self.live: list[list] = []
        self.total = 0
        self.largest = 0
        self.untouched = 1
        self.fresh: dict[int, list] = {}
        self.known = 0


class StreamState:
    """What every construction reads about the stream so far, updated one
    element at a time: the step count `t`; a `GroupTally` (`tally`) of the
    distinct elements and their count per group, which gives the group
    weights; the distinct elements in increasing order (`distinct`), which
    give the empirical distribution without sorting the history again; the
    consistent class indices (checked lazily up to the largest index asked
    for), kept beside their bitmask so that a new element filters them with
    one AND of the class's `holding` mask, and beside the critical ones
    among them (`critical`, in decreasing order), ranked again only past
    where the consistent indices changed; one table of smallest-unseen
    cursors per set, one cursor per part, each walking the part of the set
    forward only, since the seen set only grows; the closure of the
    consistent indices with its cursor per group (`closure_cursors`), kept
    until the consistent indices change; and on a block partition a
    `BlockLedger` per support the feasibility check reads (`ledger`)."""

    def __init__(self, cls: HypothesisClass, groups: GroupCollection,
                 history: Iterable[int] = ()):
        self.cls = cls
        self.groups = groups
        self.t = 0
        self.tally = GroupTally(groups)
        self.distinct: list[int] = []
        self.consistent: tuple[int, ...] = ()
        self._mask = 0  # bit i - 1 for each index i in `consistent`
        # the critical indices among consistent[:_ranked], largest first
        self._critical: list[int] = []
        self._ranked = 0
        self.checked = 0  # class indices checked for consistency so far
        # the size of a finite class, which caps the depth; None when the
        # class is extendable
        self._size = None if cls.extendable else cls.materialized_count()
        # set -> part -> [walk of the part, its least unseen member or None]
        self._cursors: dict[PeriodicSet, dict] = {}
        # support -> its block ledger (block partitions only), and the
        # ledger read last
        self._ledgers: dict[PeriodicSet, BlockLedger] = {}
        self._ledger: BlockLedger | None = None
        # the cursor per group over the closure of `consistent`; None until
        # `closure_cursors` builds it, and again whenever `consistent`
        # changes
        self._closure_cursors: list[list] | None = None
        # the set `heads` read last, and its table
        self._head_set: PeriodicSet | None = None
        self._head_table: dict = {}
        for x in history:
            self.add(x)

    def add(self, x: int) -> bool:
        """Feed one element; return whether anything a construction reads
        changed: True when x is new or the depth grew.  A repeat that leaves
        the depth unchanged changes nothing, so its step may re-emit the
        previous distribution."""
        self.t += 1
        if self.tally.add(x):
            insort(self.distinct, x)
            # the indices in the mask are at most `checked`, so already
            # materialized
            mask = self._mask
            if mask:
                kept = mask & self.cls.holding(x)
                if kept != mask:
                    self._mask = kept
                    self.consistent = tuple(i for i in self.consistent
                                            if kept >> (i - 1) & 1)
                    self._critical, self._ranked = [], 0
                    self._closure_cursors = None
            return True
        return self._size is None or self.t <= self._size

    def empirical(self) -> RationalDist:
        """Uniform over the distinct elements so far: `empirical` of the
        history, read from the sorted state (every element was checked to
        be a natural when the tally took it)."""
        if not self.distinct:
            raise ValueError("empirical distribution of an empty prefix is undefined")
        return RationalDist._uniform_sorted(tuple(self.distinct))

    def depth(self) -> int:
        """Largest class index a step may consider: t, capped by a finite class."""
        t, size = self.t, self._size
        return t if size is None or t < size else size

    def consistent_upto(self, n: int) -> tuple[int, ...]:
        """Indices up to n of the hypotheses whose support holds every seen
        element, for n no smaller than `checked`, which every caller's bound
        is: it never falls along a stream and only these calls raise
        `checked`.  The uniform step asks for the size of its finite class;
        the non-uniform step for i_t, which only grows (the thresholds are
        non-decreasing and t and the distinct count only grow); the in-limit
        step for the depth, and only while `checked` is below it.  After the
        loop `checked` is n, so `consistent` holds no index above n."""
        while self.checked < n:
            self.checked += 1
            support = self.cls.get(self.checked).support
            if all(x in support for x in self.tally.seen):
                self.consistent += (self.checked,)
                self._mask |= 1 << (self.checked - 1)
                self._closure_cursors = None
        return self.consistent

    @property
    def critical(self) -> list[int]:
        """The critical indices among `consistent`, largest first.  They are
        kept and ranked when read, only past the indices ranked before: a
        deeper check appends larger indices, which leaves the rank of the
        earlier ones alone, and a new element that drops an index starts
        the ranking afresh, so a construction that never reads them pays
        nothing.  h_m is critical when its support lies inside that of
        every consistent index below m; inclusion is transitive, so the
        consistent indices from the largest critical one below m up
        suffice."""
        consistent, critical = self.consistent, self._critical
        if self._ranked < len(consistent):
            lo = consistent.index(critical[0]) if critical else 0
            for k in range(self._ranked, len(consistent)):
                if self.cls.critical_among(consistent[k],
                                           consistent[lo:k + 1]):
                    critical.insert(0, consistent[k])
                    lo = k
            self._ranked = len(consistent)
        return critical

    def heads(self, s: PeriodicSet) -> list[tuple[tuple[int, ...], int]]:
        """(vec, least unseen element) for each piece of s cut by a finite
        family that has an unseen element, in `pieces(s)` order.  The first
        call on s makes its table with a cursor per piece, while
        `closure_cursors` adds one cursor per group, so a state reads a
        finite family's sets through one of the two: the in-limit step its
        supports through `heads`, the uniform step its closures through
        `closure_cursors`.  The set read last keeps its table at hand, so
        the step that reads the same support again and again hashes it
        once."""
        if s is self._head_set:
            table = self._head_table
        else:
            table = self._cursors.get(s)
            if table is None:
                table = self._cursors[s] = {}
                for vec, piece in self.groups.pieces(s).items():
                    members = piece.members()
                    table[vec] = [members, next(members, None)]
            self._head_set, self._head_table = s, table
        seen = self.tally.seen
        heads = []
        for vec, cursor in table.items():
            head = cursor[1]
            if head in seen:
                members = cursor[0]
                head = next(members, None)
                while head in seen:
                    head = next(members, None)
                cursor[1] = head
            if head is not None:
                heads.append((vec, head))
        return heads

    def ledger(self, s: PeriodicSet) -> BlockLedger:
        """The block ledger of s over a block partition, brought up to the
        stream: the blocks touched since the last read join `live` in
        block order, `untouched` moves past the touched blocks, and each
        live cursor moves past the seen elements; a block whose cursor runs
        out leaves `live`, its count going into `total` and `largest`.  So
        a read visits the live blocks and the new ones, never an exhausted
        one.  The ledger read last is kept at hand, so the step that reads
        the same support again and again hashes it once."""
        ledger = self._ledger
        if ledger is None or ledger.support is not s:
            ledger = self._ledgers.get(s)
            if ledger is None:
                ledger = self._ledgers[s] = BlockLedger(s)
            self._ledger = ledger
        counts = self.tally.counts
        live = ledger.live
        new = len(counts) - ledger.known
        if new:
            # a block joins the counts at its first element and never
            # leaves, so the new ones are the last keys
            ledger.known += new
            fresh = ledger.fresh
            for k in islice(reversed(counts), new):
                cursor = fresh.pop(k, None)
                if cursor is None:
                    walk = self.groups.members_in(s, k)
                    cursor = [k, walk, next(walk, None)]
                insort(live, cursor)  # blocks differ, so lists order by k
            while ledger.untouched in counts:
                ledger.untouched += 1
        seen = self.tally.seen
        spent = False
        for cursor in live:
            head = cursor[2]
            if head in seen:
                walk = cursor[1]
                head = next(walk, None)
                while head in seen:
                    head = next(walk, None)
                cursor[2] = head
            if head is None:
                n = counts[cursor[0]]
                ledger.total += n
                ledger.largest = max(ledger.largest, n)
                spent = True
        if spent:
            ledger.live = [cursor for cursor in live if cursor[2] is not None]
        return ledger

    def closure_cursors(self) -> list[list]:
        """The [walk, head] cursor of each group, in index order, over the
        closure of `consistent`, or an empty list when no index is
        consistent.  The cursors are the lists the closure's table holds by
        unit vector, so a closure met again resumes where its walks
        stopped.  The list is built on the first call and kept until
        `consistent` changes, so a call while it stands hashes no set and
        looks up no table; the caller advances the heads past the seen
        elements."""
        cursors = self._closure_cursors
        if cursors is None:
            cursors = self._closure_cursors = []
            closure = self.cls.closure_of_indices(self.consistent)
            if closure is not None:
                table = self._cursors.setdefault(closure, {})
                for unit in self.groups.units:
                    cursor = table.get(unit)
                    if cursor is None:
                        members = self.groups.members_in(closure, unit)
                        cursor = table[unit] = [members, next(members, None)]
                    cursors.append(cursor)
        return cursors


# -- feasibility -------------------------------------------------------------

class FeasibilityEntry(NamedTuple):
    cell: tuple[int, ...] | int  # membership vector, or block index
    element: int
    num: int  # mass num / the witness's den


class FeasibilityWitness(NamedTuple):
    """Positive masses num / den, one entry per cell; cells are disjoint,
    so no element appears twice.  den is not reduced against the nums.
    Like its entries, an immutable named tuple.  Only `is_feasible` builds
    one: the in-limit step reads the same entries and den as plain tuples."""
    entries: tuple[FeasibilityEntry, ...]
    den: int

    def distribution(self) -> RationalDist:
        return _distribution(self.entries, self.den)


def _distribution(entries: Sequence[tuple], den: int) -> RationalDist:
    """Mass num / den at the element of each (cell, element, num) entry:
    the cells are disjoint, so the elements are distinct, and any witness
    but a point mass is built from its (element, num) pairs."""
    if len(entries) == 1 and entries[0][2] == den:
        # a point mass, which decides nearly every in-limit step
        return RationalDist.point(entries[0][1])
    return RationalDist._from_pairs([(x, m) for _, x, m in entries], den)


def is_feasible(h: Hypothesis, c: GroupCollection, history: Sequence[int],
                alpha: Fraction) -> FeasibilityWitness | None:
    """Whether some distribution over the unseen support of h tracks the
    history's group empirical weights to within alpha; returns a concrete
    witness (mass per cell, concentrated on the smallest unseen element of
    each cell) or None.  Nothing confines the mass to the groups: the
    cell outside every group of a finite family, whose vector is all
    zeros, is a candidate like any other.

    The boundary is non-strict: achievable distance exactly alpha counts as
    feasible.  alpha must be an int or a Fraction (TypeError otherwise) in
    [0, 1] (ConfigError otherwise).
    """
    check_alpha(alpha)
    if not history:
        raise ValueError("feasibility needs a nonempty history")
    found = _feasible(StreamState(HypothesisClass([h]), c, history), h, alpha)
    if found is None:
        return None
    entries, den = found
    return FeasibilityWitness(tuple(FeasibilityEntry(*e) for e in entries), den)


def _feasible(state: StreamState, h: Hypothesis,
              alpha: Fraction) -> tuple[Sequence[tuple], int] | None:
    """The decision of `is_feasible` on a stream state.  Its witness is
    plain data, (entries, den), each entry a (cell, element, num) tuple in
    `FeasibilityEntry`'s field order.  The nums are positive and sum to den,
    so den is 1 only for a point mass."""
    c = state.groups
    if isinstance(c, BlockPartition):
        return _feasible_blocks(state, h, alpha)
    candidates = state.heads(h.support)
    # q_v >= 0 per candidate cell; total mass 1; per group the covered
    # mass must land within [pihat - alpha, pihat + alpha].  With d
    # distinct elements and alpha = a/b, every row is the rational one
    # times D = d*b: group i's weight counts[i]/d is counts[i]*b/D and
    # alpha is a*d/D.
    counts, d = state.tally.counts, len(state.tally.seen)
    a, b = alpha.numerator, alpha.denominator
    den = d * b
    n = len(candidates)
    if n == 1:
        # The pieces tile the infinite support, so one of them is infinite
        # and there is always a candidate.  With only one, the total-mass
        # row pins its mass to 1, so both passes ask whether the point mass
        # is within alpha of every group, and an exact-pass success is the
        # same witness.
        (vec, elem), = candidates
        cap = a * d
        for i, inside in enumerate(vec, 1):
            if abs((den if inside else 0) - counts[i] * b) > cap:
                return None
        return ((vec, elem, 1),), 1
    # Distance-0 witnesses are preferred, so an exact-tracking system is
    # tried before the banded one.  A pass in which a group's lower end is
    # positive but no candidate covers it is skipped: its row is all zeros
    # >= a positive number, which the LP rejects.
    covers = [(counts[i] * b, [den if vec[i - 1] else 0 for vec, _ in candidates])
              for i in c.indices()]
    for exact in (True, False):
        band = 0 if exact else a * d
        rows = [([den] * n, simplex.EQ, den)]
        for w, cover in covers:
            if w > band and not any(cover):
                break
            if exact:
                rows.append((cover, simplex.EQ, w))
            else:
                rows.append((cover, simplex.LE, w + band))
                if w > band:
                    rows.append((cover, simplex.GE, w - band))
        else:
            vertex = simplex.feasible_point_int(n, rows)
            if vertex is not None:
                nums, delta = vertex
                return [(vec, elem, m) for (vec, elem), m
                        in zip(candidates, nums) if m > 0], delta
    return None


def _feasible_blocks(state: StreamState, h: Hypothesis,
                     alpha: Fraction) -> tuple[Sequence[tuple], int] | None:
    """Block partitions have one cell per block, so feasibility reduces to
    interval checks: every exhausted touched block must already be within
    alpha of its weight, and any surplus can be spread in alpha-sized chunks
    over untouched blocks (each finite block keeps unseen support elements in
    infinitely many later blocks, the support being infinite).  The checks
    run on integers over D = d*b (d distinct elements, alpha = a/b), and the
    witness keeps its masses over D.  The support's `BlockLedger` gives the
    live touched blocks with their candidates, in block order, and the
    exhausted ones as their largest count and their total, the surplus;
    the chunks go to the untouched blocks in index order from its first.

    At alpha 0 the cap is 0 and every exhausted touched block, of weight at
    least b > 0, fails its check, so a surplus is never left without an
    alpha-sized chunk to spread it in."""
    ledger = state.ledger(h.support)
    counts, d = state.tally.counts, len(state.tally.seen)
    a, b = alpha.numerator, alpha.denominator
    cap = a * d
    if ledger.largest * b > cap:
        return None
    entries = [(k, head, counts[k] * b) for k, _, head in ledger.live]
    surplus = ledger.total * b
    if surplus:
        fresh, j = ledger.fresh, ledger.untouched
        while True:
            if j not in counts:
                cursor = fresh.get(j)
                if cursor is None:
                    # untouched, so the block's least member of the support
                    # is unseen
                    walk = state.groups.members_in(h.support, j)
                    cursor = fresh[j] = [j, walk, next(walk, None)]
                head = cursor[2]
                if head is not None:
                    if surplus <= cap:
                        entries.append((j, head, surplus))
                        break
                    entries.append((j, head, cap))
                    surplus -= cap
            j += 1
    return entries, d * b


# -- uniform construction -----------------------------------------------------

def _assemble_uniform(counts: dict[int, int], d: int, avail: dict[int, int],
                      exhausted: list[int], alpha: Fraction,
                      seen: Collection[int]) -> RationalDist:
    """Build the emitted distribution from per-group counts of the d
    distinct elements `seen`, one unseen closure element per live group
    (`avail`, in group-index order, as `_uniform` builds it), and the
    exhausted groups.

    The (element, numerator) pairs are built in one pass over the live
    groups.  With none exhausted, group i's weight is counts[i] / d.
    Otherwise the arithmetic is on integers over D = d * alpha.denominator:
    group i's weight counts[i] / d is counts[i] * b / D and alpha = a / b is
    a * d / D.  The exhausted weight goes to the live groups in index
    order, each taking up to the cap a * d.  With a correctly chosen d_star
    it always fits; when a caller configures d_star below the dimension
    threshold, which the adversary constructions do on purpose, what is
    left after every live group took its cap goes to the first live group,
    so emission stays total (and deterministic).  The first group's share
    is therefore fixed before the pass, as the larger of the cap and what
    the others' caps leave of the weight.

    One pair holding the whole denominator is the point mass, emitted
    directly.  Any other pairs, one pair short of the denominator
    included, go through `RationalDist._from_pairs` (sorted by element,
    reduced by one gcd, checked by `RationalDist._assign`), so masses that
    do not sum to 1 (out of contract) raise the error the `Fraction`
    masses would.
    """
    if not exhausted:
        den = d
        pairs = [(x, counts[i]) for i, x in avail.items() if counts[i] > 0]
    elif not avail:
        return empirical(seen)  # closure fully consumed; out of contract
    else:
        a, b = alpha.numerator, alpha.denominator
        den = d * b
        cap = a * d
        rem = sum(counts[i] for i in exhausted) * b
        # the first live group's share, above the cap only out of
        # contract (d_star too small)
        take = max(cap, rem - cap * (len(avail) - 1))
        pairs = []
        for i, x in avail.items():
            m = counts[i] * b
            if rem:
                add = min(take, rem)
                m += add
                rem -= add
                take = cap
            if m > 0:
                pairs.append((x, m))
    if len(pairs) == 1 and pairs[0][1] == den:
        return RationalDist.point(pairs[0][0])
    return RationalDist._from_pairs(pairs, den)


def _uniform(state: StreamState, alpha: Fraction, d_star: int,
             upto: int) -> RationalDist:
    """The uniform construction for the class prefix h_1, ..., h_upto.

    Before d_star distinct examples, or when no hypothesis is consistent,
    plays the empirical distribution.  Otherwise splits the groups into
    exhausted ones (no unseen closure element left) and live ones, targets
    each live group's empirical weight on its smallest unseen closure
    element, and redistributes the exhausted weight by one rule: the live
    groups in index order each take up to alpha of it until none is left,
    so weight within alpha goes whole to the smallest-index live group.

    Consistency is checked only while `checked` is below upto.  The state
    keeps the closure's cursor per group until the consistent indices
    change, and a step walks that list once, advancing each head past the
    seen elements.
    """
    tally = state.tally
    seen = tally.seen
    if len(seen) < d_star:
        return state.empirical()
    if state.checked < upto:
        state.consistent_upto(upto)
    cursors = state.closure_cursors()
    if not cursors:  # no hypothesis is consistent
        return state.empirical()
    avail: dict[int, int] = {}
    exhausted: list[int] = []
    for i, cursor in enumerate(cursors, 1):
        head = cursor[1]
        if head in seen:
            members = cursor[0]
            head = next(members, None)
            while head in seen:
                head = next(members, None)
            cursor[1] = head
        if head is None:
            exhausted.append(i)
        else:
            avail[i] = head
    return _assemble_uniform(tally.counts, len(seen), avail, exhausted,
                             alpha, state.distinct)


def uniform_emit(cls: HypothesisClass, c: FiniteGroups, alpha: Fraction,
                 d_star: int, history: Sequence[int]) -> RationalDist:
    """One uniform-construction step on the full history."""
    return _replay(GeneratorSession("uniform", cls, c, alpha, d_star), history)


# -- non-uniform construction -------------------------------------------------

def nonuniform_thresholds(cls: HypothesisClass, c: FiniteGroups,
                          alpha: Fraction, upto: int,
                          cache: list[int] | None = None) -> list[int]:
    """Distinct-example thresholds n_i for the first `upto` class prefixes,
    forced non-decreasing by running maxima.  Each raw value is one more than
    the dimension of the prefix class; an unbounded dimension is a
    configuration error."""
    if cache is None:
        cache = []
    while len(cache) < upto:
        i = len(cache) + 1
        result = gc_depth(cls.prefix_class(i), c, alpha)
        if result.status != "exact":
            raise ConfigError(f"dimension of class prefix {i} is not finite ({result})")
        raw = result.d + 1
        cache.append(max(raw, cache[-1]) if cache else raw)
    return cache


def _nonuniform(state: StreamState, alpha: Fraction,
                thresholds: list[int] | None) -> RationalDist:
    upto = state.depth()
    n = nonuniform_thresholds(state.cls, state.groups, alpha, upto, thresholds)
    d_t = len(state.tally.seen)
    # the thresholds are running maxima, so those within d_t are a prefix
    i_t = bisect_right(n, d_t, 0, upto) or 1
    return _uniform(state, alpha, n[i_t - 1], i_t)


def nonuniform_emit(cls: HypothesisClass, c: FiniteGroups, alpha: Fraction,
                    history: Sequence[int]) -> RationalDist:
    """One non-uniform step: pick the largest class prefix whose threshold is
    within the distinct count and play its uniform construction.

    The chosen prefix index i_t = max { i <= t : n_i <= d_t } (or 1) can only
    grow along a stream because the thresholds are non-decreasing and both t
    and d_t are monotone.
    """
    return _replay(GeneratorSession("nonuniform", cls, c, alpha), history)


# -- in-the-limit construction --------------------------------------------------

def _limit(state: StreamState,
           alpha: Fraction) -> tuple[int | None, RationalDist]:
    """The index the in-limit step selects (None on fallback) and its output.

    Only this step raises its state's `checked`, always to the depth, which
    never falls; so `checked` is the depth once it is checked up to it, and
    stays so for a finite class once t passes its size.  Every critical
    index is then at most the depth, and its member already materialized."""
    depth = state.depth()
    if state.checked < depth:
        state.consistent_upto(depth)
    members = state.cls._members
    for n in state.critical:
        found = _feasible(state, members[n - 1], alpha)
        if found is not None:
            entries, den = found
            if den == 1:  # a point mass
                return n, RationalDist.point(entries[0][1])
            return n, _distribution(entries, den)
    return None, state.empirical()


def limit_emit(cls: HypothesisClass, c: GroupCollection, alpha: Fraction,
               history: Sequence[int]) -> RationalDist:
    """One in-the-limit step: the feasibility witness of the largest-index
    hypothesis that is both critical and alpha-feasible for the history, or
    the empirical distribution when there is none."""
    return _replay(GeneratorSession("inlimit", cls, c, alpha), history)


# -- sessions -------------------------------------------------------------------

class GeneratorSession:
    """Stateful step-by-step interface over the constructions.

    `observe(x)` feeds x into the session's `StreamState` and drops the kept
    output when anything a construction reads changed, so a repeat that
    leaves the depth unchanged keeps it, and a failed step keeps none.
    `step(x)` observes x, then re-emits the kept output (leaving
    `last_selected` alone) or runs the kind's construction.
    """

    def __init__(self, kind: str, cls: HypothesisClass, groups: GroupCollection,
                 alpha: Fraction, d_star: int | None = None):
        if kind not in KINDS:
            raise ConfigError(f"unknown generator kind {kind!r}")
        check_alpha(alpha)
        if d_star is not None and kind != "uniform":
            raise ConfigError(f"only the uniform generator takes d_star, "
                              f"not {kind!r}")
        self.kind = kind
        self.cls = cls
        self.groups = groups
        self.alpha = alpha
        self.state = StreamState(cls, groups)
        self.last_selected: int | None = None
        self._last: RationalDist | None = None  # the kept output
        self.d_star: int | None = None
        self._thresholds: list[int] = []  # nonuniform prefix thresholds

        if kind in ("uniform", "nonuniform"):
            if not isinstance(groups, FiniteGroups):
                raise ConfigError(f"{kind} generator requires a finite partition")
            if not groups.validate().partition:
                raise ConfigError(f"{kind} generator requires a partition")
        if kind == "uniform":
            if cls.extendable:
                raise ConfigError("uniform generator requires a finite class")
            if d_star is None:
                try:
                    result = gc_depth(cls, groups, alpha)
                    if result.status != "exact":
                        raise ConfigError(str(result))
                except ConfigError as e:  # unbounded, or above MAX_D
                    raise ConfigError(f"cannot derive d_star: {e}; an explicit"
                                      " d_star skips the search") from None
                d_star = result.d + 1
            elif not isinstance(d_star, int) or isinstance(d_star, bool):
                raise TypeError(f"d_star must be an int, got "
                                f"{type(d_star).__name__} {d_star!r}")
            if d_star < 1:
                raise ConfigError(f"d_star must be >= 1, got {d_star}")
            self.d_star = d_star
        elif kind == "inlimit" and isinstance(groups, FiniteGroups):
            if not groups.validate().covers:
                raise ConfigError("inlimit generator requires a covering collection")
            # The finite-support-size precondition needs no check here: it
            # is a finite sum, so it holds for every finite collection.

    def observe(self, x: int) -> None:
        if type(x) is not int or x < 0:  # a bool is not a natural
            raise ValueError(f"examples are naturals, got {x!r}")
        if self.state.add(x):
            self._last = None

    def step(self, x: int) -> RationalDist:
        self.observe(x)
        mu = self._last
        if mu is None:
            state = self.state
            if self.kind == "uniform":
                mu = _uniform(state, self.alpha, self.d_star, state._size)
            elif self.kind == "nonuniform":
                mu = _nonuniform(state, self.alpha, self._thresholds)
            elif self.kind == "inlimit":
                self.last_selected, mu = _limit(state, self.alpha)
            else:
                mu = state.empirical()
            self._last = mu
        return mu


def _replay(session: GeneratorSession, history: Sequence[int]) -> RationalDist:
    """Observe all of `history` but its last element, then step on that."""
    if not history:
        raise ValueError(f"{session.kind} step needs a nonempty history")
    for x in history[:-1]:
        session.observe(x)
    return session.step(history[-1])
