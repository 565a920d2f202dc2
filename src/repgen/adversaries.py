"""Adversary constructions: streams that force any generator of a given
shape into a verifiable failure, plus the report type those failures are
returned as.

Three families:

  gc_witness_adversary  - plays a verified dimension witness tuple and
                          classifies the generator's response
  geometric_adversary   - enumerates the naturals against geometric blocks,
                          one element per generator step, checking at each
                          block boundary; its tally records each block
                          whole (`GroupTally.add_block`)
  query_adversary       - answers membership queries adaptively so that
                          query-based generators stay wrong forever

Every report is re-checkable from its own fields; verify_report does so
without consulting the adversary's internal state, refusing an
unrepresentative report with an empty history and raising a TypeError on a
float or bool alpha, distance or pi_hat.  An unrepresentative
report is re-checked in integers: the history's `GroupTally.gap` against
the report's distance, and that distance against alpha, cross-multiplied,
so no `Fraction` is built.  The adversaries' own distance > alpha
invariants are decided the same way, and a report's `Fraction` distance
is built once, for the report.  `ViolationReport` is a frozen dataclass
whose `__init__` stores its fields in one step, which matters to a game
that builds a report per step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice
from typing import Callable, Sequence

from .dimension import check_witness
from .errors import ConfigError, InvariantViolation
from .groups import BlockPartition, FiniteGroups, GroupCollection
from .hypotheses import Hypothesis, HypothesisClass
from .measures import (GroupTally, PrefixView, RationalDist, check_alpha,
                       check_exact, prefix_tally)
from .periodic import ALL, PeriodicSet

# Longest game an adversary plays.  The geometric horizon b + ... + b^depth
# grows exponentially with the depth, so a longer game is refused with a
# ConfigError before its first step instead of running for hours.  At
# alpha = 1/2, `repgen adversary geometric` against the empirical baseline
# takes about 0.95 s at depth 13 (16,382 steps) and 14 s at depth 15
# (65,534 steps) on a 2-vCPU VM (Python 3.11.7): each step still copies the
# distinct elements into its output.  Against the in-limit baseline, whose
# step reads only the live blocks, it takes 0.25 s and 0.7 s.
MAX_STEPS = 10 ** 5

# Largest per-step query budget.  Every fresh query stores one entry in each
# of the oracle state's `hyp`, `grp` and `queue`, so a step holds O(budget)
# memory before the budget trips: at this cap `repgen adversary query
# --generator greedy` takes 0.6-0.9 s and peaks at 143 MiB RSS, against
# 16 MiB at budget 0 (Python 3.11.7, 2-vCPU x86-64 VM).
MAX_QUERY_BUDGET = 10 ** 6

INCONSISTENT = "inconsistent"
UNREPRESENTATIVE = "unrepresentative"
BUDGET_EXCEEDED = "query_budget_exceeded"


@dataclass(frozen=True)
class ViolationReport:
    step: int
    kind: str
    # the stream up to `step`: a tuple, or for the query adversary a
    # `PrefixView` of its append-only enumeration (equal to that tuple, and
    # hashed alike)
    history: Sequence[int]
    distribution: RationalDist | None
    alpha: Fraction | None = None
    element: int | None = None       # offending support element
    reason: str | None = None        # "already-seen" | "out-of-support"
    hypothesis: str | None = None    # id witnessing out-of-support
    continuation: tuple[int, ...] = ()
    group: int | None = None         # group attaining the distance
    distance: Fraction | None = None
    pi_hat: Fraction | None = None   # empirical weight of that group
    checkpoint: int | None = None    # geometric block index

    # The generated frozen __init__ stores each field with its own
    # object.__setattr__ call; this one stores all of them at once, in field
    # order.  Its signature must stay the fields' (names, order, defaults),
    # which a test checks, and dataclass keeps an __init__ the class defines.
    # The generated one measured adversary-blocks steps/s ×0.909, p50 ×1.189.
    def __init__(self, step: int, kind: str, history: Sequence[int],
                 distribution: RationalDist | None,
                 alpha: Fraction | None = None, element: int | None = None,
                 reason: str | None = None, hypothesis: str | None = None,
                 continuation: tuple[int, ...] = (), group: int | None = None,
                 distance: Fraction | None = None,
                 pi_hat: Fraction | None = None,
                 checkpoint: int | None = None):
        object.__setattr__(self, "__dict__", {
            "step": step, "kind": kind, "history": history,
            "distribution": distribution, "alpha": alpha, "element": element,
            "reason": reason, "hypothesis": hypothesis,
            "continuation": continuation, "group": group,
            "distance": distance, "pi_hat": pi_hat, "checkpoint": checkpoint})


def _check_count(name: str, n: int, lo: int, hi: int | None = None) -> None:
    """Refuse a count that is not an int, a bool included (TypeError: True
    is not 1), or that lies outside [lo, hi] (ConfigError)."""
    if type(n) is not int:
        raise TypeError(f"{name} must be an int, got {type(n).__name__} {n!r}")
    if n < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {n}")
    if hi is not None and n > hi:
        raise ConfigError(f"{name} must be <= {hi}, got {n}")


def verify_report(report: ViolationReport,
                  groups: GroupCollection | None = None,
                  support: PeriodicSet | None = None) -> bool:
    """Recheck a report from its own fields.  Inconsistency needs the target
    support (for out-of-support claims); unrepresentativeness needs the group
    collection the distance was measured against, and a nonempty history
    (an empty one has no empirical weights to be far from).  An
    unrepresentative report whose alpha, distance or pi_hat is a float or a
    bool is a TypeError naming the field."""
    if report.kind == BUDGET_EXCEEDED:
        return report.distribution is None
    if report.distribution is None:
        return False
    if report.kind == INCONSISTENT:
        if report.element is None or report.element not in report.distribution.support():
            return False
        if report.reason == "already-seen":
            return report.element in report.history
        if report.reason == "out-of-support":
            return support is not None and report.element not in support
        return False
    if report.kind == UNREPRESENTATIVE:
        dist, alpha, pi_hat = report.distance, report.alpha, report.pi_hat
        for name, value in (("alpha", alpha), ("distance", dist),
                            ("pi_hat", pi_hat)):
            if value is not None:
                check_exact(name, value)
        if (groups is None or dist is None or alpha is None
                or not report.history):
            return False
        tally = prefix_tally(report.history, groups)
        if (report.group is not None and pi_hat is not None
                and pi_hat.numerator * len(tally.seen)
                != tally.counts.get(report.group, 0) * pi_hat.denominator):
            return False
        # gap == distance > alpha, cross-multiplied in integers
        num, den = tally.gap(report.distribution)
        p, q = dist.numerator, dist.denominator
        return (num * q == p * den
                and p * alpha.denominator > alpha.numerator * q)
    return False


# -- dimension-witness adversary ------------------------------------------------

def gc_witness_adversary(make_session: Callable[[], object],
                         cls: HypothesisClass, c: FiniteGroups,
                         alpha: Fraction,
                         witness: Sequence[int]) -> ViolationReport:
    """Feed a verified witness tuple to a fresh generator session and
    classify the step-t output: mass on a seen element, mass outside the
    closure (some consistent hypothesis excludes it), or supported entirely
    inside the remaining closure, in which case the exhausted groups force
    the group distance above alpha.
    """
    cond = check_witness(cls, c, alpha, witness)
    if cond is None:
        raise ConfigError(f"tuple {tuple(witness)} is not a dimension witness "
                          f"for this instance at alpha={alpha}")
    session = make_session()
    mu = None
    for x in witness:
        mu = session.step(x)
    assert mu is not None
    t = len(witness)
    hist = tuple(witness)
    closure = cls.closure(witness)
    assert closure is not None  # witness verification guarantees this
    tally = GroupTally(c)
    for x in hist:
        tally.add(x)
    offenders = sorted(x for x in mu.support()
                       if x not in closure or x in tally.seen)
    if offenders:
        x = offenders[0]
        consistent = cls.consistent_indices(witness)
        if x in hist:
            h = cls.get(consistent[0])
            reason = "already-seen"
        else:
            # x lies outside the closure, so some consistent support misses it
            h = next(cls.get(i) for i in consistent
                     if x not in cls.get(i).support)
            reason = "out-of-support"
        unseen = (y for y in h.support.members() if y not in tally.seen)
        cont = tuple(islice(unseen, 3))
        return ViolationReport(step=t, kind=INCONSISTENT, history=hist,
                               distribution=mu, alpha=alpha, element=x,
                               reason=reason, hypothesis=h.id,
                               continuation=cont)
    num, den = tally.gap(mu)
    d = Fraction(num, den)
    if num * alpha.denominator <= alpha.numerator * den:
        raise InvariantViolation(
            "verified witness did not force the distance above alpha",
            snapshot={"witness": hist, "mu": mu.serialize(),
                      "distance": str(d)})
    gstar = tally.worst_group(mu)
    pihat = Fraction(tally.counts.get(gstar, 0), len(tally.seen))
    return ViolationReport(step=t, kind=UNREPRESENTATIVE, history=hist,
                           distribution=mu, alpha=alpha, group=gstar,
                           distance=d, pi_hat=pihat)


# -- geometric adversary ----------------------------------------------------------

def geometric_adversary(make_session: Callable[[HypothesisClass, BlockPartition, Fraction], object],
                        alpha: Fraction, depth: int) -> list[ViolationReport]:
    """Run a generator against the single-hypothesis instance (support = all
    naturals) with geometric blocks of sizes b, b^2, b^3, ... where
    b = 1/(1-alpha) must be an integer >= 2.  The stream enumerates the
    naturals in order; at the moment block i is fully shown, step
    t_i = b + ... + b^i (the block's end), its empirical weight strictly
    exceeds alpha while the block holds no unseen element, so the emitted
    distribution is either inconsistent (mass on a seen element) or off by
    more than alpha on that block.  Returns one verified report per block
    up to the requested depth, whose horizon t_depth may not exceed
    MAX_STEPS.  The generator is stepped on every element; the game's own
    tally records each block once it is fully shown, with one `add_block`
    call, since it is read only at the block ends.
    """
    check_alpha(alpha)
    if alpha <= 0 or alpha >= 1:
        raise ConfigError(f"geometric adversary needs 0 < alpha < 1, got {alpha}")
    b_frac = 1 / (1 - alpha)
    if b_frac.denominator != 1 or b_frac < 2:
        raise ConfigError(
            f"geometric adversary needs 1/(1-alpha) to be an integer >= 2, "
            f"got {b_frac} (alpha={alpha})")
    b = int(b_frac)
    _check_count("depth", depth, 1)
    groups = BlockPartition(base=b, prefix_sizes=(b,))
    for i in range(1, depth + 1):  # b >= 2: stops by i = log2(MAX_STEPS)
        if groups.block_range(i)[1] > MAX_STEPS:
            raise ConfigError(
                f"depth {depth} at base {b} needs more than {MAX_STEPS} steps")

    cls = HypothesisClass([Hypothesis("everything", ALL)])
    session = make_session(cls, groups, alpha)
    tally = GroupTally(groups)

    reports: list[ViolationReport] = []
    for i in range(1, depth + 1):
        lo, t = groups.block_range(i)
        for x in range(lo, t):  # step x + 1 shows x
            mu = session.step(x)
        tally.add_block(i)
        pihat_i = Fraction(t - lo, t)
        if pihat_i <= alpha:
            raise InvariantViolation(
                "full block weight failed to exceed alpha",
                snapshot={"t": t, "block": i, "pi_hat": str(pihat_i)})
        hist = tuple(range(t))
        seen_mass = sorted(y for y in mu.support() if y < t)
        if seen_mass:
            reports.append(ViolationReport(
                step=t, kind=INCONSISTENT, history=hist, distribution=mu,
                alpha=alpha, element=seen_mass[0], reason="already-seen",
                checkpoint=i, pi_hat=pihat_i))
            continue
        num, den = tally.gap(mu)
        if num * alpha.denominator <= alpha.numerator * den:
            raise InvariantViolation(
                "exhausted block did not force the distance above alpha",
                snapshot={"t": t, "block": i, "mu": mu.serialize()})
        reports.append(ViolationReport(
            step=t, kind=UNREPRESENTATIVE, history=hist, distribution=mu,
            alpha=alpha, group=i, distance=Fraction(num, den),
            pi_hat=pihat_i, checkpoint=i))
    return reports


# -- query adversary ----------------------------------------------------------------

class QueryBudgetExceeded(Exception):
    def __init__(self, step: int, budget: int):
        super().__init__(f"query budget {budget} exceeded at step {step}")
        self.step = step
        self.budget = budget


class MembershipOracle:
    """Adaptive membership oracle handed to query-based generators.

    hyp_member(x) answers whether x is in the target hypothesis's support;
    group_member(x) answers whether x is in group one of the adversary's
    two-group partition.  Both answers are decided lazily so that fresh
    hypothesis-side queries come back positive but land in group two, and
    fresh group-side queries land in group two with a positive hypothesis
    assignment; either way the element is queued for later enumeration.
    """

    def __init__(self, state: "QueryAdversaryState", budget: int):
        self._state = state
        self._budget = budget
        self._spent = 0

    def _decide(self, x: int) -> "QueryAdversaryState":
        """Charge one query; an undecided x becomes in-hypothesis, in group
        two, and queued.  A query that is not a natural is a ValueError,
        raised before the budget is charged."""
        if type(x) is not int or x < 0:  # a bool is an int, not a natural
            raise ValueError(f"queries must be naturals, got {x!r}")
        self._spent += 1
        if self._spent > self._budget:
            raise QueryBudgetExceeded(self._state.step, self._budget)
        st = self._state
        if x not in st.hyp:
            st.hyp[x] = 1
            st.grp[x] = 2
            st.queue.append(x)
        return st

    def hyp_member(self, x: int) -> bool:
        return self._decide(x).hyp[x] == 1

    def group_member(self, x: int) -> bool:
        return self._decide(x).grp[x] == 1


@dataclass
class QueryAdversaryState:
    # hyp (0/1) and grp (1/2) always hold the same keys; absent = undecided
    hyp: dict[int, int] = field(default_factory=dict)
    grp: dict[int, int] = field(default_factory=dict)
    # append-only: every report's history is a view of its first `step`
    # entries, so an entry, once enumerated, never changes or goes away
    enumeration: list[int] = field(default_factory=list)
    queue: deque = field(default_factory=deque)
    step: int = 0
    _fresh_scan: int = 0
    # enumeration entries in group one; an enumerated element's group never
    # changes, so query_adversary counts each fresh group-one entry once
    group_one: int = 0

    def next_fresh(self) -> int:
        x = self._fresh_scan
        while x in self.hyp:
            x += 1
        self._fresh_scan = x
        return x

    def group_one_fraction(self) -> Fraction:
        return Fraction(self.group_one, len(self.enumeration))


def query_adversary(generator, steps: int,
                    query_budget: int = MAX_QUERY_BUDGET
                    ) -> tuple[list[ViolationReport], QueryAdversaryState]:
    """Drive a query-based generator for `steps` rounds.

    Each round the adversary extends its enumeration (odd rounds and empty
    queues get a fresh element placed in group one; otherwise a previously
    queried element is replayed from the queue), lets the generator emit a
    distribution with oracle access, then classifies the output.  Mass on a
    declared-out or already-enumerated element is inconsistent; mass on a
    never-queried element is declared out on the spot (inconsistent); and a
    distribution confined to queried elements lives entirely in group two,
    whose enumeration weight never reaches half, so the distance is at least
    one half > any alpha below it.  Generators must expose
    emit(prefix, oracle) -> RationalDist, where prefix is a read-only view
    of the enumeration so far; every report keeps its round's view, so the
    reports share one history list.  At most MAX_STEPS rounds, and at most
    MAX_QUERY_BUDGET queries per round.
    """
    _check_count("steps", steps, 1, MAX_STEPS)
    _check_count("query budget", query_budget, 0, MAX_QUERY_BUDGET)
    st = QueryAdversaryState()
    reports: list[ViolationReport] = []
    seen: set[int] = set()  # the enumeration's elements
    for t in range(1, steps + 1):
        st.step = t
        if t % 2 == 1 or not st.queue:
            x = st.next_fresh()
            st.grp[x] = 1
            st.hyp[x] = 1
            st.group_one += 1
        else:
            x = st.queue.popleft()
        st.enumeration.append(x)
        seen.add(x)
        hist = PrefixView(st.enumeration, t)
        oracle = MembershipOracle(st, query_budget)
        try:
            mu = generator.emit(hist, oracle)
        except QueryBudgetExceeded:
            reports.append(ViolationReport(
                step=t, kind=BUDGET_EXCEEDED, history=hist, distribution=None))
            return reports, st
        if not isinstance(mu, RationalDist):
            raise ConfigError(
                f"query generator returned {type(mu).__name__}, expected RationalDist")
        # the support is sorted: its least declared-out or enumerated
        # element is inconsistent, else its least never-queried one
        hyp = st.hyp
        bad = fresh = None
        for y in mu.support():
            h = hyp.get(y)
            if h == 0 or y in seen:
                bad = y
                break
            if h is None and fresh is None:
                fresh = y
        if bad is not None:
            reason = "already-seen" if bad in seen else "out-of-support"
            reports.append(ViolationReport(
                step=t, kind=INCONSISTENT, history=hist, distribution=mu,
                element=bad, reason=reason))
            continue
        if fresh is not None:
            hyp[fresh] = 0
            st.grp[fresh] = 2
            reports.append(ViolationReport(
                step=t, kind=INCONSISTENT, history=hist, distribution=mu,
                element=fresh, reason="out-of-support"))
            continue
        # remaining support: hyp == 1 and never enumerated -> grp == 2; the
        # enumeration holds t elements, group_one of them in group one
        if 2 * st.group_one < t:
            raise InvariantViolation(
                "group-one enumeration weight dropped below a half",
                snapshot={"t": t, "fraction": str(st.group_one_fraction())})
        pihat1 = st.group_one_fraction()
        # mu puts no mass on group one and all of it on group two, so the
        # distance is |0 - pihat1| = |1 - (1 - pihat1)| = pihat1
        reports.append(ViolationReport(
            step=t, kind=UNREPRESENTATIVE, history=hist, distribution=mu,
            group=1, distance=pihat1, pi_hat=pihat1))
    return reports, st


# -- baseline generators for the adversaries ----------------------------------------

class ConstantSession:
    """Step-based session that ignores its input and always plays one fixed
    element as a point mass."""

    def __init__(self, element: int):
        self.element = element

    def step(self, x: int) -> RationalDist:
        return RationalDist.point(self.element)


class QueryThenEmit:
    """Scans the naturals for the first element that is unseen and confirmed
    in-support, then plays it as a point mass.

    The scan keeps a cursor across calls.  A queried element's answer never
    changes, so when the prefix extends the previous one, every natural below
    the previous answer is in the prefix or was answered out of support; the
    scan asks those out-of-support ones again, in order, and resumes at the
    previous answer.  It puts the same queries in the same order as a scan
    from 0.  An extension is a `PrefixView` that extends the previous view of
    the same list, recognised in O(1); any other prefix restarts the scan at
    0, which asks the same queries as a scan from 0 too."""

    def __init__(self):
        self._prefix: Sequence[int] = ()
        self._seen: set[int] = set()
        self._out: list[int] = []  # unseen naturals below _next answered out
        self._next = 0

    def emit(self, prefix: Sequence[int], oracle: MembershipOracle) -> RationalDist:
        new = (prefix.suffix_after(self._prefix)
               if type(prefix) is PrefixView else None)
        if new is None:
            self._seen, self._out, self._next = set(), [], 0
            new = prefix
        self._seen.update(new)
        self._prefix = prefix
        seen = self._seen
        out = []
        for x in chain(self._out, count(self._next)):
            if x in seen:
                continue
            if oracle.hyp_member(x):
                self._out, self._next = out, x
                return RationalDist.point(x)
            out.append(x)


class ConstantQueryFree:
    """Ignores the oracle entirely and always plays one fixed element."""

    def __init__(self, element: int):
        self.element = element

    def emit(self, prefix: Sequence[int], oracle: MembershipOracle) -> RationalDist:
        return RationalDist.point(self.element)


class GreedyQuerier:
    """Queries every natural up to a huge bound before emitting; exists to
    trip the per-step query budget."""

    def emit(self, prefix: Sequence[int], oracle: MembershipOracle) -> RationalDist:
        x = 0
        while True:
            oracle.hyp_member(x)
            x += 1
