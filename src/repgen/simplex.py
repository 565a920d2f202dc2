"""Phase-one simplex over exact rationals on an integer tableau.

Decides feasibility of { x >= 0 : constraints } where every constraint is
"coeffs . x REL rhs" with REL one of <=, >= or ==.  Bland's smallest-index
rule is used for both the entering and the leaving choice, which rules out
cycling.

There are two entries and one pivot loop.  `feasible_point` takes rows of
ints or fractions.Fraction, checks them, flips a row with a negative
right-hand side, and multiplies every row by one shared scale, the lcm of
all the system's denominators.  `feasible_point_int` takes rows already in
integers, each as (coeffs, rel, rhs) with rhs >= 0, all of them the
rational rows times one shared positive scale, and runs the pivots; the
generators' feasibility LPs build their rows that way, over one
denominator D.  `feasible_point_int` returns the vertex as integer
numerators over one positive denominator, the final pivot;
`feasible_point` divides them out into a list of Fraction.

The tableau holds integers over one common denominator (Edmonds' fraction-
free pivoting, as in Bareiss elimination): a pivot on p replaces every
other row v by (p*v - f*w) // delta, an exact division, after which delta
becomes p.  Every artificial costs 1 in phase one.  With one scale k on
every row, each slack and artificial is k times its rational counterpart,
so the sum of artificials is k times the rational objective: every reduced
cost has the sign it has in the rational tableau and every ratio test the
same order, Bland's rule takes the same pivots, and the vertex is the
rational tableau's.  The verdict is exact even when the feasible region is
a single boundary point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvariantViolation

LE, GE, EQ = "<=", ">=", "=="


def feasible_point(n_vars: int,
                   constraints: Sequence[tuple[Sequence[Fraction], str, Fraction]]
                   ) -> list[Fraction] | None:
    """A nonnegative solution of the constraint system, or None.

    Builds the standard phase-one tableau: slacks for inequalities,
    artificials wherever no slack can start basic, and minimizes the sum
    of artificials.  Feasible iff that minimum is zero.
    Raises TypeError for a coefficient or right-hand side that is neither
    an int nor a Fraction, a bool included, before the row's other checks,
    and ValueError for a row of the wrong length or a relation other than
    LE, GE and EQ.
    """
    rows = []
    for i, (coeffs, rel, rhs) in enumerate(constraints):
        for v in (*coeffs, rhs):
            if type(v) is bool or not isinstance(v, (int, Fraction)):
                raise TypeError(f"constraint {i}: {type(v).__name__} {v!r} "
                                f"is not an int or Fraction")
        if len(coeffs) != n_vars:
            raise ValueError(f"constraint arity {len(coeffs)} != {n_vars}")
        if rel not in (LE, GE, EQ):
            raise ValueError(f"constraint {i}: unknown relation {rel!r}, "
                             f"expected {LE!r}, {GE!r} or {EQ!r}")
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        rows.append((coeffs, rel, rhs))
    scale = lcm(*(v.denominator for coeffs, _, rhs in rows
                  for v in (*coeffs, rhs)))
    vertex = feasible_point_int(n_vars, [
        ([int(v * scale) for v in coeffs], rel, int(rhs * scale))
        for coeffs, rel, rhs in rows])
    if vertex is None:
        return None
    nums, delta = vertex
    return [Fraction(v, delta) for v in nums]


def feasible_point_int(n_vars: int,
                       rows: Sequence[tuple[list[int], str, int]]
                       ) -> tuple[list[int], int] | None:
    """The same decision on rows already in integers.

    Each row is (coeffs, rel, rhs): int coefficients, a relation in LE, GE
    and EQ, and an int rhs >= 0.  All rows are the rational rows multiplied
    by one shared positive scale, and the result is the rational system's
    vertex, the one `feasible_point` returns for it, as (nums, delta): int
    numerators and the positive int denominator they share, x_j = nums[j] /
    delta, not reduced.  Rows are not checked or changed.
    """
    n_slack = sum(1 for _, rel, _ in rows if rel != EQ)
    # Artificials: == rows always; >= rows always (their surplus starts
    # negative); <= rows start basic on their own slack.
    n_art = sum(1 for _, rel, _ in rows if rel != LE)
    width = n_vars + n_slack + n_art

    tableau: list[list[int]] = []
    basis: list[int] = []
    # Objective: minimize the sum of the artificials.  Work with reduced
    # costs directly: cost[j] = c_j - sum over basic rows of c_B * row;
    # cost[width] is -(objective) * delta.
    cost = [0] * (width + 1)
    slack_at = 0
    art_at = 0
    for coeffs, rel, rhs in rows:
        row = coeffs + [0] * (n_slack + n_art) + [rhs]
        if rel != EQ:
            row[n_vars + slack_at] = 1 if rel == LE else -1
            slack_col = n_vars + slack_at
            slack_at += 1
        if rel == LE:
            basis.append(slack_col)
        else:
            col = n_vars + n_slack + art_at
            row[col] = 1
            basis.append(col)
            art_at += 1
            cost[col] = 1
            cost = [v - w for v, w in zip(cost, row)]
        tableau.append(row)

    delta = 1
    while True:
        enter = -1
        for j in range(width):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for r, row in enumerate(tableau):
            a = row[enter]
            if a <= 0:
                continue
            if leave >= 0:
                # ratio rhs/a against the best so far, cross-multiplied
                # (both a > 0); ties go to the smaller basic index
                here, best = row[width] * best_a, best_rhs * a
                if here > best or (here == best and basis[r] > basis[leave]):
                    continue
            leave, best_a, best_rhs = r, a, row[width]
        if leave < 0:
            # No row bounds the entering column, so raising it keeps every
            # row feasible and lowers the objective without end.  The
            # phase-one objective is a sum of artificials, each >= 0, so it
            # is bounded below by 0 and this cannot happen: reaching it is
            # a fault in the pivots, not an infeasible system.
            raise InvariantViolation(
                f"phase one is unbounded in column {enter}",
                snapshot={"enter": enter, "basis": list(basis)})
        prow = tableau[leave]
        p = prow[enter]
        for r, row in enumerate(tableau):
            if r == leave:
                continue
            f = row[enter]
            if f:
                tableau[r] = [(p * v - f * w) // delta for v, w in zip(row, prow)]
            elif p != delta:
                tableau[r] = [p * v // delta for v in row]
        f = cost[enter]
        cost = [(p * v - f * w) // delta for v, w in zip(cost, prow)]
        delta = p
        basis[leave] = enter

    if cost[width] != 0:
        return None
    nums = [0] * n_vars
    for r, b in enumerate(basis):
        if b < n_vars:
            nums[b] = tableau[r][width]
    return nums, delta
