"""Game runner and trace format.

run_game drives a generator session along a scenario's stream and verifies
every emitted distribution with the measure-level checkers only; none of the
verification reuses the generator constructions, so a broken generator
cannot vouch for itself.  The checks are incremental: the group distance
comes from integer counts in a `GroupTally`, compared with the emitted
distribution's integer masses over one common denominator (a point mass
through its element's owner groups), and the consistent class indices are a
bitmask that each new element ANDs with the class's memoized `holding`
mask, so a step costs the same however long the stream has run.  A repeat
on which the session re-emits the same distribution object leaves the
tally, the mask and `last_selected` as they were, so its record is the
previous one with the new step and element (checking it afresh measured
inlimit-long steps/s ×0.952).  The alpha verdict and the summary's largest
distance are decided by cross-multiplying the tally's integer gap, the
largest kept as a running numerator and denominator, and the record keeps
the gap reduced by one `gcd`, so a step check builds no `Fraction`: the
record's `distance` builds one when read, and the summary builds one for
the largest.  Each step is a `StepRecord` named tuple, which
`run_game` builds as `StepRecord._make` does, through `tuple.__new__` with
every field given, so no Python-level constructor runs per step (calling
`StepRecord` measured inlimit-long steps/s ×0.949, p50 ×1.060).
Traces serialize to JSON lines with sorted keys and fixed separators, making
reruns byte-comparable.  `_dump` is the one encoder for every row repgen
prints: rows hold records' exact values as they are, and it writes each
`Fraction` as "p/q" and each `RationalDist` as its sorted [element, "p/q"]
pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from .errors import InvariantViolation
from .measures import GroupTally, RationalDist, format_fraction, parse_fraction
from .scenario import Scenario, build_session, materialize_stream


class StepRecord(NamedTuple):
    """One checked step: an immutable named tuple, compared and hashed by
    its fields, and cheap to build once per step.  `gap` is the group
    distance as a reduced (numerator, denominator) pair."""
    t: int
    x: int
    distinct: int
    mu: RationalDist
    gap: tuple[int, int]
    representative: bool
    consistent: bool
    closure_bot: bool
    selected: int | None = None

    @property
    def distance(self) -> Fraction:
        return Fraction(*self.gap)


@dataclass
class GameTrace:
    scenario_name: str
    generator_kind: str
    alpha: Fraction
    horizon: int
    steps: list[StepRecord] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def run_game(scenario: Scenario) -> GameTrace:
    xs = materialize_stream(scenario)
    session = build_session(scenario)
    cls, groups = scenario.cls, scenario.groups
    tally = GroupTally(groups)
    # bitmask of the hypotheses holding every element seen (bit i - 1 for
    # h_i); the closure is bottom exactly when none is left
    consistent = (1 << cls.materialized_count()) - 1
    holding = cls.holding
    # distance <= alpha, decided by cross-multiplying in integers
    a_num, a_den = scenario.alpha.numerator, scenario.alpha.denominator
    seen, in_support = tally.seen, scenario.target.support.__contains__
    inlimit = scenario.kind == "inlimit"
    # the largest distance so far, as num / den
    top_num, top_den = 0, 1
    steps: list[StepRecord] = []
    # each record is built as `StepRecord._make` builds one, with every
    # field given, so no Python-level `__new__` runs per step
    record = tuple.__new__
    for t, x in enumerate(xs, 1):
        mu = session.step(x)
        if not isinstance(mu, RationalDist):
            raise InvariantViolation(
                f"step {t}: generator returned {type(mu).__name__} "
                "instead of a distribution")
        if tally.add(x):
            consistent &= holding(x)
        elif mu is steps[-1].mu:  # a re-emit: nothing a check reads changed
            steps.append(record(StepRecord, (t, x, *steps[-1][2:])))
            continue
        num, den = tally.gap(mu)
        if num * top_den > top_num * den:
            top_num, top_den = num, den
        g = gcd(num, den)
        ys = mu.support()
        steps.append(record(StepRecord, (
            t, x, len(seen), mu, (num // g, den // g),
            num * a_den <= a_num * den,
            seen.isdisjoint(ys) and all(map(in_support, ys)),
            not consistent,
            session.last_selected if inlimit else None)))
    trace = GameTrace(scenario_name=scenario.name, generator_kind=scenario.kind,
                      alpha=scenario.alpha, horizon=scenario.horizon,
                      steps=steps)
    trace.summary = _summarize(trace, top_num, top_den)
    return trace


def _summarize(trace: GameTrace, top_num: int, top_den: int) -> dict:
    """The summary line of a trace whose largest step distance (0 for no
    steps) is top_num / top_den."""
    steps = trace.steps
    first_consistent_from = None
    for rec in reversed(steps):
        if rec.consistent:
            first_consistent_from = rec.t
        else:
            break
    violations = [{"distance": format_fraction(rec.distance), "t": rec.t}
                  for rec in steps if not rec.representative]
    return {
        "steps": len(steps),
        "all_representative": all(rec.representative for rec in steps),
        "max_distance": format_fraction(Fraction(top_num, top_den)),
        "first_consistent_from": first_consistent_from,
        "violations": violations,
    }


def evaluate_asserts(scenario: Scenario, trace: GameTrace) -> list[str]:
    """Check the scenario's declared assertions against a finished trace;
    returns human-readable failure strings (empty means all hold)."""
    failures = []
    asserts = scenario.asserts
    for key, n in (("all_representative",
                    1 if asserts.get("all_representative") else None),
                   ("representative_from", asserts.get("representative_from"))):
        if n is None:
            continue
        for rec in trace.steps:
            if rec.t >= n and not rec.representative:
                failures.append(
                    f"asserts.{key}: step {rec.t} has distance "
                    f"{format_fraction(rec.distance)} > "
                    f"{format_fraction(scenario.alpha)}")
                break
    if "consistent_from" in asserts:
        n = asserts["consistent_from"]
        for rec in trace.steps:
            if rec.t >= n and not rec.consistent:
                failures.append(
                    f"asserts.consistent_from: step {rec.t} emits mass on a "
                    "seen or out-of-support element")
                break
    return failures


# -- serialization ------------------------------------------------------------

def _encode(value):
    """The JSON form of an exact value: a `Fraction` as "p/q" and a
    `RationalDist` as its sorted [element, "p/q"] pairs."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, RationalDist):
        return value.serialize()
    raise TypeError(f"cannot encode {type(value).__name__} {value!r}")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_encode)


def trace_lines(trace: GameTrace) -> list[str]:
    lines = [_dump({"kind": "header", "scenario": trace.scenario_name,
                    "generator": trace.generator_kind, "alpha": trace.alpha,
                    "horizon": trace.horizon})]
    for rec in trace.steps:
        row = rec._asdict()
        del row["gap"]
        row["distance"] = rec.distance
        row["closure"] = "bot" if row.pop("closure_bot") else "ok"
        lines.append(_dump({"kind": "step", **row}))
    lines.append(_dump({"kind": "summary", **trace.summary}))
    return lines


def parse_trace(text: str | Iterable[str]) -> GameTrace:
    if isinstance(text, str):
        raw_lines = text.splitlines()
    else:
        raw_lines = [ln.rstrip("\n") for ln in text]
    rows = [json.loads(ln) for ln in raw_lines if ln.strip()]
    if not rows or rows[0].get("kind") != "header":
        raise ValueError("trace must start with a header line")
    if rows[-1].get("kind") != "summary":
        raise ValueError("trace must end with a summary line")
    head = rows[0]
    trace = GameTrace(scenario_name=head["scenario"],
                      generator_kind=head["generator"],
                      alpha=parse_fraction(head["alpha"]),
                      horizon=head["horizon"])
    for row in rows[1:-1]:
        if row.get("kind") != "step":
            raise ValueError(f"unexpected line kind {row.get('kind')!r}")
        mu = RationalDist({int(x): parse_fraction(m) for x, m in row["mu"]})
        distance = parse_fraction(row["distance"])
        trace.steps.append(StepRecord(
            t=row["t"], x=row["x"], distinct=row["distinct"], mu=mu,
            gap=(distance.numerator, distance.denominator),
            representative=row["representative"],
            consistent=row["consistent"],
            closure_bot=row["closure"] == "bot",
            selected=row["selected"]))
    summary = dict(rows[-1])
    summary.pop("kind")
    trace.summary = summary
    return trace
