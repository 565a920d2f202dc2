"""Declarative scenario documents.

A scenario is a JSON object naming the hypotheses, the group collection, the
generator configuration, the intended target, the example stream and the
step horizon, plus optional per-run assertions.  Parsing is strict: every
object section rejects keys it does not know, every complaint carries the
dotted path of the offending field, and probabilities only enter as exact
rational strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any

from .adversaries import MAX_STEPS
from .errors import ScenarioError
from .generators import KINDS, GeneratorSession
from .groups import BlockPartition, FiniteGroups, GroupCollection
from .hypotheses import Hypothesis, HypothesisClass
from .measures import parse_fraction
from .periodic import MAX_PARSED, PeriodicSet, parse_set

STREAM_KINDS = ("explicit", "enumerate_support")
ASSERT_KEYS = ("all_representative", "representative_from", "consistent_from")


@dataclass
class StreamSpec:
    kind: str
    elements: tuple[int, ...] = ()
    hypothesis_id: str | None = None


@dataclass
class Scenario:
    name: str
    hypotheses: list[Hypothesis]
    cls: HypothesisClass
    groups: GroupCollection
    kind: str
    alpha: Fraction
    d_star: int | None
    target_id: str
    target: Hypothesis
    stream: StreamSpec
    horizon: int
    asserts: dict = field(default_factory=dict)


def _need(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise ScenarioError(where, f"missing required key {key!r}")
    return doc[key]


def _object(value: Any, where: str, keys: tuple[str, ...]) -> dict:
    """`value` as a JSON object whose keys all lie in `keys`; an unknown key
    is reported at `<where>.<key>`."""
    if not isinstance(value, dict):
        raise ScenarioError(where, "expected an object")
    for key in value:
        if key not in keys:
            raise ScenarioError(f"{where}.{key}",
                                f"unknown key, expected one of {keys}")
    return value


def _as_int(value: Any, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(where, f"expected an integer >= {minimum}, got {value}")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(where, f"expected a string, got {value!r}")
    return value


def _as_fraction(value: Any, where: str) -> Fraction:
    if not isinstance(value, str):
        raise ScenarioError(
            where, f"expected a rational string 'p/q', got {value!r} "
                   "(floating point is not accepted)")
    try:
        return parse_fraction(value)
    except ValueError as e:
        raise ScenarioError(where, str(e))


def _parse_support(value: Any, where: str) -> PeriodicSet:
    text = _as_str(value, where)
    try:
        return parse_set(text)
    except ValueError as e:
        raise ScenarioError(where, str(e))


def _joint_period(period: int, s: PeriodicSet, where: str) -> int:
    """The lcm of `period` and s's modulus: every set operation between the
    scenario's sets is periodic modulo it, so a set that takes it above
    MAX_PARSED is refused at its own path."""
    period = lcm(period, s.modulus)
    if period > MAX_PARSED:
        raise ScenarioError(where, f"the lcm of the scenario's moduli must be "
                                   f"<= {MAX_PARSED}, got {period}")
    return period


def parse_scenario(doc: Any, where: str = "scenario") -> Scenario:
    doc = _object(doc, where, ("name", "hypotheses", "class", "groups",
                               "generator", "target", "stream", "horizon",
                               "asserts"))
    name = _as_str(doc.get("name", "unnamed"), f"{where}.name")

    raw_hyps = _need(doc, "hypotheses", where)
    if not isinstance(raw_hyps, list) or not raw_hyps:
        raise ScenarioError(f"{where}.hypotheses", "expected a non-empty list")
    hypotheses: list[Hypothesis] = []
    by_id: dict[str, Hypothesis] = {}
    period = 1  # the lcm of the moduli parsed so far
    for j, item in enumerate(raw_hyps):
        hw = f"{where}.hypotheses[{j}]"
        item = _object(item, hw, ("id", "support"))
        hid = _as_str(_need(item, "id", hw), f"{hw}.id")
        if hid in by_id:
            raise ScenarioError(f"{hw}.id", f"duplicate hypothesis id {hid!r}")
        supp = _parse_support(_need(item, "support", hw), f"{hw}.support")
        period = _joint_period(period, supp, f"{hw}.support")
        try:
            h = Hypothesis(hid, supp)
        except ValueError as e:
            raise ScenarioError(f"{hw}.support", str(e))
        hypotheses.append(h)
        by_id[hid] = h

    order = doc.get("class", [h.id for h in hypotheses])
    if not isinstance(order, list) or not order:
        raise ScenarioError(f"{where}.class", "expected a non-empty list of ids")
    members: list[Hypothesis] = []
    used = set()
    for j, hid in enumerate(order):
        cw = f"{where}.class[{j}]"
        hid = _as_str(hid, cw)
        if hid not in by_id:
            raise ScenarioError(cw, f"unknown hypothesis id {hid!r}")
        if hid in used:
            raise ScenarioError(cw, f"hypothesis id {hid!r} listed twice")
        used.add(hid)
        members.append(by_id[hid])
    cls = HypothesisClass(members)

    groups = _parse_groups(_need(doc, "groups", where), f"{where}.groups",
                           period)

    gen = _object(_need(doc, "generator", where), f"{where}.generator",
                  ("kind", "alpha", "d_star"))
    kind = _as_str(_need(gen, "kind", f"{where}.generator"),
                   f"{where}.generator.kind")
    if kind not in KINDS:
        raise ScenarioError(f"{where}.generator.kind",
                            f"unknown kind {kind!r}, expected one of {KINDS}")
    alpha = _as_fraction(_need(gen, "alpha", f"{where}.generator"),
                         f"{where}.generator.alpha")
    if not 0 <= alpha <= 1:
        raise ScenarioError(f"{where}.generator.alpha",
                            f"alpha must be in [0, 1], got {alpha}")
    d_star = gen.get("d_star")
    if d_star is not None:
        if kind != "uniform":
            raise ScenarioError(f"{where}.generator.d_star",
                                "only the uniform generator takes d_star, "
                                f"not {kind!r}")
        d_star = _as_int(d_star, f"{where}.generator.d_star", minimum=1)

    target_id = _as_str(_need(doc, "target", where), f"{where}.target")
    if target_id not in used:
        raise ScenarioError(f"{where}.target",
                            f"target {target_id!r} is not in the class")
    target = by_id[target_id]

    stream = _parse_stream(_need(doc, "stream", where), f"{where}.stream",
                           by_id, target_id)
    horizon = _as_int(_need(doc, "horizon", where), f"{where}.horizon",
                      minimum=1)
    if horizon > MAX_STEPS:
        # materialize_stream builds every element before the first step
        raise ScenarioError(f"{where}.horizon",
                            f"expected an integer <= {MAX_STEPS}, got {horizon}")

    asserts = _object(doc.get("asserts", {}), f"{where}.asserts", ASSERT_KEYS)
    for key, val in asserts.items():
        aw = f"{where}.asserts.{key}"
        if key == "all_representative":
            if not isinstance(val, bool):
                raise ScenarioError(aw, f"expected a boolean, got {val!r}")
        else:
            _as_int(val, aw, minimum=1)

    return Scenario(name=name, hypotheses=hypotheses, cls=cls, groups=groups,
                    kind=kind, alpha=alpha, d_star=d_star,
                    target_id=target_id, target=target, stream=stream,
                    horizon=horizon, asserts=dict(asserts))


def _parse_groups(raw: Any, where: str, period: int) -> GroupCollection:
    raw = _object(raw, where, ("members", "covers", "partition", "blocks"))
    if ("members" in raw) == ("blocks" in raw):
        raise ScenarioError(where, "expected exactly one of 'members' or 'blocks'")
    if "members" in raw:
        items = raw["members"]
        if not isinstance(items, list) or not items:
            raise ScenarioError(f"{where}.members", "expected a non-empty list")
        sets = []
        for j, text in enumerate(items):
            mw = f"{where}.members[{j}]"
            sets.append(_parse_support(text, mw))
            period = _joint_period(period, sets[-1], mw)
        try:
            groups: GroupCollection = FiniteGroups(sets)
        except ValueError as e:
            raise ScenarioError(f"{where}.members", str(e))
        report = groups.validate()
        for claim in ("covers", "partition"):
            if claim in raw:
                declared = raw[claim]
                if not isinstance(declared, bool):
                    raise ScenarioError(f"{where}.{claim}", "expected a boolean")
                actual = getattr(report, claim)
                if declared != actual:
                    raise ScenarioError(
                        f"{where}.{claim}",
                        f"declared {declared} but the collection is "
                        f"{'a' if actual else 'not a'} "
                        f"{'cover' if claim == 'covers' else 'partition'}")
        return groups
    _object(raw, where, ("blocks",))  # covers/partition are claims on members
    bw = f"{where}.blocks"
    blocks = _object(raw["blocks"], bw, ("base", "prefix_sizes"))
    base = _as_int(_need(blocks, "base", bw), f"{bw}.base", minimum=2)
    prefix = blocks.get("prefix_sizes", [])
    if not isinstance(prefix, list):
        raise ScenarioError(f"{bw}.prefix_sizes", "expected a list of sizes")
    sizes = tuple(_as_int(s, f"{bw}.prefix_sizes[{j}]", minimum=1)
                  for j, s in enumerate(prefix))
    try:
        return BlockPartition(base=base, prefix_sizes=sizes)
    except ValueError as e:
        raise ScenarioError(bw, str(e))


def _parse_stream(raw: Any, where: str, by_id: dict[str, Hypothesis],
                  target_id: str) -> StreamSpec:
    raw = _object(raw, where, STREAM_KINDS)
    present = [k for k in STREAM_KINDS if k in raw]
    if len(present) != 1:
        raise ScenarioError(where,
                            f"expected exactly one of {STREAM_KINDS}, got {present}")
    kind = present[0]
    if kind == "explicit":
        items = raw[kind]
        if not isinstance(items, list) or not items:
            raise ScenarioError(f"{where}.explicit", "expected a non-empty list")
        elems = tuple(_as_int(v, f"{where}.explicit[{j}]", minimum=0)
                      for j, v in enumerate(items))
        return StreamSpec(kind="explicit", elements=elems)
    sw = f"{where}.enumerate_support"
    spec = _object(raw[kind], sw, ("hypothesis", "order"))
    hid = spec.get("hypothesis", target_id)
    hid = _as_str(hid, f"{sw}.hypothesis")
    if hid not in by_id:
        raise ScenarioError(f"{sw}.hypothesis", f"unknown hypothesis id {hid!r}")
    order = spec.get("order", "increasing")
    if order != "increasing":
        raise ScenarioError(f"{sw}.order",
                            f"only 'increasing' is supported, got {order!r}")
    return StreamSpec(kind="enumerate_support", hypothesis_id=hid)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except OSError as e:
        raise ScenarioError(path, f"cannot read: {e}")
    except json.JSONDecodeError as e:
        raise ScenarioError(path, f"invalid JSON: {e}")
    return parse_scenario(doc, where="scenario")


def materialize_stream(scenario: Scenario) -> list[int]:
    """The first `horizon` stream elements, each checked against the target's
    support (a stream that leaves the declared target is a bad scenario, not
    a generator failure)."""
    spec = scenario.stream
    if spec.kind == "explicit":
        if len(spec.elements) < scenario.horizon:
            raise ScenarioError(
                "scenario.stream.explicit",
                f"horizon is {scenario.horizon} but only "
                f"{len(spec.elements)} elements are listed")
        xs = list(spec.elements[:scenario.horizon])
    else:
        src = next(h for h in scenario.hypotheses if h.id == spec.hypothesis_id)
        gen = src.support.members()
        xs = [next(gen) for _ in range(scenario.horizon)]
    for j, x in enumerate(xs):
        if x not in scenario.target.support:
            raise ScenarioError(
                f"scenario.stream[{j}]",
                f"element {x} is outside the support of target "
                f"{scenario.target_id!r}")
    return xs


def build_session(scenario: Scenario) -> GeneratorSession:
    return GeneratorSession(scenario.kind, scenario.cls, scenario.groups,
                            scenario.alpha, d_star=scenario.d_star)
