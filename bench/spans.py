"""Per-layer tracing from outside the program.

`Tracer.install` rebinds public functions and methods of the `repgen`
modules to wrappers that record a span per call: name, start, end, parent
span and stream id.  Every module-level name bound to a wrapped function is
rebound, so calls through `from .x import f` copies are seen too.  The
program itself carries no instrumentation, and nothing is rebound unless a
traced run asks for it.  `uninstall` puts the originals back.

`PeriodicSet.__contains__` is not wrapped: uniform set-up alone calls it
several hundred thousand times.  `FiniteGroups.groups_containing` runs once
per history element inside every group-weight computation, so it is counted
but records no span.

Spans are kept in memory in one flat integer array and written out when the
run ends.  Stream 0 is the traced set-up; later streams are the games of the
traced rounds.  A per-layer figure is its set-up part plus its average per
round, so figures compare across commits however many rounds a run fits.
"""

from __future__ import annotations

import json
import sys
import weakref
from array import array
from collections import Counter
from pathlib import Path

from repgen import (adversaries, dimension, generators, groups, harness,
                    measures, scenario, simplex)
from repgen.generators import GeneratorSession
from repgen.groups import BlockPartition, FiniteGroups
from repgen.hypotheses import HypothesisClass
from repgen.periodic import PeriodicSet

FIELDS = ("name", "start_ns", "end_ns", "parent", "stream")
WIDTH = len(FIELDS)

# (span name, owner, attribute): module-level functions and class methods.
TARGETS = (
    ("scenario.load", scenario, "load_scenario"),
    ("scenario.build_session", scenario, "build_session"),
    ("dimension.gc_dimension", dimension, "gc_dimension"),
    ("dimension.check_witness", dimension, "check_witness"),
    ("periodic.algebra", PeriodicSet, "__and__"),
    ("periodic.algebra", PeriodicSet, "__or__"),
    ("periodic.algebra", PeriodicSet, "__sub__"),
    ("periodic.algebra", PeriodicSet, "complement"),
    ("periodic.nth_unseen", PeriodicSet, "nth_unseen"),
    ("hypotheses.consistent_indices", HypothesisClass, "consistent_indices"),
    ("hypotheses.is_critical", HypothesisClass, "is_critical"),
    ("hypotheses.closure", HypothesisClass, "closure"),
    ("hypotheses.closure_of_indices", HypothesisClass, "closure_of_indices"),
    ("groups.group_index", BlockPartition, "group_index"),
    ("groups.finite_support_size", groups, "finite_support_size"),
    ("measures.group_empirical", measures, "group_empirical"),
    ("measures.verify", measures, "is_alpha_representative"),
    ("simplex.lp", simplex, "feasible_point"),
    ("generators.step", GeneratorSession, "step"),
    ("generators.is_feasible", generators, "is_feasible"),
    ("adversaries.geometric", adversaries, "geometric_adversary"),
    ("adversaries.query", adversaries, "query_adversary"),
    ("adversaries.verify_report", adversaries, "verify_report"),
    ("harness.run_game", harness, "run_game"),
)
COUNTED = (("groups.groups_containing", FiniteGroups, "groups_containing"),)
# Spans that time the same work as their caller's: `closure` computes its
# result through `closure_of_indices`.
FAMILY = {"hypotheses.closure_of_indices": "hypotheses.closure"}

# Per-layer metrics: name -> unit.  Each group names the end-to-end metric
# and workload it should move; elsewhere the prediction is no change.
PER_LAYER = {
    # setup_s on all three workloads
    "scenario.load_s": "s",
    "scenario.build_session_s": "s",
    # setup_s on uniform-fuzz; zero on the other two
    "dimension.gc_dimension_s": "s",
    "dimension.check_witness_calls": "count",
    "dimension.witness_hit_ratio": "ratio",      # witnesses / tuples tried
    # algebra (&, |, -, complement): setup_s on uniform-fuzz;
    # nth_unseen: step_ms_p50 on inlimit-long and adversary-blocks
    "periodic.algebra_calls": "count",
    "periodic.algebra_s": "s",
    "periodic.nth_unseen_calls": "count",
    "periodic.nth_unseen_s": "s",
    # late_step_ms on inlimit-long
    "hypotheses.consistent_indices_calls": "count",
    "hypotheses.consistent_indices_s": "s",
    "hypotheses.is_critical_calls": "count",
    "hypotheses.closure_s": "s",
    "hypotheses.closure_key_reuse_ratio": "ratio",  # repeated keys / calls
    # groups_containing: inlimit-long; group_index: steps_per_s on
    # adversary-blocks; finite_support_size: setup_s on inlimit-long
    "groups.groups_containing_calls": "count",
    "groups.group_index_calls": "count",
    "groups.group_index_s": "s",
    "groups.finite_support_size_s": "s",
    # late_step_ms and steps_per_s on inlimit-long; near zero on uniform-fuzz
    "measures.group_empirical_calls": "count",
    "measures.group_empirical_s": "s",
    "measures.prefix_elems_per_call": "elems",  # mean history length passed
    "measures.verify_s": "s",                   # is_alpha_representative
    # step_ms_p50 on inlimit-long; zero elsewhere
    "simplex.lp_calls": "count",
    "simplex.lp_s": "s",
    "simplex.lp_rows_mean": "rows",
    "simplex.lp_feasible_ratio": "ratio",
    # steps_per_s on inlimit-long and adversary-blocks
    "generators.step_self_s": "s",
    "generators.is_feasible_calls": "count",
    "generators.is_feasible_s": "s",
    "generators.feasible_ratio": "ratio",       # witnesses / calls
    "generators.fallback_ratio": "ratio",       # in-limit steps with no pick
    # steps_per_s on adversary-blocks
    "adversaries.geometric_s": "s",
    "adversaries.query_s": "s",
    "adversaries.verify_report_s": "s",
    # steps_per_s on inlimit-long
    "harness.run_game_self_s": "s",             # run_game minus its children
}


class Tracer:
    def __init__(self, clock):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self.stream = 0
        # Extra counts, one Counter per phase: set-up (stream 0) and rounds.
        self.setup_counts: Counter = Counter()
        self.round_counts: Counter = Counter()
        self.counts = self.setup_counts
        self._closure_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._saved: list[tuple[object, str, object]] = []

    # -- streams and phases ------------------------------------------------

    def next_stream(self) -> None:
        self.stream += 1
        self.counts = self.round_counts

    # -- wrapping --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _observer(self, name: str):
        """Extra counts taken at a layer boundary: (args, result) -> None."""
        tracer = self
        if name == "dimension.check_witness":
            def observe(args, result):
                tracer.counts["witness_hits"] += result is not None
        elif name == "hypotheses.closure_of_indices":
            def observe(args, result):
                keys = tracer._closure_keys.setdefault(args[0], set())
                key = tuple(args[1])
                tracer.counts["closure_key_reuse"] += key in keys
                keys.add(key)
        elif name == "measures.group_empirical":
            def observe(args, result):
                tracer.counts["prefix_elems"] += len(args[0])
        elif name == "simplex.lp":
            def observe(args, result):
                tracer.counts["lp_rows"] += len(args[1])
                tracer.counts["lp_feasible"] += result is not None
        elif name == "generators.is_feasible":
            def observe(args, result):
                tracer.counts["feasible_witnesses"] += result is not None
        elif name == "generators.step":
            def observe(args, result):
                session = args[0]
                if session.kind == "inlimit":
                    tracer.counts["inlimit_steps"] += 1
                    tracer.counts["fallbacks"] += session.last_selected is None
        else:
            observe = None
        return observe

    def _span_wrapper(self, name: str, fn):
        name_id = self._name_id(name)
        observe = self._observer(name)
        spans = self.spans
        stack = self._stack
        tracer = self
        clock = self._clock

        def traced(*args, **kwargs):
            idx = len(spans) // WIDTH
            spans.extend((name_id, 0, 0, stack[-1] if stack else -1,
                          tracer.stream))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx * WIDTH + 1] = start
                spans[idx * WIDTH + 2] = end
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, owner, attr: str, wrapper_for) -> None:
        fn = owner.__dict__[attr]
        wrapped = wrapper_for(fn)
        if isinstance(owner, type):
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            return
        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == "repgen"
                                   or mod.__name__.startswith("repgen.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, key, fn))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            self._rebind(owner, attr,
                         lambda fn, name=name: self._span_wrapper(name, fn))
        for name, owner, attr in COUNTED:
            self._rebind(owner, attr,
                         lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> tuple[dict, dict]:
        """Per phase ("setup", "rounds"): name -> [calls, inclusive ns,
        self ns, outermost ns].  Outermost time leaves out spans whose parent
        is in the same family (see FAMILY), so a closure reached through
        `closure` is not counted twice."""
        spans = self.spans
        n = len(spans) // WIDTH
        child_ns = [0] * n
        for i in range(n):
            parent = spans[i * WIDTH + 3]
            if parent >= 0:
                child_ns[parent] += spans[i * WIDTH + 2] - spans[i * WIDTH + 1]
        family = [FAMILY.get(name, name) for name in self.names]
        totals: dict[str, dict[str, list[int]]] = {"setup": {}, "rounds": {}}
        for i in range(n):
            base = i * WIDTH
            name_id, start, end, parent, stream = spans[base:base + WIDTH]
            phase = totals["setup" if stream == 0 else "rounds"]
            row = phase.setdefault(self.names[name_id], [0, 0, 0, 0])
            dur = end - start
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_ns[i]
            if parent < 0 or family[spans[parent * WIDTH]] != family[name_id]:
                row[3] += dur
        return totals["setup"], totals["rounds"]

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric: its set-up part plus its mean per round."""
        setup, per_round = self.layer_totals()
        scale = 1.0 / rounds

        def total(name: str, col: int) -> float:
            return (setup.get(name, [0] * 4)[col]
                    + per_round.get(name, [0] * 4)[col] * scale)

        def count(key: str) -> float:
            return self.setup_counts[key] + self.round_counts[key] * scale

        def calls(name: str) -> float:
            return total(name, 0)

        def secs(name: str, col: int = 1) -> float:
            return total(name, col) / 1e9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        closure_calls = calls("hypotheses.closure_of_indices")
        m = {
            "scenario.load_s": secs("scenario.load"),
            "scenario.build_session_s": secs("scenario.build_session"),
            "dimension.gc_dimension_s": secs("dimension.gc_dimension"),
            "dimension.check_witness_calls": calls("dimension.check_witness"),
            "dimension.witness_hit_ratio": ratio(
                count("witness_hits"), calls("dimension.check_witness")),
            "periodic.algebra_calls": calls("periodic.algebra"),
            "periodic.algebra_s": secs("periodic.algebra", 3),
            "periodic.nth_unseen_calls": calls("periodic.nth_unseen"),
            "periodic.nth_unseen_s": secs("periodic.nth_unseen"),
            "hypotheses.consistent_indices_calls":
                calls("hypotheses.consistent_indices"),
            "hypotheses.consistent_indices_s":
                secs("hypotheses.consistent_indices"),
            "hypotheses.is_critical_calls": calls("hypotheses.is_critical"),
            "hypotheses.closure_s": secs("hypotheses.closure", 3)
                + secs("hypotheses.closure_of_indices", 3),
            "hypotheses.closure_key_reuse_ratio": ratio(
                count("closure_key_reuse"), closure_calls),
            "groups.groups_containing_calls":
                count("groups.groups_containing"),
            "groups.group_index_calls": calls("groups.group_index"),
            "groups.group_index_s": secs("groups.group_index"),
            "groups.finite_support_size_s": secs("groups.finite_support_size"),
            "measures.group_empirical_calls": calls("measures.group_empirical"),
            "measures.group_empirical_s": secs("measures.group_empirical"),
            "measures.prefix_elems_per_call": ratio(
                count("prefix_elems"), calls("measures.group_empirical")),
            "measures.verify_s": secs("measures.verify"),
            "simplex.lp_calls": calls("simplex.lp"),
            "simplex.lp_s": secs("simplex.lp"),
            "simplex.lp_rows_mean": ratio(count("lp_rows"), calls("simplex.lp")),
            "simplex.lp_feasible_ratio": ratio(
                count("lp_feasible"), calls("simplex.lp")),
            "generators.step_self_s": secs("generators.step", 2),
            "generators.is_feasible_calls": calls("generators.is_feasible"),
            "generators.is_feasible_s": secs("generators.is_feasible"),
            "generators.feasible_ratio": ratio(
                count("feasible_witnesses"), calls("generators.is_feasible")),
            "generators.fallback_ratio": ratio(
                count("fallbacks"), count("inlimit_steps")),
            "adversaries.geometric_s": secs("adversaries.geometric"),
            "adversaries.query_s": secs("adversaries.query"),
            "adversaries.verify_report_s": secs("adversaries.verify_report"),
            "harness.run_game_self_s": secs("harness.run_game", 2),
        }
        return m

    def write(self, path: Path) -> None:
        """Write the spans as a little-endian int64 array (`.bin`) with a
        JSON description beside it (`.json`)."""
        spans = array("q", self.spans)
        if sys.byteorder != "little":
            spans.byteswap()
        with open(path.with_suffix(".bin"), "wb") as fp:
            spans.tofile(fp)
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fp:
            json.dump({"fields": FIELDS, "names": self.names,
                       "spans": len(self.spans) // WIDTH,
                       "counts": {"setup": dict(self.setup_counts),
                                  "rounds": dict(self.round_counts)},
                       "stream_0": "traced set-up"}, fp, indent=1)
