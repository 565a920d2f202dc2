"""The three benchmark workloads.

A workload has a set-up (`setup`), which reads its instances and builds ready
sessions, and a round (`play_round`): a fixed set of verified games (streams)
whose inputs depend only on the seed.  The runner times the set-up several
times, then plays the round again and again until its time is up.

Every step is timed from outside: a `StepClock` stands between the caller
(`run_game`, an adversary, or this file) and the generator session and
stamps the work clock of probe.py when `step`/`emit` is called.  A step's
latency is the time from its call to the next call on the same stream, or
to the end of the stream's checks for the last step, so it includes the
harness's or the adversary's checks on that step.  The host probe runs
between steps, outside every interval.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from repgen import adversaries, generators, harness, measures, scenario
from repgen.groups import BlockPartition, FiniteGroups
from repgen.hypotheses import Hypothesis, HypothesisClass
from repgen.periodic import ALL, from_finite

# The bundled instances are named explicitly, so that a scenario added to
# tests/scenarios later does not change what a workload measures.
INLIMIT_SCENARIOS = (
    "i01-nested3-overlap", "i02-evens-overlap-quarter", "i03-nested4-mult8",
    "i04-triple-overlap", "i05-parity-cross", "i06-nested3-window")
UNIFORM_SCENARIOS = (
    "u01-zero-rest-half", "u02-zero-rest-quarter", "u03-zero-rest-twothirds",
    "u04-evens-parity-quarter", "u05-singletons-twothirds",
    "u06-pairs-twothirds", "u07-pairs-half", "u08-four-singletons-half",
    "u09-nested-pair-half", "u10-parity-pair-half",
    "u11-parity-pair-quarter", "u12-parity-groups-quarter")

# In-limit streams: long enough that the last tenth of a stream costs several
# times its first tenth, because every step rescans the whole history.
INLIMIT_HORIZON = 300
INLIMIT_REPEAT = Fraction(1, 4)   # chance that a step repeats a seen element

# Uniform fuzz: the shape of acceptance criterion 1 (short streams drawn with
# replacement from the first elements of the target support).
FUZZ_STREAMS = 20                 # per scenario and round
FUZZ_LEN = 12
FUZZ_WINDOW = 30

# Adversary games: (alpha, depth) for the geometric adversary, played
# against each baseline kind, plus the query adversary.
GEOMETRIC_GAMES = ((Fraction(1, 2), 8), (Fraction(2, 3), 5))
GEOMETRIC_BASELINES = ("empirical", "inlimit")
QUERY_STEPS = 600
# Query reports carry no alpha: the adversary keeps every distance at 1/2 or
# more, which beats any alpha below 1/2.  Reports are verified at this one.
QUERY_ALPHA = Fraction(1, 3)


def _feed(h, obj) -> None:
    h.update(json.dumps(obj, separators=(",", ":")).encode())
    h.update(b"\n")


class RoundLog:
    """What one round did: per stream, when its timed part started and
    finished and its step latencies; check counts; digests of the inputs
    and outputs."""

    def __init__(self, probe, on_stream=None):
        self.probe = probe
        self.now = probe.now
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.streams: dict[str, tuple[int, list[int], int, int]] = {}
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()
        self._on_stream = on_stream

    def begin_stream(self) -> None:
        self.probe.maybe()
        if self._on_stream is not None:
            self._on_stream()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def crash(self, what: str) -> None:
        """An exception is one attempted operation that failed."""
        self.attempted += 1
        self.fail(f"{what}: {traceback.format_exc(limit=3)}")
        print(f"benchmark: exception in {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def stream(self, key: str, clk: "StepClock", start: int, last_end: int,
               finish: int) -> None:
        """Record one stream, timed from `start` to `finish` with its last
        step ending at `last_end`, and its inputs and outputs."""
        self.streams[key] = (start, clk.stamps, last_end, finish)
        _feed(self.inputs, clk.inputs)
        for mu in clk.outputs:
            _feed(self.outputs, mu.serialize())


class StepClock:
    """A session or query generator seen through a clock: stamps every
    `step`/`emit` call and keeps its inputs and emitted distributions."""

    def __init__(self, inner, probe):
        self.inner = inner
        self.probe = probe
        self.stamps: list[int] = []
        self.inputs: list = []
        self.outputs: list = []

    def step(self, x):
        self.probe.maybe()
        self.stamps.append(self.probe.now())
        self.inputs.append(x)
        mu = self.inner.step(x)
        self.outputs.append(mu)
        return mu

    def emit(self, prefix, oracle):
        self.probe.maybe()
        self.stamps.append(self.probe.now())
        self.inputs.append(prefix[-1])
        mu = self.inner.emit(prefix, oracle)
        self.outputs.append(mu)
        return mu

    @property
    def last_selected(self):
        return self.inner.last_selected


def _scenario_paths(root: Path, names) -> list[str]:
    return [str(root / "tests" / "scenarios" / f"{n}.json") for n in names]


class InLimitLong:
    """The six in-limit scenarios, each played by `run_game` on a seeded
    increasing enumeration of the target support with seeded repeats."""

    name = "inlimit-long"
    setup_batch = 1
    setup_repeats = 25

    def __init__(self, root: Path, seed: int, probe):
        self.paths = _scenario_paths(root, INLIMIT_SCENARIOS)
        self.seed = seed
        self.probe = probe
        self.scenarios: list = []

    def setup(self) -> None:
        loaded = []
        for path in self.paths:
            self.probe.maybe()
            s = scenario.load_scenario(path)
            scenario.build_session(s)
            loaded.append(s)
        self.scenarios = loaded

    def _stream(self, s) -> tuple[int, ...]:
        rng = random.Random(f"{self.name}:{self.seed}:{s.name}")
        fresh = s.target.support.members()
        xs: list[int] = []
        for _ in range(INLIMIT_HORIZON):
            if xs and rng.random() < INLIMIT_REPEAT:
                xs.append(rng.choice(xs))
            else:
                xs.append(next(fresh))
        return tuple(xs)

    def play_round(self, log: RoundLog) -> None:
        games = [dataclasses.replace(
                     s, stream=scenario.StreamSpec("explicit", elements=xs),
                     horizon=len(xs))
                 for s in self.scenarios for xs in [self._stream(s)]]
        for game in games:
            log.begin_stream()
            clocks: list[StepClock] = []
            build = harness.build_session

            def clocked_session(sc, build=build, clocks=clocks):
                clocks.append(StepClock(build(sc), log.probe))
                return clocks[-1]

            harness.build_session = clocked_session
            try:
                start = log.now()
                trace = harness.run_game(game)
                end = log.now()
            except Exception:
                log.crash(game.name)
                continue
            finally:
                harness.build_session = build
            log.stream(game.name, clocks[0], start, end, end)
            for rec in trace.steps:
                log.check(rec.representative,
                          f"{game.name} step {rec.t} not alpha-representative")
            log.check(len(trace.steps) == game.horizon,
                      f"{game.name} played {len(trace.steps)} steps")


class UniformFuzz:
    """The twelve uniform scenarios: d_star from `build_session`, then many
    short seeded streams through fresh sessions, every step checked."""

    name = "uniform-fuzz"
    setup_batch = 1
    setup_repeats = 5

    def __init__(self, root: Path, seed: int, probe):
        self.paths = _scenario_paths(root, UNIFORM_SCENARIOS)
        self.seed = seed
        self.probe = probe
        self.instances: list = []

    def setup(self) -> None:
        ready = []
        for path in self.paths:
            self.probe.maybe()
            s = scenario.load_scenario(path)
            d_star = scenario.build_session(s).d_star
            window = list(itertools.islice(s.target.support.members(),
                                           FUZZ_WINDOW))
            ready.append((s, d_star, window))
        self.instances = ready

    def play_round(self, log: RoundLog) -> None:
        plan = []
        for s, d_star, window in self.instances:
            rng = random.Random(f"{self.name}:{self.seed}:{s.name}")
            for k in range(FUZZ_STREAMS):
                plan.append((f"{s.name}#{k}", s, d_star,
                             [rng.choice(window) for _ in range(FUZZ_LEN)]))
        for key, s, d_star, xs in plan:
            log.begin_stream()
            try:
                start = log.now()
                clk = StepClock(generators.GeneratorSession(
                    s.kind, s.cls, s.groups, s.alpha, d_star=d_star), log.probe)
                history: list[int] = []
                seen: set[int] = set()
                verdicts = []
                for x in xs:
                    mu = clk.step(x)
                    history.append(x)
                    seen.add(x)
                    ok, _ = measures.is_alpha_representative(
                        mu, history, s.groups, s.alpha)
                    consistent = len(seen) < d_star or all(
                        y in s.target.support and y not in seen
                        for y in mu.support())
                    verdicts.append((ok, consistent))
                end = log.now()
            except Exception:
                log.crash(key)
                continue
            log.stream(key, clk, start, end, end)
            for t, (ok, consistent) in enumerate(verdicts, 1):
                log.check(ok, f"{key} {xs} step {t} not alpha-representative")
                log.check(consistent, f"{key} {xs} step {t} inconsistent "
                                      f"after d_star={d_star} distinct elements")


def _geometric_instance(alpha: Fraction):
    """The instance `geometric_adversary` builds: one hypothesis (all
    naturals) against geometric blocks of base 1/(1 - alpha)."""
    base = int(1 / (1 - alpha))
    cls = HypothesisClass([Hypothesis("everything", ALL)])
    return cls, BlockPartition(base=base, prefix_sizes=(base,))


class AdversaryBlocks:
    """The geometric adversary against the empirical and in-limit baselines
    at two alphas, and the query adversary against QueryThenEmit.

    The adversaries generate their streams themselves, so the seed only
    fixes the order in which the five games are played."""

    name = "adversary-blocks"
    # Building the five generators takes microseconds, so each set-up sample
    # times a batch and reports the time per set-up.
    setup_batch = 200
    setup_repeats = 15

    def __init__(self, root: Path, seed: int, probe):
        self.games = [("geometric", kind, alpha, depth)
                      for alpha, depth in GEOMETRIC_GAMES
                      for kind in GEOMETRIC_BASELINES]
        self.games.append(("query", "query-then-emit", QUERY_ALPHA, QUERY_STEPS))
        random.Random(f"{self.name}:{seed}").shuffle(self.games)

    def setup(self) -> None:
        ready = []
        for family, kind, alpha, _ in self.games:
            if family == "geometric":
                cls, groups = _geometric_instance(alpha)
                ready.append(generators.GeneratorSession(kind, cls, groups, alpha))
            else:
                ready.append(adversaries.QueryThenEmit())
        self.ready = ready

    def play_round(self, log: RoundLog) -> None:
        for family, kind, alpha, size in self.games:
            label = f"{family}/{kind}/alpha={alpha}"
            log.begin_stream()
            try:
                if family == "geometric":
                    self._geometric(kind, alpha, size, label, log)
                else:
                    self._query(size, label, log)
            except Exception:
                log.crash(label)

    def _geometric(self, kind, alpha, depth, label, log) -> None:
        clocks: list[StepClock] = []

        def make_session(cls, groups, a):
            clocks.append(StepClock(
                generators.GeneratorSession(kind, cls, groups, a), log.probe))
            return clocks[-1]

        start = log.now()
        reports = adversaries.geometric_adversary(make_session, alpha, depth)
        end = log.now()
        _, groups = _geometric_instance(alpha)
        verdicts = []
        for rep in reports:
            log.probe.maybe()
            verdicts.append(adversaries.verify_report(rep, groups=groups,
                                                      support=ALL))
        log.stream(label, clocks[0], start, end, log.now())
        for rep, ok in zip(reports, verdicts):
            log.check(ok, f"{label} report at step {rep.step} fails verify_report")
        log.check(len(reports) >= depth,
                  f"{label} produced {len(reports)} reports for depth {depth}")

    def _query(self, steps, label, log) -> None:
        clk = StepClock(adversaries.QueryThenEmit(), log.probe)
        start = log.now()
        reports, st = adversaries.query_adversary(clk, steps)
        end = log.now()
        group_one = from_finite(x for x, g in st.grp.items() if g == 1)
        groups = FiniteGroups([group_one, ALL - group_one])
        support = ALL - from_finite(x for x, h in st.hyp.items() if h == 0)
        verdicts = []
        for rep in reports:
            log.probe.maybe()
            if rep.alpha is None:
                rep = dataclasses.replace(rep, alpha=QUERY_ALPHA)
            verdicts.append(adversaries.verify_report(rep, groups=groups,
                                                      support=support))
        log.stream(label, clk, start, end, log.now())
        for rep, ok in zip(reports, verdicts):
            log.check(ok, f"{label} report at step {rep.step} fails verify_report")
        log.check(len(reports) == steps,
                  f"{label} produced {len(reports)} reports for {steps} steps")


WORKLOADS = {w.name: w for w in (InLimitLong, UniformFuzz, AdversaryBlocks)}
