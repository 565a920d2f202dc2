"""Scenario parsing, game harness, trace serialization, assertions, and the
command line entry points."""

import copy
import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repgen import generators, harness
from repgen.adversaries import MAX_QUERY_BUDGET, MAX_STEPS
from repgen.cli import main
from repgen.dimension import MAX_CHOICES, MAX_D
from repgen.errors import InvariantViolation, ScenarioError
from repgen.harness import (StepRecord, evaluate_asserts, parse_trace,
                            run_game, trace_lines)
from repgen.hypotheses import Hypothesis
from repgen.measures import (GroupTally, RationalDist, empirical,
                             format_fraction, is_alpha_representative)
from repgen.periodic import ALL
from repgen.scenario import (StreamSpec, load_scenario, materialize_stream,
                             parse_scenario)
from oracles import induced_group_probs, sup_distance
from test_dimension import refusal_bound
from test_generators import _count_lp_calls

F = Fraction


def _doc(**overrides):
    doc = {
        "name": "split-demo",
        "hypotheses": [{"id": "everything", "support": "all"}],
        "class": ["everything"],
        "groups": {"members": ["finite:{0}", "ap:1,1,{0},{}"]},
        "generator": {"kind": "uniform", "alpha": "1/2"},
        "target": "everything",
        "stream": {"explicit": [0, 1, 2, 3]},
        "horizon": 4,
        "asserts": {"all_representative": True},
    }
    doc.update(overrides)
    return doc


def test_parse_and_run_uniform_demo():
    s = parse_scenario(_doc())
    trace = run_game(s)
    assert trace.summary["steps"] == 4
    assert trace.summary["all_representative"] is True
    # d_star = GC + 1 = 2 distinct examples, reached at step 2
    assert trace.summary["first_consistent_from"] == 2
    assert evaluate_asserts(s, trace) == []


def test_run_worked_example_evens():
    doc = _doc(
        name="evens-uniform",
        hypotheses=[{"id": "evens", "support": "evens"}],
        groups={"members": ["evens", "odds"], "partition": True},
        generator={"kind": "uniform", "alpha": "1/4", "d_star": 1},
        target="evens",
        stream={"explicit": [0, 2, 4]},
        horizon=3,
        asserts={"all_representative": True, "consistent_from": 1},
        **{"class": ["evens"]},
    )
    s = parse_scenario(doc)
    trace = run_game(s)
    assert trace.summary["all_representative"] is True
    assert trace.summary["first_consistent_from"] == 1
    assert evaluate_asserts(s, trace) == []


def test_run_empirical_never_consistent():
    doc = _doc(generator={"kind": "empirical", "alpha": "1/2"},
               asserts={})
    s = parse_scenario(doc)
    trace = run_game(s)
    # the empirical baseline always replays seen elements
    assert trace.summary["first_consistent_from"] is None
    assert trace.summary["max_distance"] == "0/1"


def test_run_inlimit_nested():
    doc = _doc(
        name="nested-inlimit",
        hypotheses=[{"id": "evens", "support": "evens"},
                    {"id": "mult4", "support": "ap:0,4,{0},{}"}],
        **{"class": ["evens", "mult4"]},
        groups={"members": ["evens", "odds"]},
        generator={"kind": "inlimit", "alpha": "1/2"},
        target="mult4",
        stream={"enumerate_support": {"order": "increasing"}},
        horizon=50,
        asserts={"all_representative": True},
    )
    s = parse_scenario(doc)
    trace = run_game(s)
    assert trace.summary["all_representative"] is True
    tail = [rec for rec in trace.steps if rec.t >= 3]
    assert tail and all(rec.consistent for rec in tail)
    assert any(rec.selected == 2 for rec in trace.steps)


def test_assert_failures_reported():
    doc = _doc(generator={"kind": "uniform", "alpha": "1/2", "d_star": 1},
               asserts={"all_representative": True, "consistent_from": 1})
    s = parse_scenario(doc)
    trace = run_game(s)
    failures = evaluate_asserts(s, trace)
    assert failures
    assert any("all_representative" in f for f in failures)


def test_every_failed_assert_is_reported_in_order():
    # d_star 2 plays the empirical distribution at step 1 (mass on the
    # seen 0), then alpha 1/4 is too small for {0}'s weight at steps 2-3
    doc = _doc(generator={"kind": "uniform", "alpha": "1/4", "d_star": 2},
               asserts={"all_representative": True, "representative_from": 3,
                        "consistent_from": 1})
    s = parse_scenario(doc)
    assert evaluate_asserts(s, run_game(s)) == [
        "asserts.all_representative: step 2 has distance 1/2 > 1/4",
        "asserts.representative_from: step 3 has distance 1/3 > 1/4",
        "asserts.consistent_from: step 1 emits mass on a seen or "
        "out-of-support element"]


def test_parse_rejects_unknown_keys():
    with pytest.raises(ScenarioError) as e:
        parse_scenario(_doc(extra=1))
    assert "extra" in str(e.value)
    with pytest.raises(ScenarioError):
        parse_scenario(_doc(generator={"kind": "uniform", "alpha": "1/2",
                                       "bogus": True}))


def test_parse_rejects_decimal_alpha():
    with pytest.raises(ScenarioError) as e:
        parse_scenario(_doc(generator={"kind": "uniform", "alpha": "0.5"}))
    assert "alpha" in str(e.value)


def test_parse_rejects_float_alpha_value():
    with pytest.raises(ScenarioError):
        parse_scenario(_doc(generator={"kind": "uniform", "alpha": 0.5}))


def test_parse_errors_are_path_qualified():
    with pytest.raises(ScenarioError) as e:
        parse_scenario(_doc(hypotheses=[{"id": "everything"}]))
    assert "hypotheses[0]" in str(e.value)
    for stream in ({"explicit": [0, -1]}, {"adversary_script": "identity"}):
        with pytest.raises(ScenarioError) as e2:
            parse_scenario(_doc(stream=stream))
        assert str(e2.value).startswith("scenario.stream")


def test_parse_rejects_unknown_target():
    with pytest.raises(ScenarioError):
        parse_scenario(_doc(target="nobody"))


def test_parse_rejects_false_partition_claim():
    doc = _doc(groups={"members": ["evens", "all"], "partition": True})
    with pytest.raises(ScenarioError) as e:
        parse_scenario(doc)
    assert "partition" in str(e.value)


def test_stream_elements_must_lie_in_target_support():
    doc = _doc(
        hypotheses=[{"id": "evens", "support": "evens"}],
        **{"class": ["evens"]},
        target="evens",
        stream={"explicit": [0, 3, 2, 4]},
    )
    s = parse_scenario(doc)
    with pytest.raises(ScenarioError) as e:
        materialize_stream(s)
    assert "stream[1]" in str(e.value)


def test_explicit_stream_must_cover_horizon():
    s = parse_scenario(_doc(stream={"explicit": [0, 1]}))
    with pytest.raises(ScenarioError):
        materialize_stream(s)


def test_horizon_above_max_steps_is_refused_at_parse():
    # materialize_stream would build every element before the first step
    enum = {"enumerate_support": {"order": "increasing"}}
    assert parse_scenario(_doc(stream=enum, horizon=MAX_STEPS)).horizon \
        == MAX_STEPS
    with pytest.raises(ScenarioError) as e:
        parse_scenario(_doc(stream=enum, horizon=MAX_STEPS + 1))
    assert str(e.value) == (f"scenario.horizon: expected an integer <= "
                            f"{MAX_STEPS}, got {MAX_STEPS + 1}")


def test_every_section_rejects_unknown_keys():
    blocks = {"groups": {"blocks": {"base": 2}}}
    enum = {"stream": {"enumerate_support": {"order": "increasing"}}}
    cases = [
        ("scenario", {}, lambda d: d),
        ("scenario.hypotheses[0]", {}, lambda d: d["hypotheses"][0]),
        ("scenario.generator", {}, lambda d: d["generator"]),
        ("scenario.groups", {}, lambda d: d["groups"]),
        ("scenario.groups", blocks, lambda d: d["groups"]),
        ("scenario.groups.blocks", blocks, lambda d: d["groups"]["blocks"]),
        ("scenario.stream", enum, lambda d: d["stream"]),
        ("scenario.stream.enumerate_support", enum,
         lambda d: d["stream"]["enumerate_support"]),
        ("scenario.asserts", {}, lambda d: d["asserts"]),
    ]
    for path, overrides, section in cases:
        doc = copy.deepcopy(_doc(**overrides))
        section(doc)["bogus"] = 1
        with pytest.raises(ScenarioError) as e:
            parse_scenario(doc)
        assert e.value.path == f"{path}.bogus", e.value
        assert e.value.message.startswith("unknown key")
    # covers/partition are claims on members, unknown next to blocks
    with pytest.raises(ScenarioError) as e:
        parse_scenario(_doc(groups={"blocks": {"base": 2}, "covers": True}))
    assert e.value.path == "scenario.groups.covers"


def test_trace_round_trip_and_stability(tmp_path):
    s = parse_scenario(_doc())
    trace = run_game(s)
    lines = trace_lines(trace)
    header = json.loads(lines[0])
    assert header["kind"] == "header" and header["scenario"] == "split-demo"
    assert json.loads(lines[-1])["kind"] == "summary"

    p = tmp_path / "t.jsonl"
    p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    text = p.read_text()
    rebuilt = parse_trace(text)
    assert trace_lines(rebuilt) == lines
    assert rebuilt.steps == trace.steps
    assert rebuilt.summary == trace.summary
    # a second run is byte-identical
    assert "\n".join(trace_lines(run_game(s))) + "\n" == text


def test_step_records_are_immutable_and_built_alike_by_keyword():
    # parse_trace builds records by keyword, run_game through
    # `tuple.__new__` with every field: both give the same record, and no
    # field can be changed afterwards; the distance is read from the
    # reduced integer gap
    path = Path(__file__).parent / "scenarios" / "i01-nested3-overlap.json"
    rec = run_game(load_scenario(str(path))).steps[-1]
    assert type(rec) is StepRecord and len(rec) == len(StepRecord._fields)
    assert rec.selected is not None
    by_name = StepRecord(
        t=rec.t, x=rec.x, distinct=rec.distinct, mu=rec.mu,
        gap=rec.gap, representative=rec.representative,
        consistent=rec.consistent, closure_bot=rec.closure_bot,
        selected=rec.selected)
    assert by_name == rec and hash(by_name) == hash(rec)
    assert by_name == StepRecord(*by_name)
    assert rec.distance == Fraction(*rec.gap)
    assert rec.gap == (rec.distance.numerator, rec.distance.denominator)
    # selected defaults to None, as every step outside an in-limit game has
    plain = run_game(parse_scenario(_doc())).steps[-1]
    assert plain.selected is None and StepRecord(*plain[:-1]) == plain
    for name in ("t", "x", "distinct", "mu", "gap", "distance",
                 "representative", "consistent", "closure_bot", "selected"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0
    assert rec == by_name


def test_parse_trace_validates_shape():
    s = parse_scenario(_doc())
    lines = trace_lines(run_game(s))
    with pytest.raises(ValueError):
        parse_trace(lines[1:])  # missing header
    with pytest.raises(ValueError):
        parse_trace(lines[:-1])  # missing summary


class _BrokenSession:
    """A generator that returns garbage instead of a distribution."""
    last_selected = None

    def step(self, x):
        return {"raw": "dict"}


def test_mutated_session_is_flagged(monkeypatch):
    # a generator that returns garbage must be caught, not propagated
    s = parse_scenario(_doc())
    monkeypatch.setattr("repgen.harness.build_session",
                        lambda sc: _BrokenSession())
    with pytest.raises(InvariantViolation):
        run_game(s)


class _ReplaySession:
    """Plays a fixed list of distributions, noting how many Fractions were
    built before each step: the difference between two marks is what the
    step check in between built."""
    last_selected = None

    def __init__(self, mus, built, marks):
        self.mus, self.built, self.marks = iter(mus), built, marks

    def step(self, x):
        self.marks.append(len(self.built))
        return next(self.mus)


def test_a_step_check_builds_no_fraction(monkeypatch):
    # the alpha verdict and the running maximum are decided on the tally's
    # integer gap, and the record keeps the gap reduced, so a step check
    # builds no Fraction; a repeat on which the session re-emits the same
    # object reuses the previous record.  The last step ends where the
    # summary, which reads the distances, begins.
    s = _with_stream(parse_scenario(_doc(asserts={})), [0, 0, 2, 2, 2, 4])
    p5, spread = RationalDist.point(5), RationalDist.uniform([5, 7])
    mus = [p5, p5, p5, spread, RationalDist.uniform([5, 7]), p5]
    built, marks = [], []
    monkeypatch.setattr("repgen.harness.build_session",
                        lambda sc: _ReplaySession(mus, built, marks))
    summarize = harness._summarize

    def marked(*args):
        marks.append(len(built))
        return summarize(*args)

    monkeypatch.setattr("repgen.harness._summarize", marked)
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    trace = run_game(s)
    monkeypatch.undo()
    per_step = [b - a for a, b in zip(marks, marks[1:])]
    # new element, repeat re-emitting, new element, new distribution,
    # repeat emitting an equal new object (checked again), new distribution
    assert per_step == [0, 0, 0, 0, 0, 0]
    assert [rec.distance for rec in trace.steps] == [
        F(1), F(1), F(1, 2), F(1, 2), F(1, 2), F(1, 3)]


def test_mass_on_seen_marks_inconsistent():
    doc = _doc(generator={"kind": "empirical", "alpha": "1/2"}, asserts={})
    s = parse_scenario(doc)
    trace = run_game(s)
    assert all(not rec.consistent for rec in trace.steps)


def _with_stream(s, xs):
    return dataclasses.replace(s, stream=StreamSpec("explicit", elements=tuple(xs)),
                               horizon=len(xs))


def _incremental_check_games():
    root = Path(__file__).parent / "scenarios"
    paths = sorted(root.glob("*.json"))
    assert len(paths) == 20
    for path in paths:
        yield load_scenario(str(path))
    # seeded streams with repeats, on finite groups and on blocks, and
    # longer ones on which uniform and in-limit sessions re-emit, so that
    # run_game reuses the previous record
    for stem, steps, repeats in (("i04-triple-overlap", 80, 0.4),
                                 ("b01-evens-blocks-inlimit", 80, 0.4),
                                 ("u04-evens-parity-quarter", 300, 0.25),
                                 ("i01-nested3-overlap", 300, 0.25)):
        s = load_scenario(str(root / f"{stem}.json"))
        rng = random.Random(stem)
        fresh = s.target.support.members()
        xs: list[int] = []
        for _ in range(steps):
            xs.append(rng.choice(xs) if xs and rng.random() < repeats
                      else next(fresh))
        yield _with_stream(s, xs)
    # a target outside the class, so that the closure reaches bottom: mult4
    # drops out at 2 and evens at 1
    s = parse_scenario(_doc(
        hypotheses=[{"id": "evens", "support": "evens"},
                    {"id": "mult4", "support": "ap:0,4,{0},{}"}],
        **{"class": ["evens", "mult4"]}, target="mult4",
        generator={"kind": "inlimit", "alpha": "1/2"}, asserts={}))
    yield _with_stream(dataclasses.replace(s, target=Hypothesis("all", ALL)),
                       [0, 4, 0, 8, 2, 4, 6, 1, 3, 0, 5])
    # steps 3 and 4 (a repeat) tie at the largest distance, 1/3, and the
    # later steps fall below it
    s = parse_scenario(_doc(generator={"kind": "inlimit", "alpha": "1/3"},
                            asserts={}))
    yield _with_stream(s, [1, 0, 2, 1, 3, 4])


def test_run_game_incremental_checks_match_from_scratch():
    # run_game updates its checks per element; every step must equal the
    # verdicts recomputed from the whole prefix, with group weights taken
    # from the empirical distribution rather than from integer counts, and
    # verdicts that match the `Fraction` comparison, distances exactly at
    # alpha included; the consistency verdict and the summary's largest
    # distance are recomputed from the prefix and the distances alone,
    # reused records included
    bottoms = ties = top_ties = reused = 0
    for s in _incremental_check_games():
        trace = run_game(s)
        history = list(materialize_stream(s))
        dists = []
        for rec in trace.steps:
            reused += rec.t > 1 and rec.mu is trace.steps[rec.t - 2].mu
            prefix = history[:rec.t]
            ok, dist = is_alpha_representative(rec.mu, prefix, s.groups, s.alpha)
            assert (rec.distance, rec.representative) == (dist, ok), (s.name, rec.t)
            assert ok is (dist <= s.alpha), (s.name, rec.t)
            ties += dist == s.alpha
            assert dist == sup_distance(
                induced_group_probs(rec.mu, s.groups),
                induced_group_probs(empirical(prefix), s.groups)), (s.name, rec.t)
            assert rec.consistent == all(
                y in s.target.support and y not in prefix
                for y in rec.mu.support()), (s.name, rec.t)
            assert rec.closure_bot == (s.cls.closure(prefix) is None), (s.name, rec.t)
            assert rec.distinct == len(set(prefix))
            bottoms += rec.closure_bot
            dists.append(dist)
        top = max(dists)
        assert trace.summary["max_distance"] == format_fraction(top), s.name
        top_ties += top > 0 and dists.count(top) == 2
    assert bottoms == 4
    assert ties > 0
    assert top_ties > 0
    assert reused > 100


def test_a_construction_runs_once_per_step_that_changes_the_state(
        monkeypatch):
    # on a seeded 300-step stream with repeats, the in-limit and uniform
    # constructions run once per step whose element is new or whose depth
    # grew (t up to the class size), and never on another repeat, which
    # re-emits the previous output; the step check computes a gap for
    # exactly those steps, and reuses the previous record on the others
    calls = {"_limit": 0, "_uniform": 0}

    def counted(name):
        construct = getattr(generators, name)

        def run(*args):
            calls[name] += 1
            return construct(*args)
        return run

    gaps = []
    gap = GroupTally.gap

    def counted_gap(tally, mu):
        gaps.append(mu)
        return gap(tally, mu)

    for name in calls:
        monkeypatch.setattr(generators, name, counted(name))
    monkeypatch.setattr(GroupTally, "gap", counted_gap)
    root = Path(__file__).parent / "scenarios"
    for stem, construction in (("i01-nested3-overlap", "_limit"),
                               ("u04-evens-parity-quarter", "_uniform")):
        s = load_scenario(str(root / f"{stem}.json"))
        rng = random.Random(stem)
        fresh = s.target.support.members()
        xs: list[int] = []
        for _ in range(300):
            xs.append(rng.choice(xs) if xs and rng.random() < 0.3 else next(fresh))
        size = s.cls.materialized_count()
        changes = [t for t, x in enumerate(xs, 1)
                   if x not in xs[:t - 1] or t <= size]
        assert 150 < len(changes) < 260
        calls.update(_limit=0, _uniform=0)
        gaps.clear()
        trace = run_game(_with_stream(s, xs))
        assert calls == {"_limit": 0, "_uniform": 0, construction: len(changes)}
        assert len(trace.steps) == 300
        assert [rec.mu for rec in trace.steps if rec.t in changes] == gaps
        for rec in trace.steps:
            if rec.t not in changes:
                assert rec.mu is trace.steps[rec.t - 2].mu
                assert rec.selected == trace.steps[rec.t - 2].selected


def test_inlimit_games_reach_the_lp_only_with_two_candidates(monkeypatch):
    # on seeded 300-step increasing streams with 1/4 repeats, the six
    # in-limit scenarios decide every pass with at most one candidate cell
    # in closed form, so the LP runs a few dozen times in 1,800 steps
    calls = _count_lp_calls(monkeypatch)
    root = Path(__file__).parent / "scenarios"
    for stem in ("i01-nested3-overlap", "i02-evens-overlap-quarter",
                 "i03-nested4-mult8", "i04-triple-overlap",
                 "i05-parity-cross", "i06-nested3-window"):
        s = load_scenario(str(root / f"{stem}.json"))
        rng = random.Random(stem)
        fresh = s.target.support.members()
        xs: list[int] = []
        for _ in range(300):
            xs.append(rng.choice(xs) if xs and rng.random() < 0.25 else next(fresh))
        run_game(_with_stream(s, xs))
    assert all(n >= 2 for n, _ in calls)
    assert len(calls) < 100


def test_nonuniform_and_block_goldens_are_byte_identical():
    # the scenarios outside criterion 9's u/i sets: a non-uniform game with
    # repeats and an exhausted group, and an in-limit game on blocks
    root = Path(__file__).parent
    for stem in ("n01-nested3-exhausted-half", "b01-evens-blocks-inlimit"):
        trace = run_game(load_scenario(str(root / "scenarios" / f"{stem}.json")))
        want = (root / "golden" / f"{stem}.jsonl").read_text()
        assert "\n".join(trace_lines(trace)) + "\n" == want, stem


def test_load_scenario_io_errors(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))


# -- CLI ------------------------------------------------------------------------

def _write_scenario(tmp_path, doc):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_run_ok(tmp_path, capsys):
    path = _write_scenario(tmp_path, _doc())
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "all_representative" in out


def test_cli_feasible_puts_mass_outside_a_non_cover(tmp_path, capsys):
    # the single group {0, 1} weighs 1/2 after 0, 5: half the mass on its
    # unseen 1, half on 2, in no group, tracks it exactly
    doc = _doc(groups={"members": ["finite:{0,1}"], "covers": False},
               generator={"kind": "empirical", "alpha": "0"})
    path = _write_scenario(tmp_path, doc)
    assert main(["feasible", path, "--prefix", "0,5"]) == 0
    assert capsys.readouterr().out == (
        '{"feasible":true,"hypothesis":"everything","witness":['
        '{"cell":[1],"element":1,"mass":"1/2"},'
        '{"cell":[0],"element":2,"mass":"1/2"}]}\n')


def test_cli_run_assert_failure_exit_2(tmp_path, capsys):
    doc = _doc(generator={"kind": "uniform", "alpha": "1/2", "d_star": 1},
               asserts={"all_representative": True})
    path = _write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_run_bad_scenario_exit_3(tmp_path, capsys):
    path = _write_scenario(tmp_path, _doc(extra=1))
    assert main(["run", path]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_run_trace_output(tmp_path, capsys):
    path = _write_scenario(tmp_path, _doc())
    trace_path = str(tmp_path / "out.jsonl")
    assert main(["run", path, "--trace", trace_path]) == 0
    lines = open(trace_path).read().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    assert main(["run", path, "--print-trace"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert any('"kind":"step"' in ln for ln in printed)


@pytest.mark.parametrize("where", ["missing/t.jsonl", "."])
def test_cli_run_unwritable_trace_exit_3(tmp_path, capsys, where):
    # a missing directory, or a directory in place of the file: one error
    # line naming the option, no traceback, and the usage exit code
    path = _write_scenario(tmp_path, _doc())
    trace_path = str(tmp_path / where)
    assert main(["run", path, "--trace", trace_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: --trace: cannot write {trace_path!r}: ")


def test_cli_run_unwritable_trace_exits_before_the_game(tmp_path, monkeypatch,
                                                        capsys):
    # the trace file is opened first, so a bad path costs no game at all
    path = _write_scenario(tmp_path, _doc())

    def no_game(scenario):
        raise AssertionError("the game ran before the trace file was opened")

    monkeypatch.setattr("repgen.cli.run_game", no_game)
    assert main(["run", path, "--trace", str(tmp_path / "missing/t")]) == 3
    assert capsys.readouterr().err.startswith("error: --trace: cannot write")


@pytest.mark.parametrize("argv", [
    ["run", "tests/scenarios/i01-nested3-overlap.json", "--print-trace"],
    ["adversary", "query", "--generator", "query-then-emit", "--steps", "3"],
])
def test_cli_closed_stdout_exits_3_without_a_traceback(argv):
    # the reader closes the pipe before anything is written (as `| head`
    # does after its lines): one error line, the usage exit code, and no
    # second failure when the interpreter flushes stdout at exit
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "repgen.cli", *argv],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 3
    assert err == "error: stdout was closed before all output was written\n"


def test_cli_invariant_violation_exit_1(tmp_path, monkeypatch, capsys):
    path = _write_scenario(tmp_path, _doc())
    monkeypatch.setattr("repgen.harness.build_session",
                        lambda sc: _BrokenSession())
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: internal invariant violated: step 1: "
                            "generator returned dict instead of a "
                            "distribution\n")
    assert captured.out == ""


def test_cli_gc_dim(tmp_path, capsys):
    path = _write_scenario(tmp_path, _doc())
    assert main(["gc-dim", path]) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["status"] == "exact" and row["d"] == 1
    assert row["witness"] == [0]


def test_cli_gc_dim_rejects_zero_bounds(tmp_path, capsys):
    # the dimension is exact at every depth, so gc-dim takes no depth bound
    path = _write_scenario(tmp_path, _doc())
    for bound in ("0", "5"):
        assert main(["gc-dim", path, "--max-d", bound]) == 3
        assert "unrecognized arguments: --max-d" in capsys.readouterr().err


def _x01(**generator):
    """u01 with its zero group widened to {0, ..., 5}: witnesses skip
    depths 1-5 and reach depth 11."""
    return _doc(name="x01", generator={"kind": "uniform", "alpha": "1/2",
                                       **generator},
                groups={"members": ["finite:{0,1,2,3,4,5}", "ap:6,1,{0},{}"],
                        "partition": True},
                stream={"explicit": list(range(12))}, horizon=12)


def test_cli_gc_dim_is_exact_at_every_depth(tmp_path, capsys):
    path = _write_scenario(tmp_path, _x01())
    assert main(["gc-dim", path]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row == {"condition": "Condition1(group=1)", "d": 11,
                   "status": "exact", "witness": list(range(11))}
    assert main(["run", path]) == 0
    assert json.loads(capsys.readouterr().out)["all_representative"] is True
    assert main(["adversary", "gc-witness", path, "--generator", "constant",
                 "--element", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["step"] == 11


def test_gc_search_horizon_is_an_unknown_key(tmp_path, capsys):
    # the whole gc_search section is gone, whatever it holds
    for search in ({"horizon": 3}, {"max_d": 11}):
        doc = _x01(gc_search=search)
        with pytest.raises(ScenarioError) as e:
            parse_scenario(doc)
        assert e.value.path == "scenario.generator.gc_search"
        assert e.value.message.startswith("unknown key")
        path = _write_scenario(tmp_path, doc)
        assert main(["gc-dim", path]) == 3
        assert "scenario.generator.gc_search: unknown key" \
            in capsys.readouterr().err


def test_hostile_modulus_is_refused_before_any_set_is_built(
        tmp_path, capsys, monkeypatch):
    # u01 with a prime modulus of about 10^9: building that set alone once
    # took longer than 30 s, as canonicalization is O(modulus)
    root = Path(__file__).parent / "scenarios"
    doc = json.loads((root / "u01-zero-rest-half.json").read_text())
    doc["hypotheses"][0]["support"] = "ap:0,1000000007,{1},{}"
    with pytest.raises(ScenarioError) as e:
        parse_scenario(doc)
    assert e.value.path == "scenario.hypotheses[0].support"
    assert e.value.message == "modulus must be <= 10000, got 1000000007"
    path = _write_scenario(tmp_path, doc)
    start = time.perf_counter()
    assert main(["gc-dim", path]) == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        "error: scenario.hypotheses[0].support: modulus must be <= 10000, "
        "got 1000000007\n")


def test_moduli_whose_lcm_passes_the_bound_are_refused():
    # each modulus is accepted alone, but 100 and 101 together make every
    # operation periodic mod 10,100; the first set that crosses is named
    doc = _doc(hypotheses=[{"id": "everything", "support": "ap:0,100,{1},{}"}],
               groups={"members": ["ap:0,101,{0},{}", "ap:0,101,{1},{}"]})
    with pytest.raises(ScenarioError) as e:
        parse_scenario(doc)
    assert e.value.path == "scenario.groups.members[0]"
    assert e.value.message == \
        "the lcm of the scenario's moduli must be <= 10000, got 10100"


def test_max_d_above_the_cap_is_rejected_before_any_search(
        tmp_path, capsys, monkeypatch):
    # u01 at alpha 1/10^9: the dimension is known at once, but a witness of
    # about 10^9 elements is refused before it is built
    def no_witness(*args):
        raise AssertionError("a dimension above MAX_D reached the witness")
    monkeypatch.setattr("repgen.dimension._witness", no_witness)
    generator = {"kind": "uniform", "alpha": "1/1000000000"}
    path = _write_scenario(tmp_path, _doc(generator=generator))
    refused = f"dimension 999999999 exceeds MAX_D = {MAX_D}"
    assert main(["gc-dim", path]) == 3
    assert capsys.readouterr() == ("", f"error: {refused}\n")
    assert main(["run", path]) == 3
    assert capsys.readouterr() == (
        "", f"error: cannot derive d_star: {refused}; an explicit d_star "
        "skips the search\n")
    # as the message says: with d_star = GC + 1 given, no search runs
    generator["d_star"] = 10 ** 9
    path = _write_scenario(tmp_path, _doc(generator=generator))
    assert main(["run", path]) == 0
    assert '"all_representative":true' in capsys.readouterr().out


def test_an_exponential_group_search_is_refused_at_once(tmp_path, capsys):
    # groups of sizes 1, ..., 20 and a tail, no two alike: 2^20 choices of
    # exhausted groups, once 16.9 s of search, are refused by count
    members, start = [], 0
    for size in range(1, 21):
        members.append("finite:{%s}" % ",".join(
            map(str, range(start, start + size))))
        start += size
    members.append(f"ap:{start},1,{{0}},{{}}")
    path = _write_scenario(tmp_path, _doc(
        groups={"members": members},
        generator={"kind": "uniform", "alpha": "1/4"}))
    refused = ("dimension search needs 1048576 choices of exhausted groups, "
               f"at most 1048576 per closure mask, above MAX_CHOICES = "
               f"{MAX_CHOICES}")
    start = time.perf_counter()
    assert main(["gc-dim", path]) == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ("", f"error: {refused}\n")
    assert main(["run", path]) == 3
    assert capsys.readouterr() == (
        "", f"error: cannot derive d_star: {refused}; an explicit d_star "
        "skips the search\n")


def test_an_exponential_dimension_search_is_refused_at_once(tmp_path, capsys):
    # h_j = the naturals minus residue j mod 32 for j < 18, parity groups:
    # the supports AND to 2^18 - 1 closure masks, whose building took 7 s;
    # each mask takes a choice of exhausted groups at least, so the fixpoint
    # stops as soon as the masks pass MAX_CHOICES, for each subcommand that
    # searches
    hypotheses = [{"id": f"h{j}", "support": "ap:0,32,{%s},{}" % ",".join(
        str(r) for r in range(32) if r != j)} for j in range(18)]
    path = _write_scenario(tmp_path, _doc(
        hypotheses=hypotheses, **{"class": [h["id"] for h in hypotheses]},
        target="h0", stream={"explicit": [1, 2, 3]}, horizon=3,
        groups={"members": ["ap:0,2,{0},{}", "ap:0,2,{1},{}"]},
        generator={"kind": "uniform", "alpha": "1/4"}))
    refused = (f"dimension search needs at least {MAX_CHOICES + 1} closure "
               "masks, each with a choice of exhausted groups, above "
               f"MAX_CHOICES = {MAX_CHOICES}")
    bound = refusal_bound()
    start = time.perf_counter()
    for args, err in (
            (["gc-dim", path], f"error: {refused}\n"),
            (["run", path], f"error: cannot derive d_star: {refused}; an "
                            "explicit d_star skips the search\n"),
            (["adversary", "gc-witness", path], f"error: {refused}\n")):
        assert main(args) == 3
        assert capsys.readouterr() == ("", err)
    assert time.perf_counter() - start < bound


def test_d_star_is_only_for_the_uniform_generator(tmp_path, capsys):
    # n01 used to run unchanged with a d_star that nothing read
    n01 = Path(__file__).parent / "scenarios" / "n01-nested3-exhausted-half.json"
    doc = json.loads(n01.read_text())
    doc["generator"]["d_star"] = 50
    for kind in ("nonuniform", "inlimit", "empirical"):
        doc["generator"]["kind"] = kind
        with pytest.raises(ScenarioError) as e:
            parse_scenario(doc)
        assert e.value.path == "scenario.generator.d_star"
        assert e.value.message == \
            f"only the uniform generator takes d_star, not {kind!r}"
    doc["generator"]["kind"] = "nonuniform"
    path = _write_scenario(tmp_path, doc)
    assert main(["run", path]) == 3
    assert capsys.readouterr().err == (
        "error: scenario.generator.d_star: only the uniform generator takes "
        "d_star, not 'nonuniform'\n")


def test_cli_usage_errors_exit_3(capsys):
    assert main(["run"]) == 3
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_closure(tmp_path, capsys):
    path = _write_scenario(tmp_path, _doc())
    assert main(["closure", path, "--prefix", "0,1"]) == 0
    assert capsys.readouterr().out.strip() == "all"
    doc = _doc(hypotheses=[{"id": "evens", "support": "evens"}],
               **{"class": ["evens"]}, target="evens",
               stream={"explicit": [0, 2, 4, 6]})
    path2 = _write_scenario(tmp_path, doc)
    assert main(["closure", path2, "--prefix", "1"]) == 0
    assert capsys.readouterr().out.strip() == "bot"


def test_cli_rejects_negative_prefix(tmp_path, capsys):
    path = _write_scenario(tmp_path, _doc())
    for cmd in ("closure", "feasible"):
        for prefix in ("-3", "0,-4"):
            assert main([cmd, path, f"--prefix={prefix}"]) == 3
            err = capsys.readouterr().err
            assert "expected a comma-separated list of naturals" in err


def test_cli_feasible(tmp_path, capsys):
    doc = _doc(groups={"members": ["evens", "odds"]})
    path = _write_scenario(tmp_path, doc)
    assert main(["feasible", path, "--prefix", "0,1,2"]) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["feasible"] is True
    masses = {e["element"]: e["mass"] for e in row["witness"]}
    assert masses == {4: "2/3", 3: "1/3"}


@pytest.mark.parametrize("scenario, hypothesis, prefix, out", [
    # overlapping finite cover: the exact pass fails, the banded one holds
    ("i02-evens-overlap-quarter", "evens", "2,4,6",
     '{"feasible":true,"hypothesis":"evens","witness":['
     '{"cell":[1,0],"element":0,"mass":"1/4"},'
     '{"cell":[0,1],"element":8,"mass":"3/4"}]}\n'),
    # block partition: two exhausted blocks' surplus spread in alpha chunks
    ("b01-evens-blocks-inlimit", "evens", "0,2,4,6,8",
     '{"feasible":true,"hypothesis":"evens","witness":['
     '{"cell":3,"element":10,"mass":"2/5"},'
     '{"cell":4,"element":14,"mass":"1/2"},'
     '{"cell":5,"element":30,"mass":"1/10"}]}\n'),
])
def test_cli_feasible_witness_bytes(capsys, scenario, hypothesis, prefix,
                                    out):
    path = Path(__file__).parent / "scenarios" / f"{scenario}.json"
    assert main(["feasible", str(path), "--hypothesis", hypothesis,
                 "--prefix", prefix]) == 0
    assert capsys.readouterr().out == out


def test_cli_adversary_geometric(capsys):
    assert main(["adversary", "geometric", "--alpha", "1/2", "--depth", "3",
                 "--generator", "empirical"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(ln) for ln in lines]
    assert [r["step"] for r in rows if r.get("kind") != "summary"] == [2, 6, 14]


def test_cli_adversary_query(capsys):
    assert main(["adversary", "query", "--steps", "12",
                 "--generator", "query-then-emit"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(ln) for ln in lines]
    summary = rows[-1]
    assert summary["kind"] == "summary"
    assert Fraction(summary["final_group_one_fraction"]) >= F(1, 2)


def test_cli_constant_baseline_needs_an_element(tmp_path, capsys):
    # one check for every adversary family, made before a game starts
    path = _write_scenario(tmp_path, _doc())
    for family in (["geometric"], ["query"], ["gc-witness", path]):
        assert main(["adversary", *family, "--generator", "constant"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: --element is required for the constant baseline\n"


def test_cli_adversary_refuses_overlong_games(capsys, monkeypatch):
    def no_game(*args):
        raise AssertionError("a refused game was started")
    monkeypatch.setattr("repgen.cli.GeneratorSession", no_game)
    monkeypatch.setattr("repgen.adversaries.QueryThenEmit.emit", no_game)
    assert main(["adversary", "geometric", "--alpha", "1/2",
                 "--depth", "40"]) == 3
    assert f"depth 40 at base 2 needs more than {MAX_STEPS} steps" \
        in capsys.readouterr().err
    assert main(["adversary", "query", "--steps", "100000000",
                 "--generator", "query-then-emit"]) == 3
    assert f"steps must be <= {MAX_STEPS}, got 100000000" \
        in capsys.readouterr().err
    for budget, text in ((-1, "must be >= 0, got -1"),
                         (MAX_QUERY_BUDGET + 1, f"must be <= {MAX_QUERY_BUDGET}"
                          f", got {MAX_QUERY_BUDGET + 1}")):
        assert main(["adversary", "query", "--budget", str(budget),
                     "--generator", "query-then-emit"]) == 3
        assert capsys.readouterr() == ("", f"error: query budget {text}\n")


def test_cli_adversary_gc_witness(tmp_path, capsys):
    path = _write_scenario(tmp_path, _doc())
    assert main(["adversary", "gc-witness", path,
                 "--generator", "constant", "--element", "5"]) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["kind"] == "unrepresentative"


def test_cli_gc_witness_without_a_witness(tmp_path, capsys):
    # evens against the parity groups: the search proves GC = 0
    doc = _doc(hypotheses=[{"id": "evens", "support": "evens"}],
               groups={"members": ["evens", "odds"], "partition": True},
               **{"class": ["evens"]}, target="evens")
    path = _write_scenario(tmp_path, doc)
    assert main(["adversary", "gc-witness", path]) == 3
    assert capsys.readouterr().err == \
        "error: no tuple witnesses this instance (GC = 0)\n"


def test_cli_invalid_alpha_exit_3(capsys):
    assert main(["adversary", "geometric", "--alpha", "1/3", "--depth", "2",
                 "--generator", "empirical"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["-1/2", "3/2"])
def test_cli_rejects_alpha_outside_unit_interval(tmp_path, capsys, alpha):
    root = Path(__file__).parent / "scenarios"
    doc = json.loads((root / "u01-zero-rest-half.json").read_text())
    doc["generator"]["alpha"] = alpha
    path = _write_scenario(tmp_path, doc)
    for command in ("gc-dim", "run"):
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: scenario.generator.alpha: alpha must "
                                f"be in [0, 1], got {alpha}\n")
