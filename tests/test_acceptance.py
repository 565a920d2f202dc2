"""Acceptance gate: nine end-to-end criteria over the bundled scenario suite.

Each test prints one PASS line with its measured runtime; a pytest failure is
the FAIL line.  The criteria exercise the public surface only: scenario
loading, game runs, dimension search vs the naive oracle, the three
adversaries, exact feasibility vs the mesh oracle, and golden-trace
determinism.
"""

import glob
import os
import random
import time
import zlib
from fractions import Fraction

from repgen.adversaries import (INCONSISTENT, UNREPRESENTATIVE,
                                ConstantQueryFree, ConstantSession,
                                QueryThenEmit, gc_witness_adversary,
                                geometric_adversary, query_adversary,
                                verify_report)
from repgen.dimension import gc_dimension
from repgen.generators import GeneratorSession, is_feasible
from repgen.groups import FiniteGroups, finite_support_size
from repgen.harness import run_game, evaluate_asserts, trace_lines
from repgen.measures import is_alpha_representative
from repgen.periodic import ALL
from repgen.scenario import build_session, load_scenario, materialize_stream

from instances import dimension_instances, feasibility_instances, worked_example_index
from oracles import brute_support_size, mesh_feasible, naive_gc

F = Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join(HERE, "scenarios")
GOLDEN_DIR = os.path.join(HERE, "golden")

FUZZ_STREAMS = 200
FUZZ_LEN = 12


def _paths(prefix):
    out = sorted(glob.glob(os.path.join(SCENARIO_DIR, prefix + "*.json")))
    assert out, f"no bundled scenarios matching {prefix}*"
    return out


def _support_preview(s, k=30):
    return [x for x in range(40 * k) if x in s.target.support][:k]


def test_criterion_1_uniform_representative_everywhere():
    t0 = time.monotonic()
    paths = _paths("u")
    assert len(paths) >= 12
    fuzz_checked = 0
    for path in paths:
        s = load_scenario(path)
        assert s.kind == "uniform"
        assert len(s.hypotheses) <= 3
        assert len(list(s.groups.indices())) <= 4
        assert s.alpha in (F(1, 4), F(1, 2), F(2, 3))
        assert s.horizon <= 60
        trace = run_game(s)
        assert trace.summary["all_representative"] is True
        assert all(rec.representative for rec in trace.steps)
        assert trace.summary["violations"] == []

        # fuzz: same scenario, adversarial streams drawn with replacement
        # from the target support (repeats stress the empirical weights)
        d_star = build_session(s).d_star
        preview = _support_preview(s)
        rng = random.Random(zlib.crc32(s.name.encode()))
        for _ in range(FUZZ_STREAMS):
            sess = GeneratorSession(s.kind, s.cls, s.groups, s.alpha,
                                    d_star=d_star)
            hist = []
            for _ in range(FUZZ_LEN):
                x = rng.choice(preview)
                hist.append(x)
                mu = sess.step(x)
                ok, dist = is_alpha_representative(mu, hist, s.groups, s.alpha)
                assert ok, (s.name, hist, dist)
                fuzz_checked += 1
    dt = time.monotonic() - t0
    assert dt < 10.0
    print(f"PASS criterion 1: {len(paths)} uniform scenarios + "
          f"{fuzz_checked} fuzzed steps all alpha-representative ({dt:.2f}s)")


def test_criterion_2_consistency_from_dimension_bound():
    t0 = time.monotonic()
    paths = _paths("u")
    for path in paths:
        s = load_scenario(path)
        gc = gc_dimension(s.cls, s.groups, s.alpha)
        assert gc.status == "exact", s.name
        stream = materialize_stream(s)
        seen = set()
        bound_step = None
        for t, x in enumerate(stream, start=1):
            seen.add(x)
            if len(seen) >= gc.d + 1:
                bound_step = t
                break
        assert bound_step is not None, s.name
        trace = run_game(s)
        fc = trace.summary["first_consistent_from"]
        assert fc is not None and fc <= bound_step, (s.name, fc, bound_step)
    dt = time.monotonic() - t0
    assert dt < 10.0
    print(f"PASS criterion 2: consistency reached by the dimension bound on "
          f"{len(paths)} scenarios ({dt:.2f}s)")


def test_criterion_3_dimension_matches_naive_oracle():
    t0 = time.monotonic()
    zoo = dimension_instances()
    assert len(zoo) >= 10
    for inst in zoo:
        gc = gc_dimension(inst["cls"], inst["groups"], inst["alpha"])
        naive = naive_gc(inst["cls"], inst["groups"], inst["alpha"],
                         max_d=max(4, gc.d + 1), universe=range(13))
        assert gc.d == naive, (inst["name"], gc.d, naive)
        assert gc.status == "exact" and gc.d == inst["known"], inst["name"]
    worked = zoo[worked_example_index()]
    gcw = gc_dimension(worked["cls"], worked["groups"], worked["alpha"])
    assert worked["alpha"] == F(1, 2)
    assert gcw.status == "exact" and gcw.d == 1
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"PASS criterion 3: search equals naive oracle on {len(zoo)} "
          f"instances incl. the singleton-vs-rest example ({dt:.2f}s)")


def test_criterion_4_witness_adversary_classifies_baselines():
    t0 = time.monotonic()
    used = 0
    reports = 0
    for inst in dimension_instances():
        cls, groups, alpha = inst["cls"], inst["groups"], inst["alpha"]
        if not (isinstance(groups, FiniteGroups)
                and groups.validate().partition):
            continue  # the uniform baseline is only defined on partitions
        gc = gc_dimension(cls, groups, alpha)
        if gc.witness is None or gc.d < 1:
            continue
        used += 1
        witness = gc.witness
        baselines = [
            lambda: GeneratorSession("empirical", cls, groups, alpha),
            # d_star = d is one short of the required gc.d + 1
            lambda: GeneratorSession("uniform", cls, groups, alpha,
                                     d_star=gc.d),
            lambda: ConstantSession(witness[0]),
        ]
        for make in baselines:
            r = gc_witness_adversary(make, cls, groups, alpha, witness)
            reports += 1
            assert r.step == gc.d, (inst["name"], r)
            assert r.kind in (INCONSISTENT, UNREPRESENTATIVE), inst["name"]
            if r.reason == "out-of-support":
                sup = cls.by_id(r.hypothesis)[1].support
            else:
                sup = ALL
            assert verify_report(r, groups=groups, support=sup), (inst["name"], r)
    assert used >= 4
    assert reports == 3 * used
    dt = time.monotonic() - t0
    print(f"PASS criterion 4: {reports} violation reports re-verified at "
          f"t = d across {used} witnesses x 3 baselines ({dt:.2f}s)")


def test_criterion_5_geometric_blocks_beat_both_generators():
    t0 = time.monotonic()
    expected_steps = [2, 6, 14, 30, 62, 126]
    expected_pihat = [F(1), F(2, 3), F(4, 7), F(8, 15), F(16, 31), F(32, 63)]
    factories = {
        "empirical": lambda cls, groups, alpha: GeneratorSession(
            "empirical", cls, groups, alpha),
        "inlimit": lambda cls, groups, alpha: GeneratorSession(
            "inlimit", cls, groups, alpha),
    }
    for label, factory in factories.items():
        rs = geometric_adversary(factory, F(1, 2), 6)
        assert [r.step for r in rs] == expected_steps, label
        assert [r.pi_hat for r in rs] == expected_pihat, label
        for r in rs:
            # block i of the doubling layout spans [2^i - 2, 2^{i+1} - 2)
            i = r.checkpoint
            lo, hi = 2 ** i - 2, 2 ** (i + 1) - 2
            inside = sum(1 for y in r.history if lo <= y < hi)
            assert F(inside, len(r.history)) == r.pi_hat
            assert r.pi_hat > F(1, 2)
            assert r.kind == INCONSISTENT and r.reason == "already-seen"
            assert verify_report(r, support=ALL), (label, r)
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"PASS criterion 5: geometric adversary wins every checkpoint "
          f"{expected_steps} against both generators ({dt:.2f}s)")


def test_criterion_6_query_adversary_classifies_every_step():
    t0 = time.monotonic()
    for label, gen in [("query-then-emit", QueryThenEmit()),
                       ("query-free-constant", ConstantQueryFree(10 ** 6))]:
        reports, st = query_adversary(gen, 40)
        assert len(reports) == 40, label
        for r in reports:
            assert r.kind in (INCONSISTENT, UNREPRESENTATIVE), label
            if r.kind == UNREPRESENTATIVE:
                assert r.distance >= F(1, 2), (label, r)
        # the enumeration only ever emits confirmed in-support elements
        assert st.enumeration
        assert all(st.hyp.get(x) == 1 for x in st.enumeration), label
        # distinct elements keep a group-one majority at every step
        seen = set()
        for x in st.enumeration:
            seen.add(x)
            ones = sum(1 for y in seen if st.grp.get(y) == 1)
            assert 2 * ones >= len(seen), label
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"PASS criterion 6: 40 steps classified with distance >= 1/2 "
          f"against both query baselines ({dt:.2f}s)")


def test_criterion_7_feasibility_agrees_with_mesh_oracle():
    t0 = time.monotonic()
    insts = feasibility_instances()
    assert len(insts) >= 30
    feasible_count = 0
    boundary_seen = False
    for inst in insts:
        h, groups = inst["h"], inst["groups"]
        hist, alpha = inst["history"], inst["alpha"]
        assert len(list(groups.indices())) <= 3
        witness = is_feasible(h, groups, hist, alpha)
        mesh = mesh_feasible(h, groups, hist, alpha, denom=60)
        assert (witness is not None) == mesh, inst
        if witness is not None:
            feasible_count += 1
            ok, dist = is_alpha_representative(witness.distribution(), hist,
                                               groups, alpha)
            assert ok
            if dist == alpha and alpha > 0:
                boundary_seen = True
    assert 0 < feasible_count < len(insts)
    assert boundary_seen  # at least one witness sits exactly on the boundary
    dt = time.monotonic() - t0
    print(f"PASS criterion 7: exact verdict agreement with the 1/60 mesh on "
          f"{len(insts)} instances incl. a boundary witness ({dt:.2f}s)")


def test_criterion_8_inlimit_scenarios_converge():
    t0 = time.monotonic()
    paths = _paths("i")
    assert len(paths) >= 6
    for path in paths:
        s = load_scenario(path)
        assert s.kind == "inlimit"
        assert len(s.hypotheses) <= 5
        trace = run_game(s)
        assert trace.summary["all_representative"] is True
        fc = trace.summary["first_consistent_from"]
        assert fc is not None and fc <= 200, (s.name, fc)
        assert evaluate_asserts(s, trace) == []
        for h in s.hypotheses:
            assert finite_support_size(h, s.groups) == brute_support_size(
                h, s.groups), (s.name, h.id)
        assert finite_support_size(s.target, s.groups) > 0, s.name
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"PASS criterion 8: {len(paths)} in-limit scenarios representative "
          f"and eventually consistent; support sizes verified ({dt:.2f}s)")


def test_criterion_9_golden_traces_are_byte_identical():
    t0 = time.monotonic()
    paths = _paths("u") + _paths("i")
    assert len(paths) == 18
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        golden = os.path.join(GOLDEN_DIR, stem + ".jsonl")
        with open(golden, "rb") as fp:
            want = fp.read()
        got1 = ("\n".join(trace_lines(run_game(load_scenario(path)))) + "\n").encode("utf-8")
        got2 = ("\n".join(trace_lines(run_game(load_scenario(path)))) + "\n").encode("utf-8")
        assert got1 == want, stem
        assert got2 == want, stem
    dt = time.monotonic() - t0
    print(f"PASS criterion 9: {len(paths)} golden traces reproduced "
          f"byte-for-byte twice ({dt:.2f}s)")
