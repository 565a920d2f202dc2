"""repgen benchmark: verified-step throughput, set-up time and per-step
growth on three workloads, with a separate per-layer traced run.

Run one workload (from the repository root):

    python3 bench/run.py --workload inlimit-long --seed 1 --seconds 20 --trace 0

Compare two result files (each holds one JSON line per run):

    python3 bench/run.py --compare before.jsonl after.jsonl

A run first replays every bundled scenario against its golden trace in a
child process (bench/gate.py) and stops if one differs.  It then times the
workload's set-up several times, and plays the workload's round of seeded,
checked games again and again until `--seconds` have passed.  Every timed
figure is a quiet-host time: the host probe of bench/probe.py corrects for
other tenants slowing the machine down.

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
alternates untraced rounds with rounds traced by bench/spans.py after one
traced set-up, and reports the per-layer metrics and the tracing overhead
(untraced against traced steps per second).  Each run appends its full
record (environment, sample counts, per-tenth step times, raw times, digests
of inputs and outputs) to `--out` and prints a JSON summary as its last
line.  `failed_ratio` (failed over attempted checks) is in the record and
the report; the summary gives it as `failed` and `attempted`, since a metric
there must never be 0.  The run exits 1 if any check failed and 2 if the
repository is incomplete.

Standard library only.  The measured work runs in one process and one
thread; only the golden gate runs in a child process, which keeps its
memory out of peak_rss_mb.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import HostProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_OUT = ROOT / ".bench_results" / "results.jsonl"

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "late_step_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACING_UNITS = {
    "tracing.untraced_steps_per_s": "1/s",
    "tracing.traced_steps_per_s": "1/s",
    "tracing.overhead_pct": "%",
}


def git_commit(root: Path) -> str:
    """The commit checked out at `root`, read from .git without running git;
    "unknown" outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_gate() -> bool:
    proc = subprocess.run([sys.executable, str(HERE / "gate.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    ok = proc.returncode == 0
    print(f"# golden gate: {sum(ln.startswith('OK ') for ln in lines)} traces "
          f"byte-identical, {'pass' if ok else 'FAIL'}")
    if not ok:
        for line in lines:
            if not line.startswith("OK "):
                print(f"benchmark: golden gate: {line}", file=sys.stderr)
        if proc.stderr:
            print(proc.stderr, file=sys.stderr)
    return ok


def time_setup(wl, probe: HostProbe) -> tuple[list[float], list[float]]:
    """Set-up times in seconds, (quiet-host, raw), one per sample."""
    pieces = []
    probe.take()
    for _ in range(wl.setup_repeats):
        t0 = probe.now()
        for _ in range(wl.setup_batch):
            wl.setup()
        pieces.append((t0, probe.now()))
        probe.take()
    per = wl.setup_batch * 1e9
    return ([probe.scaled(a, b) / per for a, b in pieces],
            [(b - a) / per for a, b in pieces])


class Tally:
    """Rounds merged as they finish: check counts, the digests of round 0,
    totals of steps and timed play, and per stream and step the mean
    latency over rounds.  Timed figures are quiet-host times (probe.py);
    raw totals are kept beside them.  Memory stays the same however many
    rounds a run plays."""

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict | None = None
        self.steps = 0
        self.timed_ns = 0.0
        self.raw_timed_ns = 0
        self.step_sums: dict[str, list[float]] = {}

    def add(self, log) -> None:
        """Merge a finished round; the probe must have been taken after it."""
        digests = {"inputs": log.inputs.hexdigest(),
                   "outputs": log.outputs.hexdigest()}
        if self.digests is None:
            self.digests = digests
        log.check(digests == self.digests,
                  f"round {self.rounds} played other inputs or emitted other "
                  "distributions than round 0")
        self.rounds += 1
        self.attempted += log.attempted
        self.failed += log.failed
        self.problems.extend(log.problems[:20 - len(self.problems)])
        scaled = self.probe.scaled
        for key, (start, stamps, last_end, finish) in log.streams.items():
            steps = [scaled(a, b) for a, b in zip(stamps, stamps[1:] + [last_end])]
            self.steps += len(steps)
            self.timed_ns += (scaled(start, stamps[0]) + sum(steps)
                              + scaled(last_end, finish))
            self.raw_timed_ns += finish - start
            sums = self.step_sums.setdefault(key, [0.0] * len(steps))
            for j, d in enumerate(steps):
                sums[j] += d

    def steps_per_s(self) -> float:
        return self.steps / (self.timed_ns / 1e9) if self.timed_ns else 0.0

    def raw_steps_per_s(self) -> float:
        return self.steps / (self.raw_timed_ns / 1e9) if self.raw_timed_ns else 0.0


def end_to_end(tally: Tally, setup_samples) -> tuple[dict, dict, list]:
    """The end-to-end metrics from a tally, with their sample counts and
    the median step latency of each tenth of the streams."""
    step_ns: list[float] = []
    late: list[float] = []
    tenths: list[list[float]] = [[] for _ in range(10)]
    for sums in tally.step_sums.values():
        n = len(sums)
        late_from = n - max(1, n // 10)
        for j, total in enumerate(sums):
            d = total / tally.rounds
            step_ns.append(d)
            tenths[j * 10 // n].append(d)
            if j >= late_from:
                late.append(d)
    step_ns.sort()
    p99 = nearest_rank(step_ns, 0.99)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "steps_per_s": tally.steps_per_s(),
        "step_ms_p50": statistics.median(step_ns) / 1e6,
        "step_ms_p99": p99 / 1e6,
        "late_step_ms": statistics.median(late) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "rounds": tally.rounds,
        "streams": len(tally.step_sums),
        "steps": len(step_ns),
        "beyond_p99": sum(d > p99 for d in step_ns),
        "late_step_ms": len(late),
        "setup_s": len(setup_samples),
        "tenth_step_ms": [len(t) for t in tenths],
    }
    tenth_ms = [statistics.median(t) / 1e6 if t else None for t in tenths]
    return metrics, samples, tenth_ms


def run_workload(args) -> int:
    if not ((ROOT / "src" / "repgen" / "__init__.py").is_file()
            and (ROOT / "tests" / "scenarios").is_dir()
            and (ROOT / "tests" / "golden").is_dir()):
        print(f"benchmark: {ROOT} lacks src/repgen, tests/scenarios or "
              "tests/golden; run it from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, RoundLog
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}, expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not run_gate():
        return 1

    probe = HostProbe()
    wl = WORKLOADS[args.workload](ROOT, args.seed, probe)
    setup_samples, raw_setup = time_setup(wl, probe)
    start = time.perf_counter()
    record: dict = {}
    plain = Tally(probe)

    def play_round(tally: Tally, on_stream=None) -> None:
        log = RoundLog(probe, on_stream)
        wl.play_round(log)
        probe.take()
        tally.add(log)

    if not args.trace:
        while not plain.rounds or time.perf_counter() - start < args.seconds:
            play_round(plain)
        values, samples, tenth_ms = end_to_end(plain, setup_samples)
        units = END_TO_END_UNITS
        tallies = [plain]
    else:
        # Untraced and traced rounds alternate, so both see the host alike.
        from spans import PER_LAYER, WIDTH, Tracer
        tracer = Tracer(probe.now)
        traced = Tally(probe)
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()

        while not traced.rounds or time.perf_counter() - start < args.seconds:
            play_round(plain)
            tracer.install()
            try:
                play_round(traced, tracer.next_stream)
            finally:
                tracer.uninstall()
        # Per-layer seconds are scaled to quiet-host time by the traced
        # rounds' mean probe factor.
        scale = traced.timed_ns / traced.raw_timed_ns
        values = {name: v * scale if PER_LAYER[name] == "s" else v
                  for name, v in tracer.per_layer(traced.rounds).items()}
        untraced_sps, traced_sps = plain.steps_per_s(), traced.steps_per_s()
        values.update({
            "tracing.untraced_steps_per_s": untraced_sps,
            "tracing.traced_steps_per_s": traced_sps,
            "tracing.overhead_pct": 100 * (untraced_sps - traced_sps) / untraced_sps,
        })
        units = {**PER_LAYER, **TRACING_UNITS}
        _, samples, tenth_ms = end_to_end(traced, setup_samples)
        samples["rounds"] += plain.rounds
        args.out.parent.mkdir(parents=True, exist_ok=True)
        spans_path = args.out.parent / f"spans-{args.workload}-seed{args.seed}"
        tracer.write(spans_path)
        record["spans"] = {"path": str(spans_path.with_suffix(".bin")),
                           "count": len(tracer.spans) // WIDTH}
        tallies = [plain, traced]
        traced.attempted += 1
        if traced.digests != plain.digests:
            traced.failed += 1
            traced.problems.append("traced rounds emitted other distributions "
                                   "than untraced rounds")
    record["raw"] = {"setup_s": statistics.median(raw_setup),
                     "setup_samples_s": raw_setup,
                     "steps_per_s": plain.raw_steps_per_s(),
                     "probe_ns_median": statistics.median(probe.ns),
                     "probes": len(probe.ns)}

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(ROOT),
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        "samples": samples,
        "tenth_step_ms": tenth_ms,
        "setup_samples_s": setup_samples,
        "digests": plain.digests,
        "problems": [p for t in tallies for p in t.problems][:20],
    })
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fp:
        fp.write(json.dumps(record, sort_keys=True) + "\n")

    env = record["env"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit']}")
    print(f"# {samples['rounds']} rounds of {samples['streams']} streams; "
          f"step latencies (mean over rounds): {samples['steps']} steps, "
          f"{samples['beyond_p99']} beyond p99, {samples['late_step_ms']} in "
          f"last tenths; {samples['setup_s']} set-up samples; "
          f"{record['raw']['probes']} host probes")
    print(f"# failed_ratio {record['failed_ratio']:.6g} "
          f"({failed} failed of {attempted} checks)")
    for problem in record["problems"]:
        print(f"# FAILED {problem.splitlines()[0]}")
    print("# tenth_step_ms " + " ".join(
        "-" if v is None else f"{v:.4g}" for v in tenth_ms))
    print(f"# digests: inputs {plain.digests['inputs'][:16]} "
          f"outputs {plain.digests['outputs'][:16]}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if record["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help="result file to append this run's record to")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                    help="compare two result files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
