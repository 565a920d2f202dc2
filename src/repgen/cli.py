"""Command-line front end.

Subcommands:

  run        - play a scenario end to end, optionally writing a trace file
  gc-dim     - group closure dimension of a scenario's instance
  closure    - intersection of consistent supports for a given prefix
  feasible   - exact feasibility verdict for one hypothesis and prefix
  adversary  - run one of the adversary constructions against a baseline

Exit codes: 0 all requested properties hold, 1 an internal invariant was
violated (a bug; one line on stderr), 2 a declared assertion failed (details
on stdout), 3 configuration or usage error, or a stdout closed before all
output was written (one line on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import fields
from fractions import Fraction

from .adversaries import (MAX_QUERY_BUDGET, ConstantQueryFree,
                          ConstantSession, GreedyQuerier, QueryThenEmit,
                          ViolationReport, gc_witness_adversary,
                          geometric_adversary, query_adversary)
from .dimension import gc_dimension
from .errors import ConfigError, InvariantViolation, ScenarioError
from .generators import GeneratorSession, is_feasible
from .harness import _dump, evaluate_asserts, run_game, trace_lines
from .measures import parse_fraction
from .periodic import format_set
from .scenario import load_scenario


def _parse_prefix(text: str) -> list[int]:
    try:
        prefix = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        prefix = None
    if prefix is None or any(x < 0 for x in prefix):
        raise ConfigError(f"expected a comma-separated list of naturals, got {text!r}")
    return prefix


def _report_row(r: ViolationReport) -> dict:
    """A report's fields as a row: `distribution` printed as `mu`, and
    `history` and unset fields (None, ()) left out."""
    row = {f.name: getattr(r, f.name) for f in fields(r) if f.name != "history"}
    row["mu"] = row.pop("distribution")
    return {k: v for k, v in row.items() if v not in (None, ())}


def _trace_error(path: str, e: OSError) -> ConfigError:
    return ConfigError(f"--trace: cannot write {path!r}: {e.strerror or e}")


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    try:  # before the game, so that an unwritable path fails at once
        fp = open(args.trace, "w", encoding="utf-8") if args.trace else None
    except OSError as e:
        raise _trace_error(args.trace, e) from None
    with fp or nullcontext():
        trace = run_game(scenario)
        if fp is not None:
            try:
                fp.writelines(f"{line}\n" for line in trace_lines(trace))
                fp.flush()
            except OSError as e:
                raise _trace_error(args.trace, e) from None
    if args.print_trace:
        for line in trace_lines(trace):
            print(line)
    else:
        print(_dump({"scenario": trace.scenario_name, **trace.summary}))
    failures = evaluate_asserts(scenario, trace)
    for f in failures:
        print(f"FAIL {f}")
    return 2 if failures else 0


def cmd_gc_dim(args) -> int:
    scenario = load_scenario(args.scenario)
    result = gc_dimension(scenario.cls, scenario.groups, scenario.alpha)
    condition = str(result.condition) if result.condition else None
    print(_dump({"status": result.status, "d": result.d,
                 "witness": result.witness, "condition": condition}))
    return 0


def cmd_closure(args) -> int:
    scenario = load_scenario(args.scenario)
    prefix = _parse_prefix(args.prefix)
    closure = scenario.cls.closure(prefix)
    print("bot" if closure is None else format_set(closure))
    return 0


def cmd_feasible(args) -> int:
    scenario = load_scenario(args.scenario)
    prefix = _parse_prefix(args.prefix)
    hid = args.hypothesis or scenario.target_id
    try:
        _, h = scenario.cls.by_id(hid)
    except KeyError:
        raise ConfigError(f"unknown hypothesis id {hid!r}")
    witness = is_feasible(h, scenario.groups, prefix, scenario.alpha)
    if witness is None:
        print(_dump({"feasible": False, "hypothesis": hid}))
    else:
        entries = [{"cell": e.cell, "element": e.element,
                    "mass": Fraction(e.num, witness.den)}
                   for e in witness.entries]
        print(_dump({"feasible": True, "hypothesis": hid, "witness": entries}))
    return 0


def _baseline_session_factory(name: str, element: int | None):
    def build(cls, groups, alpha):
        if name in ("empirical", "inlimit"):
            return GeneratorSession(name, cls, groups, alpha)
        if name == "uniform-low":
            return GeneratorSession("uniform", cls, groups, alpha, d_star=1)
        if name == "constant":
            return ConstantSession(element)
        raise ConfigError(f"unknown baseline {name!r}")
    return build


def cmd_adversary(args) -> int:
    if args.generator is None:  # each family plays its own default baseline
        args.generator = ("query-then-emit" if args.family == "query"
                          else "empirical")
    if args.generator == "constant" and args.element is None:
        raise ConfigError("--element is required for the constant baseline")
    if args.family == "geometric":
        alpha = parse_fraction(args.alpha)
        build = _baseline_session_factory(args.generator, args.element)
        reports = geometric_adversary(build, alpha, args.depth)
        for r in reports:
            print(_dump(_report_row(r)))
        print(_dump({"kind": "summary", "reports": len(reports),
                     "checkpoints": args.depth}))
        return 0
    if args.family == "query":
        if args.generator == "query-then-emit":
            gen = QueryThenEmit()
        elif args.generator == "constant":
            gen = ConstantQueryFree(args.element)
        elif args.generator == "greedy":
            gen = GreedyQuerier()
        else:
            raise ConfigError(f"unknown query baseline {args.generator!r}")
        reports, state = query_adversary(gen, args.steps,
                                         query_budget=args.budget)
        for r in reports:
            print(_dump(_report_row(r)))
        print(_dump({"kind": "summary", "reports": len(reports),
                     "final_group_one_fraction": state.group_one_fraction()}))
        return 0
    if not args.scenario:
        raise ConfigError("gc-witness needs a scenario path")
    scenario = load_scenario(args.scenario)
    result = gc_dimension(scenario.cls, scenario.groups, scenario.alpha)
    if result.witness is None:
        raise ConfigError("no tuple witnesses this instance (GC = 0)")
    build = _baseline_session_factory(args.generator, args.element)
    make = lambda: build(scenario.cls, scenario.groups, scenario.alpha)
    report = gc_witness_adversary(make, scenario.cls, scenario.groups,
                                  scenario.alpha, result.witness)
    print(_dump(_report_row(report)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repgen",
        description="deterministic generation games over ultimately periodic sets")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play a scenario end to end")
    run.add_argument("scenario")
    run.add_argument("--trace", help="write the JSON-lines trace to this path")
    run.add_argument("--print-trace", action="store_true",
                     help="print the full trace instead of the summary")
    run.set_defaults(fn=cmd_run)

    gc = sub.add_parser("gc-dim",
                        help="group closure dimension of a scenario's instance")
    gc.add_argument("scenario")
    gc.set_defaults(fn=cmd_gc_dim)

    cl = sub.add_parser("closure", help="intersection of consistent supports")
    cl.add_argument("scenario")
    cl.add_argument("--prefix", required=True,
                    help="comma-separated example prefix, e.g. 0,2,4")
    cl.set_defaults(fn=cmd_closure)

    fe = sub.add_parser("feasible", help="exact feasibility verdict")
    fe.add_argument("scenario")
    fe.add_argument("--prefix", required=True)
    fe.add_argument("--hypothesis", default=None,
                    help="hypothesis id (default: the scenario target)")
    fe.set_defaults(fn=cmd_feasible)

    ad = sub.add_parser("adversary", help="run an adversary construction")
    ad.add_argument("family", choices=["geometric", "query", "gc-witness"])
    ad.add_argument("scenario", nargs="?",
                    help="scenario path (gc-witness only)")
    ad.add_argument("--alpha", default="1/2", help="geometric only, e.g. 1/2")
    ad.add_argument("--depth", type=int, default=4,
                    help="geometric checkpoints to drive")
    ad.add_argument("--steps", type=int, default=20, help="query rounds")
    ad.add_argument("--budget", type=int, default=MAX_QUERY_BUDGET,
                    help=f"per-step query budget, at most {MAX_QUERY_BUDGET}")
    ad.add_argument("--generator", default=None,
                    help="baseline: empirical (default), inlimit, uniform-low "
                         "or constant for geometric and gc-witness; "
                         "query-then-emit (default), greedy or constant for "
                         "query")
    ad.add_argument("--element", type=int, default=None,
                    help="fixed element for the constant baselines")
    ad.set_defaults(fn=cmd_adversary)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on misuse
        return 3 if e.code else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (say, `| head`).  Point it at devnull so
        # that the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written",
              file=sys.stderr)
        return 3
    except (ScenarioError, ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InvariantViolation as e:
        print(f"error: internal invariant violated: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
