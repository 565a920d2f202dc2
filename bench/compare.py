"""Compare two benchmark result files.

Each file holds one JSON record per line, as `run.py --out` appends them;
runs of several seeds give each side a distribution.  One row is printed per
workload and metric with each side's median, quartiles and run count, and
the change of the medians.  An end-to-end metric whose median got worse by
more than its bound in BENCHMARK.json is flagged WORSE, one that got better
by more than the bound is flagged better.  Per-layer metrics have no bound
and are not flagged.  Inputs and outputs digests are compared per workload
and seed.  The comparison only reports: its exit code is 0 whenever both
files could be read.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def _load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(values: list[float] | None) -> str:
    text = "-"
    if values:
        q1, med, q3 = _spread(values)
        text = f"{med:.5g} [{q1:.4g}, {q3:.4g}] n={len(values)}"
    return f"{text:>36}"


def compare(before: Path, after: Path, benchmark: Path) -> int:
    spec = json.loads(benchmark.read_text()) if benchmark.is_file() else {}
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    sides = []
    for path in (before, after):
        values: dict = defaultdict(list)
        digests: dict = {}
        for rec in _load(path):
            for name, m in rec["metrics"].items():
                values[(rec["workload"], name)].append(m["value"])
            if not rec["trace"]:
                digests[(rec["workload"], rec["seed"])] = rec["digests"]
        sides.append((values, digests))

    keys = sorted(set(sides[0][0]) | set(sides[1][0]))
    print(f"{'workload':<17} {'metric':<36} {'before: median [q1, q3]':>36} "
          f"{'after: median [q1, q3]':>36} {'change':>8}")
    for workload, name in keys:
        a = sides[0][0].get((workload, name))
        b = sides[1][0].get((workload, name))
        change, flag = "", ""
        if a and b:
            ma, mb = statistics.median(a), statistics.median(b)
            if ma:
                rel = (mb - ma) / abs(ma)
                change = f"{100 * rel:+.1f}%"
                spec_m = bounds.get(name)
                if spec_m is not None:
                    worse = rel if spec_m["better"] == "lower" else -rel
                    if worse > spec_m["bound"]:
                        flag = "WORSE"
                    elif -worse > spec_m["bound"]:
                        flag = "better"
        print(f"{workload:<17} {name:<36} {_fmt(a)} {_fmt(b)} {change:>8} {flag}")

    common = sorted(set(sides[0][1]) & set(sides[1][1]))
    for key in common:
        da, db = sides[0][1][key], sides[1][1][key]
        print(f"digests {key[0]} seed {key[1]}: inputs "
              f"{'same' if da['inputs'] == db['inputs'] else 'DIFFER'}, outputs "
              f"{'same' if da['outputs'] == db['outputs'] else 'DIFFER'}")
    return 0
