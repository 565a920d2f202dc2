"""Golden gate: replay every bundled scenario and compare its trace byte for
byte with the golden trace of the same name.

    python3 bench/gate.py        (from the repository root)

Prints one line per scenario and exits 0 when every trace matches, 1 when
one differs or a scenario and its golden trace do not pair up.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repgen.harness import run_game, trace_lines  # noqa: E402
from repgen.scenario import load_scenario  # noqa: E402


def main() -> int:
    scenarios = {p.stem: p for p in (ROOT / "tests" / "scenarios").glob("*.json")}
    goldens = {p.stem: p for p in (ROOT / "tests" / "golden").glob("*.jsonl")}
    bad = 0
    for stem in sorted(set(scenarios) ^ set(goldens)):
        print(f"UNPAIRED {stem}")
        bad += 1
    if not scenarios:
        print("NO SCENARIOS")
        bad += 1
    for stem in sorted(set(scenarios) & set(goldens)):
        got = ("\n".join(trace_lines(run_game(load_scenario(str(scenarios[stem])))))
               + "\n").encode("utf-8")
        same = got == goldens[stem].read_bytes()
        print(f"{'OK' if same else 'DIFFERS'} {stem}")
        bad += not same
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
