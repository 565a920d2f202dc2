"""Mutation budget for the dimension kernel: how many small faults in it the
dimension tests catch.

Three families of mutant, one fault each, inside the functions that
FUNCTIONS names in src/repgen/dimension.py:
- comparison flips: < and <=, > and >=, == and != swapped;
- `and` and `or` swapped;
- an integer literal that is an operand of an arithmetic operator or a
  comparison raised or lowered by one.

For each mutant the script writes the mutated module into a copy of the
repository's src/ and tests/ in a temporary directory, runs the dimension
tests there (tests/test_dimension*.py, Hypothesis seeded with 0, stopping at
the first failure), and prints the site as killed (a test failed, or the
run outlived TIMEOUT_FACTOR times the clean run's time) or survived (every
test passed).  The copy never writes bytecode, so no
stale cache stands in for a mutant.

    python3 tools/mutants.py             (from the repository root)

Standard library only (pytest runs the tests); not part of the test suite.
Survivors are not an error: the exit status is 0 once every mutant ran.
A survivor that EQUIVALENT names is printed with the reason it cannot be
killed.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/repgen/dimension.py")
FUNCTIONS = ("check_witness", "_atoms", "_closures", "_spans", "_witness",
             "_closed_form")
# A mutant's run is cut at TIMEOUT_FACTOR times the clean run's time, and
# at no less than TIMEOUT_FLOOR_S: a mutant that loops dies in seconds and
# counts as killed, and a slow but passing one still finishes.
TIMEOUT_FACTOR = 3
TIMEOUT_FLOOR_S = 10

# Mutants that compute the same dimension and witness as the module, by
# (function, expression, replacement), each naming one site, with the
# reason: no test can kill them, so they are named rather than counted as
# gaps.
EQUIVALENT = {
    # per_group[a.group - 1] -> per_group[a.group - 2]
    ("_closures", "1", "2"):
        "each group's closure atoms land in the list of the group before "
        "it, the first group's in the last: the lists are rotated, and "
        "`_spans` reads them only as a multiset of groups",
}

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SWAPS = {ast.And: ast.Or, ast.Or: ast.And}


class Site(NamedTuple):
    """One mutant: the source span [start, end) of the expression it
    rewrites, as UTF-8 byte offsets, and the expression that replaces it."""
    function: str
    line: int
    family: str  # "compare", "boolop" or "int"
    before: str
    after: str
    start: int
    end: int


def _mutants(node: ast.AST) -> list[tuple[ast.AST, str, ast.AST]]:
    """The (expression, family, mutated copy) triples of one node."""
    out = []
    operands: list[ast.expr] = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in FLIPS:
                new = copy.deepcopy(node)
                new.ops[i] = FLIPS[type(op)]()
                out.append((node, "compare", new))
        operands = [node.left, *node.comparators]
    elif isinstance(node, ast.BoolOp):
        new = copy.deepcopy(node)
        new.op = SWAPS[type(node.op)]()
        out.append((node, "boolop", new))
    elif isinstance(node, ast.BinOp):
        operands = [node.left, node.right]
    for x in operands:
        if isinstance(x, ast.Constant) and type(x.value) is int:
            out += [(x, "int", ast.Constant(x.value + step))
                    for step in (1, -1)]
    return out


def sites(source: str | None = None) -> list[Site]:
    """Every mutant of the functions in FUNCTIONS, in source order."""
    if source is None:
        source = (ROOT / TARGET).read_text()
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in FUNCTIONS):
            continue
        for parent in ast.walk(fn):
            for node, family, new in _mutants(parent):
                start = starts[node.lineno - 1] + node.col_offset
                end = starts[node.end_lineno - 1] + node.end_col_offset
                found.append(Site(fn.name, node.lineno, family,
                                  ast.unparse(node), ast.unparse(new),
                                  start, end))
    return sorted(found, key=lambda s: (s.start, s.end, s.after))


def mutate(source: str, site: Site) -> str:
    """The source with the site's expression replaced, in parentheses so
    that it reads as one expression wherever it stands."""
    data = source.encode()
    return (data[:site.start] + f"({site.after})".encode()
            + data[site.end:]).decode()


def _run_tests(workdir: Path, timeout: float | None = None) -> bool:
    """Whether every dimension test passes in workdir within `timeout`
    seconds (None: no limit)."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    tests = sorted(str(p.relative_to(workdir))
                   for p in (workdir / "tests").glob("test_dimension*.py"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", *tests],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    source = (ROOT / TARGET).read_text()
    found = sites(source)
    killed = survived = equivalent = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        began = time.perf_counter()
        if not _run_tests(work):
            print("the dimension tests fail without a mutant", file=sys.stderr)
            return 1
        clean = time.perf_counter() - began
        timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * clean)
        print(f"clean run {clean:.1f} s; each mutant is cut at "
              f"{timeout:.1f} s", flush=True)
        for site in found:
            (work / TARGET).write_text(mutate(source, site))
            began = time.perf_counter()
            passed = _run_tests(work, timeout)
            reason = EQUIVALENT.get((site.function, site.before,
                                     site.after))
            killed += not passed
            survived += passed
            equivalent += passed and reason is not None
            print(f"{'survived' if passed else 'killed  '} {site.function}:"
                  f"{site.line} {site.family:7} `{site.before}` -> "
                  f"`{site.after}` ({time.perf_counter() - began:.1f} s)"
                  + (f"; equivalent: {reason}" if reason else ""),
                  flush=True)
    print(f"{len(found)} mutants: {killed} killed, {survived} survived, "
          f"{equivalent} of them equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
