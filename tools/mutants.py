"""Mutation budget for the decision kernels: how many small faults in them
their tests catch.

Three families of mutant, one fault each, inside the functions (or methods,
named `Class.method`) that TARGETS names per module:
- comparison flips: < and <=, > and >=, == and !=, `in` and `not in`,
  `is` and `is not` swapped;
- `and` and `or` swapped;
- an integer literal that is an operand of an arithmetic operator or a
  comparison raised or lowered by one.

For each mutant the script writes the mutated module into a copy of the
repository's src/ and tests/ in a temporary directory, runs the module's
tests there (the TARGETS patterns under tests/, Hypothesis seeded with 0,
stopping at the first failure), and prints the site as killed (a test
failed, or the run outlived TIMEOUT_FACTOR times the clean run's time of
those tests) or survived (every test passed).  The copy never writes
bytecode, so no stale cache stands in for a mutant.

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
# module -> (the functions mutated in it, a method as `Class.method`; the
# patterns of the test files under tests/ that judge its mutants)
TARGETS = {
    Path("src/repgen/dimension.py"): (
        ("check_witness", "_atoms", "_closures", "_spans", "_witness",
         "_closed_form"), ("test_dimension*.py",)),
    Path("src/repgen/generators.py"): (
        ("StreamState.heads", "StreamState.ledger", "_advance", "_feasible",
         "_feasible_blocks", "_assemble_uniform", "_uniform", "_limit"),
        ("test_generators*.py",)),
    Path("src/repgen/measures.py"): (
        ("GroupTally.add", "GroupTally.add_block", "GroupTally.gap"),
        ("test_measures*.py", "test_adversaries*.py")),
}
# A mutant's run is cut at TIMEOUT_FACTOR times the clean run's time, and
# at no less than TIMEOUT_FLOOR_S: a mutant that loops dies in seconds and
# counts as killed, and a slow but passing one still finishes.
TIMEOUT_FACTOR = 3
TIMEOUT_FLOOR_S = 10

# Mutants that compute what the module computes, by (function, expression,
# replacement), each naming one site, with the reason: no test can kill
# them, so they are named rather than counted as gaps.
EQUIVALENT = {
    # per_group[a.group - 1] -> per_group[a.group - 2]
    ("_closures", "1", "2"):
        "each group's closure atoms land in the list of the group before "
        "it, the first group's in the last: the lists are rotated, and "
        "`_spans` reads them only as a multiset of groups",
    # raising the running maximum to a value equal to it changes nothing
    ("GroupTally.gap", "short > worst", "short >= worst"):
        "a point mass's owner group whose shortfall equals the running "
        "maximum sets the maximum to the value it holds",
    ("GroupTally.gap", "n > worst", "n >= worst"):
        "a non-owner group whose count equals the running maximum sets the "
        "maximum to the value it holds",
    ("GroupTally.gap", "gap > worst", "gap >= worst"):
        "a group whose gap equals the running maximum sets the maximum to "
        "the value it holds; the `elif` it then skips cannot fire, as "
        "-gap <= 0 <= worst",
    ("GroupTally.gap", "-gap > worst", "-gap >= worst"):
        "a group whose negated gap equals the running maximum sets the "
        "maximum to the value it holds",
    ("GroupTally.gap", "missed > worst", "missed >= worst"):
        "a block mu misses whose weight equals the running maximum sets "
        "the maximum to the value it holds",
}

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
         ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
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


def _functions(tree: ast.Module):
    """(name, definition) of each module-level function, and of each method
    of a module-level class as `Class.method`."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def sites(target: Path, source: str | None = None) -> list[Site]:
    """Every mutant of the functions TARGETS names in the target module, in
    source order."""
    functions = TARGETS[target][0]
    if source is None:
        source = (ROOT / target).read_text()
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for name, fn in _functions(ast.parse(source)):
        if name not in functions:
            continue
        for parent in ast.walk(fn):
            for node, family, new in _mutants(parent):
                start = starts[node.lineno - 1] + node.col_offset
                end = starts[node.end_lineno - 1] + node.end_col_offset
                found.append(Site(name, node.lineno, family,
                                  ast.unparse(node), ast.unparse(new),
                                  start, end))
    return sorted(found, key=lambda s: (s.start, s.end, s.after))


def mutate(source: str, site: Site) -> str:
    """The source with the site's expression replaced, in parentheses so
    that it reads as one expression wherever it stands."""
    data = source.encode()
    return (data[:site.start] + f"({site.after})".encode()
            + data[site.end:]).decode()


def _run_tests(workdir: Path, patterns: tuple[str, ...],
               timeout: float | None = None) -> bool:
    """Whether every test in the files under workdir/tests that match one
    of `patterns` passes within `timeout` seconds (None: no limit)."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    tests = sorted({str(p.relative_to(workdir)) for pattern in patterns
                    for p in (workdir / "tests").glob(pattern)})
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
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        for target in TARGETS:
            if not _mutate_all(work, target):
                return 1
    return 0


def _mutate_all(work: Path, target: Path) -> bool:
    """Run every mutant of one target in the copy at work and print the
    verdicts; False when its tests fail without a mutant."""
    patterns = TARGETS[target][1]
    named = ", ".join(f"tests/{pattern}" for pattern in patterns)
    source = (ROOT / target).read_text()
    found = sites(target, source)
    killed = survived = equivalent = 0
    began = time.perf_counter()
    if not _run_tests(work, patterns):
        print(f"{named} fail without a mutant", file=sys.stderr)
        return False
    clean = time.perf_counter() - began
    timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * clean)
    print(f"{target}: clean run of {named} {clean:.1f} s; each "
          f"mutant is cut at {timeout:.1f} s", flush=True)
    for site in found:
        (work / target).write_text(mutate(source, site))
        began = time.perf_counter()
        passed = _run_tests(work, patterns, timeout)
        reason = EQUIVALENT.get((site.function, site.before, site.after))
        killed += not passed
        survived += passed
        equivalent += passed and reason is not None
        print(f"{'survived' if passed else 'killed  '} {site.function}:"
              f"{site.line} {site.family:7} `{site.before}` -> "
              f"`{site.after}` ({time.perf_counter() - began:.1f} s)"
              + (f"; equivalent: {reason}" if reason else ""),
              flush=True)
    # the next target's tests import this module too
    (work / target).write_text(source)
    print(f"{target}: {len(found)} mutants: {killed} killed, {survived} "
          f"survived, {equivalent} of them equivalent", flush=True)
    return True


if __name__ == "__main__":
    sys.exit(main())
