"""Source hygiene: every name a module imports is referenced in it, and the
package keeps its invariants of exact arithmetic and zero runtime
dependencies: no float literal, no float() call and no import from outside
the standard library in `src/repgen/`.  Every function the per-layer tracer
in `bench/spans.py` rebinds, and every `<repgen module>.<name>` that the
workloads in `bench/workloads.py` read, still exists in the package, so a
rename or a deletion cannot break `bench/run.py`; so does every function
`tools/mutants.py` mutates, and each of its mutants parses.  The README's CLI
examples print what the CLI prints.  The pure `*_emit` generator functions
name no construction and no `StreamState`: they replay through the session.
`tests/oracles.py` imports from the package only data types, membership,
errors and constants (`ORACLE_IMPORTS`), nothing private and nothing from
`repgen.generators`.

The unused-import scan covers `src/repgen/`, `tests/`, `bench/` and
`tools/`; it skips `src/repgen/__init__.py` because its imports are the
package's public re-exports.
"""

import ast
import importlib.util
import shlex
import sys
from operator import attrgetter
from pathlib import Path
from types import ModuleType

from repgen import measures
from repgen.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "repgen").glob("*.py"))
SCANNED = [p for p in PACKAGE if p.name != "__init__.py"] + [
    p for folder in ("tests", "bench", "tools")
    for p in sorted((ROOT / folder).glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_detected():
    source = "import os\nimport json.decoder\nfrom a import b as c, d\nd()\n"
    assert unused_imports(source) == ["os (line 1)", "json (line 2)",
                                      "c (line 3)"]


def test_no_unused_imports():
    assert len(SCANNED) > 30
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text())
             for p in SCANNED}
    assert {k: v for k, v in found.items() if v} == {}


def invariant_breaches(source: str) -> list[str]:
    """Float literals, float() calls and absolute imports of modules that
    are neither in the standard library nor the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"float literal {node.value!r} (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"float() call (line {node.lineno})")
        else:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repgen" and top not in sys.stdlib_module_names:
                    found.append(f"import {module} (line {node.lineno})")
    return found


def test_invariant_breaches_are_detected():
    source = ("from __future__ import annotations\n"
              "import os, numpy.linalg\n"
              "from fractions import Fraction\n"
              "from . import simplex\n"
              "from repgen.periodic import ALL\n"
              "from attr import define\n"
              "x = 1.5 + float(y) + 1e3 + 2 + isinstance(y, float)\n")
    assert sorted(invariant_breaches(source)) == [
        "float literal 1.5 (line 7)", "float literal 1000.0 (line 7)",
        "float() call (line 7)", "import attr (line 6)",
        "import numpy.linalg (line 2)"]


def test_package_keeps_exact_and_dependency_free():
    assert len(PACKAGE) > 10
    found = {p.relative_to(ROOT).as_posix(): invariant_breaches(p.read_text())
             for p in PACKAGE}
    assert {k: v for k, v in found.items() if v} == {}


SHAPES = {"FiniteGroups", "BlockPartition"}


def mentioned(tree: ast.AST) -> set[str]:
    """Every name a syntax tree mentions, as a name, an attribute or an
    import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in node.names)
    return found


def shape_names(tree: ast.AST) -> set[str]:
    """The group-collection class names a syntax tree mentions."""
    return mentioned(tree) & SHAPES


def test_shape_names_are_detected():
    source = ("from .groups import FiniteGroups as F\n"
              "import repgen.groups as g\n"
              "x = isinstance(c, g.BlockPartition)\n"
              "'FiniteGroups in a string is fine'\n")
    assert shape_names(ast.parse(source)) == SHAPES
    assert shape_names(ast.parse("from .groups import GroupCollection")) == set()


def test_group_counting_never_asks_for_the_collection_shape():
    """Which groups hold an element is decided in `repgen.groups`: the
    measures and the generators' stream state count through the
    collection's own members and never name a concrete collection class."""
    measures = ast.parse((ROOT / "src" / "repgen" / "measures.py").read_text())
    assert shape_names(measures) == set()
    generators = ast.parse(
        (ROOT / "src" / "repgen" / "generators.py").read_text())
    [state] = [node for node in generators.body
               if isinstance(node, ast.ClassDef) and node.name == "StreamState"]
    assert shape_names(state) == set()


def test_pure_emits_replay_through_the_session():
    """Each generator kind has one entry, its session: the pure emits
    replay their history through it and never run a construction or build
    a stream state themselves, so they cannot skip the session's checks."""
    generators = ast.parse(
        (ROOT / "src" / "repgen" / "generators.py").read_text())
    emits = {node.name: node for node in generators.body
             if isinstance(node, ast.FunctionDef) and node.name.endswith("_emit")}
    assert sorted(emits) == ["limit_emit", "nonuniform_emit", "uniform_emit"]
    second_entry = {"_uniform", "_nonuniform", "_limit", "StreamState"}
    assert {name: mentioned(node) & second_entry
            for name, node in emits.items()} == dict.fromkeys(emits, set())


# What `tests/oracles.py` may import from the package, per module: data
# types, membership, errors and constants, so that no reference shares an
# algorithm with the engine it checks.
ORACLE_IMPORTS = {
    "repgen.dimension": {"Condition", "Condition1", "Condition2"},
    "repgen.errors": {"ConfigError", "InvariantViolation", "ScenarioError"},
    "repgen.groups": {"BlockPartition", "FiniteGroups", "GroupCollection"},
    "repgen.hypotheses": {"HypothesisClass"},
    "repgen.measures": {"RationalDist", "empirical"},
    "repgen.periodic": {"ALL", "PeriodicSet", "from_finite"},
    "repgen.simplex": {"EQ", "GE", "LE"},
}


def engine_imports(source: str) -> list[str]:
    """Each package name the source imports outside `ORACLE_IMPORTS`, which
    lists no private name and nothing from `repgen.generators`, and any
    import of a package module as a whole."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(f"{alias.name} (line {node.lineno})"
                         for alias in node.names
                         if alias.name.split(".")[0] == "repgen")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "repgen":
            allowed = ORACLE_IMPORTS.get(node.module, ())
            found.extend(f"{node.module}.{alias.name} (line {node.lineno})"
                         for alias in node.names if alias.name not in allowed)
    return found


def test_engine_imports_are_detected():
    source = ("from repgen.generators import _feasible, StreamState\n"
              "from repgen.measures import RationalDist, GroupTally\n"
              "from repgen.periodic import ALL, _combine\n"
              "from repgen import simplex\n"
              "import repgen.dimension\n"
              "from itertools import product\n")
    assert engine_imports(source) == [
        "repgen.generators._feasible (line 1)",
        "repgen.generators.StreamState (line 1)",
        "repgen.measures.GroupTally (line 2)",
        "repgen.periodic._combine (line 3)", "repgen.simplex (line 4)",
        "repgen.dimension (line 5)"]


def test_oracles_share_no_algorithm_with_the_engine():
    assert not any(name.startswith("_") for names in ORACLE_IMPORTS.values()
                   for name in names)
    assert "repgen.generators" not in ORACLE_IMPORTS
    source = (ROOT / "tests" / "oracles.py").read_text()
    assert "from repgen." in source
    assert engine_imports(source) == []


def unresolved(targets) -> list[str]:
    """The (name, owner, attribute) entries whose owner is not a `repgen`
    module or class, or does not define the attribute itself (the tracer
    rebinds `owner.__dict__[attribute]`)."""
    found = []
    for name, owner, attr in targets:
        home = getattr(owner, "__module__", None) or owner.__name__
        if not home.startswith("repgen") or not callable(
                vars(owner).get(attr)):
            found.append(f"{name}: {owner.__name__}.{attr}")
    return found


def test_unresolved_targets_are_detected():
    assert unresolved((("a", measures, "group_empirical"),
                       ("b", measures, "no_such_function"),
                       ("c", measures.GroupTally, "distance"),
                       ("d", measures.GroupTally, "no_such_method"),
                       ("e", ast, "parse"))) \
        == ["b: repgen.measures.no_such_function",
            "d: GroupTally.no_such_method", "e: ast.parse"]


def load_script(folder: str, name: str) -> ModuleType:
    spec = importlib.util.spec_from_file_location(
        f"{folder}_{name}", ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_targets_resolve():
    spans = load_script("bench", "spans")
    assert len(spans.TARGETS) > 20 and spans.COUNTED
    assert unresolved(spans.TARGETS + spans.COUNTED) == []


def test_mutant_sites_name_existing_functions():
    mutants = load_script("tools", "mutants")
    keys, families = [], set()
    for target, (functions, tests) in mutants.TARGETS.items():
        source = (ROOT / target).read_text()
        sites = mutants.sites(target, source)
        assert {s.function for s in sites} == set(functions)
        module = importlib.import_module(f"repgen.{target.stem}")
        # a method is named `Class.method`
        assert all(callable(attrgetter(name)(module)) for name in functions)
        assert all(sorted((ROOT / "tests").glob(pattern)) for pattern in tests)
        keys += [(s.function, s.before, s.after) for s in sites]
        families |= {s.family for s in sites}
        tree = ast.dump(ast.parse(source))
        for site in sites:  # each mutant parses, to a different tree
            assert ast.dump(ast.parse(mutants.mutate(source, site))) != tree
    assert families == {"compare", "boolop", "int"}
    # every named equivalent mutant is one site
    assert all(keys.count(key) == 1 for key in mutants.EQUIVALENT)


def repgen_reads(source: str, namespace: dict) -> list[tuple[str, bool]]:
    """Each `<module>.<name>` in the source whose `<module>` is bound in the
    namespace to a `repgen` module, as its dotted name and whether the
    module has that name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = namespace.get(node.value.id)
            if isinstance(owner, ModuleType) \
                    and owner.__name__.startswith("repgen"):
                found.append((f"{owner.__name__}.{node.attr}",
                              hasattr(owner, node.attr)))
    return found


def test_repgen_reads_are_detected():
    source = ("measures.empirical(x)\nmeasures.no_such_function\n"
              "ast.parse\ny.empirical\n")
    reads = repgen_reads(source, {"measures": measures, "ast": ast})
    assert sorted(reads) == [("repgen.measures.empirical", True),
                             ("repgen.measures.no_such_function", False)]


def test_bench_workload_reads_resolve():
    path = ROOT / "bench" / "workloads.py"
    reads = repgen_reads(path.read_text(), vars(load_script("bench", "workloads")))
    assert len(reads) > 15
    assert [name for name, found in reads if not found] == []


def readme_cli_examples() -> list[tuple[list[str], str]]:
    """(arguments, first output line) for each `$ repgen ...` line of the
    README's CLI block that is directly followed by an output line."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("\n```", 1)[0].splitlines()
    examples = []
    for line, after in zip(lines, lines[1:]):
        if line.startswith("$ repgen ") and after.strip() \
                and not after.startswith("$"):
            examples.append((shlex.split(line, comments=True)[2:], after))
    return examples


def test_readme_cli_examples_match(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = readme_cli_examples()
    assert [args[0] for args, _ in examples] == \
        ["run", "gc-dim", "closure", "feasible", "adversary"]
    for args, shown in examples:
        assert main(args) == 0, args
        assert capsys.readouterr().out.splitlines()[0] == shown, args


def value_formatting(source: str) -> list[str]:
    """Calls to `format_fraction` and to any `.serialize()` method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in ("format_fraction", "serialize"):
                found.append(f"{name} (line {node.lineno})")
    return found


def test_value_formatting_is_detected():
    source = ("a = format_fraction(x)\nb = r.distribution.serialize()\n"
              "c = measures.format_fraction(y)\nd = serialize\n")
    assert value_formatting(source) == [
        "format_fraction (line 1)", "serialize (line 2)",
        "format_fraction (line 3)"]


def test_cli_leaves_exact_values_to_the_encoder():
    """The CLI hands records to `harness._dump` as they are, so the one
    encoder is the only place a `Fraction` or a distribution is turned into
    JSON."""
    assert value_formatting((ROOT / "src" / "repgen" / "cli.py").read_text()) \
        == []
