"""Source hygiene: every name a module imports is referenced in it.

`src/repgen/__init__.py` is skipped because its imports are the package's
public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(p for p in (ROOT / "src" / "repgen").glob("*.py")
                 if p.name != "__init__.py") + sorted(
                     (ROOT / "tests").glob("*.py"))


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
    assert len(SCANNED) > 20
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text())
             for p in SCANNED}
    assert {k: v for k, v in found.items() if v} == {}
