"""No dead exports: every function and class the package defines is used by
the package or the benchmark, not only by the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_definition_is_used():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    lines = [line for path in sources for line in path.read_text().splitlines()]
    names = {node.name for path in sorted((ROOT / "src" / "sisynth").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and not (node.name.startswith("__") and node.name.endswith("__"))}
    unused = []
    for name in sorted(names):
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"\s*(async\s+def|def|class)\s+{name}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == [], "defined in src/sisynth but used nowhere in src/ or bench/"
