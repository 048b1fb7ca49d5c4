"""No dead exports: every public top-level function and class of the package
is used somewhere in ``src/`` or named in the README, apart from its own
definition and its re-export in ``__init__.py``.  Code that only tests call
belongs in ``tests/``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ring_explorer"


def unused_public_definitions():
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for path, text in sources.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # Every source with this definition cut out, then the README.
            start = node.decorator_list[0].lineno if node.decorator_list else node.lineno
            own = "".join(lines[:start - 1] + lines[node.end_lineno:])
            elsewhere = [own if other == path else body for other, body in sources.items()]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(body) for body in elsewhere + [readme]):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_definition_is_used():
    assert unused_public_definitions() == []
