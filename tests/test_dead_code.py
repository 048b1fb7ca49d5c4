"""No dead exports: every public top-level function and class of the package
is used somewhere in ``src/`` or named in the README, apart from its own
definition and its re-export in ``__init__.py``, and every public method and
property of the package's classes is read as ``.name`` there.  Code that
only tests call belongs in ``tests/``.  A README name counts only because the
README's library sketch runs: the last test here executes it.  The package
root binds exactly the names that sketch imports from it."""

import ast
import re
import types
from pathlib import Path

import ring_explorer

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


def unused_public_members():
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    bodies = [*sources.values(), (ROOT / "README.md").read_text(encoding="utf-8")]
    unused = []
    for path, text in sources.items():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                read = re.compile(rf"\.{re.escape(node.name)}\b")
                if not any(read.search(body) for body in bodies):
                    unused.append(f"{path.stem}.{cls.name}.{node.name}")
    return unused


def test_every_public_definition_is_used():
    assert unused_public_definitions() == []


def test_every_public_member_is_read():
    assert unused_public_members() == []


def library_sketch():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_root_exports_what_the_sketch_imports():
    imported = {alias.name for node in ast.walk(ast.parse(library_sketch()))
                if isinstance(node, ast.ImportFrom) and node.module == "ring_explorer"
                for alias in node.names}
    exported = {name for name, value in vars(ring_explorer).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == imported
    assert len(exported) == 9


def test_readme_library_sketch_runs():
    sketch = library_sketch()
    assert "is_terminal" in sketch and "ScriptedAdversary" in sketch
    exec(compile(sketch, "README.md (library sketch)", "exec"), {})
