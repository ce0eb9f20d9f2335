"""Source hygiene: every private top-level function of the package is used,
and README states the package's line count."""

import ast
import re
from collections import Counter
from pathlib import Path

import indmorse

SRC = Path(indmorse.__file__).resolve().parent


def _references(node: ast.AST):
    """Names read inside node: bare names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_function_is_referenced():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    used = Counter(name for tree in trees.values() for name in _references(tree))
    unused = []
    for filename, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            # Recursive calls inside the function's own body do not count.
            own = sum(1 for ref in _references(node) if ref == name)
            if used[name] == own:
                unused.append(f"{filename}:{node.lineno} {name}")
    assert not unused, f"private functions never referenced in src/: {unused}"


def test_readme_states_the_src_line_count():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"`src/` is ([\d,]+) lines of Python", readme)
    assert stated, "README no longer states the src/ line count"
    lines = sum(
        path.read_text(encoding="utf-8").count("\n")
        for path in (root / "src" / "indmorse").glob("*.py")
    )
    assert int(stated.group(1).replace(",", "")) == lines
