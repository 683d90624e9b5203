"""Unused imports (the F401 rule of the ruff lint step), checked offline.

CI lints with ``ruff check .``; this test applies that rule's core with
the stdlib ``ast`` so the suite fails on an unused import even where
ruff is not installed.  It honours ``# noqa`` comments, the
``per-file-ignores`` of ``pyproject.toml``, names listed in
``__all__`` and explicit ``import x as x`` re-exports.  An import
counts as used when its bound name is read anywhere in the module,
quoted annotations included; that is looser than ruff's per-scope
analysis, so this test can miss an unused import but never reports a
used one.
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: directories ``ruff check .`` skips (its defaults plus .gitignore)
SKIP_DIRS = {"build", "dist", "node_modules", "venv", "__pycache__"}

NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9]+(?:[,\s]+[A-Z0-9]+)*))?", re.I)


def per_file_ignores() -> dict[str, list[str]]:
    """The ``[tool.ruff.lint.per-file-ignores]`` table of pyproject.toml
    (read by hand: ``tomllib`` is not in Python 3.10)."""
    table: dict[str, list[str]] = {}
    inside = False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            inside = line == "[tool.ruff.lint.per-file-ignores]"
        elif inside and "=" in line:
            pattern, codes = line.split("=", 1)
            table[ast.literal_eval(pattern.strip())] = ast.literal_eval(codes.strip())
    return table


def python_files() -> list[Path]:
    found = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and d not in SKIP_DIRS
            and not d.endswith(".egg-info")
            and Path(dirpath, d) != ROOT / "perfbench" / "out"
        )
        found += [Path(dirpath, f) for f in sorted(filenames) if f.endswith(".py")]
    return found


def noqa_silences(line: str) -> bool:
    match = NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in re.split(r"[,\s]+", codes.upper())


def names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads, ``__all__`` entries and the names
    inside string annotations included."""
    read: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                read.update(
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
    for annotation in annotations:
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                try:
                    read |= names_read(ast.parse(c.value, mode="eval"))
                except SyntaxError:
                    pass
    return read


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, imported name)`` of every unused import in ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = names_read(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*" or alias.asname == alias.name.rsplit(".", 1)[-1]:
                continue  # star import (F403), or an explicit re-export
            if (alias.asname or alias.name.split(".", 1)[0]) in read:
                continue
            if not (noqa_silences(lines[alias.lineno - 1])
                    or noqa_silences(lines[node.lineno - 1])):
                unused.append((alias.lineno, alias.name))
    return sorted(unused)


def test_no_unused_imports():
    ignores = per_file_ignores()
    found = []
    for path in python_files():
        rel = path.relative_to(ROOT).as_posix()
        if any(fnmatch.fnmatch(rel, pattern) and "F401" in codes
               for pattern, codes in ignores.items()):
            continue
        found += [f"{rel}:{line}: {name}"
                  for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports (F401):\n" + "\n".join(found)


def test_the_check_sees_unused_imports_only():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "import json  # noqa: E402\n"
        "import glob  # noqa\n"
        "from typing import List as List\n"
        "import os.path\n"
        "from re import (\n    compile,\n    escape,\n)\n"
        "__all__ = ['dumps']\n"
        "from json import dumps\n"
        "def f(x: 'Path') -> None:\n    compile('a')\n"
        "from pathlib import Path\n"
    )
    assert unused_imports(source) == [
        (1, "os"), (3, "json"), (6, "os.path"), (9, "escape"),
    ]
