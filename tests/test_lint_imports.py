"""Unused imports and unused local variables (the F401 and F841 rules
of the ruff lint step), checked offline.

CI lints with ``ruff check .``; this test applies those rules' core
with the stdlib ``ast`` so the suite fails on an unused import or local
even where ruff is not installed.  It honours ``# noqa`` comments and
the ``per-file-ignores`` of ``pyproject.toml``.

F401 honours names listed in ``__all__`` and explicit ``import x as
x`` re-exports.  An import counts as used when its bound name is read
anywhere in the module, quoted annotations included.

F841 flags a plain-name assignment in a function body whose name the
function (nested functions included) never reads.  Like ruff it skips
names starting with ``_``, tuple targets and augmented assignments, and
it skips names declared ``global`` or ``nonlocal`` (in the function
or a nested one).

Both are looser than ruff's per-scope analysis, so this test can miss
an unused name but never reports a used one.
"""

from __future__ import annotations

import ast
import fnmatch
import functools
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


def noqa_silences(line: str, code: str = "F401") -> bool:
    match = NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in re.split(r"[,\s]+", codes.upper())


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


def unused_imports(source: str, tree: ast.AST | None = None) -> list[tuple[int, str]]:
    """``(line, imported name)`` of every unused import in ``source``
    (``tree``, when given, is its parse)."""
    if tree is None:
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unused_locals(source: str, tree: ast.AST | None = None) -> list[tuple[int, str]]:
    """``(line, name)`` of every local assigned and never read
    (``tree``, when given, is the parse of ``source``).

    One walk over the tree gives each function the names read in it
    outside its nested functions, and the plain-name targets it assigns
    outside its nested functions and classes (whose names are not its
    locals); a second pass, innermost functions first, adds each nested
    function's reads to its parent's, so each node is visited once.
    """
    if tree is None:
        tree = ast.parse(source)
    lines = source.splitlines()
    reads: dict[ast.AST, set[str]] = {}
    targets: dict[ast.AST, list[ast.Name]] = {}
    parents: list[tuple[ast.AST, ast.AST | None]] = []  # functions, outer first
    # (node, innermost enclosing function, function whose locals it assigns)
    stack = [(tree, None, None)]
    while stack:
        node, func, owner = stack.pop()
        if isinstance(node, FUNCTIONS):
            parents.append((node, func))
            reads[node], targets[node] = set(), []
            func = owner = node
        elif isinstance(node, ast.ClassDef):
            owner = None
        elif func is not None:
            read = reads[func]
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)  # ``x += 1`` reads x
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            if owner is not None:
                if isinstance(node, ast.Assign):
                    targets[owner] += node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets[owner].append(node.target)
        stack.extend((child, func, owner) for child in ast.iter_child_nodes(node))
    for func, parent in reversed(parents):
        if parent is not None:
            reads[parent] |= reads[func]
    unused = [
        (target.lineno, target.id)
        for func, names in targets.items()
        for target in names
        if isinstance(target, ast.Name) and target.id not in reads[func]
        and not target.id.startswith("_")
        and not noqa_silences(lines[target.lineno - 1], "F841")
    ]
    return sorted(unused)


RULES = {"F401": unused_imports, "F841": unused_locals}


@functools.cache
def lint() -> dict[str, list[str]]:
    """``path:line: name`` of each finding of each rule over the tree,
    minus the files ``per-file-ignores`` exempt from that rule.  Each
    file is parsed once for all the rules."""
    ignores = per_file_ignores()
    found: dict[str, list[str]] = {code: [] for code in RULES}
    for path in python_files():
        rel = path.relative_to(ROOT).as_posix()
        source = path.read_text()
        tree = ast.parse(source)
        for code, check in RULES.items():
            if any(fnmatch.fnmatch(rel, pattern) and code in codes
                   for pattern, codes in ignores.items()):
                continue
            found[code] += [f"{rel}:{line}: {name}"
                            for line, name in check(source, tree)]
    return found


def test_no_unused_imports():
    found = lint()["F401"]
    assert not found, "unused imports (F401):\n" + "\n".join(found)


def test_no_unused_locals():
    found = lint()["F841"]
    assert not found, "unused local variables (F841):\n" + "\n".join(found)


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


def test_the_check_sees_unused_locals_only():
    source = (
        "x = 1\n"
        "def f(items):\n"
        "    a = 1\n"
        "    b: int = 2\n"
        "    c = d = 3\n"
        "    _ = 4\n"
        "    _e = 5\n"
        "    g, h = 6, 7\n"
        "    i = 0\n"
        "    i += 8\n"
        "    j = 9  # noqa: F841\n"
        "    k = 10  # noqa: E501\n"
        "    m = 11\n"
        "    def inner():\n"
        "        n = 12\n"
        "        return m + d\n"
        "    class C:\n"
        "        attr = 13\n"
        "    global x\n"
        "    x = 14\n"
        "    return inner, C\n"
        "def outer():\n"
        "    count = 0\n"
        "    def bump():\n"
        "        nonlocal count\n"
        "        count = 1\n"
        "    return bump\n"
    )
    assert unused_locals(source) == [
        (3, "a"), (4, "b"), (5, "c"), (12, "k"), (15, "n"),
    ]
