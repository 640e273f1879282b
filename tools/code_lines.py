"""Count each module's code lines: not blank, not a comment, not in a docstring.

Docstrings are the string constants that open a module, class or function,
found with ``ast``.  Run from the repository root:

    python tools/code_lines.py [--rev REV] [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py`` files; the
default is ``src/gaussvol``.  Prints one line per module and the total.
With ``--rev REV`` each line holds the module's count at the git revision
REV (read with ``git show REV:path``) and in the working tree, as
``REV -> tree``; a module missing on one side counts as ``-``.
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))


def _git(*args) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def tree_sources(paths: list) -> dict:
    """Each module under ``paths`` in the working tree: its path and source."""
    files = []
    for arg in paths:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return {f.as_posix(): f.read_text() for f in files}


def rev_sources(rev: str, paths: list) -> dict:
    """Each module under ``paths`` at the git revision ``rev``: its path and source."""
    names = _git("ls-tree", "-r", "--name-only", rev, "--", *paths).split()
    return {name: _git("show", f"{rev}:{name}") for name in names if name.endswith(".py")}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="also count each module at this git revision")
    parser.add_argument("paths", nargs="*", default=["src/gaussvol"])
    args = parser.parse_args(argv)
    tree = {name: code_lines(src) for name, src in tree_sources(args.paths).items()}
    if args.rev is None:
        for name, n in tree.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(tree.values()):6d}  total")
        return 0
    old = {name: code_lines(src) for name, src in rev_sources(args.rev, args.paths).items()}
    for name in sorted(old.keys() | tree.keys()):
        print(f"{old.get(name, '-'):>6} -> {tree.get(name, '-'):>6}  {name}")
    print(f"{sum(old.values()):6d} -> {sum(tree.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
