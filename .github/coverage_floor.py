"""Fail on any statement of src/richman that tier-1 does not run, unless a
listed exception names it.

Usage: python .github/coverage_floor.py

Runs the tier-1 suite in this process under a stdlib line tracer
(``sys.settrace``, so about three times slower than an untraced run) that
records the lines run in the package's files.  A statement is one of the
package's ``ast`` statements that compiles to code: a simple statement
by all of its lines, a compound one (``if``, ``def``, ...) by its header
and decorators.  It is run when any of those lines is.  The exceptions
are keyed by file, enclosing function and statement text, not by line
number, and an exception that matches no unrun statement is an error
too, so the list cannot go stale silently.
"""

import ast
import os
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "richman"


class Allowed(NamedTuple):
    path: str
    scope: str
    statements: tuple[str, ...]
    reason: str


CHILD_PROCESS = "runs only in the child process of the console-script and `python -m richman` tests"
SAFETY_CHECK = "a safety check that no known arena reaches, and no proof yet shows that none can"

ALLOWED = [
    Allowed(
        "src/richman/__main__.py",
        "<module>",
        ('"""``python -m richman``: the same command line as the ``richman`` script."""',
         "from .cli import run", 'if __name__ == "__main__":', "run()"),
        CHILD_PROCESS,
    ),
    Allowed(
        "src/richman/cli.py",
        "run",
        ("try:", "code = main()", "sys.stdout.flush()", "devnull = os.open(os.devnull, os.O_WRONLY)",
         "os.dup2(devnull, sys.stdout.fileno())", "sys.exit(EXIT_BROKEN_PIPE)", "sys.exit(code)"),
        CHILD_PROCESS,
    ),
    Allowed(
        "src/richman/agents.py",
        "Agent.decide",
        ("raise NotImplementedError",),
        "the abstract method's body: every agent class overrides decide",
    ),
    Allowed(
        "src/richman/solver.py",
        "_solve_policy",
        ('raise SolverError(f"singular policy: {g._names[v]!r} never reaches a terminal")',),
        "proved unreachable by `_pick_policy`'s theorem (every policy the solve picks halts), kept as a guard",
    ),
    Allowed(
        "src/richman/solver.py",
        "_solve",
        ('raise SolverError("policy improvement revisited a policy")',),
        SAFETY_CHECK,
    ),
]


class Statement(NamedTuple):
    path: str
    line: int
    scope: str
    text: str
    lines: frozenset[int]


def code_lines(code) -> set[int]:
    """The lines of a code object and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> list[Statement]:
    """The statements of one file that compile to code, in line order."""
    source = path.read_text()
    text_lines = source.splitlines()
    executable = code_lines(compile(source, str(path), "exec"))
    name = str(path.relative_to(ROOT))
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                body = getattr(child, "body", None)
                if body:
                    last = max(child.lineno, body[0].lineno - 1)
                    own = set(range(child.lineno, last + 1))
                    own |= {d.lineno for d in getattr(child, "decorator_list", ())}
                    text = " ".join(" ".join(text_lines[child.lineno - 1 : last]).split())
                else:
                    own = set(range(child.lineno, child.end_lineno + 1))
                    text = " ".join(ast.get_source_segment(source, child).split())
                if own & executable:
                    found.append(Statement(name, child.lineno, ".".join(scope) or "<module>", text, frozenset(own)))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = [*scope, child.name]
            visit(child, inner)

    visit(ast.parse(source), [])
    return sorted(found, key=lambda s: s.line)


def traced_tier1() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 in this process; its exit code and the lines run in each
    package file, by absolute path."""
    package = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    wanted: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in wanted:
            path = os.path.realpath(filename)
            wanted[filename] = hits.setdefault(path, set()) if path.startswith(package) else None
        lines = wanted[filename]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    return int(code), hits


def main() -> int:
    code, hits = traced_tier1()
    failures = [] if code == 0 else [f"tier-1 failed under the tracer (exit {code})"]
    found = [s for path in sorted(PACKAGE.glob("*.py")) for s in statements(path)]
    unrun = [s for s in found if not s.lines & hits.get(str(ROOT / s.path), set())]
    allowed = {(a.path, a.scope, text) for a in ALLOWED for text in a.statements}
    matched = set()
    for s in unrun:
        key = (s.path, s.scope, s.text)
        if key in allowed:
            matched.add(key)
            print(f"allowed: {s.path}:{s.line} ({s.scope}): {s.text}")
        else:
            failures.append(f"{s.path}:{s.line} ({s.scope}): not run by tier-1: {s.text}")
    for path, scope, text in sorted(allowed - matched):
        failures.append(f"{path} ({scope}): allowed statement is run or gone: {text}")
    for line in failures:
        print(f"error: {line}")
    if failures:
        return 1
    print(f"every statement of src/richman runs in tier-1 but the {len(unrun)} allowed, of {len(found)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
