"""The README's command-line examples, run in process on its example arena.

The arena block (the one with ``edge`` lines) is written to ``arena.rg``
in a temporary directory, and each block that starts with ``$ richman``
is run there through ``richman.cli.main``: a trailing ``\\`` continues the
command on the next line, and the rest of the block is the expected
stdout, where a line ``...`` stands for any run of lines."""

import pathlib
import re
import shlex

import pytest

from richman.cli import main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S)
ARENA = next(block for block in BLOCKS if re.search(r"^edge ", block, re.M))


def examples() -> list[tuple[list[str], list[str]]]:
    """(argv, expected stdout lines) of every ``$ richman`` block."""
    found = []
    for block in BLOCKS:
        if not block.startswith("$ richman "):
            continue
        lines = block.splitlines()
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        found.append((shlex.split(command)[2:], lines))
    return found


def matches(expected: list[str], actual: list[str]) -> bool:
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(matches(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and matches(expected[1:], actual[1:])


EXAMPLES = examples()


def test_the_readme_has_its_five_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == ["solve", "solve", "simulate", "randomturn", "series"]


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(argv, expected, tmp_path, monkeypatch, capsys):
    (tmp_path / "arena.rg").write_text(ARENA)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert matches(expected, out.splitlines()), out
