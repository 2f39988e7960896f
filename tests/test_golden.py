"""Golden CLI output: the exit code and stdout of a fixed list of commands,
pinned as one SHA-256 per group.

Each group hashes, command by command, the argv (arena paths as their
file names), the exit code and stdout.  A refactor that keeps the CLI
byte-identical keeps every digest; a change of any game, trace, table or
JSON payload changes the digest of its group.
"""

import hashlib
import itertools
import pathlib

import pytest

from richman import serialize_game_graph
from richman.agents import AGENT_NAMES
from richman.cli import main
from richman.series import build_series_graph
from richman.simulate import TIEBREAKS

import corpus

DATA = pathlib.Path(__file__).parent / "data"

# arena file name -> (start vertex, Blue's money, Red's money)
SIMULATE_ARENAS = {
    "fig1.rg": ("v", "1", "1"),
    "ring5.rg": ("v00", "3/7", "4/7"),
    "series3.rg": ("s0_0", "1/2", "1/2"),
}


def _arenas(tmp: pathlib.Path) -> dict[str, pathlib.Path]:
    (tmp / "ring5.rg").write_text(serialize_game_graph(corpus.ring_graph(5)))
    (tmp / "series3.rg").write_text(serialize_game_graph(build_series_graph(3)))
    return {"fig1.rg": DATA / "fig1.rg", "ring5.rg": tmp / "ring5.rg", "series3.rg": tmp / "series3.rg"}


def _groups() -> dict[str, list[tuple[str, ...]]]:
    groups = {}
    for name, (start, blue_money, red_money) in SIMULATE_ARENAS.items():
        money = ("--start", start, "--blue-money", blue_money, "--red-money", red_money)
        groups[f"simulate {name}"] = [
            ("simulate", name, *money, "--blue", blue, "--red", red, "--tiebreak", tiebreak,
             "--runs", "4", "--seed", "5", "--trace", "--output", "json")
            for blue, red, tiebreak in itertools.product(AGENT_NAMES, AGENT_NAMES, TIEBREAKS)
        ] + [("simulate", name, *money, "--runs", "3", "--trace")]
    groups["randomturn"] = [
        ("randomturn", "fig1.rg", "--start", "m", "--runs", "300", "--seed", "2"),
        ("randomturn", "ring5.rg", "--start", "v00", "--runs", "300", "--output", "json"),
        ("randomturn", "series3.rg", "--start", "s0_0", "--runs", "300", "--seed", "9", "--output", "json"),
    ]
    groups["solve"] = [
        (*mode, *output)
        for name in SIMULATE_ARENAS
        for mode in (("solve", name, "--exact"), ("solve", name, "--iterate", "--tol", "1e-6"))
        for output in ((), ("--output", "json"))
    ]
    groups["series"] = [
        ("series", "--wins", "3", "--bankroll", "1/2"),
        ("series", "--wins", "4", "--bankroll", "1/2", "--output", "json"),
    ]
    return groups


GOLDEN = {
    "simulate fig1.rg": "3fc2ef93fc570d7e2364faa6cb649e84b29bad1a7d405565744fafc092546ef3",
    "simulate ring5.rg": "d4cc390821d29d75a5774c2b9984f4bfe3adc717567c6b24186091f941c553e5",
    "simulate series3.rg": "a55205b109e16d2c822d9c3e6ef0665949487dcc63853c0154174d3c0e588919",
    "randomturn": "45e7903662abebbcdfd909a2d14f12140f3399fb4fbd6301241fc9589c7ef060",
    "solve": "57eb5c824aecefba452cccaa4e6534c5cd032132da424ff53501194a3512a3d3",
    "series": "face9973270c333e5b4c23779bfcbfaf6d15e68431a6f4eb1a6ed2b465413a16",
}


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_cli_output_matches_the_golden_digest(group, tmp_path, capsys):
    paths = _arenas(tmp_path)
    digest = hashlib.sha256()
    for argv in _groups()[group]:
        code = main([str(paths.get(arg, arg)) for arg in argv])
        out = capsys.readouterr().out
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
    assert digest.hexdigest() == GOLDEN[group]
