"""The richman command-line tool: outputs, exit codes, determinism."""

import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import richman
from richman import GameGraph, serialize_game_graph
from richman.cli import _build_parser, main
from richman.series import series_bet_plan, state_id

import corpus

FIG1_TABLE = (
    "vertex cost float\n"
    "a 1/2 0.5\n"
    "b 0 0.0\n"
    "c 1/2 0.5\n"
    "m 1/2 0.5\n"
    "r 1 1.0\n"
    "v 1/2 0.5\n"
)


@pytest.fixture()
def cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def test_solve_exact_table(cli, data_dir):
    code, out, err = cli("solve", str(data_dir / "fig1.rg"))
    assert (code, err) == (0, "")
    assert out == FIG1_TABLE


def test_solve_exact_flag_is_the_default(cli, data_dir):
    assert cli("solve", str(data_dir / "fig1.rg"))[1] == (
        cli("solve", str(data_dir / "fig1.rg"), "--exact")[1]
    )


def test_solve_json_is_deterministic(cli, data_dir):
    first = cli("solve", str(data_dir / "path.rg"), "--output", "json")
    second = cli("solve", str(data_dir / "path.rg"), "--output", "json")
    assert first == second
    assert first[0] == 0
    payload = json.loads(first[1])
    assert payload["mode"] == "exact"
    assert payload["costs"]["v1"] == {"num": 1, "den": 3, "float": 1 / 3}
    assert list(payload["costs"]) == sorted(payload["costs"])


def test_solve_iterate_table(cli, data_dir):
    code, out, err = cli("solve", str(data_dir / "path.rg"), "--iterate", "--tol", "1e-6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex upper lower"
    assert "v1 174763/524288 349525/1048576" in lines
    assert "gap 1/1048576 9.5367431640625e-07" in lines
    assert lines[-1] == "iterations 20"


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "abc"])
def test_solve_iterate_rejects_a_bad_tolerance(cli, data_dir, tol):
    code, out, err = cli("solve", str(data_dir / "fig1.rg"), "--iterate", "--tol", tol)
    assert (code, out) == (6, "")
    assert err.startswith("usage error: ")
    assert "--tol" in err


@pytest.mark.parametrize("limit", ["-1", "-3", "x"])
def test_solve_iterate_rejects_a_bad_iteration_limit(cli, data_dir, limit):
    code, out, err = cli("solve", str(data_dir / "fig1.rg"), "--iterate", "--max-iters", limit)
    assert (code, out) == (6, "")
    assert err.startswith("usage error: ")
    assert "--max-iters" in err


def test_solve_iterate_json(cli, data_dir):
    code, out, _ = cli(
        "solve", str(data_dir / "path.rg"), "--iterate", "--tol", "1e-6", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "iterate"
    assert payload["iterations"] == 20
    assert payload["gap"]["den"] == 2**20


def test_solve_missing_file(cli, tmp_path):
    code, out, err = cli("solve", str(tmp_path / "nope.rg"))
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_solve_file_that_is_not_utf8(cli, data_dir, tmp_path):
    latin1 = tmp_path / "g.rg"
    latin1.write_bytes("# café\n".encode("latin-1") + (data_dir / "fig1.rg").read_bytes())
    code, out, err = cli("solve", str(latin1))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {latin1}: ")
    assert "utf-8" in err


def test_solve_reads_a_file_with_a_byte_order_mark(cli, data_dir, tmp_path):
    """Notepad and Windows PowerShell save UTF-8 with a leading BOM."""
    plain = data_dir / "path.rg"
    marked = tmp_path / "g.rg"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    code, out, err = cli("solve", str(marked))
    assert (code, out, err) == cli("solve", str(plain))
    assert code == 0


def test_solve_unparsable_file(cli, tmp_path):
    bogus = tmp_path / "g.rg"
    bogus.write_text("blue b\nred r\nwormhole v b\n")
    code, _, err = cli("solve", str(bogus))
    assert code == 2
    assert "line 3" in err


def test_solve_invalid_graph_lists_violations(cli, data_dir):
    code, out, err = cli("solve", str(data_dir / "bad.rg"))
    assert code == 3
    assert out == ""
    assert "invalid graph" in err
    assert "DEAD_END sink" in err
    assert "UNREACHABLE_TERMINALS sink" in err


def test_solve_not_converged(cli, data_dir):
    code, _, err = cli("solve", str(data_dir / "fig1.rg"), "--iterate", "--max-iters", "5")
    assert code == 4
    assert "no convergence after 5 iterations" in err


def test_solve_zero_max_iters_stops_at_once(cli, data_dir):
    code, out, err = cli("solve", str(data_dir / "fig1.rg"), "--iterate", "--max-iters", "0")
    assert code == 4
    assert out == ""
    assert "no convergence after 0 iterations" in err


def test_solve_ring21_exact_table(cli, tmp_path):
    big = tmp_path / "ring21.rg"
    big.write_text(serialize_game_graph(corpus.ring_graph(21)))
    code, out, err = cli("solve", str(big))
    assert (code, err) == (0, "")
    den = 2**21 - 1
    rows = [f"v{i:02d} {2**i}/{den} {2**i / den}" for i in range(21)]
    assert out.splitlines() == ["vertex cost float", "b 0 0.0", "r 1 1.0"] + rows


def test_costs_with_more_digits_than_str_int_allows_are_printed(cli, tmp_path):
    """A line of 2 200 non-terminals, each also stepping to b, the last to
    r: its head costs 1/2^2200, 663 digits, while str(int) here takes at
    most 640 (the least Python allows).  Every command that prints the cost
    prints it, and the limit is back after each."""
    names = [f"v{i:04d}" for i in range(2200)]
    edges = [(v, "b") for v in names] + list(zip(names, names[1:])) + [(names[-1], "r")]
    line = tmp_path / "line.rg"
    line.write_text(serialize_game_graph(GameGraph.from_parts((), edges, "b", "r")))
    den = str(2**2200)
    commands = (("solve",), ("solve", "--output", "json"), ("randomturn", "--start", "v0000"))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        runs = []
        for command, *flags in commands:
            runs.append(cli(command, str(line), *flags))
            assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert [(code, err) for code, _, err in runs] == [(0, "")] * 3
    assert f"v0000 1/{den} 0.0" in runs[0][1].splitlines()
    assert json.loads(runs[1][1])["costs"]["v0000"] == {"num": 1, "den": int(den), "float": 0.0}
    assert f"exact 1/{den} 0.0" in runs[2][1].splitlines()


def test_solve_internal_solver_error_exits_1(cli, data_dir, monkeypatch):
    def fail(g):
        raise richman.SolverError("policy improvement revisited a policy")

    monkeypatch.setattr(richman.cli, "_solve", fail)
    code, out, err = cli("solve", str(data_dir / "fig1.rg"))
    assert (code, out) == (1, "")
    assert err == "internal solver error: policy improvement revisited a policy\n"


def test_solve_mutually_exclusive_modes(cli, data_dir):
    code, _, err = cli("solve", str(data_dir / "fig1.rg"), "--exact", "--iterate")
    assert code == 6
    assert "usage error" in err


def test_simulate_trace_frozen_bytes(cli, data_dir):
    code, out, err = cli(
        "simulate",
        str(data_dir / "fig1.rg"),
        "--start", "m",
        "--blue-money", "3/5",
        "--red-money", "2/5",
        "--tiebreak", "always-red",
        "--seed", "7",
        "--trace",
    )
    assert (code, err) == (0, "")
    assert out == (
        "game 0 start m\n"
        "step 0 m 11/20 2/5 - blue 11/20 b 1/20 19/20\n"
        "outcome BlueWins steps 1 cap 384\n"
        "runs 1\n"
        "blue_wins 1\n"
        "red_wins 0\n"
        "unresolved 0\n"
        "moves 1:1\n"
        "master_seed 7\n"
    )


def test_simulate_safety_holds_the_lead(cli, data_dir):
    code, out, _ = cli(
        "simulate",
        str(data_dir / "fig1.rg"),
        "--start", "v",
        "--blue-money", "7/10",
        "--red-money", "3/10",
        "--blue", "safety",
        "--runs", "30",
        "--seed", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert "red_wins 0" in lines
    assert "unresolved 0" in lines
    assert "blue_wins 30" in lines


def test_simulate_json_with_traces_is_deterministic(cli, data_dir):
    argv = (
        "simulate",
        str(data_dir / "fig1.rg"),
        "--start", "v",
        "--blue-money", "7/10",
        "--red-money", "3/10",
        "--blue", "safety",
        "--red", "uniform-random-bid",
        "--runs", "5",
        "--trace",
        "--output", "json",
    )
    first = cli(*argv)
    assert first == cli(*argv)
    payload = json.loads(first[1])
    assert payload["stats"]["runs"] == 5
    assert len(payload["traces"]) == 5
    assert payload["traces"][0]["start"] == "v"


def test_simulate_scenario_validation(cli, data_dir):
    fig1 = str(data_dir / "fig1.rg")
    base = ("--blue-money", "1/2", "--red-money", "1/2")
    assert cli("simulate", fig1, "--start", "b", *base)[0] == 3
    assert cli("simulate", fig1, "--start", "zz", *base)[0] == 3
    assert cli("simulate", fig1, "--start", "v", *base, "--runs", "-1")[0] == 3
    assert cli("simulate", fig1, "--start", "v", *base, "--max-moves", "0")[0] == 3


def test_simulate_zero_runs_prints_zero_tallies(cli, data_dir):
    money = ("--blue-money", "1", "--red-money", "1")
    code, out, err = cli("simulate", str(data_dir / "fig1.rg"), "--start", "v", *money, "--runs", "0")
    assert (code, err) == (0, "")
    assert out == "runs 0\nblue_wins 0\nred_wins 0\nunresolved 0\nmoves\nmaster_seed 0\n"


def test_simulate_usage_errors(cli, data_dir):
    fig1 = str(data_dir / "fig1.rg")
    cases = [
        ("simulate", fig1, "--start", "v", "--blue-money", "0.6", "--red-money", "1/2"),
        ("simulate", fig1, "--start", "v", "--blue-money", "1/0", "--red-money", "1/2"),
        ("simulate", fig1, "--start", "v", "--blue-money", "-1", "--red-money", "1/2"),
        ("simulate", fig1, "--start", "v", "--blue-money", "1/2", "--red-money", "1/2", "--blue", "greedy"),
        ("simulate", fig1, "--blue-money", "1/2", "--red-money", "1/2"),
    ]
    for argv in cases:
        code, _, err = cli(*argv)
        assert code == 6, argv
        assert "usage error" in err
    # str.isdigit accepts these, int does not: the screen must reject them.
    for money in ("²", "①", "1/²"):
        code, _, err = cli("simulate", fig1, "--start", "v", "--blue-money", money, "--red-money", "1")
        assert code == 6, money
        assert f"money must be a nonnegative integer or p/q fraction, got {money!r}" in err


def test_randomturn_table_from_terminal(cli, data_dir):
    code, out, _ = cli("randomturn", str(data_dir / "path.rg"), "--start", "r", "--runs", "5")
    assert code == 0
    assert out == (
        "runs 5\n"
        "blue_wins 0\n"
        "red_wins 5\n"
        "unresolved 0\n"
        "frequency 1.0\n"
        "stderr 0.0\n"
        "exact 1 1.0\n"
    )


def test_randomturn_ends_every_game_through_a_tie(cli, data_dir):
    """Both successors of fig1's v cost 1/2; the coin game still ends."""
    code, out, _ = cli("randomturn", str(data_dir / "fig1.rg"), "--start", "v", "--runs", "4000")
    fields = dict(line.split(" ", 1) for line in out.splitlines())
    assert code == 0
    assert fields["unresolved"] == "0"
    assert fields["exact"] == "1/2 0.5"
    assert abs(float(fields["frequency"]) - 0.5) <= 4 * math.sqrt(0.25 / 4000)


def test_randomturn_json(cli, data_dir):
    argv = ("randomturn", str(data_dir / "path.rg"), "--start", "v1", "--runs", "400", "--seed", "3")
    first = cli(*argv, "--output", "json")
    assert first == cli(*argv, "--output", "json")
    payload = json.loads(first[1])
    assert payload["runs"] == 400
    assert payload["exact"] == {"num": 1, "den": 3, "float": 1 / 3}
    assert payload["blue_wins"] + payload["red_wins"] + payload["unresolved"] == 400
    assert payload["frequency"] == payload["red_wins"] / 400


def test_randomturn_validation(cli, data_dir):
    path = str(data_dir / "path.rg")
    assert cli("randomturn", path, "--start", "zz")[0] == 3
    assert cli("randomturn", path, "--start", "v1", "--runs", "0")[0] == 3


def test_every_two_vertex_arena_plays_from_every_start(cli, tmp_path):
    """On every valid arena with two non-terminals (``corpus.small_arenas``)
    ``simulate`` and ``randomturn`` exit 0 from each non-terminal start, and
    ``randomturn``'s ``exact`` line is that start's row of ``solve``."""
    path, valid = tmp_path / "arena.rg", 0
    for g in corpus.small_arenas(2):
        if not g.validation.ok:
            continue
        valid += 1
        path.write_text(serialize_game_graph(g))
        code, out, err = cli("solve", str(path))
        assert (code, err) == (0, ""), g
        rows = {row.split(" ", 1)[0]: row.split(" ", 1)[1] for row in out.splitlines()[1:]}
        for start in g.non_terminals:
            simulate = ("--blue-money", "1", "--red-money", "1", "--runs", "5")
            assert cli("simulate", str(path), "--start", start, *simulate)[0::2] == (0, ""), (g, start)
            code, out, err = cli("randomturn", str(path), "--start", start, "--runs", "20")
            assert (code, err) == (0, ""), (g, start)
            assert out.splitlines()[-1] == f"exact {rows[start]}", (g, start)
    assert valid > 100


def test_series_table(cli):
    code, out, err = cli("series", "--wins", "4", "--bankroll", "1/2")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "wins_needed 4"
    assert lines[1] == "bankroll 1/2"
    assert lines[2] == "state holding stake"
    assert "s0_0 1/2 5/32" in lines
    assert "s0_3 15/16 1/16" in lines
    assert "s3_3 1/2 1/2" in lines
    assert len(lines) == 3 + 16


def test_series_wrong_bankroll(cli):
    code, out, err = cli("series", "--wins", "4", "--bankroll", "2/5")
    assert code == 3
    assert err == "bankroll 2/5 does not match the ladder; required: 1/2\n"


def test_series_bad_wins(cli):
    for wins in ("0", "-1"):
        assert cli("series", "--wins", wins, "--bankroll", "1/2") == (3, "", "k must be at least 1\n")


def test_series_json(cli):
    first = cli("series", "--wins", "2", "--bankroll", "1/2", "--output", "json")
    assert first == cli("series", "--wins", "2", "--bankroll", "1/2", "--output", "json")
    payload = json.loads(first[1])
    assert payload["holdings"]["s0_0"] == {"num": 1, "den": 2}
    assert payload["stakes"]["s1_1"] == {"num": 1, "den": 2}


def test_series_prints_the_public_plan_for_every_k_up_to_20(cli):
    """The table is printed from the ladder's integers: it must be the
    plan's Fractions in sorted state order, and the JSON the plan's."""
    for k in range(1, 21):
        plan = series_bet_plan(k, Fraction(1, 2))
        rows = [f"{state_id(*s)} {h} {plan.stakes[s]}" for s, h in sorted(plan.holdings.items())]
        table = "\n".join([f"wins_needed {k}", "bankroll 1/2", "state holding stake", *rows]) + "\n"
        assert cli("series", "--wins", str(k), "--bankroll", "1/2") == (0, table, "")
        payload = json.dumps(plan.to_json_dict(), sort_keys=True) + "\n"
        assert cli("series", "--wins", str(k), "--bankroll", "1/2", "--output", "json") == (0, payload, "")
        wrong = "bankroll 1/3 does not match the ladder; required: 1/2\n"
        for output in ("table", "json"):
            assert cli("series", "--wins", str(k), "--bankroll", "1/3", "--output", output) == (3, "", wrong)
    for output in ("table", "json"):
        assert cli("series", "--wins", "0", "--bankroll", "1/2", "--output", output) == (3, "", "k must be at least 1\n")


def test_top_level_usage(cli):
    assert cli()[0] == 6
    code, _, err = cli("conquer")
    assert code == 6
    assert "usage error" in err


def test_a_usage_error_leaves_the_shared_parser_as_it_was(cli, data_dir):
    assert _build_parser() is _build_parser()
    code, out, _ = cli("solve", str(data_dir / "fig1.rg"), "--iterate", "--tol", "nan")
    assert (code, out) == (6, "")
    assert cli("solve", str(data_dir / "fig1.rg")) == (0, FIG1_TABLE, "")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_matches_a_freshly_built_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for parse in (main, main, _build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as stop:
            parse(list(argv))
        assert stop.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0].startswith("usage: richman")
    assert texts[0] == texts[1] == texts[2]


PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_entry_point(name):
    """The ``module:function`` that ``[project.scripts]`` in pyproject.toml binds to ``name``.

    Read line by line rather than with ``tomllib``, which Python 3.10 lacks.
    """
    in_scripts = False
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_scripts = line == "[project.scripts]"
        elif in_scripts and (found := re.fullmatch(rf'{name}\s*=\s*"([\w.]+):(\w+)"', line)):
            return found.group(1), found.group(2)
    raise LookupError(f"no [project.scripts] entry {name!r} in {PYPROJECT}")


def fresh_interpreter_env() -> dict[str, str]:
    """The environment with this test process's source tree first on
    ``PYTHONPATH``, so a child needs no installed ``richman``."""
    src = pathlib.Path(richman.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_fresh_interpreter(*args):
    """``sys.executable *args`` importing the same source tree as this test
    process."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=fresh_interpreter_env())


def test_console_script_matches_in_process(data_dir):
    # Runs the declared entry point the way pip's console-script wrapper does.
    module, function = declared_entry_point("richman")
    code = (
        f"import sys; from {module} import {function}; "
        f"sys.argv[0] = 'richman'; sys.exit({function}())"
    )
    script = run_fresh_interpreter("-c", code, "solve", str(data_dir / "fig1.rg"))
    assert script.returncode == 0
    assert script.stdout == FIG1_TABLE
    assert script.stderr == ""


def test_output_does_not_depend_on_hash_order(data_dir, monkeypatch):
    """Sets of vertex names iterate in an order PYTHONHASHSEED changes; no
    output may follow it."""
    fig1 = str(data_dir / "fig1.rg")
    money = ("--blue-money", "1/2", "--red-money", "1/2")
    commands = (
        ("solve", fig1),
        ("simulate", fig1, "--start", "v", *money, "--blue", "uniform-random-bid", "--runs", "3", "--trace"),
        ("randomturn", fig1, "--start", "m", "--runs", "50"),
        ("series", "--wins", "6", "--bankroll", "1/2"),
    )
    outputs = []
    for hash_seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        runs = [run_fresh_interpreter("-m", "richman", *argv) for argv in commands]
        assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * len(commands)
        outputs.append([run.stdout for run in runs])
    assert outputs[0] == outputs[1]


def test_python_dash_m_matches_in_process(data_dir):
    script = run_fresh_interpreter("-m", "richman", "solve", str(data_dir / "fig1.rg"))
    assert script.returncode == 0
    assert script.stdout == FIG1_TABLE
    assert script.stderr == ""


def test_python_dash_m_exits_6_on_a_usage_error_without_a_traceback(data_dir):
    fig1 = str(data_dir / "fig1.rg")
    script = run_fresh_interpreter("-m", "richman", "simulate", fig1, "--start", "v", "--blue-money", "1/0")
    assert (script.returncode, script.stdout) == (6, "")
    assert script.stderr.startswith("usage error: ")
    assert "Traceback" not in script.stderr


def test_a_reader_that_stops_early_gets_exit_141_and_no_traceback(data_dir):
    """About 3 MB of traces, far more than a pipe holds, so the writer is
    still writing when the reader closes its end after the first line."""
    argv = ("simulate", str(data_dir / "fig1.rg"), "--start", "v", "--blue-money", "7/10",
            "--red-money", "3/10", "--runs", "20000", "--trace")
    child = subprocess.Popen(
        [sys.executable, "-m", "richman", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=fresh_interpreter_env(),
    )
    try:
        assert child.stdout.readline() == b"game 0 start v\n"
        child.stdout.close()
        assert child.wait(timeout=60) == 141
        assert child.stderr.read() == b""
    finally:
        child.kill()
        child.wait()
        child.stderr.close()


@pytest.mark.skipif(shutil.which("richman") is None, reason="richman console script not installed")
def test_installed_console_script_matches_in_process(data_dir):
    script = subprocess.run(
        [shutil.which("richman"), "solve", str(data_dir / "fig1.rg")],
        capture_output=True,
        text=True,
    )
    assert script.returncode == 0
    assert script.stdout == FIG1_TABLE
