"""The workloads: seeded command lists plus an output check per command.

A workload is built from its seed alone.  It renders its arenas as ``.rg``
files for a work directory and returns ``richman`` command lines; the
program sees nothing else.  Each command carries a check that reads the
command's stdout and judges it against the benchmark's own edge list and
oracles (see ``arenas``), never against the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from arenas import (
    FIG1,
    FIXTURES,
    PATH,
    STAR,
    Arena,
    chain,
    closed_form,
    identity_holds,
    random_arena,
    ring,
    series,
    series_cost,
    series_state,
    solve_linear,
)


@dataclass(frozen=True)
class Verdict:
    """What a check found: a problem (None when the output is right), the
    games the command played, how many of them were Unresolved, and whether
    the command was a refusal that the solver's limits allow."""

    problem: str | None
    games: int = 0
    unresolved: int = 0
    refused: bool = False


@dataclass(frozen=True)
class Command:
    """A command line, the check of its stdout, and for ``solve`` and
    ``series`` the arena it solves exactly: only those may answer with a
    refusal, and only for an arena beyond the solver's limits."""

    argv: tuple[str, ...]
    check: Callable[[str], Verdict]
    solves: Arena | None = None


WORKLOADS = ("solve-corpus", "simulate-batch", "randomturn-coin")

# Exact costs of the hand-made arenas, solved by hand from the identity:
# fig1: m = 1/2 and the loop v -> c -> a -> v averages to 1/2 everywhere;
# path: 2 v1 = v2, 2 v2 = v1 + 1.
FIXTURE_COSTS = {
    "fig1": {"b": 0, "r": 1, "m": Fraction(1, 2), "v": Fraction(1, 2), "c": Fraction(1, 2), "a": Fraction(1, 2)},
    "path": {"b": 0, "r": 1, "v1": Fraction(1, 3), "v2": Fraction(2, 3)},
    "star": {"b": 0, "r": 1, "v": Fraction(1, 2)},
}


def known_costs(arena: Arena) -> dict[str, Fraction] | None:
    return FIXTURE_COSTS.get(arena.name) or closed_form(arena)


# The exact solver's documented limits: it reconstructs rationals with
# denominators up to 10^6 (its default bound; it retries at twice that),
# and falls back to enumerating policies only on arenas with at most 10
# non-terminals.  Past both it refuses with exit 5.
MAX_DEN = 10**6
ENUM_LIMIT = 10


def beyond_limits(arena: Arena) -> bool:
    """Whether the solver may refuse the arena: more than ENUM_LIMIT
    non-terminals and an exact cost with a denominator above MAX_DEN.
    Closer to MAX_DEN the solver sometimes still succeeds (series12, 2^20)."""
    if len(arena.successors()) <= ENUM_LIMIT:
        return False
    costs = known_costs(arena) or solve_linear(arena)
    return max(c.denominator for c in costs.values()) > MAX_DEN


def _frac(text: str) -> Fraction:
    return Fraction(text)


def _json_frac(d: dict) -> Fraction:
    return Fraction(d["num"], d["den"])


# --- checks ------------------------------------------------------------------


def _judge_exact(arena: Arena, costs: dict[str, Fraction]) -> Verdict:
    if not identity_holds(arena, costs):
        return Verdict(f"{arena.name}: table breaks 2 cost(v) = min + max")
    known = known_costs(arena)
    if known is not None and costs != known:
        return Verdict(f"{arena.name}: table differs from the closed form")
    return Verdict(None)


def check_solve_exact(arena: Arena, as_json: bool) -> Callable[[str], Verdict]:
    def check(out: str) -> Verdict:
        if as_json:
            payload = json.loads(out)
            costs = {v: _json_frac(c) for v, c in payload["costs"].items()}
        else:
            lines = out.splitlines()
            if lines[0] != "vertex cost float":
                return Verdict(f"{arena.name}: bad header {lines[0]!r}")
            costs = {}
            for line in lines[1:]:
                v, q, x = line.split()
                costs[v] = _frac(q)
                if float(x) != float(costs[v]):
                    return Verdict(f"{arena.name}: float column of {v} is {x}")
        return _judge_exact(arena, costs)

    return check


def check_solve_iterate(arena: Arena, as_json: bool, tol: float) -> Callable[[str], Verdict]:
    """A valid bracket: upper a super-solution, lower a sub-solution (so they
    enclose the unique cost), terminals fixed, gap as printed and <= tol."""

    def check(out: str) -> Verdict:
        if as_json:
            payload = json.loads(out)
            upper = {v: _json_frac(c) for v, c in payload["upper"]["costs"].items()}
            lower = {v: _json_frac(c) for v, c in payload["lower"]["costs"].items()}
            gap = _json_frac(payload["gap"])
        else:
            lines = out.splitlines()
            upper, lower = {}, {}
            for line in lines[1:-2]:
                v, u, lo = line.split()
                upper[v], lower[v] = _frac(u), _frac(lo)
            gap = _frac(lines[-2].split()[1])
        succ = arena.successors()
        if set(upper) != set(arena.vertices) or set(lower) != set(arena.vertices):
            return Verdict(f"{arena.name}: bracket misses vertices")
        for table in (upper, lower):
            if table[arena.blue] != 0 or table[arena.red] != 1:
                return Verdict(f"{arena.name}: bracket moves a terminal")
        for v, us in succ.items():
            hi = [upper[u] for u in us]
            lo = [lower[u] for u in us]
            if 2 * upper[v] < min(hi) + max(hi) or 2 * lower[v] > min(lo) + max(lo):
                return Verdict(f"{arena.name}: bracket is not a super/sub-solution at {v}")
        if gap != max(upper[v] - lower[v] for v in upper) or gap > tol:
            return Verdict(f"{arena.name}: gap {gap} wrong or above {tol}")
        known = known_costs(arena)
        if known is not None and any(not lower[v] <= known[v] <= upper[v] for v in known):
            return Verdict(f"{arena.name}: bracket misses the closed form")
        return Verdict(None)

    return check


def check_series(k: int, as_json: bool) -> Callable[[str], Verdict]:
    """Holdings equal the binomial sum; each stake is the successor gap."""

    def check(out: str) -> Verdict:
        if as_json:
            payload = json.loads(out)
            holdings = {s: _json_frac(q) for s, q in payload["holdings"].items()}
            stakes = {s: _json_frac(q) for s, q in payload["stakes"].items()}
        else:
            lines = out.splitlines()
            if lines[0] != f"wins_needed {k}" or lines[2] != "state holding stake":
                return Verdict(f"series{k}: bad header")
            holdings, stakes = {}, {}
            for line in lines[3:]:
                s, h, st = line.split()
                holdings[s], stakes[s] = _frac(h), _frac(st)
        want = {series_state(i, j): series_cost(k, i, j) for i in range(k) for j in range(k)}
        if holdings != want:
            return Verdict(f"series{k}: holdings differ from the binomial closed form")
        for i in range(k):
            for j in range(k):
                up = series_cost(k, i, j + 1) if j + 1 < k else Fraction(1)
                if stakes[series_state(i, j)] != up - want[series_state(i, j)]:
                    return Verdict(f"series{k}: stake at {series_state(i, j)} is not the successor gap")
        return Verdict(None)

    return check


def _check_game(arena: Arena, succ: dict, start: str, steps: list, outcome: str) -> str | None:
    """Money is conserved along every step (the total is 1) and each move
    follows an edge of the arena."""
    position = start
    blue_money = None
    for s in steps:
        if s["position"] != position or s["move_to"] not in succ.get(position, ()):
            return f"illegal move {position} -> {s['move_to']}"
        bid = s["blue_bid"] if s["winner"] == "blue" else s["red_bid"]
        if s["transfer"] != bid or s["blue_after"] + s["red_after"] != 1:
            return f"money not conserved at step {s['index']}"
        if blue_money is not None:
            sign = -1 if s["winner"] == "blue" else 1
            if s["blue_after"] != blue_money + sign * s["transfer"]:
                return f"bankroll jumps at step {s['index']}"
        blue_money = s["blue_after"]
        position = s["move_to"]
    want = {arena.blue: "BlueWins", arena.red: "RedWins"}.get(position, "Unresolved")
    if not outcome.startswith(want):
        return f"outcome {outcome} at {position}"
    return None


def _parse_text_traces(lines: list[str]) -> list[tuple[str, list, str]]:
    games = []
    for line in lines:
        parts = line.split()
        if parts[0] == "game":
            games.append((parts[3], [], None))
        elif parts[0] == "step":
            names = ("blue_bid", "red_bid", "transfer", "blue_after", "red_after")
            values = dict(zip(names, map(_frac, (parts[3], parts[4], parts[7], parts[9], parts[10]))))
            games[-1][1].append({
                "index": int(parts[1]), "position": parts[2], "winner": parts[6],
                "move_to": parts[8], **values,
            })
        elif parts[0] == "outcome":
            games[-1] = (games[-1][0], games[-1][1], parts[1])
    return games


def check_simulate(arena: Arena, start: str, runs: int, trace: bool, as_json: bool) -> Callable[[str], Verdict]:
    """Tallies sum to --runs; with a trace, every game conserves money."""
    succ = arena.successors()

    def check(out: str) -> Verdict:
        if as_json:
            payload = json.loads(out)
            stats = payload["stats"]
            hist = {int(k): v for k, v in stats["move_histogram"].items()}
            games = [
                (g["start"], [
                    {**s, **{k: _json_frac(s[k]) for k in ("blue_bid", "red_bid", "transfer", "blue_after", "red_after")}}
                    for s in g["steps"]
                ], g["outcome"])
                for g in payload.get("traces", [])
            ]
        else:
            lines = out.splitlines()
            tail = dict(line.split(" ", 1) for line in lines[-6:])
            stats = {k: int(tail[k]) for k in ("runs", "blue_wins", "red_wins", "unresolved")}
            hist = {int(a): int(b) for a, b in (p.split(":") for p in tail["moves"].split())}
            games = _parse_text_traces(lines[:-6])
        tallies = stats["blue_wins"] + stats["red_wins"] + stats["unresolved"]
        if stats["runs"] != runs or tallies != runs or sum(hist.values()) != runs:
            return Verdict(f"{arena.name}: tallies do not sum to {runs}")
        if trace:
            if len(games) != runs:
                return Verdict(f"{arena.name}: {len(games)} traces for {runs} games")
            for g_start, steps, outcome in games:
                problem = _check_game(arena, succ, g_start, steps, outcome)
                if g_start != start or problem:
                    return Verdict(f"{arena.name}: {problem or 'wrong start'}", runs, stats["unresolved"])
        return Verdict(None, runs, stats["unresolved"])

    return check


def check_randomturn(arena: Arena, start: str, runs: int) -> Callable[[str], Verdict]:
    """Tallies sum to --runs, ``exact`` is the true cost, and when every game
    resolved the red-win frequency is within 4 stderr of it."""
    exact = known_costs(arena)[start]

    def check(out: str) -> Verdict:
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        blue, red, unresolved = (int(fields[k]) for k in ("blue_wins", "red_wins", "unresolved"))
        if int(fields["runs"]) != runs or blue + red + unresolved != runs:
            return Verdict(f"{arena.name}: tallies do not sum to {runs}")
        if _frac(fields["exact"].split()[0]) != exact:
            return Verdict(f"{arena.name}: exact {fields['exact']} is not {exact}", runs, unresolved)
        if unresolved == 0:
            # The standard error at the exact cost: the printed one is 0 when
            # every game ends the same way, as from a start costing 1/4095.
            frequency = red / runs
            stderr = math.sqrt(exact * (1 - exact) / runs)
            if abs(frequency - exact) > 4 * stderr:
                return Verdict(f"{arena.name}: frequency {frequency} is off {exact}", runs, unresolved)
        return Verdict(None, runs, unresolved)

    return check


# --- workloads ---------------------------------------------------------------


class Inputs:
    """The ``.rg`` files of a workload, rendered in memory and written to
    its work directory by ``save``, so that generating the inputs can be
    timed apart from the file system."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.texts: dict[Path, str] = {}

    def add(self, arena: Arena) -> str:
        """The path the arena's file will have."""
        path = self.workdir / f"{arena.name}.rg"
        self.texts[path] = arena.text()
        return str(path)

    def save(self) -> None:
        for path, text in self.texts.items():
            path.write_text(text, encoding="utf-8")


def solve_corpus(seed: int, files: Inputs) -> list[Command]:
    """About 120 solve/series commands: fixtures, rings 4..24, two-way chains,
    seeded random cyclic and acyclic arenas, and the series ladder k = 1..20.

    The ladder goes past k = 16 so that the slowest tenth of the commands,
    where cmd_p90_ms is read, is mostly the same on every seed."""
    rng = random.Random(f"solve-corpus:{seed}")
    arenas = list(FIXTURES) + [ring(n) for n in range(4, 25)] + [chain(n) for n in (5, 10, 15, 20)]
    arenas += [random_arena(rng, f"cyc{i:02d}", 10 + (i * 21) // 40, acyclic=False) for i in range(40)]
    arenas += [random_arena(rng, f"cyc50_{i}", 50, acyclic=False) for i in range(2)]
    arenas += [random_arena(rng, f"acy{i:02d}", 10 + i * 2, acyclic=True) for i in range(20)]
    commands = []
    for arena in arenas:
        commands.append(Command(("solve", files.add(arena)), check_solve_exact(arena, False), arena))
    for arena in (FIG1, ring(8), chain(5), arenas[-1]):
        commands.append(Command(("solve", files.add(arena), "--output", "json"), check_solve_exact(arena, True), arena))
    for arena, as_json in ((PATH, False), (STAR, True), (ring(6), False), (chain(10), True)):
        argv = ("solve", files.add(arena), "--iterate", "--tol", "1e-6")
        argv += ("--output", "json") if as_json else ()
        commands.append(Command(argv, check_solve_iterate(arena, as_json, 1e-6)))
    for k in range(1, 21):
        commands.append(Command(("series", "--wins", str(k), "--bankroll", "1/2"), check_series(k, False), series(k)))
    for k in (3, 8):
        argv = ("series", "--wins", str(k), "--bankroll", "1/2", "--output", "json")
        commands.append(Command(argv, check_series(k, True), series(k)))
    return commands


# Blue's share of a total of 1 sits a fifth of the way from the start cost
# toward winning for sure (the optimal agent's horizon ladder runs) in the
# first two pairings, and a fifth of the way toward 0 (the opponent leads)
# in the last two.
PAIRINGS = (
    ("optimal", "optimal", True),
    ("safety", "optimal", True),
    ("uniform-random-bid", "optimal", False),
    ("optimal", "safety", False),
)
SIMULATE_RUNS = 200
TRACE_RUNS = 25


def _money(cost: Fraction, ahead: bool) -> tuple[str, str]:
    share = cost + (1 - cost) / 5 if ahead else cost * 4 / 5
    return str(share), str(1 - share)


def _game_arenas() -> list[tuple[Arena, str]]:
    return [(series(12), "s0_0"), (chain(8), "v04"), (FIG1, "v"), (ring(12), "v00")]


def _simulate(path: str, start: str, money: tuple[str, str], blue: str, red: str, runs: int, seed: int) -> tuple[str, ...]:
    return (
        "simulate", path, "--start", start, "--blue-money", money[0], "--red-money", money[1],
        "--blue", blue, "--red", red, "--tiebreak", "fair", "--runs", str(runs), "--seed", str(seed),
    )


def simulate_batch(seed: int, files: Inputs) -> list[Command]:
    """Four pairings on series12, chain8, fig1 and ring12, plus three traced batches."""
    rng = random.Random(f"simulate-batch:{seed}")
    commands = []
    for arena, start in _game_arenas():
        path = files.add(arena)
        cost = known_costs(arena)[start]
        for blue, red, ahead in PAIRINGS:
            argv = _simulate(path, start, _money(cost, ahead), blue, red, SIMULATE_RUNS, rng.randrange(2**31))
            commands.append(Command(argv, check_simulate(arena, start, SIMULATE_RUNS, False, False)))
    for (arena, start), as_json in ((_game_arenas()[2], False), (_game_arenas()[1], True), (_game_arenas()[3], False)):
        path = files.add(arena)
        money = _money(known_costs(arena)[start], True)
        argv = _simulate(path, start, money, "safety", "optimal", TRACE_RUNS, rng.randrange(2**31))
        argv += ("--trace",) + (("--output", "json") if as_json else ())
        commands.append(Command(argv, check_simulate(arena, start, TRACE_RUNS, True, as_json)))
    return commands


# fig1 from v never ends in the coin game: both successors of v cost 1/2, the
# tie goes to c for either player, and the token circles v -> c -> a -> v
# until the move cap.  Those games are kept and counted as Unresolved; the
# start gets fewer runs because each game runs to the cap.
COIN_STARTS = (("series12", "s0_0", 2000), ("chain8", "v04", 2000), ("fig1", "m", 2000), ("fig1", "v", 200), ("ring12", "v00", 2000))


def randomturn_coin(seed: int, files: Inputs) -> list[Command]:
    """Coin-flip games from five starts on the simulate-batch arenas."""
    rng = random.Random(f"randomturn-coin:{seed}")
    by_name = {arena.name: arena for arena, _ in _game_arenas()}
    commands = []
    for name, start, runs in COIN_STARTS:
        argv = (
            "randomturn", files.add(by_name[name]), "--start", start,
            "--runs", str(runs), "--seed", str(rng.randrange(2**31)),
        )
        commands.append(Command(argv, check_randomturn(by_name[name], start, runs)))
    return commands


def probes(seed: int, files: Inputs) -> list[Command]:
    """One tiny command of every kind, appended to every workload so that
    each traced layer function runs (and has a nonzero time) in each."""
    rng = random.Random(f"probes:{seed}")
    fig1, path = files.add(FIG1), files.add(PATH)
    traced = _simulate(fig1, "v", _money(Fraction(1, 2), True), "optimal", "safety", 2, rng.randrange(2**31))
    as_json = _simulate(path, "v2", _money(Fraction(2, 3), False), "uniform-random-bid", "optimal", 2, rng.randrange(2**31))
    coin = ("randomturn", files.add(STAR), "--start", "v", "--runs", "64", "--seed", str(rng.randrange(2**31)))
    return [
        Command(("series", "--wins", "3", "--bankroll", "1/2"), check_series(3, False), series(3)),
        Command(traced + ("--trace",), check_simulate(FIG1, "v", 2, True, False)),
        Command(as_json + ("--trace", "--output", "json"), check_simulate(PATH, "v2", 2, True, True)),
        Command(coin, check_randomturn(STAR, "v", 64)),
    ]


BUILDERS = {
    "solve-corpus": solve_corpus,
    "simulate-batch": simulate_batch,
    "randomturn-coin": randomturn_coin,
}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> tuple[list[Command], Inputs]:
    """The workload's commands followed by the probes (only the probes when
    ``smoke`` is set, for the harness self-test), and their input files,
    not yet written to ``workdir``."""
    files = Inputs(workdir)
    main = [] if smoke else BUILDERS[workload](seed, files)
    return main + probes(seed, files), files
