"""Command-line front end.

Subcommands: ``solve`` (exact or bracketing-iteration cost tables),
``simulate`` (seeded bidding games between named agents), ``randomturn``
(coin-flip estimation of a vertex cost), and ``series`` (the even-money
betting ladder).  Money is entered as exact rationals (``3/5`` or ``2``);
decimals are rejected to keep the arithmetic exact.

Exit codes: 0 ok, 1 internal solver error, 2 parse, 3 validation,
4 not-converged, 6 usage, 141 stdout closed early (128 + SIGPIPE, as
when ``richman ... | head`` stops reading).
Identical command lines produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .agents import AGENT_NAMES, GameState, make_agent
from .graphs import GameGraph, GraphFormatError, parse_game_graph
from .series import BankrollMismatchError, _ladder, series_bet_plan, state_id
from .simulate import TIEBREAKS, format_trace, random_turn_stats, run_batch
from .solver import DEFAULT_MAX_ITERS, DEFAULT_TOL, NotConvergedError, SolverError, _solve, solve_iterative

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NOT_CONVERGED = 4
EXIT_USAGE = 6
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    """Bad flags or flag values (argparse's own exit code would collide
    with the parse-error code, so errors are rethrown and mapped to 6)."""


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _money(text: str) -> Fraction:
    """Exact nonnegative rational: an integer or 'p/q'."""
    num, slash, den = text.partition("/")
    if not num.isdecimal() or (slash and not den.isdecimal()):
        raise argparse.ArgumentTypeError(f"money must be a nonnegative integer or p/q fraction, got {text!r}")
    if slash and int(den) == 0:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))


def _tolerance(text: str) -> float:
    """A positive finite float: a NaN, infinite or non-positive gap bound
    would stop the iteration at once or never."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be a positive finite number, got {text!r}")
    return tol


def _iteration_limit(text: str) -> int:
    """A nonnegative integer: a negative limit would run no sweep and be
    reported as a failure to converge."""
    try:
        limit = int(text)
    except ValueError:
        limit = -1
    if limit < 0:
        raise argparse.ArgumentTypeError(f"iteration limit must be a nonnegative integer, got {text!r}")
    return limit


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The one parser of the process: it holds no state between parses."""
    parser = _ArgumentParser(prog="richman", description="Bidding games on directed graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute vertex costs for a graph file")
    solve.add_argument("file", help="graph in the text format")
    mode = solve.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact rational costs (default)")
    mode.add_argument("--iterate", action="store_true", help="bracketing iteration instead")
    solve.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="gap tolerance for --iterate")
    solve.add_argument("--max-iters", type=_iteration_limit, default=DEFAULT_MAX_ITERS)
    _add_output_flag(solve)

    sim = sub.add_parser("simulate", help="run seeded bidding games")
    sim.add_argument("file")
    sim.add_argument("--start", required=True, help="starting vertex (non-terminal)")
    sim.add_argument("--blue-money", type=_money, required=True)
    sim.add_argument("--red-money", type=_money, required=True)
    sim.add_argument("--blue", choices=AGENT_NAMES, default="optimal")
    sim.add_argument("--red", choices=AGENT_NAMES, default="optimal")
    sim.add_argument("--tiebreak", choices=TIEBREAKS, default="fair")
    sim.add_argument("--runs", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-moves", type=int, default=None)
    sim.add_argument("--trace", action="store_true", help="print each game's trace")
    _add_output_flag(sim)

    rt = sub.add_parser("randomturn", help="estimate a cost by coin-flip games")
    rt.add_argument("file")
    rt.add_argument("--start", required=True, help="starting vertex (terminals allowed)")
    rt.add_argument("--runs", type=int, default=1000)
    rt.add_argument("--seed", type=int, default=0)
    _add_output_flag(rt)

    ser = sub.add_parser("series", help="betting ladder for a first-to-k series")
    ser.add_argument("--wins", type=int, required=True, help="games needed to take the series")
    ser.add_argument("--bankroll", type=_money, required=True, help="starting money in grand units")
    _add_output_flag(ser)

    return parser


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=("table", "json"), default="table")


def _load_graph(path: str) -> GameGraph:
    try:
        with open(path, encoding="utf-8-sig") as file:  # a leading BOM is not part of the text
            text = file.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _Failure(EXIT_PARSE, f"cannot read {path}: {err}")
    try:
        g = parse_game_graph(text)
    except GraphFormatError as err:
        raise _Failure(EXIT_PARSE, f"{path}: {err}")
    report = g.validation
    if not report.ok:
        lines = [f"{path}: invalid graph"]
        lines += [f"  {v.code} {v.subject}: {v.message}" for v in report.violations]
        raise _Failure(EXIT_VALIDATION, "\n".join(lines))
    return g


def _fraction(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, with one gcd."""
    common = math.gcd(num, den)
    return f"{num // common}" if common == den else f"{num // common}/{den // common}"


def _cost_json(num: int, den: int) -> dict:
    """num/den (den > 0) in lowest terms, and the float num / den."""
    common = math.gcd(num, den)
    return {"num": num // common, "den": den // common, "float": num / den}


def _table_json(costs: dict[str, Fraction], kind: str) -> dict:
    """A cost table as JSON, labelled with how it was computed: "exact", or
    an iterate with its sweep count, as in "upper-iterate(7)"."""
    return {"kind": kind, "costs": {v: _cost_json(q.numerator, q.denominator) for v, q in sorted(costs.items())}}


def _cmd_solve(args) -> int:
    g = _load_graph(args.file)
    if args.iterate:
        upper, lower, t, gap = solve_iterative(g, tol=args.tol, max_iters=args.max_iters)
        if args.output == "json":
            payload = {
                "mode": "iterate",
                "upper": _table_json(upper, f"upper-iterate({t})"),
                "lower": _table_json(lower, f"lower-iterate({t})"),
                "gap": _cost_json(gap.numerator, gap.denominator),
                "iterations": t,
            }
            print(json.dumps(payload, sort_keys=True))
        else:
            rows = [f"{v} {q} {lower[v]}" for v, q in sorted(upper.items())]
            print("\n".join(["vertex upper lower", *rows, f"gap {gap} {float(gap)}", f"iterations {t}"]))
        return EXIT_OK
    nums, den = _solve(g)
    table = sorted(zip(g._names, nums))
    if args.output == "json":
        costs = {v: _cost_json(n, den) for v, n in table}
        print(json.dumps({"mode": "exact", "kind": "exact", "costs": costs}, sort_keys=True))
    else:
        rows = [f"{v} {_fraction(n, den)} {n / den}" for v, n in table]
        print("\n".join(["vertex cost float", *rows]))
    return EXIT_OK


def _tallies(stats) -> list[str]:
    return [f"{name} {getattr(stats, name)}" for name in ("runs", "blue_wins", "red_wins", "unresolved")]


def _cmd_simulate(args) -> int:
    g = _load_graph(args.file)
    if args.start not in g.vertices:
        raise _Failure(EXIT_VALIDATION, f"start vertex {args.start!r} is not in the graph")
    if g.is_terminal(args.start):
        raise _Failure(EXIT_VALIDATION, f"start vertex {args.start!r} is terminal")
    if args.runs < 0:
        raise _Failure(EXIT_VALIDATION, "--runs must be nonnegative")
    if args.max_moves is not None and args.max_moves < 1:
        raise _Failure(EXIT_VALIDATION, "--max-moves must be positive")
    blue = make_agent(args.blue, g, "blue")
    red = make_agent(args.red, g, "red")
    start = GameState(args.start, args.blue_money, args.red_money)

    traces: list = []
    on_record = traces.append if args.trace else None
    stats = run_batch(g, blue, red, start, args.tiebreak, args.max_moves, args.runs, args.seed, on_record)
    if args.output == "json":
        payload = {"stats": stats.to_json_dict()}
        if args.trace:
            payload["traces"] = [r.to_json_dict() for r in traces]
        print(json.dumps(payload, sort_keys=True))
    else:
        lines = [f"game {i} start {record.start}\n{format_trace(record)}" for i, record in enumerate(traces)]
        histogram = " ".join(f"{k}:{v}" for k, v in stats.histogram().items())
        lines += [*_tallies(stats), f"moves {histogram}".rstrip(), f"master_seed {stats.master_seed}"]
        print("\n".join(lines))
    return EXIT_OK


def _cmd_randomturn(args) -> int:
    g = _load_graph(args.file)
    if args.start not in g.vertices:
        raise _Failure(EXIT_VALIDATION, f"start vertex {args.start!r} is not in the graph")
    if args.runs < 1:
        raise _Failure(EXIT_VALIDATION, "--runs must be at least 1")
    stats = random_turn_stats(g, args.start, args.runs, master_seed=args.seed)
    nums, den = _solve(g)
    n = nums[g._position[args.start]]
    if args.output == "json":
        payload = {**stats.to_json_dict(), "exact": _cost_json(n, den)}
        print(json.dumps(payload, sort_keys=True))
    else:
        lines = [f"frequency {stats.frequency}", f"stderr {stats.stderr}", f"exact {_fraction(n, den)} {n / den}"]
        print("\n".join(_tallies(stats) + lines))
    return EXIT_OK


def _cmd_series(args) -> int:
    try:
        if args.output == "json":
            payload = series_bet_plan(args.wins, args.bankroll).to_json_dict()
        else:
            states, held, stakes, unit, bankroll, _, _ = _ladder(args.wins, args.bankroll, Fraction(0), Fraction(1))
    except BankrollMismatchError as err:
        raise _Failure(EXIT_VALIDATION, f"bankroll {err.given} does not match the ladder; required: {err.required}")
    except ValueError as err:
        raise _Failure(EXIT_VALIDATION, str(err))
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        rows = [f"{state_id(*s)} {_fraction(h, unit)} {_fraction(d, unit)}" for s, h, d in zip(states, held, stakes)]
        print("\n".join([f"wins_needed {args.wins}", f"bankroll {bankroll}", "state holding stake", *rows]))
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "randomturn": _cmd_randomturn,
    "series": _cmd_series,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    # From Python 3.10.7 on, str(int) refuses more digits than an exact cost
    # may have; lift that limit (0 where there is none) for the command.
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except _Failure as failure:
        print(failure.message, file=sys.stderr)
        return failure.code
    except NotConvergedError as err:
        print(f"no convergence after {err.iterations} iterations; gap {float(err.gap):.3e}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except SolverError as err:
        print(f"internal solver error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def run() -> None:
    """The console entry point: ``main`` on the process arguments."""
    try:
        code = main()
        sys.stdout.flush()  # a reader that left early shows up here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit; aim it at devnull so that
        # flush cannot fail with a second traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(code)
