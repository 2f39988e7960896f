"""Benchmark of the ``richman`` package, run from the root of a checkout.

    python3 perfbench/run.py --workload solve-corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

One workload runs in one single-threaded process (``all`` starts one child
process per workload).  Every command goes through ``richman.cli.main(argv)``
in-process, so end-to-end time is the time of real ``richman`` subcommands
on generated ``.rg`` files.  The package is imported from ``src/`` of the
checkout and nothing is installed.

A run sets up several times (fresh import plus generating the seeded
inputs) and reports the median as ``setup_s``.  It then repeats whole
passes over the workload's commands while another pass still fits in
``--seconds``; every command of the first pass is checked against the
benchmark's own oracles, and every later pass must reproduce the first
pass's output byte for byte.  The reference work of ``speed`` is timed on
a timer during the untraced passes and around every set-up, and the
end-to-end times are given at the reference speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes and passes with the tracer installed (see ``tracer``) in turn, and
prints the per-layer metrics: counts and times per traced pass, the
measured wall time and command latency percentiles of the untraced
passes, the tracing overhead, and the failure and Unresolved ratios.  The
last line of stdout is always one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import Sampler, at_reference
from tracer import Tracer, install
from workloads import WORKLOADS, Verdict, beyond_limits, build

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 15
SETUP_INTERVAL_S = 0.01
REFUSED = 5  # richman exits 5 when an exact solve exceeds its limits


@dataclass
class Outcome:
    """One command in one pass."""

    code: int | None  # None when main() raised
    seconds: float
    digest: str
    stderr_head: str


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="run only the probe commands (self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Fresh import of ``richman.cli`` from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "richman" or n.startswith("richman.")]:
        del sys.modules[name]
    cli = importlib.import_module("richman.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: richman imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path, smoke: bool):
    """Set up SETUPS times; returns (cli module, commands, setup seconds at
    the reference speed).  A set-up takes tens of milliseconds, so the
    machine's speed is sampled more densely than during the passes."""
    times = []
    with Sampler(SETUP_INTERVAL_S) as sampler:
        for _ in range(SETUPS):
            spent = sampler.spent
            start = perf_counter()
            cli = import_program()
            commands, files = build(workload, seed, workdir, smoke)
            times.append(perf_counter() - start - (sampler.spent - spent))
    # Writing the files is left out of the time: it is the file system's
    # work, not the program's, and its time does not follow the CPU's speed.
    workdir.mkdir(parents=True)
    files.save()
    return cli, commands, [at_reference(t, sampler.mean) for t in times]


def run_command(cli, argv: tuple[str, ...], workdir: Path, sampler: Sampler) -> tuple[Outcome, str]:
    # Every command starts from an empty young generation, as in a fresh
    # process, so where the collector runs inside it does not depend on the
    # garbage the previous command left.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    spent = sampler.spent
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crash is a recorded failure, never the end of the run
        code = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - start - (sampler.spent - spent)
    stdout = out.getvalue()
    stderr = err.getvalue().replace(str(workdir), "<work>")
    digest = hashlib.sha256(f"{code}\0{stdout}\0{stderr}".encode()).hexdigest()
    head = stderr.splitlines()[0] if stderr else ""
    return Outcome(code, seconds, digest, head), stdout


def run_pass(cli, commands, workdir: Path, sampler: Sampler) -> tuple[list[Outcome], list[str]]:
    outcomes, stdouts = [], []
    for command in commands:
        outcome, stdout = run_command(cli, command.argv, workdir, sampler)
        outcomes.append(outcome)
        stdouts.append(stdout)
    return outcomes, stdouts


def judge(command, outcome: Outcome, stdout: str) -> Verdict:
    if outcome.code is None:
        return Verdict(f"crashed: {outcome.stderr_head}")
    if outcome.code == REFUSED and command.solves is not None and beyond_limits(command.solves):
        return Verdict(None, refused=True)  # the solver's documented answer: no table, and not a failure
    if outcome.code != 0:
        # No command of the workloads should fail to parse or validate, nor
        # be refused within the solver's limits, and a wrong cost can surface
        # as an exit (series rejects its own bankroll).
        return Verdict(f"exit {outcome.code}: {outcome.stderr_head}")
    try:
        return command.check(stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(f"unreadable output: {exc!r}")


class Run:
    """Passes over one workload's commands and what they showed."""

    def __init__(self, cli, commands, workdir: Path):
        self.cli, self.commands, self.workdir = cli, commands, workdir
        self.pass_seconds: list[float] = []
        self.pass_reference: list[float] = []  # per untraced pass, the reference work's mean time
        self.traced: list[bool] = []  # per pass, whether the tracer was installed
        self.samples: list[list[float]] = [[] for _ in commands]  # per command, one per pass
        self.first: list[Outcome] = []
        self.verdicts: list[Verdict] = []
        self.attempted = self.failed = self.refused = self.mismatches = 0

    def one_pass(self, traced: bool = False) -> float:
        """One pass over the commands; the speed of the machine is sampled
        in untraced passes only, so no sample lands inside a traced span."""
        sampler = Sampler()
        with contextlib.nullcontext() if traced else sampler:
            outcomes, stdouts = run_pass(self.cli, self.commands, self.workdir, sampler)
        self._record(outcomes, stdouts)
        seconds = sum(o.seconds for o in outcomes)
        self.pass_seconds.append(seconds)
        self.traced.append(traced)
        if not traced:
            self.pass_reference.append(sampler.mean)
        return seconds

    def passes(self, budget: float) -> None:
        """Run passes while another one fits in ``budget`` seconds."""
        start = perf_counter()
        while not self.pass_seconds or perf_counter() - start + statistics.median(self.pass_seconds) <= budget:
            self.one_pass()

    def paired_passes(self, tracer: Tracer, budget: float) -> None:
        """An untraced and a traced pass in turn, while another pair fits in
        ``budget`` seconds, so both sides of a pair meet the same machine."""
        start = perf_counter()
        pairs: list[float] = []
        while not pairs or perf_counter() - start + statistics.median(pairs) <= budget:
            untraced = self.one_pass()
            uninstall = install(tracer)
            try:
                pairs.append(untraced + self.one_pass(traced=True))
            finally:
                uninstall()

    def _record(self, outcomes: list[Outcome], stdouts: list[str]) -> None:
        if not self.first:
            self.first = outcomes
            self.verdicts = [judge(c, o, s) for c, o, s in zip(self.commands, outcomes, stdouts)]
        for i, outcome in enumerate(outcomes):
            self.samples[i].append(outcome.seconds)
            same = outcome.digest == self.first[i].digest
            self.mismatches += not same
            self.attempted += 1
            self.refused += self.verdicts[i].refused and same
            self.failed += self.verdicts[i].problem is not None or not same

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and all(v.problem is None for v in self.verdicts)

    @property
    def games(self) -> int:
        return sum(v.games for v in self.verdicts)

    @property
    def unresolved(self) -> int:
        return sum(v.unresolved for v in self.verdicts)

    def report_commands(self) -> None:
        """Exit code, median time, check result and first stderr line of every command."""
        rows = zip(self.commands, self.first, self.verdicts, self.samples)
        for i, (command, outcome, verdict, samples) in enumerate(rows):
            argv = " ".join(command.argv).replace(str(self.workdir) + "/", "")
            status = verdict.problem or ("refused" if verdict.refused else "ok")
            extra = f" | {outcome.stderr_head}" if outcome.stderr_head else ""
            ms = statistics.median(samples) * 1000
            print(f"cmd {i:3d} exit {outcome.code} {ms:9.2f} ms {status}: {argv}{extra}")
        digest = hashlib.sha256("".join(o.digest for o in self.first).encode()).hexdigest()
        print(f"digest {digest}")


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(run: Run, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    """wall_ref_s is the median pass, each pass's time taken at the
    reference speed: divided by the mean of the reference samples taken
    during that pass."""
    passes = [at_reference(t, r) for t, r in zip(run.pass_seconds, run.pass_reference)]
    return {
        "wall_ref_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


AGENTS = ("FullKnowledgeAgent", "SafetyRatioAgent", "UniformRandomBidAgent")
CALLS, TOTAL, SELF = 0, 1, 2


def per_layer(run: Run, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-pass layer numbers from the traced passes, and command latency,
    throughput and failure ratios from the untraced ones.  A metric whose
    span is gone from the package is reported as absent, with value 0."""
    untraced = [t for t, traced in zip(run.pass_seconds, run.traced) if not traced]
    traced = [t for t, traced in zip(run.pass_seconds, run.traced) if traced]
    n = len(traced)

    def span(name: str, field: int) -> float:
        record = tracer.spans.get(name)
        return record[field] / n if record else 0.0

    def count(key: str) -> float:
        return tracer.counts.get(key, 0) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    games = count("simulate.games")
    # Command latency over every command of every untraced pass.
    latencies = [t for samples in run.samples for t, traced in zip(samples, run.traced) if not traced]
    # Traced over untraced time of each pair of passes run back to back.
    overhead = statistics.median(t / u for u, t in zip(untraced, traced))
    rows = [  # (metric, unit, span it needs, value)
        ("graphs.parse_game_graph.self_s", "s", "graphs.parse_game_graph", span("graphs.parse_game_graph", SELF)),
        ("graphs.validate.calls", "count", "graphs.validate", span("graphs.validate", CALLS)),
        ("graphs.validate.self_s", "s", "graphs.validate", span("graphs.validate", SELF)),
        ("graphs.validate.calls_per_game", "calls/game", "graphs.validate", ratio(span("graphs.validate", CALLS), games)),
        ("solver.solve_exact.calls", "count", "solver.solve_exact", span("solver.solve_exact", CALLS)),
        ("solver.solve_exact.total_s", "s", "solver.solve_exact", span("solver.solve_exact", TOTAL)),
        ("solver.solve_iterative.total_s", "s", "solver.solve_iterative", span("solver.solve_iterative", TOTAL)),
        ("solver.sweeps", "count", "solver.solve_iterative", count("solver.sweeps")),
        ("solver.rationalize.hit_ratio", "ratio", "solver.rationalize",
         ratio(count("solver.rationalize.hits"), span("solver.rationalize", CALLS))),
        ("solver.enumeration.calls", "count", "solver.solve_exact_by_enumeration",
         span("solver.solve_exact_by_enumeration", CALLS)),
        ("solver.refusals", "count", "solver.solve_exact", count("solver.refusals")),
        ("solver.max_den_bits", "bits", "solver.solve_exact", tracer.max_den_bits),
        ("solver.extremal_successors.calls", "count", "solver.extremal_successors", span("solver.extremal_successors", CALLS)),
        ("solver.extremal_successors.self_s", "s", "solver.extremal_successors", span("solver.extremal_successors", SELF)),
    ]
    for agent in AGENTS:
        name = f"agents.{agent}.decide"
        rows += [(f"{name}.calls", "count", name, span(name, CALLS)), (f"{name}.self_s", "s", name, span(name, SELF))]
    rows += [
        ("agents.make_agent.total_s", "s", "agents.make_agent", span("agents.make_agent", TOTAL)),
        ("agents.random_turn_optimal_move.self_s", "s", "agents.random_turn_optimal_move",
         span("agents.random_turn_optimal_move", SELF)),
        ("simulate.play_richman_game.self_s", "s", "simulate.play_richman_game", span("simulate.play_richman_game", SELF)),
        ("simulate.games", "count", "simulate.play_richman_game", games),
        ("simulate.moves", "count", "simulate.play_richman_game", count("simulate.moves")),
        ("simulate.ties", "count", "simulate.play_richman_game", count("simulate.ties")),
        ("simulate.unresolved", "count", "simulate.play_richman_game", count("simulate.unresolved")),
        ("simulate.default_move_cap.calls", "count", "simulate.default_move_cap", span("simulate.default_move_cap", CALLS)),
        ("simulate.default_move_cap.self_s", "s", "simulate.default_move_cap", span("simulate.default_move_cap", SELF)),
        ("simulate.play_random_turn_game.self_s", "s", "simulate.play_random_turn_game",
         span("simulate.play_random_turn_game", SELF)),
        ("simulate.derived_rng.self_s", "s", "simulate.derived_rng", span("simulate.derived_rng", SELF)),
        ("simulate.format_trace.self_s", "s", "simulate.format_trace", span("simulate.format_trace", SELF)),
        ("simulate.GameRecord.to_json_dict.self_s", "s", "simulate.GameRecord.to_json_dict",
         span("simulate.GameRecord.to_json_dict", SELF)),
        ("series.series_bet_plan.self_s", "s", "series.series_bet_plan", span("series.series_bet_plan", SELF)),
        ("cli.main.calls", "count", "cli.main", span("cli.main", CALLS)),
        ("cli.main.self_s", "s", "cli.main", span("cli.main", SELF)),
        ("wall_s", "s", None, statistics.median(untraced)),
        ("cmd_p50_ms", "ms", None, percentile(latencies, 50) * 1000),
        ("cmd_p90_ms", "ms", None, percentile(latencies, 90) * 1000),
        ("trace_overhead_ratio", "ratio", None, overhead),
        ("games_per_s", "games/s", None, run.games / statistics.median(untraced)),
        ("failed_cmd_ratio", "ratio", None, (run.failed + run.refused) / run.attempted),
        ("unresolved_game_ratio", "ratio", None, ratio(run.unresolved, run.games)),
    ]
    for metric, _, needed, _ in rows:
        if needed is not None and needed not in tracer.spans:
            print(f"absent {metric} ({needed} is not in the package)")
    return {metric: (value, unit) for metric, unit, _, value in rows}


def print_spans(tracer: Tracer, passes: int) -> None:
    print("span calls total_s self_s (per pass)")
    for name, (calls, total, own) in sorted(tracer.spans.items()):
        if calls:
            print(f"span {name} {calls / passes:g} {total / passes:.6f} {own / passes:.6f}")
    for (parent, child), calls in sorted(tracer.links.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        print(f"link {parent or '-'} -> {child} {calls / passes:g}")


def run_workload(args: argparse.Namespace) -> dict:
    if not (SRC / "richman" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no richman sources under {SRC}; run from the root of a checkout")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    # Every setup compiles the package from source: bytecode is looked up
    # under a directory that never exists, whatever __pycache__ src/ holds
    # from earlier test runs, and none is written.
    sys.pycache_prefix = str(workdir / "pycache")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    try:
        cli, commands, setup_times = setup(args.workload, args.seed, workdir, args.smoke)
        # The harness's own objects (arenas, checks, modules) are moved out of
        # the collector's reach, so a full collection inside a command costs
        # what it would in a richman process.
        gc.collect()
        gc.freeze()
        run = Run(cli, commands, workdir)
        if args.trace:
            tracer = Tracer()
            run.paired_passes(tracer, args.seconds)
            metrics = per_layer(run, tracer)
        else:
            run.passes(args.seconds)
            metrics = end_to_end(run, setup_times)
        run.report_commands()
        if args.trace:
            print_spans(tracer, sum(run.traced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(f"workload {args.workload} seed {args.seed} commands {len(commands)} passes {len(run.pass_seconds)} "
          f"games/pass {run.games} unresolved/pass {run.unresolved}")
    print("pass_s " + " ".join(f"{t:.4f}" for t in run.pass_seconds))
    print("reference_ms " + " ".join(f"{r * 1000:.4f}" for r in run.pass_reference))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so memory and warm state are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            raise SystemExit(f"perfbench: {workload} exited {child.returncode}")
        result = json.loads(child.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
