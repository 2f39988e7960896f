"""Self-test of the benchmark harness; run from the root of a checkout.

    python3 perfbench/selftest.py          # probes only, about a minute
    python3 perfbench/selftest.py --full   # adds repeatability of the full workloads

Checks that every workload prints, with its unit, every metric that
BENCHMARK.json names (end-to-end untraced, per-layer traced) in a last line
with exactly the result keys; that two traced runs of one seed repeat every
count and every stdout digest exactly; that a second seed runs cleanly; and
that a directory holding only BENCHMARK.json and the benchmark exits nonzero
without a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "bits")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / HERE.name / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=175, check=False)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def digests(proc: subprocess.CompletedProcess) -> list[str]:
    """Per-command exit, status and first stderr line, and the pass digest."""
    lines = [line for line in proc.stdout.splitlines() if line.startswith(("digest ", "cmd "))]
    return [re.sub(r" +[\d.]+ ms ", " ", line) for line in lines]


def check_listed(res: dict, listed: list[dict]) -> None:
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], sorted(res)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    assert sorted(res["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def exact_counts(res: dict) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v["value"] for k, v in res["metrics"].items() if units[k] in EXACT_UNITS}


def repeatable(workload: str, seconds: str, extra: tuple[str, ...]) -> None:
    first, second = (bench("--workload", workload, "--seed", "7", "--seconds", seconds, "--trace", "1", *extra) for _ in range(2))
    a, b = result(first), result(second)
    assert exact_counts(a) == exact_counts(b), (workload, exact_counts(a), exact_counts(b))
    assert digests(first) == digests(second), workload


def main() -> int:
    full = "--full" in sys.argv[1:]
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            res = result(bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke"))
            check_listed(res, listed)
            assert res["correct"], (name, trace)
        assert result(bench("--workload", name, "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke"))["correct"]
        repeatable(name, "1", ("--smoke",))
        if full:
            repeatable(name, "2", ())
        print(f"ok {name}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
