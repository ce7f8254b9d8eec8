"""Quick-mode self-check of the benchmark.

    python3 perfbench/check.py

Checks that any failed op, a crash included, makes a run incorrect.  Runs
every workload on its tiny corpus, untraced and traced, and checks that
every op passes, that the last stdout line carries every metric named in
BENCHMARK.json with its unit, that an untraced record holds its speed
factor and unscaled figures, that a traced record holds the ``wr2-deg4``
defect probe, and that the benchmark refuses to run in a directory
holding only BENCHMARK.json and perfbench/.  Exits 0 when all of that
holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_tally() -> list[str]:
    """A pass is correct only when it ran ops and none of them failed."""
    from run import Tally

    problems = []
    cases = [
        ("wr2-deg4@1000", "traceback", "RecursionError: maximum recursion depth exceeded"),
        ("sr-tree@1e5", "traceback", "RecursionError: maximum recursion depth exceeded"),
        ("verify@1e4", "wrong-exit", "exit 0: valid: true"),
    ]
    for kind, failure, detail in cases:
        tally = Tally(4)
        tally.add("verify@1e4", 0.1, None)
        tally.add(kind, 0.2, failure, detail)
        if tally.correct:
            problems.append(f"a {kind} {failure} ({detail}) leaves the pass correct")
    if Tally(4).correct:
        problems.append("a pass with no op is correct")
    tally = Tally(4)
    tally.add("verify@1e4", 0.1, None)
    if not tally.correct:
        problems.append("a pass whose one op passed is not correct")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    problems = []
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"metric names/units differ: {sorted(set(got.items()) ^ set(units.items()))}")
    record = json.loads((ROOT / ".perfbench" / "results" / f"{workload}-s1-t{trace}-quick.json").read_text())
    kinds = record["kinds"]
    if record["failures"]:
        problems.append(f"failures: {record['failures'][:3]}")
    if sum(k["failed"] for k in kinds.values()) != result["failed"]:
        problems.append("failure counts disagree between the record and the result line")
    for key in ("commit", "seed", "nproc", "cpu_model", "python"):
        if key not in record:
            problems.append(f"record lacks {key}")
    if trace:
        probe = record.get("deg4_probe", {})
        if not probe.get("graphs") or probe.get("problems"):
            problems.append(f"wr2-deg4 defect probe: {probe}")
    else:
        if not record["speed"]["samples"] or not record["speed"]["factor"] > 0:
            problems.append(f"no speed factor: {record['speed']}")
        unscaled = [name for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s")
                    if "wall" not in record["metrics"][name]]
        if unscaled:
            problems.append(f"record lacks the wall figure of {unscaled}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = ROOT / ".perfbench" / "bare-check"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-trees", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_tally()
    failed = bool(problems)
    print(f"tally: {'ok' if not problems else '; '.join(problems)}")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failed |= bool(problems)
            print(f"{workload:12s} trace {trace}: {'ok' if not problems else '; '.join(problems)}")
    problems = check_bare_directory()
    failed |= bool(problems)
    print(f"bare directory: {'ok' if not problems else '; '.join(problems)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
