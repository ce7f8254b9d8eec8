"""Paired benchmark runs of two checkouts, summarised into ``BENCH_<pr>.json``.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B --pr N

For each seed from A to B, one pair: the unchanged ``perfbench/run.py
--trace 0`` of each checkout, for the ``run_seconds`` of the parent's
``BENCHMARK.json``, each run from a fresh copy of its checkout
with no ``__pycache__``, ``.git`` or ``.perfbench`` and with
``PYTHONDONTWRITEBYTECODE=1``.  The parent runs first in the 1st, 3rd, ...
pair and the change first in the others.  One child runs at a time; each
is the leader of its own process group, and the whole group is killed once
the child has returned or failed, so no process is left behind.

The output holds one block per workload, in ``BENCH_22.json``'s shape: per
end-to-end metric (names and directions from the parent's
``BENCHMARK.json``) the median and quartiles of each side, the change in
percent, and the pairs the change wins and loses, for the figure the
harness reports and for its unscaled ``wall`` figure where there is one.
The output file is ``BENCH_<pr>.json`` in the working directory.  An
existing one is read first, and only the block of this workload is
replaced, so one file can collect several series.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
_IGNORE = shutil.ignore_patterns(".git", ".perfbench", "__pycache__", ".pytest_cache", ".hypothesis")


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": runs}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' quartiles, the median change in percent, and the pairs
    (same index on both sides) the change wins and loses; ties count for
    neither.  The gap is the distance between the two medians."""
    sign = 1 if better == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent": p,
        "change": c,
        "change_pct": round((c_med / p_med - 1) * 100, 2) if p_med else None,
        "pairs": len(parent),
        "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "losses": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "gap_exceeds_parent_iqr": abs(c_med - p_med) > p["q3"] - p["q1"],
    }


def summarize(seeds: list[int], records: dict[str, list[dict]], directions: dict[str, str]) -> dict:
    """One workload's block from the run records of each side, in seed
    order.  ``directions`` maps each end-to-end metric to "higher" or
    "lower"."""
    block: dict = {
        "seeds": seeds,
        "ops_attempted": {s: [r["attempted"] for r in records[s]] for s in SIDES},
        "ops_failed": {s: sum(r["failed"] for r in records[s]) for s in SIDES},
        "correct": {s: all(r["correct"] for r in records[s]) for s in SIDES},
        "speed_factor": {s: [round(r["speed"]["factor"], 4) for r in records[s]] for s in SIDES},
        "metrics": {},
    }
    for name, better in directions.items():
        side_runs = {s: [r["metrics"][name] for r in records[s]] for s in SIDES}
        entry = {"better": better, **compare(*([round(m["value"], 4) for m in side_runs[s]] for s in SIDES),
                                             better)}
        if all("wall" in m for s in SIDES for m in side_runs[s]):
            entry["wall"] = compare(*([round(m["wall"], 4) for m in side_runs[s]] for s in SIDES), better)
        block["metrics"][name] = entry
    medians = block["kind_p50_ms_median"] = {}
    for kind in sorted({k for s in SIDES for r in records[s] for k in r["kinds"]}):
        row = medians[kind] = {}
        for s in SIDES:
            p50s = [r["kinds"][kind]["p50_ms"] for r in records[s] if kind in r["kinds"]]
            p50s = [v for v in p50s if v is not None]
            row[s] = round(statistics.median(p50s), 4) if p50s else None
    return block


def run_once(checkout: Path, copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from ``copy``, a fresh copy of
    ``checkout``; its record.  The copy is removed afterwards."""
    shutil.copytree(checkout, copy, ignore=_IGNORE)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    try:
        if proc.returncode != 0:
            raise RuntimeError(f"{checkout} seed {seed}: exit {proc.returncode}\n{out[-2000:]}{err[-2000:]}")
        return json.loads((copy / ".perfbench" / "results" / f"{workload}-s{seed}-t0.json").read_text())
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _commit(checkout: Path):
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True,
                         env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.parent)))
    return res.stdout.strip() if res.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, both included")
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["parent"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    records: dict[str, list[dict]] = {s: [] for s in SIDES}
    try:
        for i, seed in enumerate(args.seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                rec = run_once(dirs[side], work / f"{side}-s{seed}", args.workload, seed, seconds)
                records[side].append(rec)
                print(f"{args.workload} seed {seed} {side:6s} "
                      + "  ".join(f"{n}={rec['metrics'][n]['value']:.4g}" for n in directions), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    block = summarize(args.seeds, records, directions)
    out = Path(f"BENCH_{args.pr}.json")
    doc = json.loads(out.read_text()) if out.exists() else {}
    first = records["parent"][0]
    doc.update({
        "pr": args.pr,
        "parent_commit": _commit(dirs["parent"]),
        "machine": f"{first['nproc']}-core, {first['cpu_model']}, Python {first['python']}, "
                   "PYTHONDONTWRITEBYTECODE=1",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0, "
                   "run from a fresh copy of each side with no __pycache__ (tools/bench_pairs.py)",
        "pairing": "one parent and one change run per seed; the parent runs first on the 1st, 3rd, ... "
                   "pair of each series, the change first on the others",
        "quartiles": "statistics.quantiles(runs, n=4, method='inclusive')",
        "wins": "pairs where the change reads better than the parent on the same seed; "
                "ties count for neither side",
        "scaled_and_wall": "each metric's parent/change blocks hold the value the harness reports "
                           "(times scaled by its speed factor); 'wall' holds the unscaled figure where "
                           "the harness records one; kind_p50_ms_median is the median over runs of each "
                           "op kind's p50 as the run record gives it",
    })
    doc.setdefault("workloads", {})[args.workload] = block
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in block["metrics"].items():
        print(f"{name:12s} {entry['parent']['median']:>10g} -> {entry['change']['median']:<10g} "
              f"{entry['change_pct']:+.2f}%  wins {entry['wins']}/{entry['pairs']}  "
              f"gap>IQR {entry['gap_exceeds_parent_iqr']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
