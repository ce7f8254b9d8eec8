"""Seeded benchmark for semireg.

    python3 perfbench/run.py --workload cli-trees --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is used from ``src/``,
not installed.  Workloads (see perfbench/README.md):

* ``cli-trees``   one ``semireg`` process per op on 10^4- and 10^5-vertex trees
* ``cli-graphs``  one ``semireg`` process per op on general graphs
* ``exact-small`` in-process calls of the exact searches on tiny inputs

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported, their times scaled to a reference CPU speed (see ``Pacer``); with
``--trace 1`` the same ops run in process, alternately bare and wrapped by
the span tracer, and the per-layer metrics are reported.  Every op's
output is checked by ``checker.py``.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a fuller record
goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checker
import corpus
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("cli-trees", "cli-graphs", "exact-small")
SETUP_REPEATS = 11       # traced runs: samples behind cli.import_ms
SETUP_EVERY_S = 3.0      # untraced runs: op time between two set-up samples
SETUP_MIN = 7            # untraced runs: fewest set-up samples
LOOP_EVERY_S = 0.1       # exact-small: op time between two speed_sample() calls
LOOP_REPEATS = 420       # graphs built and searched by one speed_sample()
LOOP_REF_S = 0.010       # speed_sample() time at which reported times equal wall times
PROBE_EVERY_S = 2.0      # cli-*: op time between two runs of probe.py
PROBE_REF_S = 0.100      # probe.py time at which reported times equal wall times
OP_TIMEOUT_S = 60
TRACE_CHUNK_S = 0.25
CLI_CAPACITY = 10_000       # most ops one CLI pass records
CALL_CAPACITY = 1_000_000   # most ops one in-process pass records
TINY_TREE = "5 4\n0 1\n0 2\n0 3\n1 4\n"


class Spawner:
    """Handle on ``spawn.py``, the small process that forks every child."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def run(self, argv: list[str], stdout: str, stderr: str) -> dict:
        req = {"argv": argv, "stdout": stdout, "stderr": stderr, "timeout_s": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("process launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def percentile(sorted_xs: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


class Tally:
    """Outcome of every op in a pass.  The per-op arrays are allocated up
    front, so that a faster program (more ops per run) does not grow the
    benchmark's own memory during the pass."""

    def __init__(self, capacity: int) -> None:
        self.kinds: list[str] = []
        self._kind_index: dict[str, int] = {}
        self.kind = array("H", [0]) * capacity     # per op: index into self.kinds
        self.seconds = array("f", [0.0]) * capacity  # per op: duration
        self.attempted = 0
        self.failure: dict[int, str] = {}  # op number -> failure class
        self.failures: list[dict] = []     # first few failures, with detail
        self.busy_s = 0.0

    @property
    def full(self) -> bool:
        return self.attempted == len(self.seconds)

    def add(self, kind: str, seconds: float, failure: str | None, detail: str = "") -> None:
        index = self._kind_index.get(kind)
        if index is None:
            index = self._kind_index[kind] = len(self.kinds)
            self.kinds.append(kind)
        if failure is not None:
            self.failure[self.attempted] = failure
            if len(self.failures) < 50:
                self.failures.append({"kind": kind, "class": failure, "detail": detail[-300:]})
        self.kind[self.attempted] = index
        self.seconds[self.attempted] = seconds
        self.attempted += 1
        self.busy_s += seconds

    @property
    def failed(self) -> int:
        return len(self.failure)

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    @property
    def correct(self) -> bool:
        """No op failed, and at least one ran."""
        return self.failed == 0 and self.attempted > 0

    def passed_times(self, kind: str | None = None) -> list[float]:
        """Sorted durations of the ops that passed, of one kind or all."""
        want = None if kind is None else self._kind_index[kind]
        return sorted(
            t for i, (k, t) in enumerate(zip(self.kind[:self.attempted], self.seconds[:self.attempted]))
            if i not in self.failure and (want is None or k == want)
        )

    def by_kind(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        kinds = self.kind[:self.attempted]
        for index, kind in sorted(enumerate(self.kinds), key=lambda x: x[1]):
            times = self.passed_times(kind)
            attempted = kinds.count(index)
            out[kind] = {
                "attempted": attempted,
                "failed": attempted - len(times),
                "p50_ms": percentile(times, 50) * 1000 if times else None,
            }
        return out


def _speed_graph(n: int, step: int) -> tuple[int, ...]:
    """Degrees of a fixed n-vertex tree in BFS order."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for v in range(1, n):
        u = (v * 7 + step) % v  # a parent below v: the graph is a tree
        adj[u].append(v)
        adj[v].append(u)
    seen, order = {0}, [0]
    for v in order:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return tuple(sorted(len(adj[v]) for v in order))


def speed_sample() -> float:
    """Seconds of a fixed pure-Python graph loop (adjacency lists, a BFS,
    sets and sorting, like the program's own code) that touches nothing
    of ``semireg``."""
    start = time.perf_counter()
    for r in range(LOOP_REPEATS):
        _speed_graph(40, 7 + r)
    return time.perf_counter() - start


class Pacer:
    """Samples taken between the ops of an untraced pass, outside op time.

    * Speed samples: the machine's CPU speed drifts by up to +-30% in minutes,
      and every time metric drifts with it.  A speed sample times a fixed
      job shaped like the workload's ops: ``probe.py`` in a child process
      for the CLI workloads, ``speed_sample`` in process for exact-small.
      Reported times are wall times scaled by ``factor``, the job's
      reference time over its median time in the run, so runs taken at
      different speeds compare.
    * Set-up samples: one set-up command every ``SETUP_EVERY_S`` of op
      time, so that ``setup_s`` is a median over the same span of time as
      the op metrics.
    """

    def __init__(self, spawner: Spawner, setup_argv: list[str], work: Path, in_process: bool):
        self.spawner, self.setup_argv, self.work = spawner, setup_argv, work
        if in_process:
            self.sample, self.every_s, self.ref_s = speed_sample, LOOP_EVERY_S, LOOP_REF_S
        else:
            self.sample, self.every_s, self.ref_s = self.probe_sample, PROBE_EVERY_S, PROBE_REF_S
        self.speed: list[float] = []
        self.setup: list[float] = []
        self._next_speed = self._next_setup = 0.0

    def tick(self, busy_s: float) -> None:
        """Called before each op with the op time of the pass so far."""
        if busy_s >= self._next_setup:
            self.setup.append(self._child(self.setup_argv))
            self._next_setup = busy_s + SETUP_EVERY_S
        if busy_s >= self._next_speed:
            self.speed.append(self.sample())
            self._next_speed = busy_s + self.every_s

    def probe_sample(self) -> float:
        return self._child([sys.executable, str(Path(__file__).with_name("probe.py"))])

    def _child(self, argv: list[str]) -> float:
        out, err = str(self.work / "pacer.out"), str(self.work / "pacer.err")
        res = self.spawner.run(argv, out, err)
        if res["code"] != 0:
            raise RuntimeError(f"{argv} exited {res['code']}: {_tail(Path(err).read_text())}")
        return res["wall_s"]

    def finish(self) -> None:
        while len(self.setup) < SETUP_MIN:
            self.setup.append(self._child(self.setup_argv))
        while len(self.speed) < SETUP_MIN:
            self.speed.append(self.sample())

    @property
    def factor(self) -> float:
        return self.ref_s / statistics.median(self.speed)


def _tail(stderr: str) -> str:
    lines = [line for line in stderr.splitlines() if line.strip()]
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

def _check_cli(op, code: int, stdout: str, stderr: str) -> tuple[str | None, str]:
    problem = None
    expected = op.expect()
    if checker.TRACEBACK not in stderr and code == expected:
        try:
            problem = op.check(stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
    failure = checker.failure_class(code, expected, stderr, problem)
    detail = problem or f"exit {code}: {_tail(stderr)}"
    return failure, detail


def _replay(ops: list):
    while True:
        yield from ops


def cli_pass(ops: list, cycle: int, seconds: float, spawner: Spawner, work: Path, quick: bool,
             pacer: Pacer) -> tuple[Tally, int]:
    """Untraced CLI pass: one child per op, stopping at the end of the
    round's cycle that ends nearest to ``seconds`` of op time (in quick
    mode, after at least one whole round).  Whole cycles keep the mix of
    kinds, and so ``ops_per_s``, the same whatever the machine's speed:
    cut at a time instead, a run would hold one 3-second op more or fewer.
    """
    tally = Tally(CLI_CAPACITY)
    peak_kb = 0
    out, err = str(work / "stdout"), str(work / "stderr")
    prefix = [sys.executable, "-m", "semireg.cli"]
    minimum = len(ops) if quick else 0
    for op in _replay(ops):
        cycles, within = divmod(tally.attempted, cycle)
        # the next cycle would end about a mean cycle time later
        if tally.full or (cycles and not within and tally.attempted >= minimum
                          and tally.busy_s + tally.busy_s / cycles / 2 >= seconds):
            break
        pacer.tick(tally.busy_s)
        res = spawner.run(prefix + op.argv, out, err)
        peak_kb = max(peak_kb, res["maxrss_kb"])
        stdout, stderr = Path(out).read_text(), Path(err).read_text()
        failure, detail = _check_cli(op, res["code"], stdout, stderr)
        tally.add(op.kind, res["wall_s"], failure, detail)
    return tally, peak_kb


def _run_cli_inprocess(op) -> tuple[float, int, str, str]:
    import semireg.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = semireg.cli.run(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI crashed: record it the way the interpreter would
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def _run_call(op) -> tuple[float, object, str | None]:
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception:  # a crash inside the library is a failure of this op
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, result, None


def call_pass(ops, seconds: float, quick: bool, pacer: Pacer) -> Tally:
    """Untraced in-process pass over the op round, replayed until time is up."""
    tally = Tally(CALL_CAPACITY)
    minimum = len(ops) if quick else 0
    for op in _replay(ops):
        if tally.full or (tally.busy_s >= seconds and tally.attempted >= minimum):
            break
        pacer.tick(tally.busy_s)
        dt, result, crash = _run_call(op)
        tally.add(op.kind, dt, *_judge_call(op, result, crash))
    return tally


def _judge_call(op, result, crash: str | None) -> tuple[str | None, str]:
    if crash is not None:
        return "traceback", crash.strip().splitlines()[-1]
    problem = op.check(result)
    return ("bad-output", problem) if problem else (None, "")


def traced_pass(ops, seconds: float, in_process_cli: bool, quick: bool, tracer) -> tuple[Tally, float, float, int]:
    """Each chunk of ops runs bare, then again under the tracer.

    Returns the traced tally, bare and traced op seconds, and the number of
    CLI ops that crashed with a traceback.
    """
    tally = Tally(CLI_CAPACITY if in_process_cli else CALL_CAPACITY)
    bare_s = traced_s = 0.0
    crashes = 0
    op_id = 0
    it = _replay(ops)
    minimum = len(ops) if quick else 0
    while (bare_s + traced_s < seconds or tally.attempted < minimum) and not tally.full:
        chunk, spent = [], 0.0
        room = len(tally.seconds) - tally.attempted
        while spent < TRACE_CHUNK_S and len(chunk) < room:
            op = next(it)
            spent += (_run_cli_inprocess(op)[0] if in_process_cli else _run_call(op)[0])
            chunk.append(op)
        bare_s += spent
        tracer.install()
        try:
            for op in chunk:
                tracer.op = op_id
                if in_process_cli:
                    dt, code, stdout, stderr = _run_cli_inprocess(op)
                    failure, detail = _check_cli(op, code, stdout, stderr)
                    crashes += failure == "traceback"
                else:
                    dt, result, crash = _run_call(op)
                    failure, detail = _judge_call(op, result, crash)
                traced_s += dt
                tally.add(op.kind, dt, failure, detail)
                op_id += 1
        finally:
            tracer.op = None
            tracer.uninstall()
    return tally, bare_s, traced_s, crashes


def deg4_probe(seed: int, quick: bool) -> dict:
    """Run ``wr2_deg4`` bare, in process, on the connected graphs of
    ``workloads.deg4_probe`` and count its known ``RecursionError`` crashes.
    Any other crash or a wrong split is a problem of the run."""
    from semireg import Graph
    from semireg.coloring import wr2_deg4

    graphs = workloads.deg4_probe(seed, quick)
    crashes: dict[int, int] = {}
    problems: list[str] = []
    for n, edges in graphs:
        crashes.setdefault(n, 0)
        try:
            result = wr2_deg4(Graph(n, tuple(edges)))
        except RecursionError:
            crashes[n] += 1
            continue
        except Exception as exc:  # anything else is not the known defect
            problems.append(f"wr2-deg4@{n}: {exc!r}")
            continue
        problem = checker.decomposition_problem(
            "wr2-deg4", n, edges, corpus.partition_text(result.k, list(result.part)))
        if problem:
            problems.append(f"wr2-deg4@{n}: {problem}")
    return {"graphs": len(graphs), "crashes": sum(crashes.values()), "by_size": crashes,
            "problems": problems}


# ---------------------------------------------------------------------------
# set-up figures
# ---------------------------------------------------------------------------

def _median_wall(spawner: Spawner, argv: list[str], work: Path, repeats: int = SETUP_REPEATS) -> float:
    out, err = str(work / "setup.out"), str(work / "setup.err")
    walls = []
    for _ in range(repeats):
        res = spawner.run(argv, out, err)
        if res["code"] != 0:
            raise RuntimeError(f"set-up command {argv} exited {res['code']}: {_tail(Path(err).read_text())}")
        walls.append(res["wall_s"])
    return statistics.median(walls)


def setup_argv(workload: str, work: Path) -> list[str]:
    """A bare CLI process on a 5-vertex tree (cli-*), or ``import semireg``
    in a fresh interpreter (exact-small)."""
    if workload == "exact-small":
        return [sys.executable, "-c", "import semireg"]
    tiny = work / "tiny.txt"
    tiny.write_text(TINY_TREE)
    return [sys.executable, "-m", "semireg.cli", "decompose", str(tiny), "--method", "sr-tree"]


def cli_import_ms(spawner: Spawner, work: Path) -> float:
    """Import of ``semireg.cli`` minus a bare interpreter start, medians."""
    bare = _median_wall(spawner, [sys.executable, "-c", "pass"], work)
    full = _median_wall(spawner, [sys.executable, "-c", "import semireg.cli"], work)
    return (full - bare) * 1000.0


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        # the ceiling keeps git from reporting an enclosing repository
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def latency_metrics(tally: Tally, workload: str, factor: float) -> dict[str, dict]:
    """ops_per_s over all op time; percentiles over the ops that passed,
    each with its sample count.  Times are scaled by the speed ``factor``;
    ``wall`` keeps the unscaled figure.  Needs at least one op that passed."""
    times = tally.passed_times()
    ok = tally.passed

    def tail(q: float) -> dict:
        value = percentile(times, q)
        return {"value": value * 1000 * factor, "unit": "ms", "wall": value * 1000, "samples": ok,
                "beyond": sum(1 for t in times if t > value)}

    out = {
        "ops_per_s": {"value": ok / tally.busy_s / factor, "unit": "1/s", "wall": ok / tally.busy_s},
        "op_p50_ms": tail(50),
        "op_p90_ms": tail(90),
    }
    if workload == "exact-small":
        out["op_p99_ms"] = tail(99)
    out["fail_ratio"] = {"value": tally.failed / tally.attempted, "unit": "ratio",
                         "failed": tally.failed, "attempted": tally.attempted}
    return out


def metric_names(section: str) -> list[str]:
    """Names of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny corpus, at least one full round (see check.py)")
    args = parser.parse_args(argv)

    if not (SRC / "semireg" / "cli.py").is_file():
        print(f"perfbench: no semireg sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # fork children from a process started before the corpus makes us large
    spawner = Spawner(env)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-quick' if args.quick else ''}"
    work = STATE / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _measure(args, spawner, work, tag)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, spawner: Spawner, work: Path, tag: str) -> int:
    started = time.time()
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "quick": args.quick, **machine()}
    metrics: dict[str, dict] = {}
    if args.trace == 1:
        metrics["cli.import_ms"] = {"value": cli_import_ms(spawner, work), "unit": "ms",
                                    "samples": SETUP_REPEATS}

    if args.workload == "exact-small":
        ops = workloads.exact_small(args.seed, args.quick)
    else:
        build = workloads.cli_trees if args.workload == "cli-trees" else workloads.cli_graphs
        ops, cycle = build(args.seed, str(work), args.quick)

    if args.trace == 0:
        if args.workload == "exact-small":
            pacer = Pacer(spawner, setup_argv(args.workload, work), work, in_process=True)
            tally = call_pass(ops, args.seconds, args.quick, pacer)
            # read before the percentiles below sort the op times
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            pacer = Pacer(spawner, setup_argv(args.workload, work), work, in_process=False)
            tally, peak_kb = cli_pass(ops, cycle, args.seconds, spawner, work, args.quick, pacer)
        pacer.finish()
        factor = pacer.factor
        record["speed"] = {"factor": factor, "samples": len(pacer.speed),
                           "median_ms": statistics.median(pacer.speed) * 1000}
        setup_wall = statistics.median(pacer.setup)
        metrics["setup_s"] = {"value": setup_wall * factor, "unit": "s", "wall": setup_wall,
                              "samples": len(pacer.setup)}
        if tally.passed:
            metrics.update(latency_metrics(tally, args.workload, factor))
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
        wanted = metric_names("end_to_end")
    else:
        import semireg.cli  # noqa: F401  (imported before timing)

        probe = deg4_probe(args.seed, args.quick)
        record["deg4_probe"] = probe
        metrics["coloring.wr2_deg4.errors"] = {"value": probe["crashes"], "unit": "count",
                                               "graphs": probe["graphs"]}
        tracer = Tracer()
        tally, bare_s, traced_s, crashes = traced_pass(
            ops, args.seconds, args.workload != "exact-small", args.quick, tracer)
        for name, (value, unit) in tracer.metrics().items():
            metrics[name] = {"value": value, "unit": unit}
        record["spans"] = {"recorded": len(tracer.spans) + tracer.dropped, "dropped": tracer.dropped}
        metrics["cli.crashes"] = {"value": crashes, "unit": "count"}
        metrics["trace.overhead_pct"] = {"value": (traced_s / bare_s - 1.0) * 100.0, "unit": "%",
                                         "bare_s": bare_s, "traced_s": traced_s}
        spans_path = results_dir / f"{tag}.spans.jsonl"
        tracer.dump(str(spans_path))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        wanted = metric_names("per_layer")

    # the wr2-deg4 probe of a traced run must meet no failure but the known one
    correct = tally.correct and not record.get("deg4_probe", {}).get("problems")
    record.update({
        "wall_s": time.time() - started,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": correct,
        "metrics": metrics,
        "kinds": tally.by_kind(),
        "failures": tally.failures,
    })
    result_path = results_dir / f"{tag}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in metrics.items():
        extra = ", ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}" + (f"  ({extra})" if extra else ""))
    print(f"  ops {tally.attempted} attempted, {tally.failed} failed, correct={correct}")
    for problem in record.get("deg4_probe", {}).get("problems", [])[:5]:
        print(f"  probe failure {problem}")
    for f in tally.failures[:5]:
        print(f"  failure {f['class']:10s} {f['kind']}: {f['detail']}")
    print(f"  record {result_path.relative_to(ROOT)}")

    if not tally.passed:
        print("perfbench: no op passed", file=sys.stderr)
        return 4
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
