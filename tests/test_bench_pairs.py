"""The summary of ``tools/bench_pairs.py`` on synthetic run records; no
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _record(ops_per_s, p50, rss, *, failed=0, kinds=None, factor=1.0):
    return {
        "attempted": 100,
        "failed": failed,
        "correct": failed == 0,
        "speed": {"factor": factor},
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "wall": ops_per_s * factor},
            "op_p50_ms": {"value": p50, "wall": p50 / factor},
            "peak_rss_mb": {"value": rss},
        },
        "kinds": kinds or {},
    }


_DIRECTIONS = {"ops_per_s": "higher", "op_p50_ms": "lower", "peak_rss_mb": "lower"}


def test_summary_counts_wins_in_each_metrics_direction():
    records = {
        "parent": [_record(10, 2.0, 30.0, factor=0.5), _record(12, 2.0, 30.0), _record(11, 3.0, 30.0),
                   _record(9, 2.5, 30.0)],
        "change": [_record(11, 1.0, 30.0), _record(12, 2.5, 31.0, failed=2), _record(13, 2.0, 29.0),
                   _record(10, 2.0, 30.0)],
    }
    block = bench_pairs.summarize([1, 2, 3, 4], records, _DIRECTIONS)
    assert block["seeds"] == [1, 2, 3, 4]
    assert block["ops_attempted"] == {"parent": [100] * 4, "change": [100] * 4}
    assert block["ops_failed"] == {"parent": 0, "change": 2}
    assert block["correct"] == {"parent": True, "change": False}
    assert block["speed_factor"]["parent"] == [0.5, 1.0, 1.0, 1.0]

    ops = block["metrics"]["ops_per_s"]
    assert ops["better"] == "higher"
    # inclusive quartiles of 9, 10, 11, 12
    assert ops["parent"] == {"median": 10.5, "q1": 9.75, "q3": 11.25, "runs": [10, 12, 11, 9]}
    assert ops["change"]["median"] == 11.5
    assert ops["change_pct"] == round((11.5 / 10.5 - 1) * 100, 2)
    assert (ops["pairs"], ops["wins"], ops["losses"]) == (4, 3, 0)  # one tie
    assert ops["gap_exceeds_parent_iqr"] is False  # gap 1.0 against an IQR of 1.5
    assert ops["wall"]["parent"]["runs"] == [5.0, 12, 11, 9]

    p50 = block["metrics"]["op_p50_ms"]
    assert (p50["wins"], p50["losses"]) == (3, 1)  # lower is better
    assert p50["parent"]["median"] == 2.25 and p50["change"]["median"] == 2.0
    assert p50["change_pct"] == round((2.0 / 2.25 - 1) * 100, 2)

    rss = block["metrics"]["peak_rss_mb"]
    assert "wall" not in rss
    assert (rss["wins"], rss["losses"]) == (1, 1)
    assert rss["gap_exceeds_parent_iqr"] is False


def test_summary_takes_kind_medians_over_the_runs_that_have_them():
    records = {
        "parent": [_record(1, 1, 1, kinds={"a": {"p50_ms": 4.0}, "b": {"p50_ms": None}}),
                   _record(1, 1, 1, kinds={"a": {"p50_ms": 6.0}})],
        "change": [_record(1, 1, 1, kinds={"a": {"p50_ms": 3.0}}),
                   _record(1, 1, 1, kinds={"a": {"p50_ms": 5.0}, "c": {"p50_ms": 0.071234}})],
    }
    block = bench_pairs.summarize([7, 8], records, _DIRECTIONS)
    assert block["kind_p50_ms_median"] == {
        "a": {"parent": 5.0, "change": 4.0},
        "b": {"parent": None, "change": None},
        "c": {"parent": None, "change": 0.0712},
    }
    # equal runs on both sides: no win, no loss and no gap
    ops = block["metrics"]["ops_per_s"]
    assert (ops["wins"], ops["losses"], ops["change_pct"], ops["gap_exceeds_parent_iqr"]) == (0, 0, 0.0, False)


def test_seed_ranges():
    assert bench_pairs.parse_seeds("2301-2305") == [2301, 2302, 2303, 2304, 2305]
    assert bench_pairs.parse_seeds("7") == [7]


def test_one_seed_is_refused_before_any_run():
    with pytest.raises(SystemExit):
        bench_pairs.main(["parent", "change", "--workload", "exact-small", "--seeds", "7", "--pr", "1"])


def _checkout(root, modules):
    """A synthetic checkout: the real line counter and a package of
    ``modules`` (name -> source)."""
    (root / "tools").mkdir(parents=True)
    (root / "tools" / "src_lines.py").write_text((_PATH.parent / "src_lines.py").read_text())
    pkg = root / "src" / "semireg"
    pkg.mkdir(parents=True)
    for name, source in modules.items():
        (pkg / name).write_text(source)
    return root


def test_src_lines_of_each_side_go_into_the_workload_block(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "parent", {
        "a.py": '"""Doc."""\n\nx = 1  # one\n# comment\n',
        "b.py": "def f():\n    '''Doc\n    more.'''\n    return 2\n",
    })
    change = _checkout(tmp_path / "change", {"a.py": "x = 1\n"})
    assert bench_pairs.src_lines(parent) == [8, 3]
    assert bench_pairs.src_lines(change) == [1, 1]

    (parent / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": n, "better": b} for n, b in _DIRECTIONS.items()]}))
    runs = []

    def fake_run(checkout, copy, workload, seed, seconds):
        runs.append((checkout.name, seed))
        return dict(_record(10, 1.0, 30.0), nproc=2, cpu_model="cpu", python="3")

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1-2", "--pr", "9"]) == 0
    assert runs == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    block = json.loads((tmp_path / "BENCH_9.json").read_text())["workloads"]["w"]
    assert block["src_lines"] == {"parent": [8, 3], "change": [1, 1]}
