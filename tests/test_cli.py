import os

import pytest

from semireg import (
    Family,
    Graph,
    complete,
    cycle,
    parse_graph,
    parse_partition,
    serialize_graph,
    star,
    path,
)
from semireg import cli
from semireg.cli import run
from helpers import make_degree_tree

GADGETS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "gadgets")


def _write_graph(tmp_path, g, name="g.txt"):
    f = tmp_path / name
    f.write_text(serialize_graph(g))
    return str(f)


def _report(capsys):
    out = capsys.readouterr().out
    fields = {}
    for line in out.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
    return out, fields


def test_decide_wr2_tree_yes(tmp_path, capsys):
    gfile = _write_graph(tmp_path, path(5))
    out_file = tmp_path / "parts.txt"
    assert run(["decide", "wr2-tree", gfile, "--out", str(out_file)]) == 0
    out, fields = _report(capsys)
    assert fields["decision"] == "YES"
    assert fields["verified"] == "true"
    p = parse_partition(out_file.read_text())
    assert p.k == 2


def test_decide_wr2_tree_no(tmp_path, capsys):
    gfile = _write_graph(tmp_path, make_degree_tree(8))
    assert run(["decide", "wr2-tree", gfile]) == 1
    _, fields = _report(capsys)
    assert fields["decision"] == "NO"


def test_decide_wrc_tree(tmp_path, capsys):
    gfile = _write_graph(tmp_path, star(5))
    assert run(["decide", "wrc-tree", gfile, "--c", "2"]) == 0
    _, fields = _report(capsys)
    assert fields["decision"] == "YES"


@pytest.mark.parametrize(
    "method,graph",
    [
        ("alg3", star(5)),
        ("sr-tree", star(5)),
        ("sr-general", cycle(5)),
        ("wr2-deg4", complete(4)),
    ],
)
def test_decompose_methods(tmp_path, capsys, method, graph):
    gfile = _write_graph(tmp_path, graph)
    out_file = tmp_path / "parts.txt"
    assert run(["decompose", gfile, "--method", method, "--out", str(out_file)]) == 0
    _, fields = _report(capsys)
    assert fields["verified"] == "true"
    parse_partition(out_file.read_text())


def test_oracle_and_verify_pipeline(tmp_path, capsys):
    gfile = _write_graph(tmp_path, star(5))
    out_file = tmp_path / "parts.txt"
    assert run(["oracle", gfile, "--family", "semiregular", "--max-parts", "4", "--out", str(out_file)]) == 0
    _, fields = _report(capsys)
    assert fields["min-parts"] == "3"

    assert run(["verify", gfile, "--family", "semiregular", "--partition", str(out_file)]) == 0
    _, fields = _report(capsys)
    assert fields["valid"] == "true"


def test_verify_rejects_bad_partition(tmp_path, capsys):
    gfile = _write_graph(tmp_path, star(3))
    pfile = tmp_path / "p.txt"
    pfile.write_text("2 3\n0 0\n1 0\n2 1\n")
    assert run(["verify", gfile, "--family", "regular", "--partition", str(pfile)]) == 1
    # a header promising more lines than follow is malformed input, not "invalid"
    pfile.write_text("1 2000000000000000000\n0 0\n")
    assert run(["verify", gfile, "--family", "regular", "--partition", str(pfile)]) == 2


def test_oracle_mixed_reports_and_verifies(tmp_path, capsys):
    # degrees {1, 2, 3} with two adjacent degree-2 vertices: neither family
    spider = Graph(6, ((0, 1), (1, 2), (2, 3), (0, 4), (0, 5)))
    gfile = _write_graph(tmp_path, spider)
    out_file = tmp_path / "parts.txt"
    assert run(["oracle", gfile, "--family", "mixed", "--out", str(out_file)]) == 0
    _, fields = _report(capsys)
    assert fields["min-parts"] == "2"
    assert fields["verified"] == "true"
    assert run(["verify", gfile, "--family", "mixed", "--partition", str(out_file)]) == 0


def test_oracle_budget_exit_code(tmp_path):
    gfile = _write_graph(tmp_path, complete(7))  # 21 edges
    assert run(["oracle", gfile, "--family", "regular", "--max-edges", "16"]) == 3


def test_oracle_above_max_parts(tmp_path, capsys):
    gfile = _write_graph(tmp_path, path(2))
    assert run(["oracle", gfile, "--family", "locally-irregular", "--max-parts", "2"]) == 1
    _, fields = _report(capsys)
    assert fields["min-parts"] == "> 2"


def test_reduce_thm4(tmp_path, capsys):
    gfile = _write_graph(tmp_path, complete(4))
    out_file = tmp_path / "wide.txt"
    assert run(["reduce", gfile, "--variant", "thm4", "--out", str(out_file)]) == 0
    _, fields = _report(capsys)
    assert fields["degree-set"] == "1 2 3 4 5 6 7 8 9"
    assert fields["wr-lower-bound"] == "3"
    assert parse_graph(out_file.read_text()).n == 66


def test_reduce_thm4_rejects_nonregular(tmp_path):
    gfile = _write_graph(tmp_path, cycle(4))
    assert run(["reduce", gfile, "--variant", "thm4"]) == 2


def test_reduce_gadget_variant(tmp_path, capsys):
    formula = tmp_path / "f.nae"
    formula.write_text("0 1 2\n0 1 2\n0 1 2\n")
    gadget_dir = os.path.join(GADGETS_DIR, "thm2")
    assert run(["reduce", str(formula), "--variant", "thm2", "--gadgets", gadget_dir]) == 0
    _, fields = _report(capsys)
    assert set(fields["degree-set"].split()) <= {"1", "3", "6"}


def test_reduce_gadget_variant_missing_dir(tmp_path):
    formula = tmp_path / "f.nae"
    formula.write_text("0 1\n0 1\n0 1\n")
    assert run(["reduce", str(formula), "--variant", "thm3iii", "--gadgets", str(tmp_path)]) == 2


def test_nae_solve(tmp_path, capsys):
    f = tmp_path / "sat.nae"
    f.write_text("0 1\n0 1 2\n")
    assert run(["nae", "solve", str(f)]) == 0
    _, fields = _report(capsys)
    assert fields["result"] == "SAT"

    f2 = tmp_path / "unsat.nae"
    f2.write_text("0 0\n")
    assert run(["nae", "solve", str(f2)]) == 1


def test_rep_commands(tmp_path, capsys):
    gfile = _write_graph(tmp_path, cycle(5))
    rep_file = tmp_path / "rep.txt"
    assert run(["rep", "construct", gfile, "--out", str(rep_file)]) == 0
    _, fields = _report(capsys)
    assert fields["verified"] == "true"

    assert run(["rep", "verify", gfile, "--rep", str(rep_file)]) == 0

    k2 = _write_graph(tmp_path, complete(2), "k2.txt")
    assert run(["rep", "search", k2]) == 0
    _, fields = _report(capsys)
    assert fields["r"] == "2"

    two_k2 = _write_graph(
        tmp_path,
        parse_graph("4 2\n0 1\n2 3"),
        "2k2.txt",
    )
    assert run(["rep", "search", two_k2, "--r-max", "5"]) == 1


def test_malformed_graph_is_input_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    assert run(["decide", "wr2-tree", str(bad)]) == 2


def test_non_tree_is_input_error(tmp_path):
    gfile = _write_graph(tmp_path, cycle(4))
    assert run(["decide", "wr2-tree", gfile]) == 2


def test_input_too_large_for_memory_is_input_error(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000000 1\n0 1\n")
    assert run(["decompose", str(huge), "--method", "sr-general"]) == 2
    err = capsys.readouterr().err
    assert "input error: input too large for memory" in err
    assert "Traceback" not in err


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._METHODS, "sr-tree", (broken, Family.SEMIREGULAR))
    gfile = _write_graph(tmp_path, star(5))
    assert run(["decompose", gfile, "--method", "sr-tree"]) == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_reports_are_deterministic(tmp_path, capsys):
    gfile = _write_graph(tmp_path, star(5))
    assert run(["decompose", gfile, "--method", "sr-tree"]) == 0
    first = capsys.readouterr().out
    assert run(["decompose", gfile, "--method", "sr-tree"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "== report ==" in first and "== end ==" in first
