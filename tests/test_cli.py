import contextlib
import hashlib
import io
import os
import random
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from semireg import (
    Family,
    Graph,
    complement,
    complete,
    cycle,
    degree_set,
    parse_graph,
    parse_partition,
    serialize_graph,
    star,
    path,
)
from semireg import cli
from semireg.cli import run
from helpers import (
    make_degree_tree,
    petersen,
    planted_tree,
    random_bounded_tree,
    random_deg4_graph,
    random_hub_tree,
    random_simple_graph,
    random_tree,
)

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
        ("wr2-deg4", Graph(5, ((0, 1), (1, 2), (2, 3), (3, 0)))),  # vertex 4 has no edge
    ],
)
def test_decompose_methods(tmp_path, capsys, method, graph):
    gfile = _write_graph(tmp_path, graph)
    out_file = tmp_path / "parts.txt"
    assert run(["decompose", gfile, "--method", method, "--out", str(out_file)]) == 0
    _, fields = _report(capsys)
    assert fields["verified"] == "true"
    parse_partition(out_file.read_text())
    assert run(["verify", gfile, "--family", fields["family"], "--partition", str(out_file)]) == 0


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


def test_reduce_gadget_unreadable_file_is_input_error(tmp_path, capsys):
    # B.gadget is a directory: an input error naming the file, not a crash
    formula = tmp_path / "f.nae"
    formula.write_text("0 1 2\n0 1 2\n0 1 2\n")
    gadget_dir = tmp_path / "gadgets"
    gadget_dir.mkdir()
    (gadget_dir / "B.gadget").mkdir()
    assert run(["reduce", str(formula), "--variant", "thm2", "--gadgets", str(gadget_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = [line for line in captured.err.splitlines() if not line.startswith("elapsed: ")]
    assert err == [f"input error: cannot read gadget 'B' from {gadget_dir / 'B.gadget'}: Is a directory"]


def test_reduce_gadget_not_utf8_names_the_file(tmp_path, capsys):
    formula = tmp_path / "f.nae"
    formula.write_text("0 1 2\n0 1 2\n0 1 2\n")
    gadget_dir = tmp_path / "gadgets"
    gadget_dir.mkdir()
    (gadget_dir / "B.gadget").write_bytes(b"\xff\xfe2 1\n0 1\n")
    assert run(["reduce", str(formula), "--variant", "thm2", "--gadgets", str(gadget_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = [line for line in captured.err.splitlines() if not line.startswith("elapsed: ")]
    assert len(err) == 1
    assert err[0].startswith(f"input error: cannot read gadget 'B' from {gadget_dir / 'B.gadget'}: 'utf-8' codec")


def test_reduce_malformed_gadget_names_the_file(tmp_path, capsys):
    formula = tmp_path / "f.nae"
    formula.write_text("0 1 2\n0 1 2\n0 1 2\n")
    gadget_dir = tmp_path / "gadgets"
    gadget_dir.mkdir()
    for name in ("B", "I"):
        shutil.copy(os.path.join(GADGETS_DIR, "thm2", f"{name}.gadget"), gadget_dir)
    (gadget_dir / "H.gadget").write_text("3 2\n0 1\nport a 0\n1 x\n")
    assert run(["reduce", str(formula), "--variant", "thm2", "--gadgets", str(gadget_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = [line for line in captured.err.splitlines() if not line.startswith("elapsed: ")]
    assert err == [f"input error: gadget 'H' ({gadget_dir / 'H.gadget'}): line 3: edge line must be 'u v'"]


def test_graph_file_not_utf8_names_the_file(tmp_path, capsys):
    bad = tmp_path / "g.txt"
    bad.write_bytes(b"\xff\xfe2 1\n0 1\n")
    assert run(["decide", "wr2-tree", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = [line for line in captured.err.splitlines() if not line.startswith("elapsed: ")]
    assert len(err) == 1
    assert err[0].startswith(f"input error: cannot read {bad}: 'utf-8' codec")


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


def test_rep_verify_non_integer_label_is_input_error(tmp_path, capsys):
    gfile = _write_graph(tmp_path, cycle(5))
    rep_file = tmp_path / "rep.txt"
    rep_file.write_text("r 5\nlabels 0 1 x 3 4\n")
    assert run(["rep", "verify", gfile, "--rep", str(rep_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: line 2: " in captured.err


def test_rep_verify_non_integer_prime_is_input_error(tmp_path, capsys):
    gfile = _write_graph(tmp_path, cycle(5))
    rep_file = tmp_path / "rep.txt"
    rep_file.write_text("r 5\nprimes x y\nlabels 0 1 2 3 4\n")
    assert run(["rep", "verify", gfile, "--rep", str(rep_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: line 2: primes values must be integers" in captured.err


def test_rep_verify_repeated_line_is_input_error(tmp_path, capsys):
    gfile = _write_graph(tmp_path, cycle(5))
    rep_file = tmp_path / "rep.txt"
    rep_file.write_text("r 5\nlabels 0 1 2 3 4\nr 7\n")
    assert run(["rep", "verify", gfile, "--rep", str(rep_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: line 3: second 'r' line" in captured.err


def test_malformed_graph_is_input_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    assert run(["decide", "wr2-tree", str(bad)]) == 2


def test_non_tree_is_input_error(tmp_path):
    gfile = _write_graph(tmp_path, cycle(4))
    assert run(["decide", "wr2-tree", gfile]) == 2


@pytest.mark.parametrize("extra", ["triangle", "chord"])
def test_non_tree_with_eight_degrees_is_input_error(tmp_path, capsys, extra):
    # no pair covers eight degrees, so the peeling pass is the tree test
    t = make_degree_tree(8)
    n = t.n
    if extra == "triangle":  # n - 1 edges: a disjoint triangle
        g = Graph(n + 3, t.edges + ((n, n + 1), (n + 1, n + 2), (n + 2, n)))
    else:  # n edges: two leaves joined
        g = Graph(n, t.edges + ((n - 2, n - 1),))
    assert len(degree_set(g)) == 8
    assert run(["decide", "wr2-tree", _write_graph(tmp_path, g)]) == 2
    assert "input must be a tree" in capsys.readouterr().err


def test_input_too_large_for_memory_is_input_error(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000000 1\n0 1\n")
    assert run(["decompose", str(huge), "--method", "sr-general"]) == 2
    err = capsys.readouterr().err
    assert "input error: input too large for memory" in err
    assert "Traceback" not in err


def test_sr_general_on_a_parallel_edge_is_input_error(tmp_path, capsys):
    bad = tmp_path / "multi.txt"
    bad.write_text("3 3\n0 1\n1 2\n1 0\n")
    assert run(["decompose", str(bad), "--method", "sr-general"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: semiregular split requires a simple graph" in captured.err
    assert "Traceback" not in captured.err


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._METHODS, "sr-tree", (broken, Family.SEMIREGULAR))
    gfile = _write_graph(tmp_path, star(5))
    assert run(["decompose", gfile, "--method", "sr-tree"]) == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


@pytest.mark.parametrize(
    "target", [pytest.param("no/such/dir/parts.txt", id="missing-dir"), pytest.param(".", id="a-dir")]
)
def test_unwritable_out_is_input_error(tmp_path, capsys, target):
    gfile = _write_graph(tmp_path, star(5))
    out_path = str(tmp_path / target)
    assert run(["decompose", gfile, "--method", "sr-tree", "--out", out_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: cannot write {out_path}: " in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("with_out,calls", [(False, 0), (True, 1)])
def test_partition_serialized_only_for_out(tmp_path, capsys, monkeypatch, with_out, calls):
    serialize = cli.families.serialize_partition
    seen = []
    monkeypatch.setattr(cli.families, "serialize_partition", lambda p: seen.append(p) or serialize(p))
    gfile = _write_graph(tmp_path, star(5))
    argv = ["decompose", gfile, "--method", "sr-tree"]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    out_path = tmp_path / "parts.txt"
    assert run(argv + (["--out", str(out_path)] if with_out else [])) == 0
    assert capsys.readouterr().out == plain
    assert len(seen) == calls
    assert out_path.exists() == with_out


@pytest.mark.parametrize(
    "module,name,argv,graph",
    [
        pytest.param("families", "verify_partition", ["decide", "wr2-tree"], path(5), id="decide"),
        pytest.param("families", "verify_partition", ["decompose", "--method", "sr-tree"], star(5), id="decompose"),
        pytest.param("families", "verify_partition", ["oracle", "--family", "semiregular"], star(5), id="oracle"),
        pytest.param("representation", "verify_representation", ["rep", "search"], complete(2), id="rep-search"),
        pytest.param("representation", "verify_representation", ["rep", "construct"], cycle(5), id="rep-construct"),
    ],
)
def test_failed_reverification_exits_4(tmp_path, capsys, monkeypatch, module, name, argv, graph):
    monkeypatch.setattr(getattr(cli, module), name, lambda *args: False)
    gfile = _write_graph(tmp_path, graph)
    assert run([*argv, gfile]) == 4
    captured = capsys.readouterr()
    assert "verified: false" in captured.out.splitlines()
    err = [line for line in captured.err.splitlines() if not line.startswith("elapsed: ")]
    assert err == ["internal error: output failed re-verification"]


def test_reports_are_deterministic(tmp_path, capsys):
    gfile = _write_graph(tmp_path, star(5))
    assert run(["decompose", gfile, "--method", "sr-tree"]) == 0
    first = capsys.readouterr().out
    assert run(["decompose", gfile, "--method", "sr-tree"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "== report ==" in first and "== end ==" in first


# SHA-256 of stdout and of the --out file (None: no file written), recorded
# from the reports before tree rooting stopped sorting adjacency lists; any
# later change to these commands must keep them byte-identical.
_GOLDEN_TREE_RUNS = [
    pytest.param(
        ["decompose", "--method", "sr-tree"], lambda: random_tree(3000, random.Random(11)), 0,
        "19ba74a87e161fd008c209b28ef3274f1db0c9e9005256a6cbf7569c774490a0",
        "c28c7edef6221ff9c88cbab104b9bf13dc1c0c7c1caba04c61bc3c5d47e7ec19",
        id="sr-tree-random",
    ),
    pytest.param(
        ["decompose", "--method", "sr-tree"], lambda: random_hub_tree(3000, 4, random.Random(12)), 0,
        "bf709bba2e30990ca72213915054195bc294c67b0ee022f137a45963aed31781",
        "102d1566a7a996f130e62e281501e3aa5485948eab799b0045315ecc0ac255e4",
        id="sr-tree-hubs",
    ),
    pytest.param(
        ["decompose", "--method", "alg3"], lambda: random_tree(3000, random.Random(13)), 0,
        "2ca3a025797717f27981df08eef2446fce39ce33e89b50c348d9ca47bf21f0ce",
        "174f30b30765155b5be4f07754887cac7aab394a69db425de8e4a50b04c381ae",
        id="alg3-random",
    ),
    pytest.param(
        ["decompose", "--method", "alg3"], lambda: random_hub_tree(3000, 4, random.Random(14)), 0,
        "7640e3ec7af3fe46683930459a3dc7d1739866a3b9a811b0837677b554c744da",
        "68a3a31fec5fd98110bba2de86e1edb7f73204264c5d582366cc6f915eff7b37",
        id="alg3-hubs",
    ),
    pytest.param(  # YES, but the first labelling fails, so the ban pass runs
        ["decide", "wr2-tree"], lambda: planted_tree(2000, 1, 3, random.Random(0)), 0,
        "1523476fa2ba5a2a45104f437afc4c8077c34dbecdd5a13e23de4fea2e16ebe6",
        "16b9df90962fa89ad74c416371bc90002ac0da66d6b09a762604d343cd2edacb",
        id="wr2-yes-ban-pass",
    ),
    pytest.param(
        ["decide", "wr2-tree"], lambda: planted_tree(3000, 1, 2, random.Random(1)), 0,
        "03ff373990b48e33ba249929c21e61f7016399364193399c41205634ded831da",
        "bf90399e5f502ee314b5be9a6b205ae8f571e509d627255baeb77652ef82e8ad",
        id="wr2-yes",
    ),
    pytest.param(  # a path: one part holds every edge, the other is empty
        ["decide", "wr2-tree"], lambda: random_bounded_tree(3000, 2, random.Random(16)), 0,
        "1024c70cdc68d6bf57d6f76896e51590c19066316e8168f12709dd7e37cf87db",
        "a7a982fa56ad2bfb20ad1ea2b6a0135c24bd21cacd67f71b9a00bce5e2caf793",
        id="wr2-yes-empty-part",
    ),
    pytest.param(  # degree set {1..6}: two candidate pairs are searched
        ["decide", "wr2-tree"], lambda: random_bounded_tree(3000, 6, random.Random(15)), 1,
        "8b08a88e3b2dec572d988675dc2e3e2d93aa25f491ea4d633da5e01913db4dee", None,
        id="wr2-no",
    ),
]


@pytest.mark.parametrize("argv,tree,code,stdout_sha,out_sha", _GOLDEN_TREE_RUNS)
def test_tree_reports_match_recorded_digests(tmp_path, capsys, argv, tree, code, stdout_sha, out_sha):
    gfile = _write_graph(tmp_path, tree())
    out_file = tmp_path / "out.txt"
    assert run([*argv, gfile, "--out", str(out_file)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    written = out_file.read_bytes() if out_file.exists() else None
    assert (written and hashlib.sha256(written).hexdigest()) == out_sha


# SHA-256 of stdout and of the --out file (None: no file written) of
# `semireg oracle`, recorded before the oracle search was prepared once per
# graph and reused for every k; the witnesses must stay byte-identical.
_ORACLE_GRAPHS = {
    "star5": star(5),
    "spider": Graph(6, ((0, 1), (1, 2), (2, 3), (0, 4), (0, 5))),
    "k4": complete(4),
    "c5": cycle(5),  # an odd cycle has no locally irregular split
}
_GOLDEN_ORACLE_RUNS = [
    pytest.param(
        _ORACLE_GRAPHS["star5"], "semiregular", 0,
        "3abd3428c762a215ef082c3865e5987ea513d9f80ba55cc1ffc07ed59f3313b0",
        "f3f1b6d905fae1eb22f5b33b077bd9f5d01b0439016d2755a8ccc02095ef83d6",
        id="star5-semiregular",
    ),
    pytest.param(
        _ORACLE_GRAPHS["star5"], "mixed", 0,
        "d8882545da62effe834319eba3619cae51fde72c4ea551e26413702f428af188",
        "28a004f91a21449ad7dff4ee0b1f40bfbf1129a7ba14b4c19cb31499b98c3925",
        id="star5-mixed",
    ),
    pytest.param(
        _ORACLE_GRAPHS["star5"], "locally-irregular", 0,
        "a89c5cba94dcb7d2bbbea83fe3d2925406ba538e71deb2cce26cbdb1d2e13e3b",
        "28a004f91a21449ad7dff4ee0b1f40bfbf1129a7ba14b4c19cb31499b98c3925",
        id="star5-locally-irregular",
    ),
    pytest.param(
        _ORACLE_GRAPHS["spider"], "semiregular", 0,
        "40c0c3969d7e7e9bc7f6f2949748d4d7600a24755b48fcb9503e5bd41d49121d",
        "7007f57c7783414fc0c765856c662389e58f27340a19b87a4421cd8c5795093f",
        id="spider-semiregular",
    ),
    pytest.param(
        _ORACLE_GRAPHS["spider"], "mixed", 0,
        "1bddbb816f7a82467f81cefce41c2d2ed5f4a06722d7b83f5934dbd049f38f37",
        "7007f57c7783414fc0c765856c662389e58f27340a19b87a4421cd8c5795093f",
        id="spider-mixed",
    ),
    pytest.param(
        _ORACLE_GRAPHS["spider"], "locally-irregular", 0,
        "24b939871c89393e5bf8b314d415d7a392d0ea7c8bfdd31c0e9c369d06e95605",
        "fb866e085ce35fe7a73a6a2c542a6654efbcd2c047a6303edda79c2f22f45f58",
        id="spider-locally-irregular",
    ),
    pytest.param(
        _ORACLE_GRAPHS["k4"], "semiregular", 0,
        "a9a20348429ef97e34fadfd516e60e295fb466cd0b7321cdf207abdfb0d587c5",
        "e0761416fd5539e592fe991abd697f8679212b73e38c3009a619102c7fedea68",
        id="k4-semiregular",
    ),
    pytest.param(
        _ORACLE_GRAPHS["k4"], "mixed", 0,
        "dcd33113a1dfd217691fb19e7ada5d8045359b0e7489344512e065ad91cbd805",
        "e0761416fd5539e592fe991abd697f8679212b73e38c3009a619102c7fedea68",
        id="k4-mixed",
    ),
    pytest.param(
        _ORACLE_GRAPHS["k4"], "locally-irregular", 0,
        "ee13f3264151385e049dbf7b91506b3baf1ac0ea2ba6cbb53d2b768a9e251c97",
        "378314a14038cee8a449df93817644f520630570b7124f0aa735af4eef6dc760",
        id="k4-locally-irregular",
    ),
    pytest.param(
        _ORACLE_GRAPHS["c5"], "semiregular", 0,
        "2a73c23c9f118d3dda4ed52830d9e3c0508f4a9ab062a70eeb42c51b473636e8",
        "28a004f91a21449ad7dff4ee0b1f40bfbf1129a7ba14b4c19cb31499b98c3925",
        id="c5-semiregular",
    ),
    pytest.param(
        _ORACLE_GRAPHS["c5"], "mixed", 0,
        "3f4316a5a8aae38b234da5cf49fea0f88db923d60295ed0d027b9e942b9a8a55",
        "28a004f91a21449ad7dff4ee0b1f40bfbf1129a7ba14b4c19cb31499b98c3925",
        id="c5-mixed",
    ),
    pytest.param(
        _ORACLE_GRAPHS["c5"], "locally-irregular", 1,
        "06f1c27c278208c1a3ed41071145ca75b94dc9ac1e56676ab64e634cdf598aba",None,
        id="c5-locally-irregular",
    ),
]


@pytest.mark.parametrize("graph,family,code,stdout_sha,out_sha", _GOLDEN_ORACLE_RUNS)
def test_oracle_reports_match_recorded_digests(tmp_path, capsys, graph, family, code, stdout_sha, out_sha):
    gfile = _write_graph(tmp_path, graph)
    out_file = tmp_path / "out.txt"
    assert run(["oracle", gfile, "--family", family, "--out", str(out_file)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    written = out_file.read_bytes() if out_file.exists() else None
    assert (written and hashlib.sha256(written).hexdigest()) == out_sha


# SHA-256 of stdout and of the --out file (None: no file written) of the
# commands the two tables above leave out, recorded before the subcommands
# returned their reports to `run`; stdout and --out must stay byte-identical.
# In argv, "{name}" is the path of input file `name` and "{out}" the --out path.
_GOLDEN_CLI_RUNS = [
    pytest.param(  # both sr-general rows re-recorded from the shared-free-colour rule
        ["decompose", "{g}", "--method", "sr-general", "--out", "{out}"],
        lambda: {"g": serialize_graph(random_simple_graph(12, 30, random.Random(21)))}, 0,
        "1e021ee094717bbba7419813e9457c91f56a03f789cd7924443b63c384ac24b7",
        "b6fcde3373fd86730de8c05c697534a2b7fca851ed0be4fd358fc8c3dead9011",
        id="decompose-sr-general",
    ),
    pytest.param(  # Δ = 38 on 60 vertices: arcs between near-Δ ends still force 2 flips
        ["decompose", "{g}", "--method", "sr-general", "--out", "{out}"],
        lambda: {"g": serialize_graph(random_simple_graph(60, 900, random.Random(31)))}, 0,
        "58e7da442328f539ebb87a994d138b3b2db7554aa506a72668a97e73aa0441f1",
        "97d125c80283598bf081396639880d80e2bde047d22243232136401613930d58",
        id="decompose-sr-general-long-fans",
    ),
    pytest.param(  # --out recorded from the Euler-circuit split of the input itself
        ["decompose", "{g}", "--method", "wr2-deg4", "--out", "{out}"],
        lambda: {"g": serialize_graph(random_deg4_graph(40, random.Random(22)))}, 0,
        "578bd9957c0a79d609e941e0d7ba2f0db752102193501833e2bcfd499dd0fb77",
        "99c150ff40d631d13f9a7cb8dec84f0a71945da18968ebdff3de5bfb82dfabdb",
        id="decompose-wr2-deg4",
    ),
    pytest.param(  # two perfect matchings of a 6-cycle
        ["verify", "{g}", "--family", "regular", "--partition", "{p}"],
        lambda: {"g": serialize_graph(cycle(6)), "p": "2 6\n0 0\n1 1\n2 0\n3 1\n4 0\n5 1\n"}, 0,
        "063d05f2ba38c152d524fe097cf6621c98c909dba7c1b00a5303a2c322261db3", None,
        id="verify-valid",
    ),
    pytest.param(  # a 2-edge star is not regular
        ["verify", "{g}", "--family", "regular", "--partition", "{p}"],
        lambda: {"g": serialize_graph(star(3)), "p": "2 3\n0 0\n1 0\n2 1\n"}, 1,
        "70ded38f05951f8b5f5beb8c445604cdf340601f4453b43210c21163028c2d79", None,
        id="verify-invalid",
    ),
    pytest.param(
        ["decide", "wrc-tree", "{g}", "--c", "3", "--out", "{out}"],
        lambda: {"g": serialize_graph(random_tree(40, random.Random(23)))}, 0,
        "edeb1b103cb18b1c4ad2a2bceea61e1beaeb8ec64bf543a475dc0a5dd23b3707",
        "f4b995e9bf6eec05c2467506901244d90cbd04b55138024344304618dbfde5c5",
        id="wrc-tree-yes",
    ),
    pytest.param(
        ["decide", "wrc-tree", "{g}", "--c", "2", "--out", "{out}"],
        lambda: {"g": serialize_graph(make_degree_tree(8))}, 1,
        "3ca6221b5c1f620ba9bd3c695bfc855478e933cd2d864d781207e69e66672309", None,
        id="wrc-tree-no",
    ),
    pytest.param(
        ["reduce", "{g}", "--variant", "thm4", "--out", "{out}"],
        lambda: {"g": serialize_graph(petersen())}, 0,
        "5e8260598033ec5683540211aa72001311eaada99b583a0a1f2f2193ce2a33af",
        "8c89ceaecb19ae51559fc6639dd714e8fe1482846fc0a56f28271a34e4d4b865",
        id="reduce-thm4",
    ),
    pytest.param(
        ["reduce", "{f}", "--variant", "thm2", "--gadgets", os.path.join(GADGETS_DIR, "thm2"), "--out", "{out}"],
        lambda: {"f": "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"}, 0,
        "6a59bf6fb3f97e281b6d7efe942e62c1f59fb7d2db56524825a93dec4b1e3dba",
        "27828f9f5ad9a26c2cad9fdb2ef79766f767cbd6f2ab2981a053db1f8b415012",
        id="reduce-thm2",
    ),
    pytest.param(
        ["nae", "solve", "{f}"],
        lambda: {"f": "0 1 2\n1 2 3\n0 2 3\n"}, 0,
        "e86f74263dc20fb43ebb6e8f5f0aaf5228ad68dbe990b40c7bd0642ac085d45d", None,
        id="nae-sat",
    ),
    pytest.param(  # the clause "0 0" can never hold two different values
        ["nae", "solve", "{f}"],
        lambda: {"f": "0 1\n0 0\n"}, 1,
        "28d365026e1b15e149706056c4687bb83bc4a47227a5ef19ff2a93d11d3a28ba", None,
        id="nae-unsat",
    ),
    pytest.param(
        ["rep", "search", "{g}"],
        lambda: {"g": serialize_graph(random_simple_graph(6, 8, random.Random(25)))}, 0,
        "6c56d7218309b85625702d32cfcd53911e20deca113bd84644061fb698522a19", None,
        id="rep-search",
    ),
    pytest.param(  # the complement is a 7-cycle: triangle-free and regular
        ["rep", "construct", "{g}", "--out", "{out}"],
        lambda: {"g": serialize_graph(complement(cycle(7)))}, 0,
        "dff980079e9161854a11d30d4ccc532c3e8e6b9c7d790d39c70456e85fc0a733",
        "3cd729433a1c2ea5f3503ce32ce499e95899d36a21d824c146d142e5ab249c72",
        id="rep-construct",
    ),
    pytest.param(
        ["rep", "verify", "{g}", "--rep", "{r}"],
        lambda: {"g": serialize_graph(complete(3)), "r": "r 3\nlabels 0 1 2\n"}, 0,
        "438e7b94fafcded6ae98277ad4ce730aedccbb49d5f197930b4a6878ee7324f1", None,
        id="rep-verify",
    ),
]


@pytest.mark.parametrize("argv,inputs,code,stdout_sha,out_sha", _GOLDEN_CLI_RUNS)
def test_cli_reports_match_recorded_digests(tmp_path, capsys, argv, inputs, code, stdout_sha, out_sha):
    paths = {"out": str(tmp_path / "out.txt")}
    for name, text in inputs().items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    assert run([arg.format(**paths) for arg in argv]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    out_file = tmp_path / "out.txt"
    written = out_file.read_bytes() if out_file.exists() else None
    assert (written and hashlib.sha256(written).hexdigest()) == out_sha


def _trees(min_n=2):
    return st.builds(random_tree, st.integers(min_n, 12), st.randoms(use_true_random=False))


@st.composite
def _graphs(draw, simple=True, max_degree=12, max_m=20):
    """At least one edge on 2..12 vertices; random pairs that would repeat
    an edge of a simple graph or pass ``max_degree`` are dropped."""
    n = draw(st.integers(2, 12))
    rng = draw(st.randoms(use_true_random=False))
    edges, deg = [], [0] * n
    for _ in range(rng.randint(1, max_m)):
        u, v = rng.sample(range(n), 2)
        if max(deg[u], deg[v]) < max_degree and (not simple or {(u, v), (v, u)}.isdisjoint(edges)):
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, tuple(edges))


# Each constructive command on valid input for it: argv before the graph
# path, and the graphs to run it on.
_CONSTRUCTIVE = [
    (["decompose", "--method", "alg3"], _trees()),
    (["decompose", "--method", "sr-tree"], _trees()),
    (["decompose", "--method", "sr-general"], _graphs()),
    (["decompose", "--method", "wr2-deg4"], _graphs(simple=False, max_degree=4)),
    (["decide", "wr2-tree"], _trees(min_n=1)),
    *((["decide", "wrc-tree", "--c", str(c)], _trees(min_n=1)) for c in (1, 2, 3)),
    *((["oracle", "--family", f.value], _graphs(simple=False, max_m=8)) for f in Family),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("constructive")


def _run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, dict(line.split(": ", 1) for line in out.getvalue().splitlines() if ": " in line)


@pytest.mark.parametrize("head,graphs", _CONSTRUCTIVE,
                         ids=["-".join(arg.lstrip("-") for arg in head) for head, _ in _CONSTRUCTIVE])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_constructive_out_passes_verify(workdir, head, graphs, data):
    g = data.draw(graphs)
    gfile = _write_graph(workdir, g)
    out_file = workdir / "parts.txt"
    out_file.unlink(missing_ok=True)
    code, fields = _run_quiet([*head, gfile, "--out", str(out_file)])
    if code == 1:  # NO from a decider or an oracle: nothing is written
        assert head[0] in ("decide", "oracle") and not out_file.exists()
        return
    assert code == 0
    command = fields["command"].split()
    family = fields.get("family", command[1] if command[0] == "oracle" else Family.WEAKLY_SEMIREGULAR.value)
    assert _run_quiet(["verify", gfile, "--family", family, "--partition", str(out_file)])[0] == 0
    if head[-1] == "sr-general":
        assert int(fields["nonempty-parts"]) <= (max(g.degrees()) + 1) // 2
