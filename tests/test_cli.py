import hashlib
import os
import random

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
from helpers import (
    make_degree_tree,
    planted_tree,
    random_bounded_tree,
    random_hub_tree,
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
