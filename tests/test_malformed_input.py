"""Property tests: any text as a gadget file, a representation file, a
graph file, a partition file or a formula file is judged (exit 0, or 1
when `rep verify` rejects the labels, `verify` the partition or `nae
solve` the formula), is an input error (exit 2) or, for a formula over
more than 24 variables, a budget error (exit 3), never an internal error
(exit 5) or a traceback."""

import contextlib
import io
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from semireg import Family, cli, cycle, serialize_graph

GADGETS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "gadgets")

_JUNK = st.one_of(
    st.sampled_from(["", "  ", "port", "port a", "0 1", "-1 0", "2 2", "9 1", "r 5", "primes 2 3", "labels 0 1 2 3 4",
                     "+1 0", "0_1 1", "\u0661 0"]),
    st.text(max_size=12).filter(lambda t: "\n" not in t and "\r" not in t),
)


# Headers stay at n <= 64: a header naming ~10^8 vertices makes the first
# pass over the vertices (``classify``, ``degrees``) allocate that much
# before any check can fail.
def _small_header(text: str) -> bool:
    head = text.splitlines()[:1]
    try:
        return int(head[0].split()[0]) <= 64
    except (IndexError, ValueError):
        return True


def _with_junk(draw, lines: list[str]) -> str:
    for line in draw(st.lists(_JUNK, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


@st.composite
def _graph_texts(draw):
    """Half the time a well-formed graph: a path through all n vertices plus
    a few edges, so the split runs unless a degree passes 4.  Otherwise edge
    lines may leave the vertex range or close a loop, the edge count may be
    off and junk lines may come anywhere."""
    n = draw(st.integers(2, 8))
    ids = st.integers(0, n - 1)
    edges = [(v, v + 1) for v in range(n - 1)]
    edges += draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=6))
    if draw(st.booleans()):
        return "\n".join([f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)])
    edges += draw(st.lists(st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1)), max_size=2))
    m = draw(st.just(len(edges)) | st.integers(0, 12))
    return _with_junk(draw, [f"{draw(st.integers(0, 9))} {m}", *(f"{u} {v}" for u, v in draw(st.permutations(edges)))])


@st.composite
def _partition_texts(draw):
    """Half the time each of the 5 edges of C5 once in one of k parts, so
    the partition is judged.  Otherwise part and edge ids may leave their
    ranges or repeat, the counts may be off and junk lines may come
    anywhere."""
    k = draw(st.integers(1, 4))
    rows = [(e, draw(st.integers(0, k - 1))) for e in draw(st.permutations(range(5)))]
    if draw(st.booleans()):
        return "\n".join([f"{k} 5", *(f"{e} {q}" for e, q in rows)])
    rows = draw(st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 5)), max_size=6))
    m = draw(st.just(len(rows)) | st.integers(0, 7))
    return _with_junk(draw, [f"{draw(st.integers(0, 4))} {m}", *(f"{e} {q}" for e, q in rows)])


@st.composite
def _gadget_texts(draw):
    """A header, its edge lines in range, port lines (some malformed) and
    a junk line now and then."""
    n = draw(st.integers(1, 8))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=6)) if n > 1 else []
    lines = [f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    port = st.builds("port {} {}".format, st.sampled_from("abt"), ids)
    lines += draw(st.lists(st.one_of(port, st.sampled_from(["port", "port a", "port a x", "port a 0 1", "prt a 0"])),
                           max_size=3))
    return _with_junk(draw, lines)


@st.composite
def _formula_texts(draw):
    """Clauses of two or three variable ids, mostly below 12; an id of 24
    or more puts the formula over the brute-force budget, and one of 13 to
    23 leaves variables in no clause.  Half the time junk lines come
    anywhere."""
    ids = st.integers(0, 11) | st.sampled_from([13, 20, 23, 24, 25, 99])
    lines = [" ".join(map(str, c)) for c in draw(st.lists(st.lists(ids, min_size=2, max_size=3), max_size=8))]
    return _with_junk(draw, lines) if draw(st.booleans()) else "\n".join(lines)


_GADGET_TEXT = st.one_of(_gadget_texts(), st.text(max_size=60).filter(_small_header))
_GRAPH_TEXT = st.one_of(_graph_texts(), st.text(max_size=60).filter(_small_header))
_PARTITION_TEXT = st.one_of(_partition_texts(), st.text(max_size=60).filter(_small_header))
_FORMULA_TEXT = st.one_of(_formula_texts(), st.text(max_size=60))
_LABELS = st.lists(st.integers(-1, 12), min_size=4, max_size=6, unique=True).map(lambda xs: " ".join(map(str, xs)))
_REP_TEXT = st.one_of(
    st.builds(lambda r, labels, extra: "\n".join([r, f"labels {labels}", *extra]),
              st.one_of(st.builds("r {}".format, st.integers(-1, 13)), st.sampled_from(["r", "r 5 7", "r x"])),
              _LABELS, st.lists(_JUNK, max_size=2)),
    st.text(max_size=60),
)


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """B and I gadgets from gadgets/thm2, a cubic formula and C5."""
    tmp = tmp_path_factory.mktemp("malformed")
    for name in ("B", "I"):
        shutil.copy(os.path.join(GADGETS_DIR, "thm2", f"{name}.gadget"), tmp)
    (tmp / "f.nae").write_text("0 1 2\n0 1 2\n0 1 2\n")
    (tmp / "g.txt").write_text(serialize_graph(cycle(5)))
    return tmp


@settings(max_examples=100, deadline=None)
@given(text=_GADGET_TEXT)
def test_any_gadget_text_is_accepted_or_an_input_error(workdir, text):
    (workdir / "H.gadget").write_text(text, encoding="utf-8")
    code, err = _run(["reduce", str(workdir / "f.nae"), "--variant", "thm2", "--gadgets", str(workdir)])
    assert code in (0, 2)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(text=_REP_TEXT)
def test_any_representation_text_is_judged_or_an_input_error(workdir, text):
    (workdir / "rep.txt").write_text(text, encoding="utf-8")
    code, err = _run(["rep", "verify", str(workdir / "g.txt"), "--rep", str(workdir / "rep.txt")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(text=_GRAPH_TEXT)
def test_any_graph_text_is_split_or_an_input_error(workdir, text):
    (workdir / "deg4.txt").write_text(text, encoding="utf-8")
    code, err = _run(["decompose", str(workdir / "deg4.txt"), "--method", "wr2-deg4"])
    assert code in (0, 2)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(text=_PARTITION_TEXT, family=st.sampled_from([f.value for f in Family]))
def test_any_partition_text_is_judged_or_an_input_error(workdir, text, family):
    (workdir / "p.txt").write_text(text, encoding="utf-8")
    code, err = _run(["verify", str(workdir / "g.txt"), "--family", family, "--partition", str(workdir / "p.txt")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(text=_FORMULA_TEXT)
def test_any_formula_text_is_solved_or_an_input_or_budget_error(workdir, text):
    (workdir / "nae.txt").write_text(text, encoding="utf-8")
    code, err = _run(["nae", "solve", str(workdir / "nae.txt")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
