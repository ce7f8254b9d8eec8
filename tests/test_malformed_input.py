"""Property tests: any text as a gadget file or a representation file is
judged (exit 0, or 1 when `rep verify` rejects the labels) or is an input
error (exit 2), never an internal error (exit 5) or a traceback."""

import contextlib
import io
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from semireg import cli, cycle, serialize_graph

GADGETS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "gadgets")

_JUNK = st.one_of(
    st.sampled_from(["", "  ", "port", "port a", "0 1", "-1 0", "2 2", "9 1", "r 5", "primes 2 3", "labels 0 1 2 3 4"]),
    st.text(max_size=12).filter(lambda t: "\n" not in t and "\r" not in t),
)


# Headers stay at n <= 64: a header naming ~10^8 vertices makes
# ``classify`` allocate that many lists before any check can fail.
def _small_header(text: str) -> bool:
    head = text.splitlines()[:1]
    try:
        return int(head[0].split()[0]) <= 64
    except (IndexError, ValueError):
        return True


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
    for line in draw(st.lists(_JUNK, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


_GADGET_TEXT = st.one_of(_gadget_texts(), st.text(max_size=60).filter(_small_header))
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
