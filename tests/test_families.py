import random

import pytest
from hypothesis import given, settings, strategies as st

from semireg import (
    EdgePartition,
    Family,
    Graph,
    ParseError,
    cycle,
    disjoint_union,
    is_family,
    parse_partition,
    part_subgraph,
    path,
    serialize_partition,
    star,
    verify_partition,
    wr_lower_bound,
)
from helpers import make_degree_tree, random_simple_graph


def test_part_subgraph():
    c4 = cycle(4)
    p = EdgePartition(2, (0, 1, 0, 1))
    for i in range(2):
        sub = part_subgraph(c4, p, i)
        assert sub.m == 2
        assert set(d for d in sub.degrees() if d) == {1}

    g = star(3)
    whole = part_subgraph(g, EdgePartition(1, (0, 0, 0)), 0)
    assert whole.edges == g.edges

    one = part_subgraph(g, EdgePartition(2, (0, 1, 1)), 0)
    assert one.m == 1

    with pytest.raises(ValueError):
        part_subgraph(g, EdgePartition(2, (0, 1, 1)), 2)


def test_edge_partition_stores_part_ids_as_an_int_tuple():
    p = EdgePartition(2, [True, 0, False, 1])
    assert p.part == (1, 0, 0, 1)
    assert type(p.part) is tuple
    assert all(type(q) is int for q in p.part)
    assert p == EdgePartition(2, (1, 0, 0, 1))


def test_part_subgraphs_partition_the_edges():
    rng = random.Random(11)
    for _ in range(20):
        g = random_simple_graph(rng.randrange(2, 9), rng.randrange(1, 10), rng)
        k = rng.randrange(1, 4)
        p = EdgePartition(k, tuple(rng.randrange(k) for _ in range(g.m)))
        pieces = [part_subgraph(g, p, i).edges for i in range(k)]
        assert sum(len(x) for x in pieces) == g.m
        assert sorted(e for piece in pieces for e in piece) == sorted(g.edges)


def test_is_family():
    assert is_family(star(6), Family.WEAKLY_SEMIREGULAR)
    assert not is_family(star(6), Family.SEMIREGULAR)
    assert is_family(path(5), Family.SEMIREGULAR)
    assert is_family(star(3), Family.LOCALLY_IRREGULAR)
    assert is_family(cycle(4), Family.REGULAR)
    # distinct component degrees: locally regular without being regular
    from semireg import complete

    mixed = disjoint_union([cycle(3), complete(4)])
    assert is_family(mixed, Family.LOCALLY_REGULAR)
    assert not is_family(mixed, Family.REGULAR)
    assert is_family(mixed, Family.REGULAR_OR_LOCALLY_IRREGULAR) is False
    assert is_family(cycle(4), Family.REGULAR_OR_LOCALLY_IRREGULAR)
    # a single edge is regular but not locally irregular
    k2 = path(2)
    assert is_family(k2, Family.REGULAR)
    assert not is_family(k2, Family.LOCALLY_IRREGULAR)
    # mixed: weakly semiregular or locally irregular
    assert is_family(mixed, Family.MIXED)
    assert is_family(star(3), Family.MIXED)
    spider = Graph(6, ((0, 1), (1, 2), (2, 3), (0, 4), (0, 5)))
    assert not is_family(spider, Family.MIXED)


def test_parallel_edges_count_twice():
    doubled = Graph(2, ((0, 1), (0, 1)))
    assert is_family(doubled, Family.REGULAR)
    assert set(doubled.degrees()) == {2}
    lopsided = Graph(3, ((0, 1), (0, 1), (1, 2)))
    assert not is_family(lopsided, Family.REGULAR)
    assert is_family(lopsided, Family.LOCALLY_IRREGULAR)  # degrees 2, 3, 1


def test_regular_implies_locally_regular():
    rng = random.Random(5)
    for _ in range(30):
        g = random_simple_graph(rng.randrange(2, 9), rng.randrange(1, 12), rng)
        if is_family(g, Family.REGULAR):
            assert is_family(g, Family.LOCALLY_REGULAR)


def test_verify_partition():
    k15 = star(5)
    p = EdgePartition(3, (0, 0, 1, 1, 2))
    assert verify_partition(k15, p, Family.SEMIREGULAR)

    assert verify_partition(cycle(4), EdgePartition(1, (0, 0, 0, 0)), Family.REGULAR)

    k13 = star(3)
    assert not verify_partition(k13, EdgePartition(2, (0, 0, 1)), Family.REGULAR)

    with pytest.raises(ValueError):
        verify_partition(k13, EdgePartition(2, (0, 1)), Family.REGULAR)
    with pytest.raises(ValueError):
        verify_partition(k13, EdgePartition(1, (0, 0, 1)), Family.REGULAR)


def test_partition_rejects_part_ids_out_of_range():
    # ids outside 0..k-1 would miscount in part_sizes and nonempty_parts
    for part in ((0, -1), (1, 2, 0)):
        with pytest.raises(ValueError, match="edge 1 assigned to invalid part"):
            EdgePartition(2, part)
    assert EdgePartition(0, ()).part_sizes() == []


def test_empty_parts_vacuously_pass():
    g = path(3)
    p = EdgePartition(4, (0, 0))
    assert verify_partition(g, p, Family.SEMIREGULAR)
    assert p.nonempty_parts() == 1
    # the cost follows the edges, not the declared part count
    assert verify_partition(g, EdgePartition(10**9, (0, 1)), Family.SEMIREGULAR)


def test_semiregular_implies_weakly_semiregular():
    rng = random.Random(23)
    for _ in range(200):
        g = random_simple_graph(rng.randrange(2, 9), rng.randrange(1, 10), rng)
        k = rng.randrange(1, 4)
        p = EdgePartition(k, tuple(rng.randrange(k) for _ in range(g.m)))
        if verify_partition(g, p, Family.SEMIREGULAR):
            assert verify_partition(g, p, Family.WEAKLY_SEMIREGULAR)


def test_wr_lower_bound():
    assert wr_lower_bound(path(3)) == 1  # degree set {1,2}
    assert wr_lower_bound(cycle(4)) == 1  # degree set size 1

    # degree set of size 9
    hubs = Graph(2, ((0, 1),))
    assert wr_lower_bound(hubs) == 1

    from semireg import widen_degree_set, complete

    g = widen_degree_set(complete(4))
    assert len(set(g.degrees())) == 9
    assert wr_lower_bound(g) == 3
    assert wr_lower_bound(g, coarse=True) == 2

    with pytest.raises(ValueError):
        wr_lower_bound(Graph(2, ()))


# Verbatim copy of ``wr_lower_bound`` with its two loops, before they
# became one.
def _old_wr_lower_bound(g: Graph, coarse: bool = False) -> int:
    if g.n == 0:
        raise ValueError("empty graph")
    deg = g.degrees()
    if min(deg) == 0:
        raise ValueError("graph has an isolated vertex")
    size = len(set(deg))
    if coarse:
        k = 0
        while 3**k < size:
            k += 1
        return k
    k = 1
    while 3**k - 1 < size:
        k += 1
    return k


def _bound_or_error(bound, g, coarse):
    try:
        return bound(g, coarse)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("coarse", [False, True])
def test_wr_lower_bound_matches_two_loop_copy(coarse):
    # make_degree_tree(k) has degree set {1..k}; k = 1 is the empty graph
    for k in range(1, 31):
        g = make_degree_tree(k)
        assert _bound_or_error(wr_lower_bound, g, coarse) == _bound_or_error(_old_wr_lower_bound, g, coarse)


def test_partition_text_roundtrip():
    p = EdgePartition(3, (0, 2, 1, 0))
    assert parse_partition(serialize_partition(p)) == p
    with pytest.raises(ParseError):
        parse_partition("2\n")
    with pytest.raises(ParseError) as err:
        parse_partition("2 2\n0 0\n0 1")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        parse_partition("1 1\n0 4")
    with pytest.raises(ParseError):
        parse_partition("1 2000000000000000000\n0 0")
    assert parse_partition("1 1\n0 0\n\n  \n") == EdgePartition(1, (0,))  # blank tail


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "line 1: missing header"),
        ("2\n", "line 1: header must be 'k m'"),
        ("2 x\n", "line 1: header must be two integers"),
        ("2 -1\n", "line 1: negative counts in header"),
        ("2 2\n0 0", "line 3: expected 2 assignments, input ended early"),
        ("2 2\n0 0\n1 1\ngarbage here\n", "line 4: trailing content after 2 assignments"),
    ],
)
def test_partition_header_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_partition(text)
    assert str(err.value) == message


def _reference_fits(sub: Graph, f: Family) -> bool:
    """Family test written from full degree lists, independent of the
    verifier's per-part counting."""
    deg = sub.degrees()
    ds = {d for d in deg if d}
    wsr = len(ds) <= 2
    regular = len(ds) <= 1
    irregular = all(deg[u] != deg[v] for u, v in sub.edges)
    return {
        Family.WEAKLY_SEMIREGULAR: wsr,
        Family.SEMIREGULAR: not ds or max(ds) - min(ds) <= 1,
        Family.REGULAR: regular,
        Family.LOCALLY_REGULAR: all(deg[u] == deg[v] for u, v in sub.edges),
        Family.LOCALLY_IRREGULAR: irregular,
        Family.REGULAR_OR_LOCALLY_IRREGULAR: regular or irregular,
        Family.MIXED: wsr or irregular,
    }[f]


@st.composite
def _partitioned_multigraphs(draw):
    n = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    # few distinct pairs, so parallel edges are common
    edges = draw(st.lists(pairs, max_size=12))
    k = draw(st.integers(1, 4))
    part = draw(st.lists(st.integers(0, k - 1), min_size=len(edges), max_size=len(edges)))
    return Graph(n, tuple(edges)), EdgePartition(k, tuple(part))


@settings(max_examples=300, deadline=None)
@given(_partitioned_multigraphs(), st.sampled_from(list(Family)))
def test_verify_partition_matches_reference(case, f):
    g, p = case
    expected = all(
        _reference_fits(part_subgraph(g, p, i), f) for i in range(p.k)
    )
    assert verify_partition(g, p, f) == expected
    if p.k == 1:
        assert is_family(g, f) == expected
