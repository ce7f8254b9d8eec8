import random

import pytest
from hypothesis import given, settings, strategies as st

from semireg import (
    Graph,
    ParseError,
    bfs_root,
    build_named,
    classify,
    complement,
    complete,
    complete_bipartite,
    cycle,
    decode_tree,
    degree_set,
    disjoint_union,
    parse_graph,
    path,
    serialize_graph,
    star,
    to_dot,
)
from helpers import brute_isomorphic, random_simple_graph


def test_named_constructions():
    c4 = build_named("cycle", [4])
    assert c4.n == 4 and c4.m == 4
    assert set(c4.degrees()) == {2}

    k99 = build_named("complete_bipartite", [9, 9])
    assert k99.n == 18 and k99.m == 81
    assert set(k99.degrees()) == {9}

    k16 = build_named("star", [6])
    assert degree_set(k16) == (1, 6)

    assert complete(3).m == 3
    assert path(5).m == 4


def test_named_construction_errors():
    with pytest.raises(ValueError):
        build_named("cycle", [2])
    with pytest.raises(ValueError):
        build_named("complete_bipartite", [3])
    with pytest.raises(ValueError):
        build_named("line", [3])
    with pytest.raises(ValueError):
        build_named("disjoint_union", [1, 2])


def test_graph_invariants():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))
    rng = random.Random(7)
    for _ in range(25):
        g = random_simple_graph(rng.randrange(1, 12), rng.randrange(0, 15), rng)
        assert sum(g.degrees()) == 2 * g.m


def test_degree_set():
    assert degree_set(star(3)) == (1, 3)
    assert degree_set(cycle(4)) == (2,)
    assert degree_set(path(5)) == (1, 2)
    with pytest.raises(ValueError):
        degree_set(Graph(0, ()))


def test_classify():
    p5 = classify(path(5))
    assert p5.is_tree and p5.is_bipartite and p5.is_connected
    c5 = classify(cycle(5))
    assert not c5.is_tree and not c5.is_bipartite and c5.is_connected
    k33 = classify(complete_bipartite(3, 3))
    assert not k33.is_tree and k33.is_bipartite and k33.is_connected
    two = classify(disjoint_union([path(2), path(2)]))
    assert not two.is_connected and not two.is_tree


def test_disjoint_union_counts():
    g1, g2 = star(3), cycle(5)
    u = disjoint_union([g1, g2])
    assert u.n == g1.n + g2.n and u.m == g1.m + g2.m
    assert sorted(u.degrees()) == sorted(g1.degrees() + g2.degrees())


def test_complement():
    assert complement(complete(3)).m == 0
    p4 = path(4)
    assert set(complement(complement(p4)).edges) == set(p4.edges)
    c5 = cycle(5)
    assert brute_isomorphic(complement(c5), c5)
    with pytest.raises(ValueError):
        complement(Graph(2, ((0, 1), (0, 1))))


def test_bfs_root():
    p3 = path(3)
    rt = bfs_root(p3, 0)
    assert rt.depth == (0, 1, 2)
    assert rt.order == (0, 1, 2)
    assert rt.parent[0] is None and rt.parent[2] == 1

    k14 = star(4)
    rt = bfs_root(k14, 0)
    assert all(rt.depth[v] == 1 for v in range(1, 5))

    rt = bfs_root(p3, 1)
    assert sorted(rt.depth) == [0, 1, 1]
    assert rt.order == (1, 0, 2)

    with pytest.raises(ValueError):
        bfs_root(cycle(4), 0)


def test_bfs_order_is_layered_and_sorted():
    g = Graph(7, ((3, 1), (3, 5), (1, 0), (1, 6), (5, 2), (5, 4)))
    rt = bfs_root(g, 3)
    assert rt.order == (3, 1, 5, 0, 2, 4, 6)


@st.composite
def _rooted_trees(draw):
    n = draw(st.integers(1, 60))
    if n == 1:
        return Graph(1, ()), 0
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return decode_tree(n, tuple(seq)), draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(_rooted_trees())
def test_bfs_root_order_and_child_edges(tree_and_root):
    t, root = tree_and_root
    rt = bfs_root(t, root)
    assert rt.order == tuple(sorted(range(t.n), key=lambda x: (rt.depth[x], x)))
    position = {v: i for i, v in enumerate(rt.order)}
    assert all(position[rt.parent[v]] < position[v] for v in range(t.n) if v != root)
    down = rt.child_edges()
    assert all(a < b for lst in down for a, b in zip(lst, lst[1:]))
    assert sorted(e for lst in down for e in lst) == sorted(
        rt.parent_edge[v] for v in range(t.n) if v != root
    )


def test_parse_serialize_roundtrip():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))
    c4 = cycle(4)
    assert parse_graph(serialize_graph(c4)).edges == c4.edges

    rng = random.Random(3)
    for _ in range(20):
        g = random_simple_graph(rng.randrange(1, 10), rng.randrange(0, 12), rng)
        back = parse_graph(serialize_graph(g))
        assert back.n == g.n and back.edges == g.edges


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("3", 1),
        ("a b\n", 1),
        ("2 1\n0 0", 2),
        ("2 1\n0 5", 2),
        ("2 2\n0 1", 3),
        ("2 1\n0 1\nextra", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert f"line {lineno}" in str(err.value)


def test_dot_export():
    g = Graph(3, ((0, 1),))
    dot = to_dot(g)
    assert dot.startswith("graph G {")
    assert "0 -- 1;" in dot
    assert "  2;" in dot  # isolated vertex still shown
    assert dot.rstrip().endswith("}")
