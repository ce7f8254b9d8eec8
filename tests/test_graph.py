import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from semireg import (
    EdgePartition,
    Graph,
    ParseError,
    bfs_root,
    classify,
    complement,
    complete,
    complete_bipartite,
    cycle,
    decode_tree,
    degree_set,
    disjoint_union,
    parse_gadget,
    parse_graph,
    parse_nae,
    parse_partition,
    path,
    serialize_graph,
    star,
)
import semireg.graph as semireg_graph
from semireg.graph import Classification, incident_edges, neighbor_masks, number_reader, parse_int, text_lines
from semireg.representation import parse_representation
from helpers import brute_isomorphic, random_simple_graph, random_tree, reference_bfs_root, seeded_simple_graphs


def test_named_constructions():
    c4 = cycle(4)
    assert c4.n == 4 and c4.m == 4
    assert set(c4.degrees()) == {2}

    k99 = complete_bipartite(9, 9)
    assert k99.n == 18 and k99.m == 81
    assert set(k99.degrees()) == {9}

    k16 = star(6)
    assert degree_set(k16) == (1, 6)

    assert complete(3).m == 3
    assert path(5).m == 4


def test_named_construction_errors():
    with pytest.raises(ValueError):
        cycle(2)


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


def _reference_classify(g: Graph) -> Classification:
    """``classify`` by BFS over the sorted ``Graph.adjacency`` lists, one
    deque per component, testing every edge as the BFS meets it."""
    color = [-1] * g.n
    adj = g.adjacency()
    bipartite = True
    components = 0
    for s in range(g.n):
        if color[s] != -1:
            continue
        components += 1
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w, _ in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    bipartite = False
    connected = components <= 1
    return Classification(
        is_tree=connected and g.m == g.n - 1,
        is_bipartite=bipartite,
        is_connected=connected,
    )


def _seeded_mixed_graphs(seed: int):
    """Graph(0, ()), then trees, forests, multigraphs with parallel edges
    and sparse graphs with isolated vertices, up to 12 vertices."""
    rng = random.Random(seed)
    yield Graph(0, ())
    for _ in range(60):
        yield random_tree(rng.randint(1, 12), rng)
        yield disjoint_union([random_tree(rng.randint(1, 5), rng) for _ in range(rng.randint(2, 4))])
        n = rng.randint(2, 8)
        yield Graph(n, tuple(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 14))))
        n = rng.randint(1, 12)
        yield random_simple_graph(n, rng.randint(0, n - 1), rng)


def test_classify_matches_sorted_adjacency_reference():
    for g in _seeded_mixed_graphs(1701):
        assert classify(g) == _reference_classify(g), g


def test_incident_edges_rows_are_id_ordered():
    for g in _seeded_mixed_graphs(1702):
        inc = incident_edges(g.n, g.edges)
        assert inc == [[e for e, (a, b) in enumerate(g.edges) if x in (a, b)] for x in range(g.n)]
        assert incident_edges(g.n + 1, g.edges) == inc + [[]]


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


# complement as it stood with a simplicity pass and a pair set, kept
# verbatim: the edges, their order and the error must stay the same.
def _reference_complement(g: Graph) -> Graph:
    if not g.is_simple():
        raise ValueError("complement is defined for simple graphs only")
    present = {(min(u, v), max(u, v)) for u, v in g.edges}
    return Graph(
        g.n,
        tuple(
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if (u, v) not in present
        ),
    )


def test_complement_matches_reference():
    for g in seeded_simple_graphs(1201):
        assert complement(g) == _reference_complement(g), g
    multigraph = Graph(3, ((0, 1), (1, 2), (1, 0)))
    for fn in (complement, _reference_complement):
        with pytest.raises(ValueError, match="^complement is defined for simple graphs only$"):
            fn(multigraph)


def test_neighbor_masks():
    assert neighbor_masks(Graph(0, ())) == []
    assert neighbor_masks(path(3)) == [0b010, 0b101, 0b010]
    assert neighbor_masks(Graph(3, ((0, 1), (2, 1), (1, 0)))) is None
    for g in seeded_simple_graphs(1202, 12):
        present = {frozenset(e) for e in g.edges}
        nb = neighbor_masks(g)
        assert [[nb[u] >> v & 1 for v in range(g.n)] for u in range(g.n)] == [
            [int(frozenset((u, v)) in present) for v in range(g.n)] for u in range(g.n)
        ]


def test_bfs_root():
    p3 = path(3)
    rt = bfs_root(p3, 0)
    assert rt.order == (0, 1, 2)
    assert rt.parent_edge == (None, 0, 1) and rt.down == [[0], [1], []]

    k14 = star(4)
    rt = bfs_root(k14, 0)
    assert rt.order == (0, 1, 2, 3, 4)
    assert rt.parent_edge == (None, 0, 1, 2, 3) and rt.down[0] == [0, 1, 2, 3]

    rt = bfs_root(p3, 1)
    assert rt.order == (1, 0, 2)
    assert rt.parent_edge == (0, None, 1) and rt.down == [[], [0, 1], []]

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
    parent, parent_edge, depth, order, down = reference_bfs_root(t, root)
    assert (rt.parent_edge, rt.order, rt.down) == (parent_edge, order, down)
    assert rt.order == tuple(sorted(range(t.n), key=lambda x: (depth[x], x)))
    position = {v: i for i, v in enumerate(rt.order)}
    assert all(position[parent[v]] < position[v] for v in range(t.n) if v != root)
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


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "line 1: missing header"),
        ("3", "line 1: header must be 'n m'"),
        ("3 1 2\n0 1", "line 1: header must be 'n m'"),
        ("3 x\n", "line 1: header must be two integers"),
        ("-1 0", "line 1: negative counts in header"),
        ("3 -1", "line 1: negative counts in header"),
        ("3 2\n0 1\n1", "line 3: edge line must be 'u v'"),
        ("3 2\n0 1\n1 2 0", "line 3: edge line must be 'u v'"),
        ("3 1\n0 x", "line 2: edge endpoints must be integers"),
        ("3 1\n0.0 1", "line 2: edge endpoints must be integers"),
        ("3 2\n0 1\n1 3", "line 3: vertex out of range"),
        ("3 1\n-1 2", "line 2: vertex out of range"),
        ("3 2\n0 1\n2 2", "line 3: self-loop at vertex 2"),
        ("3 2\n0 1", "line 3: expected 2 edges, input ended early"),
        ("3 3\n0 1\n1 2", "line 4: expected 3 edges, input ended early"),
        ("3 3\n0 1\nx y", "line 3: edge endpoints must be integers"),
        ("3 3\n0 1\n0 7", "line 3: vertex out of range"),
        ("3 1\n0 1\n\n1 2", "line 3: trailing content after 1 edges"),
        # the first bad line decides, whichever check it fails
        ("3 2\n0 5\nx y", "line 2: vertex out of range"),
        ("3 2\n1 1\n0 9", "line 2: self-loop at vertex 1"),
        ("3 2\n0 9\n1 1", "line 2: vertex out of range"),
        ("3 1\n5 5", "line 2: vertex out of range"),
        ("3 3\n0 1\n1\n1 2", "line 3: edge line must be 'u v'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


# Each text reads "{t}" as the number 1, which every format would accept;
# "+1", "0_1" and "١" (ARABIC-INDIC DIGIT ONE) all spell it for ``int``.
@pytest.mark.parametrize("token", ["+1", "0_1", "\u0661"])
@pytest.mark.parametrize("parse,text,lineno", [
    (parse_graph, "4 2\n0 2\n3 {t}\n", 3),
    (parse_graph, "{t} 0\n", 1),
    (parse_partition, "2 2\n0 0\n1 {t}\n", 3),
    (parse_nae, "0 1 2\n\n{t} 2\n", 3),
    (lambda text: parse_gadget("H", text), "2 1\n0 1\nport a {t}\n", 3),
    (parse_representation, "r 3\nlabels 0 {t} 2\n", 2),
], ids=["graph", "graph-header", "partition", "nae", "gadget-port", "representation"])
def test_number_tokens_are_ascii_digits_with_optional_minus(parse, text, lineno, token):
    with pytest.raises(ParseError, match=rf"^line {lineno}:"):
        parse(text.format(t=token))
    parse(text.format(t="1"))


def test_parse_accepts_blank_trailing_lines():
    g = parse_graph("3 2\n0 1\n 1  2 \n\n   \n")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))
    assert type(g.edges[0][0]) is int


@pytest.mark.parametrize(
    "n,edges,message",
    [
        (-1, (), "vertex count must be nonnegative"),
        (2, ((0, 0),), "self-loop at vertex 0"),
        (2, ((0, 2),), "edge (0,2) out of range for n=2"),
        (2, ((-1, 1),), "edge (-1,1) out of range for n=2"),
        (3, ((0, 1), (1, 1), (0, 5)), "self-loop at vertex 1"),
        (3, ((0, 1), (0, 5), (1, 1)), "edge (0,5) out of range for n=3"),
        (3, ((5, 5),), "self-loop at vertex 5"),
        (3, [[0, 1], [2, 2]], "self-loop at vertex 2"),
        (3, ((0, 1), ("2", "7")), "edge (2,7) out of range for n=3"),
    ],
)
def test_graph_constructor_errors(n, edges, message):
    with pytest.raises(ValueError) as err:
        Graph(n, edges)
    assert str(err.value) == message


def test_graph_constructor_normalizes_edges():
    for edges in (
        [[0, 1], [1, 2]],
        ([0, 1], [1, 2]),
        ((0, 1), (True, 2)),
        ((0, 1), (1, 2.0)),
        (e for e in ((0, 1), (1, 2))),
    ):
        g = Graph(3, edges)
        assert g.edges == ((0, 1), (1, 2))
        assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is int for e in g.edges)
    with pytest.raises(ValueError):
        Graph(3, ((0, 1, 2),))


# ---------------------------------------------------------------------------
# one line source: text_lines and the readers built on it
# ---------------------------------------------------------------------------

# The readers as they were when they split the whole text at once, kept
# verbatim (``parse_header`` took the line list) as the reference that the
# piecewise readers must match on every value and every message.
def _ref_parse_header(lines, shape):
    if not lines:
        raise ParseError("line 1: missing header")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"line 1: header must be '{shape}'")
    try:
        a, b = parse_int(head[0]), parse_int(head[1])
    except ValueError:
        raise ParseError("line 1: header must be two integers") from None
    if a < 0 or b < 0:
        raise ParseError("line 1: negative counts in header")
    return a, b


def _ref_parse_graph(text):
    lines = text.splitlines()
    n, m = _ref_parse_header(lines, "n m")
    if len(lines) <= m:
        raise _ref_edge_line_error(lines, n, m)
    num = number_reader(text)
    try:
        g = Graph(n, tuple([(num(u), num(v)) for u, v in map(str.split, lines[1:m + 1])]))
    except ValueError:
        raise _ref_edge_line_error(lines, n, m) from None
    if any(map(str.strip, lines[m + 1:])):
        raise ParseError(f"line {m + 2}: trailing content after {m} edges")
    return g


def _ref_edge_line_error(lines, n, m):
    for lineno, line in enumerate(lines[1:m + 1], 2):
        parts = line.split()
        if len(parts) != 2:
            return ParseError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = parse_int(parts[0]), parse_int(parts[1])
        except ValueError:
            return ParseError(f"line {lineno}: edge endpoints must be integers")
        if not (0 <= u < n and 0 <= v < n):
            return ParseError(f"line {lineno}: vertex out of range")
        if u == v:
            return ParseError(f"line {lineno}: self-loop at vertex {u}")
    return ParseError(f"line {len(lines) + 1}: expected {m} edges, input ended early")


def _ref_parse_partition(text):
    lines = text.splitlines()
    k, m = _ref_parse_header(lines, "k m")
    if m > len(lines) - 1:
        raise ParseError(f"line {len(lines) + 1}: expected {m} assignments, input ended early")
    part = [None] * m
    num = number_reader(text)
    for i in range(m):
        lineno = i + 2
        fields = lines[lineno - 1].split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: assignment line must be 'edge_id part_id'")
        try:
            e, q = num(fields[0]), num(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: assignment must be two integers") from None
        if not 0 <= e < m:
            raise ParseError(f"line {lineno}: edge id {e} out of range")
        if not 0 <= q < k:
            raise ParseError(f"line {lineno}: part id {q} out of range")
        if part[e] is not None:
            raise ParseError(f"line {lineno}: edge {e} assigned twice")
        part[e] = q
    if any(map(str.strip, lines[m + 1:])):
        raise ParseError(f"line {m + 2}: trailing content after {m} assignments")
    return EdgePartition(k, tuple(part))


# every separator that str.splitlines knows is here, "\r\n" as one
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _random_text(rng, tokens):
    lines = [" ".join(rng.choice(tokens) for _ in range(rng.choice((0, 1, 2, 2, 2, 2, 3))))
             for _ in range(rng.randrange(8))]
    if rng.random() < 0.8:  # a header that often fits, at most 10^6
        lines.insert(0, f"{rng.randrange(4)} {rng.choice((len(lines), len(lines) - 1, rng.randrange(6), 10**6))}")
    pads = ("", "", " ", "\t")
    text = "".join(rng.choice(pads) + line + rng.choice(pads) + rng.choice(_SEPARATORS) for line in lines)
    return text if rng.random() < 0.5 else text[:len(text) - rng.randrange(2)]


@pytest.mark.parametrize("piece", range(1, 17))
def test_text_lines_cuts_keep_every_line(monkeypatch, piece):
    monkeypatch.setattr(semireg_graph, "_PIECE", piece)
    rng = random.Random(piece)
    texts = ["", "\n", "\n\n\n", "\r\n\r\n", "a\r\nb\r\n\r\n\nc", " \n \n", "ab" * 20,
             "\n".join([""] * piece + ["x" * piece, ""])]
    for _ in range(200):
        texts.append("".join(rng.choice(("", " ", "ab", "1 2", "x" * piece)) + rng.choice(_SEPARATORS)
                             for _ in range(rng.randrange(12))) + rng.choice(("", "tail")))
    for text in texts:
        assert list(text_lines(text)) == text.splitlines(), repr(text)


@pytest.mark.parametrize("piece", range(1, 17))
def test_readers_match_the_whole_text_readers(monkeypatch, piece):
    monkeypatch.setattr(semireg_graph, "_PIECE", piece)
    rng = random.Random(100 + piece)
    tokens = ["0", "1", "2", "3", "9", "-1", "x", "+1", "0_1", "\u0661", "1.0"]
    cases = [
        # a bad edge line wins over trailing content and over a short text
        "3 1\n0 9\nextra\n", "3 2\n0 x\n", "3 3\n0 1\n1 1\n",
        # an over-counting header wins over a bad assignment line
        "2 5\n0 x\n", "2 3\n0 0\n0 0\n", "1 1000000\n9 9\n",
        "2 2\n0 1\n1 0\n\n \n", "2 1\r\n0 1\r\n", "2 2\n0 1\n1 0", "3 1\n0 1\n\n1 2",
    ]
    cases += [_random_text(rng, tokens) for _ in range(400)]
    for text in cases:
        assert _outcome(parse_graph, text) == _outcome(_ref_parse_graph, text), repr(text)
        assert _outcome(parse_partition, text) == _outcome(_ref_parse_partition, text), repr(text)


def _traced(build):
    """(result, bytes it holds, peak bytes) of ``build()`` under tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


def test_a_parse_holds_no_line_list():
    # a 10^5-edge path: at most 15% above the graph the parse returns
    m = 100_000
    text = f"{m + 1} {m}\n" + "".join(f"{v} {v + 1}\n" for v in range(m))
    g, held, peak = _traced(lambda: parse_graph(text))
    assert g.m == m and peak <= 1.15 * held, (peak, held)
    # the list of part ids that the reader fills and the record's own copy
    # set the floor: the parse may add at most 15% to building the record
    # from that list (fewer lines, as tracing slows each line)
    m = 10_000
    text = f"2 {m}\n" + "".join(f"{e} {e % 2}\n" for e in range(m))
    p, _, peak = _traced(lambda: parse_partition(text))
    _, _, floor = _traced(lambda: EdgePartition(2, list(p.part)))
    assert p.part == tuple(e % 2 for e in range(m)) and peak <= 1.15 * floor, (peak, floor)
