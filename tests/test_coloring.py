import random

import pytest

from semireg import (
    Family,
    Graph,
    ProperEdgeColoring,
    bipartite_color,
    classify,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    four_regularize,
    part_subgraph,
    path,
    sr_general,
    two_factorize,
    verify_partition,
    vizing,
    wr2_deg4,
)
from semireg.coloring import _euler_circuit_arcs
from helpers import (
    edge_chromatic_feasible,
    is_proper_coloring,
    petersen,
    random_deg4_graph,
    random_path_deg4_graph,
    random_simple_graph,
    random_tree,
)


def _random_bipartite(rng, a, b, m):
    pairs = [(u, a + v) for u in range(a) for v in range(b)]
    rng.shuffle(pairs)
    return Graph(a + b, tuple(pairs[:m]))


def test_bipartite_color_examples():
    for g, expected in ((complete_bipartite(3, 3), 3), (path(4), 2), (cycle(6), 2)):
        col = bipartite_color(g)
        assert col.num_colors == expected
        assert is_proper_coloring(g, col.colors)


def test_bipartite_color_rejects_odd_cycle():
    with pytest.raises(ValueError):
        bipartite_color(cycle(5))


def test_bipartite_color_random_is_exact():
    rng = random.Random(101)
    for _ in range(60):
        a, b = rng.randrange(1, 8), rng.randrange(1, 8)
        g = _random_bipartite(rng, a, b, rng.randrange(1, a * b + 1))
        col = bipartite_color(g)
        assert is_proper_coloring(g, col.colors)
        assert col.num_colors == max(g.degrees())
        assert len(set(col.colors)) <= col.num_colors


def test_bipartite_color_handles_parallel_edges():
    g = Graph(4, ((0, 2), (0, 2), (1, 3), (0, 3)))
    col = bipartite_color(g)
    assert is_proper_coloring(g, col.colors)
    assert col.num_colors == 3


def test_vizing_examples():
    c5 = cycle(5)
    col = vizing(c5)
    assert is_proper_coloring(c5, col.colors)
    assert len(set(col.colors)) == 3

    k4 = complete(4)
    col = vizing(k4)
    assert is_proper_coloring(k4, col.colors)
    assert len(set(col.colors)) <= 4
    assert edge_chromatic_feasible(k4, 3)  # optimum is 3; within-one is accepted

    pet = petersen()
    col = vizing(pet)
    assert is_proper_coloring(pet, col.colors)
    assert len(set(col.colors)) <= 4
    assert not edge_chromatic_feasible(pet, 3)


def test_vizing_rejects_parallel_edges():
    with pytest.raises(ValueError):
        vizing(Graph(2, ((0, 1), (0, 1))))


def test_vizing_random_within_one_of_max_degree():
    rng = random.Random(103)
    for _ in range(80):
        n = rng.randrange(2, 16)
        g = random_simple_graph(n, rng.randrange(1, n * (n - 1) // 2 + 1), rng)
        col = vizing(g)
        assert is_proper_coloring(g, col.colors)
        assert len(set(col.colors)) <= max(g.degrees()) + 1


def _check_two_factorization(g, tf):
    all_edges = sorted(e for f in tf.factors for e in f)
    assert all_edges == list(range(g.m))
    for factor in tf.factors:
        deg = [0] * g.n
        for e in factor:
            u, v = g.edges[e]
            deg[u] += 1
            deg[v] += 1
        assert all(d == 2 for d in deg)


def test_two_factorize_examples():
    c6 = cycle(6)
    tf = two_factorize(c6)
    assert len(tf.factors) == 1
    assert set(tf.factors[0]) == set(range(6))

    k5 = complete(5)
    tf = two_factorize(k5)
    assert len(tf.factors) == 2
    _check_two_factorization(k5, tf)

    two_triangles = disjoint_union([cycle(3), cycle(3)])
    tf = two_factorize(two_triangles)
    assert len(tf.factors) == 1
    _check_two_factorization(two_triangles, tf)

    # 4-regular with two components: each circuit must have even length
    doubled = Graph(3, ((0, 1), (1, 2), (2, 0)) * 2)
    split = disjoint_union([complete(5), doubled])
    tf = two_factorize(split)
    assert len(tf.factors) == 2
    _check_two_factorization(split, tf)


def test_two_factorize_multigraph():
    doubled = Graph(3, ((0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)))
    tf = two_factorize(doubled)
    assert len(tf.factors) == 2
    _check_two_factorization(doubled, tf)


def _hamiltonian_cycle_union(n, k, rng):
    edges = []
    for _ in range(k):
        order = list(range(n))
        rng.shuffle(order)
        edges.extend(zip(order, order[1:] + order[:1]))
    return Graph(n, tuple(edges))


def test_two_factorize_degrees_other_than_four():
    rng = random.Random(109)
    graphs = [complete(7), complete(9), Graph(3, ((0, 1), (1, 2), (2, 0)) * 3)]
    for k in (3, 4):
        graphs.extend(_hamiltonian_cycle_union(rng.randrange(3, 40), k, rng) for _ in range(20))
    for g in graphs:
        tf = two_factorize(g)
        assert len(tf.factors) == g.degrees()[0] // 2
        _check_two_factorization(g, tf)


def test_two_factorize_errors():
    with pytest.raises(ValueError):
        two_factorize(cycle(5).__class__(4, ((0, 1), (1, 2), (2, 3))))  # path: degrees 1,2
    with pytest.raises(ValueError):
        two_factorize(complete(4))  # 3-regular: odd degree
    with pytest.raises(ValueError):
        two_factorize(Graph(3, ()))  # no edges


def test_four_regularize():
    k5 = complete(5)
    host, embed = four_regularize(k5)
    assert host.n == 5 and embed == tuple(range(10))

    k2 = complete(2)
    host, embed = four_regularize(k2)
    assert host.n == 16
    assert set(host.degrees()) == {4}
    assert host.edges[embed[0]] == k2.edges[0]

    c4 = cycle(4)
    host, embed = four_regularize(c4)
    assert host.n == 16
    assert set(host.degrees()) == {4}
    for e in range(c4.m):
        assert host.edges[embed[e]] == c4.edges[e]

    with pytest.raises(ValueError):
        four_regularize(complete(6))  # degree 5
    with pytest.raises(ValueError):
        four_regularize(Graph(2, ()))  # isolated vertices


def test_wr2_deg4_examples():
    for g in (complete(4), cycle(5), path(3)):
        p = wr2_deg4(g)
        assert p.k == 2
        assert verify_partition(g, p, Family.WEAKLY_SEMIREGULAR)
        for i in range(2):
            degs = set(d for d in part_subgraph(g, p, i).degrees() if d)
            assert degs <= {1, 2}


def test_wr2_deg4_random():
    rng = random.Random(107)
    graphs = [random_deg4_graph(rng.randrange(2, 25), rng) for _ in range(60)]
    # connected and path-like, so the Euler circuit of the 4-regular host
    # runs thousands of arcs long; the last graph has about 10^5 edges
    graphs.append(random_path_deg4_graph(3000, rng))
    graphs.append(random_path_deg4_graph(56000, rng))
    for g in graphs:
        p = wr2_deg4(g)
        for i in range(2):
            degs = set(d for d in part_subgraph(g, p, i).degrees() if d)
            assert degs <= {1, 2}


def test_sr_general_examples():
    c5 = cycle(5)
    p = sr_general(c5)
    assert p.k <= 2
    assert verify_partition(c5, p, Family.SEMIREGULAR)

    k4 = complete(4)
    p = sr_general(k4)
    assert p.k <= 2
    assert verify_partition(k4, p, Family.SEMIREGULAR)

    p = sr_general(path(2))
    assert p.k == 1


def test_sr_general_bound_random():
    rng = random.Random(109)
    for _ in range(60):
        n = rng.randrange(2, 15)
        g = random_simple_graph(n, rng.randrange(1, n * (n - 1) // 2 + 1), rng)
        p = sr_general(g)
        delta = max(g.degrees())
        assert p.k <= (delta + 2) // 2
        assert verify_partition(g, p, Family.SEMIREGULAR)
        for i in range(p.k):
            degs = set(d for d in part_subgraph(g, p, i).degrees() if d)
            assert degs <= {1, 2}


def test_sr_tree_never_beaten_by_general_bound():
    rng = random.Random(113)
    from semireg import sr_tree

    for _ in range(40):
        t = random_tree(rng.randrange(2, 16), rng)
        delta = max(t.degrees())
        assert sr_tree(t).k == (delta + 1) // 2 <= (delta + 2) // 2


# Verbatim copy of the colour table, `bipartite_color` and `vizing` before
# the fan scan moved to C-level iterators; the new code must give the same
# colours edge for edge.
class _OldColorTable:
    """Per-vertex map color -> edge id for a partial proper coloring."""

    def __init__(self, g: Graph):
        self.edges = g.edges
        self.ecol = [-1] * g.m
        self.at: list[dict[int, int]] = [{} for _ in range(g.n)]

    def is_free(self, v: int, c: int) -> bool:
        return c not in self.at[v]

    def smallest_free(self, v: int, limit: int) -> int:
        for c in range(limit):
            if c not in self.at[v]:
                return c
        raise AssertionError("no free color in range")

    def set_color(self, e: int, c: int) -> None:
        u, v = self.edges[e]
        old = self.ecol[e]
        if old != -1:
            del self.at[u][old]
            del self.at[v][old]
        self.ecol[e] = c
        if c != -1:
            self.at[u][c] = e
            self.at[v][c] = e

    def recolor_path(self, edges: list[int], new_colors: list[int]) -> None:
        # uncolor first: sequential recoloring would clobber shared entries
        for e in edges:
            self.set_color(e, -1)
        for e, c in zip(edges, new_colors):
            self.set_color(e, c)

    def other(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        return w if u == v else u

    def alternating_path(self, start: int, first: int, second: int) -> list[int]:
        """Maximal path from ``start`` alternating colors first, second."""
        path = []
        v, want = start, first
        while want in self.at[v]:
            e = self.at[v][want]
            path.append(e)
            v = self.other(e, v)
            want = second if want == first else first
        return path


def _old_bipartite_color(g):
    """Proper edge coloring of a bipartite graph with exactly max-degree colors."""
    if not classify(g).is_bipartite:
        raise ValueError("graph is not bipartite")
    deg = g.degrees()
    delta = max(deg, default=0)
    if g.m == 0:
        return ProperEdgeColoring((), 0)
    table = _OldColorTable(g)
    for e, (u, v) in enumerate(g.edges):
        a = table.smallest_free(u, delta)
        b = table.smallest_free(v, delta)
        if a != b:
            # Flip the maximal a/b path out of v.  It cannot reach u: it
            # would arrive on a b-edge, forcing u and v onto the same side.
            path = table.alternating_path(v, a, b)
            if path:
                end = v
                for pe in path:
                    end = table.other(pe, end)
                assert end != u, "alternating path closed on the new edge"
                flipped = [b if table.ecol[pe] == a else a for pe in path]
                table.recolor_path(path, flipped)
        table.set_color(e, a)
    return ProperEdgeColoring(tuple(table.ecol), delta)


def _old_vizing(g):
    """Proper edge coloring of a simple graph with at most max_degree + 1
    colors, by fan rotation and alternating-path flips."""
    if not g.is_simple():
        raise ValueError("fan-rotation coloring requires a simple graph")
    deg = g.degrees()
    delta = max(deg, default=0)
    if g.m == 0:
        return ProperEdgeColoring((), 0)
    num = delta + 1
    table = _OldColorTable(g)
    adj = g.adjacency()

    for e0, (u, v0) in enumerate(g.edges):
        # maximal fan at u starting with the uncolored edge
        fan_v = [v0]
        fan_e = [e0]
        in_fan = {v0}
        grown = True
        while grown:
            grown = False
            lastv = fan_v[-1]
            for w, e in adj[u]:
                if w in in_fan or table.ecol[e] == -1:
                    continue
                if table.is_free(lastv, table.ecol[e]):
                    fan_v.append(w)
                    fan_e.append(e)
                    in_fan.add(w)
                    grown = True
                    break
        c = table.smallest_free(u, num)
        d = table.smallest_free(fan_v[-1], num)
        if not table.is_free(u, d):
            path = table.alternating_path(u, d, c)
            flipped = [c if table.ecol[pe] == d else d for pe in path]
            table.recolor_path(path, flipped)
        # shortest fan prefix ending at a vertex where d is free and whose
        # edge colors still cascade; one exists after the flip
        j = None
        for i, w in enumerate(fan_v):
            if i > 0:
                col = table.ecol[fan_e[i]]
                if col == -1 or not table.is_free(fan_v[i - 1], col):
                    break
            if table.is_free(w, d):
                j = i
                break
        assert j is not None, "fan rotation target must exist"
        shifted = [table.ecol[fan_e[i + 1]] for i in range(j)] + [d]
        table.recolor_path(fan_e[: j + 1], shifted)

    used = len(set(table.ecol))
    return ProperEdgeColoring(tuple(table.ecol), max(used, max(table.ecol) + 1))


def _oriented_at_random(g, rng):
    """The same edges in a shuffled order, each with a random orientation."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, tuple(edges))


def test_vizing_matches_old_fan_scan():
    rng = random.Random(211)
    graphs = [complete(n) for n in range(1, 13)]
    graphs += [petersen(), Graph(3, ())]
    graphs += [complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 8)]
    for i in range(300):
        n = rng.randrange(2, 41)
        g = random_simple_graph(n, rng.randrange(1, n * (n - 1) // 2 + 1), rng)
        graphs.append(_oriented_at_random(g, rng) if i % 2 else g)
    graphs.append(random_simple_graph(200, 4000, random.Random(212)))
    for g in graphs:
        assert vizing(g) == _old_vizing(g)


def test_bipartite_color_matches_old_table():
    rng = random.Random(213)
    graphs = [complete_bipartite(a, b) for a in range(1, 7) for b in range(a, 9)]
    graphs += [path(1), path(6), cycle(8), Graph(4, ((0, 2), (0, 2), (1, 3), (0, 3)))]
    for _ in range(200):
        a, b = rng.randrange(1, 12), rng.randrange(1, 12)
        graphs.append(_random_bipartite(rng, a, b, rng.randrange(1, a * b + 1)))
    # the out/in incidence graphs that two_factorize colours at degree 6 and 8
    regular = [complete(7), complete(9), Graph(3, ((0, 1), (1, 2), (2, 0)) * 3)]
    regular += [_hamiltonian_cycle_union(rng.randrange(3, 40), k, rng) for k in (3, 4) for _ in range(20)]
    for g in regular:
        arcs = _euler_circuit_arcs(g)
        graphs.append(Graph(2 * g.n, tuple((t, g.n + h) for t, h, _ in arcs)))
    for g in graphs:
        assert bipartite_color(g) == _old_bipartite_color(g)
