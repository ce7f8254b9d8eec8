import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import semireg.coloring

from semireg import (
    Family,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    enumerate_trees,
    four_regularize,
    part_subgraph,
    path,
    sr_general,
    sr_tree,
    two_factorize,
    verify_partition,
    vizing,
    wr2_deg4,
)
from helpers import (
    edge_chromatic_feasible,
    is_proper_coloring,
    petersen,
    random_deg4_graph,
    random_hub_tree,
    random_path_deg4_graph,
    random_simple_graph,
    random_tree,
)


def test_vizing_examples():
    c5 = cycle(5)
    col = vizing(c5)
    assert is_proper_coloring(c5, col)
    assert len(set(col)) == 3

    k4 = complete(4)
    col = vizing(k4)
    assert is_proper_coloring(k4, col)
    assert len(set(col)) <= 4
    assert edge_chromatic_feasible(k4, 3)  # optimum is 3; within-one is accepted

    pet = petersen()
    col = vizing(pet)
    assert is_proper_coloring(pet, col)
    assert len(set(col)) <= 4
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
        assert is_proper_coloring(g, col)
        assert len(set(col)) <= max(g.degrees()) + 1


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
    k5 = complete(5)
    tf = two_factorize(k5)
    assert len(tf.factors) == 2
    _check_two_factorization(k5, tf)

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


def test_two_factorize_errors():
    with pytest.raises(ValueError):
        two_factorize(cycle(5).__class__(4, ((0, 1), (1, 2), (2, 3))))  # path: degrees 1,2
    with pytest.raises(ValueError):
        two_factorize(complete(4))  # 3-regular: odd degree
    with pytest.raises(ValueError):
        two_factorize(Graph(3, ()))  # no edges
    with pytest.raises(ValueError):
        two_factorize(cycle(6))  # 2-regular
    with pytest.raises(ValueError):
        two_factorize(disjoint_union([cycle(3), cycle(3)]))  # 2-regular, two components
    with pytest.raises(ValueError):
        two_factorize(complete(7))  # 6-regular
    with pytest.raises(ValueError):
        two_factorize(_hamiltonian_cycle_union(9, 3, random.Random(109)))  # 6-regular multigraph


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
    isolated = (Graph(0, ()), Graph(3, ()), Graph(6, ((0, 1), (1, 2), (2, 0), (4, 5))))
    for g in (complete(4), cycle(5), path(3), *isolated):
        p = wr2_deg4(g)
        assert p.k == 2
        assert verify_partition(g, p, Family.WEAKLY_SEMIREGULAR)
        for i in range(2):
            degs = set(d for d in part_subgraph(g, p, i).degrees() if d)
            assert degs <= {1, 2}


def test_wr2_deg4_random():
    rng = random.Random(107)
    graphs = [random_deg4_graph(rng.randrange(2, 25), rng) for _ in range(60)]
    # connected and path-like, so the Euler circuit runs thousands of edges
    # long; the last graph has about 10^5 edges
    graphs.append(random_path_deg4_graph(3000, rng))
    graphs.append(random_path_deg4_graph(56000, rng))
    for g in graphs:
        p = wr2_deg4(g)
        for i in range(2):
            degs = set(d for d in part_subgraph(g, p, i).degrees() if d)
            assert degs <= {1, 2}


def test_wr2_deg4_refuses_degree_five():
    with pytest.raises(ValueError, match="maximum degree"):
        wr2_deg4(Graph(6, tuple((0, v) for v in range(1, 6))))


def _is_deg4_split(g, p):
    return p.k == 2 and all(
        set(d for d in part_subgraph(g, p, i).degrees() if d) <= {1, 2} for i in range(2)
    )


def _raise(*args):
    raise AssertionError("wr2_deg4 must not build a host")


def test_wr2_deg4_builds_no_host(monkeypatch):
    monkeypatch.setattr(semireg.coloring, "four_regularize", _raise)
    monkeypatch.setattr(semireg.coloring, "two_factorize", _raise)
    for g in (complete(5), path(2), random_deg4_graph(30, random.Random(5))):
        assert _is_deg4_split(g, wr2_deg4(g))


def _deg4_multigraph(n, pairs, keep_isolated=False):
    """The pairs (u != v) kept while both ends stay at degree <= 4: a
    multigraph with every degree in 0..4, isolated vertices dropped unless
    ``keep_isolated``."""
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < 4 and deg[v] < 4:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    if keep_isolated:
        return Graph(n, tuple(edges))
    keep = {v: i for i, v in enumerate(v for v in range(n) if deg[v])}
    return Graph(len(keep), tuple((keep[u], keep[v]) for u, v in edges))


def test_wr2_deg4_seeded_sweep():
    rng = random.Random(115)
    graphs = [random_deg4_graph(rng.randrange(2, 60), rng) for _ in range(300)]
    for _ in range(100):  # unions that include a 4-regular component
        pieces = [random_deg4_graph(rng.randrange(2, 20), rng) for _ in range(rng.randrange(1, 4))]
        pieces.append(rng.choice([complete(5), _hamiltonian_cycle_union(rng.randrange(3, 12), 2, rng)]))
        rng.shuffle(pieces)
        graphs.append(disjoint_union(pieces))
    for _ in range(200):
        n = rng.randrange(2, 30)
        graphs.append(_deg4_multigraph(n, [rng.sample(range(n), 2) for _ in range(2 * n)]))
    graphs += [Graph(2, ((0, 1),) * k) for k in (1, 2, 3, 4)]
    graphs += [Graph(3, ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2))), cycle(3), cycle(4)]
    for g in graphs:
        assert _is_deg4_split(g, wr2_deg4(g))


@st.composite
def _deg4_multigraphs(draw):
    n = draw(st.integers(2, 12))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=30))
    return _deg4_multigraph(n, pairs, keep_isolated=True)


@settings(max_examples=200, deadline=None)
@given(g=_deg4_multigraphs())
def test_wr2_deg4_splits_every_multigraph_of_degree_at_most_four(g):
    assert _is_deg4_split(g, wr2_deg4(g))


# Verbatim copy of the circuit walk and the degree-4 path of
# `two_factorize` before it became the 4-regular case of the degree-4
# split; the factors must stay the same.
def _old_euler_circuit_arcs(g: Graph) -> list[tuple[int, int, int]]:
    """Orient all edges along per-component Euler circuits.

    Returns arcs (tail, head, edge id); every vertex ends up with equal
    in- and out-degree.  Each component's arcs are contiguous and in
    circuit order, the head of one arc being the tail of the next.
    Requires all degrees even.
    """
    adj = g.adjacency()
    used = [False] * g.m
    ptr = [0] * g.n
    arcs: list[tuple[int, int, int]] = []
    for start in range(g.n):
        if ptr[start] >= len(adj[start]):
            continue
        if all(used[e] for _, e in adj[start]):
            continue
        stack = [(start, -1)]
        verts: list[int] = []
        eids: list[int] = []
        while stack:
            v, ein = stack[-1]
            advanced = False
            while ptr[v] < len(adj[v]):
                w, e = adj[v][ptr[v]]
                ptr[v] += 1
                if not used[e]:
                    used[e] = True
                    stack.append((w, e))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                verts.append(v)
                eids.append(ein)
        verts.reverse()
        eids.reverse()
        # verts[0] == verts[-1] == start; eids[i] entered verts[i]
        arcs.extend(
            (verts[i], verts[i + 1], eids[i + 1]) for i in range(len(verts) - 1)
        )
    return arcs


def _old_two_factorize_degree_four(g):
    arcs = _old_euler_circuit_arcs(g)
    assert len(arcs) == g.m
    rounds = [[e for _, _, e in arcs[0::2]], [e for _, _, e in arcs[1::2]]]
    return tuple(tuple(sorted(r)) for r in rounds)


def test_two_factorize_matches_old_degree_four_path():
    rng = random.Random(117)
    doubled = Graph(3, ((0, 1), (1, 2), (2, 0)) * 2)
    graphs = [complete(5), doubled, disjoint_union([complete(5), doubled]), Graph(2, ((0, 1),) * 4)]
    graphs += [_hamiltonian_cycle_union(rng.randrange(2, 60), 2, rng) for _ in range(200)]
    graphs += [_oriented_at_random(g, rng) for g in graphs[:50]]
    graphs += [four_regularize(random_deg4_graph(rng.randrange(2, 30), rng))[0] for _ in range(50)]
    graphs.append(four_regularize(random_path_deg4_graph(2000, rng))[0])
    for g in graphs:
        assert two_factorize(g).factors == _old_two_factorize_degree_four(g)


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
        assert p.k == (delta + 1) // 2
        assert verify_partition(g, p, Family.SEMIREGULAR)
        for i in range(p.k):
            degs = set(d for d in part_subgraph(g, p, i).degrees() if d)
            assert degs <= {1, 2}


def test_sr_tree_never_beaten_by_general_bound():
    # the paper's sr(T) = ceil(D/2): on trees, the general split gives as
    # many parts as the tree construction
    rng = random.Random(113)
    trees = [t for n in range(2, 8) for t in enumerate_trees(n)]
    trees += [random_tree(rng.randrange(2, 16), rng) for _ in range(40)]
    trees += [random_tree(n, rng) for n in (300, 3000)]
    trees += [random_hub_tree(n, hubs, rng) for n in (40, 300, 3000) for hubs in (1, 3, 8)]
    for t in trees:
        delta = max(t.degrees())
        assert sr_general(t).k == sr_tree(t).k == (delta + 1) // 2 <= (delta + 2) // 2


@st.composite
def _simple_graphs(draw):
    """Simple graphs with n <= 14 and at least one edge, in random edge
    order with random endpoint order."""
    n = draw(st.integers(2, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return Graph(n, tuple((v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)))


@settings(max_examples=300, deadline=None)
@given(_simple_graphs())
def test_sr_general_splits_into_exactly_half_max_degree_parts(g):
    p = sr_general(g)
    assert p.k == (max(g.degrees()) + 1) // 2
    assert verify_partition(g, p, Family.SEMIREGULAR)
    for i in range(p.k):
        assert set(part_subgraph(g, p, i).degrees()) - {0} in ({1}, {2}, {1, 2})


def test_sr_general_at_100000_edges():
    # a guard against superlinear work: on a 2-core VM the split takes
    # about 0.6-0.9 s at this size, and the Vizing-based one took about 2 s
    rng = random.Random(127)
    n, m = 20_000, 100_000
    pairs = set()
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((u, v) if u < v else (v, u))
    g = Graph(n, tuple(pairs))
    start = time.perf_counter()
    p = sr_general(g)
    assert time.perf_counter() - start < 10.0
    assert p.k == (max(g.degrees()) + 1) // 2
    assert verify_partition(g, p, Family.SEMIREGULAR)


def _circulant(n, d):
    """C_n(+-1..+-d), its edges listed vertex by vertex."""
    return Graph(n, tuple((v, (v + s) % n) for v in range(n) for s in range(1, d + 1)))


@pytest.mark.parametrize("build,max_flips", [
    (lambda: complete(4), None),
    (lambda: complete(60), None),
    (lambda: complete_bipartite(30, 30), None),
    # every vertex has degree D, so conflicts remain (509 flips); flipping
    # whenever the head held the tail's least free color made 29,038
    (lambda: _circulant(5000, 10), 2000),
], ids=["k4", "k60", "k30-30", "circulant-5000-10"])
def test_sr_general_flips_only_when_no_color_is_free_at_both_ends(monkeypatch, build, max_flips):
    g = build()
    flips = []
    flip = semireg.coloring._flip
    monkeypatch.setattr(semireg.coloring, "_flip", lambda *args: flips.append(flip(*args)))
    p = sr_general(g)
    assert len(flips) >= 1
    assert max_flips is None or len(flips) < max_flips
    assert p.k == (max(g.degrees()) + 1) // 2
    assert verify_partition(g, p, Family.SEMIREGULAR)
    for i in range(p.k):
        assert set(part_subgraph(g, p, i).degrees()) - {0} in ({1}, {2}, {1, 2})


def test_sr_general_rejects_parallel_edges():
    with pytest.raises(ValueError, match="simple graph"):
        sr_general(Graph(3, ((0, 1), (1, 2), (0, 1))))
    with pytest.raises(ValueError, match="no edges"):
        sr_general(Graph(3, ()))


# Verbatim copy of the colour table and `vizing` before the fan scan moved
# to C-level iterators; the new code must give the same colours edge for
# edge.
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


def _old_vizing(g):
    """Proper edge coloring of a simple graph with at most max_degree + 1
    colors, by fan rotation and alternating-path flips."""
    if not g.is_simple():
        raise ValueError("fan-rotation coloring requires a simple graph")
    deg = g.degrees()
    delta = max(deg, default=0)
    if g.m == 0:
        return ()
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

    return tuple(table.ecol)


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
