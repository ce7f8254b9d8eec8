"""Shared builders and brute-force checkers for the test suite."""

from __future__ import annotations

import itertools
import random

from semireg import Graph, decode_tree


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(edges))


def random_tree(n: int, rng: random.Random) -> Graph:
    if n == 1:
        return Graph(1, ())
    if n == 2:
        return Graph(2, ((0, 1),))
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    return decode_tree(n, seq)


def random_hub_tree(n: int, hubs: int, rng: random.Random) -> Graph:
    """Random labeled tree on n >= 3 vertices whose Pruefer sequence mostly
    names a few hubs, so a handful of vertices get large degrees."""
    centers = rng.sample(range(n), hubs)
    seq = tuple(
        rng.choice(centers) if rng.random() < 0.75 else rng.randrange(n)
        for _ in range(n - 2)
    )
    return decode_tree(n, seq)


def random_simple_graph(n: int, m: int, rng: random.Random) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return Graph(n, tuple(pairs[:m]))


def random_deg4_graph(n: int, rng: random.Random) -> Graph:
    """Random simple graph with max degree <= 4 and min degree >= 1."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    deg = [0] * n
    # a near-perfect matching guarantees minimum degree 1
    for i in range(0, n - 1, 2):
        u, v = order[i], order[i + 1]
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
    if n % 2 == 1:
        u, v = order[-1], order[0]
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pairs)
    for u, v in pairs:
        if deg[u] < 4 and deg[v] < 4 and rng.random() < 0.6:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, tuple(sorted(edges)))


def random_path_deg4_graph(n: int, rng: random.Random) -> Graph:
    """Connected simple graph with max degree <= 4 in linear time: a random
    Hamiltonian path plus up to 2n random chords between vertices of
    degree < 4.  Long paths make deep augmenting searches."""
    order = list(range(n))
    rng.shuffle(order)
    edges = list(zip(order, order[1:]))
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    seen = {(min(u, v), max(u, v)) for u, v in edges}
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and deg[u] < 4 and deg[v] < 4 and key not in seen:
            seen.add(key)
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, tuple(edges))


def make_degree_tree(max_hub_degree: int) -> Graph:
    """Caterpillar whose degree set is exactly {1, 2, ..., max_hub_degree}:
    a spine of hubs padded with leaves up to each target degree."""
    hubs = list(range(2, max_hub_degree + 1))
    n = len(hubs)
    edges = [(i, i + 1) for i in range(n - 1)]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    nxt = n
    for i, target in enumerate(hubs):
        for _ in range(target - deg[i]):
            edges.append((i, nxt))
            nxt += 1
    return Graph(nxt, tuple(edges))


def is_proper_coloring(g: Graph, colors) -> bool:
    seen = set()
    for e, (u, v) in enumerate(g.edges):
        for x in (u, v):
            if (x, colors[e]) in seen:
                return False
            seen.add((x, colors[e]))
    return True


def edge_chromatic_feasible(g: Graph, k: int) -> bool:
    """Backtracking check for a proper edge coloring with k colors."""
    used = [set() for _ in range(g.n)]

    def rec(i: int) -> bool:
        if i == g.m:
            return True
        u, v = g.edges[i]
        for c in range(k):
            if c in used[u] or c in used[v]:
                continue
            used[u].add(c)
            used[v].add(c)
            if rec(i + 1):
                return True
            used[u].remove(c)
            used[v].remove(c)
        return False

    return rec(0)


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Permutation search; fine for n <= 8."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    target = {(min(u, v), max(u, v)) for u, v in g2.edges}
    for perm in itertools.permutations(range(g1.n)):
        mapped = {
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g1.edges
        }
        if mapped == target:
            return True
    return False


def labeled_regular_graphs(n: int, d: int, fix_first_neighborhood: bool = False):
    """All labeled simple d-regular graphs on n vertices, each once.

    With ``fix_first_neighborhood`` only graphs where vertex 0 is adjacent
    to exactly 1..d are produced; every isomorphism class keeps at least
    one representative, which makes deduplication far cheaper.
    """
    if (n * d) % 2 == 1:
        return
    adj = [set() for _ in range(n)]
    deg = [0] * n
    edges: list[tuple[int, int]] = []

    def rec(current: int, lo: int):
        u = next((x for x in range(n) if deg[x] < d), None)
        if u is None:
            yield Graph(n, tuple(edges))
            return
        if u != current:
            lo = u + 1
        for w in range(lo, n):
            if w == u or deg[w] >= d or w in adj[u]:
                continue
            if fix_first_neighborhood and u == 0 and w != deg[0] + 1:
                continue
            adj[u].add(w)
            adj[w].add(u)
            deg[u] += 1
            deg[w] += 1
            edges.append((u, w))
            yield from rec(u, w + 1)
            edges.pop()
            adj[u].remove(w)
            adj[w].remove(u)
            deg[u] -= 1
            deg[w] -= 1

    yield from rec(-1, 0)


def cubic_graphs_up_to_iso(n: int) -> list[Graph]:
    """Isomorphism-class representatives of 3-regular graphs on n vertices."""
    import networkx as nx

    reps: list[Graph] = []
    nx_reps: list = []
    for g in labeled_regular_graphs(n, 3, fix_first_neighborhood=True):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        if any(nx.is_isomorphic(h, other) for other in nx_reps):
            continue
        reps.append(g)
        nx_reps.append(h)
    return reps


def free_trees_with_edges(max_edges: int) -> list[Graph]:
    """One representative per isomorphism class of trees with 1..max_edges edges."""
    import networkx as nx

    out = []
    for order in range(2, max_edges + 2):
        for t in nx.nonisomorphic_trees(order):
            mapping = {v: i for i, v in enumerate(t.nodes())}
            out.append(
                Graph(order, tuple((mapping[u], mapping[v]) for u, v in t.edges()))
            )
    return out
