"""Shared builders and brute-force checkers for the test suite."""

from __future__ import annotations

import gc
import itertools
import random
from collections import deque

from semireg import Graph, RootedTree, decode_tree


def cyclic_garbage(call) -> int:
    """Objects the cycle collector finds after ``call()``, with automatic
    collection held off while it runs."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


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


def random_bounded_tree(n: int, max_degree: int, rng: random.Random) -> Graph:
    """Random labeled tree on n >= 3 vertices with degrees <= max_degree:
    its Pruefer sequence is a random draw in which every vertex appears at
    most max_degree - 1 times."""
    return decode_tree(n, tuple(rng.sample(range(n), n - 2, counts=[max_degree - 1] * n)))


def random_hub_tree(n: int, hubs: int, rng: random.Random) -> Graph:
    """Random labeled tree on n >= 3 vertices whose Pruefer sequence mostly
    names a few hubs, so a handful of vertices get large degrees."""
    centers = rng.sample(range(n), hubs)
    seq = tuple(
        rng.choice(centers) if rng.random() < 0.75 else rng.randrange(n)
        for _ in range(n - 2)
    )
    return decode_tree(n, seq)


def planted_tree(n: int, alpha: int, beta: int, rng: random.Random) -> Graph:
    """Tree on n >= 2 vertices built around a hidden split into a
    (1, alpha)-forest and a (1, beta)-forest, so ``wr2_tree`` says YES.

    Vertices are grown breadth first; each draws how many child edges of
    either label it gets, so that its degree in each label lies in
    {0, 1, alpha} or {0, 1, beta}.  Vertex ids and edge order are shuffled.
    """
    targets = ((0, 1, alpha), (0, 1, beta))
    while True:
        edges: list[tuple[int, int]] = []
        queue = [(0, -1)]  # (vertex, label of its parent edge)
        for v, up in queue:
            for lab in (0, 1):
                have = 1 if up == lab else 0
                room = n - 1 - len(edges)
                counts = [t - have for t in targets[lab] if 0 <= t - have <= room]
                for _ in range(rng.choice(counts)):
                    edges.append((v, len(edges) + 1))
                    queue.append((len(edges), lab))
        if len(edges) == n - 1:
            break  # otherwise the tree died out early: grow it again
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(edges)
    return Graph(n, tuple((perm[u], perm[v]) for u, v in edges))


class WalkCounter(tuple):
    """A BFS order that counts how often it is walked, forwards or
    backwards; ``walk_counting`` swaps it into a rooted tree."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def __reversed__(self):
        self.walks += 1
        return iter(self[::-1])


def walk_counting(rt: RootedTree) -> RootedTree:
    """``rt`` with its order replaced by a ``WalkCounter``."""
    return RootedTree(rt.graph, rt.parent_edge, WalkCounter(rt.order), rt.down)


def reference_bfs_root(g: Graph, v: int):
    """Rooting by BFS over the sorted ``Graph.adjacency`` lists, followed by
    a sort of all vertices by (depth, id) and a walk over the edges for the
    child lists.  Returns (parent, parent_edge, depth, order, child_edges);
    assumes ``g`` is a tree."""
    adj = g.adjacency()
    parent = [None] * g.n
    parent_edge = [None] * g.n
    depth = [-1] * g.n
    depth[v] = 0
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for w, e in adj[x]:
            if depth[w] == -1:
                depth[w] = depth[x] + 1
                parent[w] = x
                parent_edge[w] = e
                queue.append(w)
    order = tuple(sorted(range(g.n), key=lambda x: (depth[x], x)))
    down = [[] for _ in range(g.n)]
    for e, (a, b) in enumerate(g.edges):
        down[a if depth[a] < depth[b] else b].append(e)
    return tuple(parent), tuple(parent_edge), tuple(depth), order, down


def random_simple_graph(n: int, m: int, rng: random.Random) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return Graph(n, tuple(pairs[:m]))


def seeded_simple_graphs(seed: int, max_n: int = 40):
    """For each n in 0..max_n: the empty graph, the complete graph and one
    random simple graph, each with its edge ends swapped at random."""
    rng = random.Random(seed)
    for n in range(max_n + 1):
        pairs = n * (n - 1) // 2
        for m in (0, pairs, rng.randint(0, pairs)):
            g = random_simple_graph(n, m, rng)
            yield Graph(n, tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges))


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
    degree < 4.  Long paths make long Euler circuits."""
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
