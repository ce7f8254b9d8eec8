"""Proper edge coloring and factorization constructions.

bipartite_color gives an exact max-degree coloring of bipartite graphs by
alternating-path recoloring; vizing colors any simple graph with at most
max_degree + 1 colors by fan rotation, which powers the general
semiregular bound.  two_factorize splits a 2k-regular multigraph into k
spanning 2-regular factors by Euler-circuit 2-factorization: alternation
at degree 4, Konig colouring of the out/in incidence graph otherwise.  It
powers the degree-at-most-4 weakly semiregular split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import EdgePartition
from .graph import Graph, classify


@dataclass(frozen=True)
class ProperEdgeColoring:
    colors: tuple[int, ...]
    num_colors: int


@dataclass(frozen=True)
class TwoFactorization:
    """Edge-id sets, each inducing degree exactly 2 at every vertex."""

    factors: tuple[tuple[int, ...], ...]


class _ColorTable:
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


def bipartite_color(g: Graph) -> ProperEdgeColoring:
    """Proper edge coloring of a bipartite graph with exactly max-degree colors."""
    if not classify(g).is_bipartite:
        raise ValueError("graph is not bipartite")
    deg = g.degrees()
    delta = max(deg, default=0)
    if g.m == 0:
        return ProperEdgeColoring((), 0)
    table = _ColorTable(g)
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


def vizing(g: Graph) -> ProperEdgeColoring:
    """Proper edge coloring of a simple graph with at most max_degree + 1
    colors, by fan rotation and alternating-path flips."""
    if not g.is_simple():
        raise ValueError("fan-rotation coloring requires a simple graph")
    deg = g.degrees()
    delta = max(deg, default=0)
    if g.m == 0:
        return ProperEdgeColoring((), 0)
    num = delta + 1
    table = _ColorTable(g)
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


def _euler_circuit_arcs(g: Graph) -> list[tuple[int, int, int]]:
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


def two_factorize(g: Graph) -> TwoFactorization:
    """Split a 2k-regular multigraph into k spanning 2-regular factors.

    Per component: Euler circuit -> orientation with in-degree =
    out-degree = k.  At degree 4 each circuit has even length (a component
    has twice as many edges as vertices), so alternate arcs of it form the
    two factors.  At any other degree the
    out/in incidence graph is k-regular bipartite, and each colour class of
    its Konig colouring is a perfect matching pulling back to a 2-factor.
    """
    deg = g.degrees()
    if g.n == 0 or g.m == 0:
        raise ValueError("graph must have edges")
    values = set(deg)
    if len(values) != 1:
        raise ValueError("graph is not regular")
    d = values.pop()
    if d == 0 or d % 2 != 0:
        raise ValueError("degree must be positive and even")
    arcs = _euler_circuit_arcs(g)
    assert len(arcs) == g.m
    if d == 4:
        rounds = [[e for _, _, e in arcs[0::2]], [e for _, _, e in arcs[1::2]]]
    else:
        incidence = Graph(2 * g.n, tuple((t, g.n + h) for t, h, _ in arcs))
        rounds = [[] for _ in range(d // 2)]
        for (_, _, e), c in zip(arcs, bipartite_color(incidence).colors):
            rounds[c].append(e)
    return TwoFactorization(tuple(tuple(sorted(r)) for r in rounds))


def four_regularize(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Grow a graph of maximum degree <= 4 into a 4-regular host.

    Each round doubles the graph and joins every deficient vertex to its
    twin, raising deficient degrees by one; at most 3 rounds are needed
    from minimum degree 1.  Returns the host and the edge embedding of the
    input (the copy-0 image, which stays at the same edge ids).
    """
    deg = g.degrees()
    if g.n == 0 or min(deg) < 1:
        raise ValueError("graph must have minimum degree >= 1")
    if max(deg) > 4:
        raise ValueError("maximum degree exceeds 4")
    host = g
    rounds = 0
    while True:
        deg = host.degrees()
        if all(d == 4 for d in deg):
            break
        rounds += 1
        assert rounds <= 3, "doubling must reach 4-regular within 3 rounds"
        n = host.n
        edges = list(host.edges)
        edges.extend((u + n, v + n) for u, v in host.edges)
        edges.extend((v, v + n) for v in range(n) if deg[v] < 4)
        host = Graph(2 * n, tuple(edges))
    return host, tuple(range(g.m))


def wr2_deg4(g: Graph) -> EdgePartition:
    """Split a graph with maximum degree <= 4 (minimum >= 1) into two parts
    whose degree sets lie in {1, 2}."""
    host, embed = four_regularize(g)
    factors = two_factorize(host)
    first = set(factors.factors[0])
    return EdgePartition(2, tuple(0 if embed[e] in first else 1 for e in range(g.m)))


def sr_general(g: Graph) -> EdgePartition:
    """Semiregular decomposition of any simple graph into at most
    ceil((max_degree + 1) / 2) parts with degrees in {1, 2}.

    Pairs up the color classes of a fan-rotation coloring: color i joins
    color i + ceil(chi/2).
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    coloring = vizing(g)
    used = sorted(set(coloring.colors))
    compact = {c: i for i, c in enumerate(used)}
    chi = len(used)
    half = (chi + 1) // 2
    return EdgePartition(
        half,
        tuple(
            compact[c] if compact[c] < half else compact[c] - half
            for c in coloring.colors
        ),
    )
