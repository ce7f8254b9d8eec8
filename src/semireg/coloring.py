"""Proper edge coloring and factorization constructions.

bipartite_color gives an exact max-degree coloring of bipartite graphs by
alternating-path recoloring; vizing colors any simple graph with at most
max_degree + 1 colors by fan rotation, which powers the general
semiregular bound.  Both keep a partial coloring as a flat list of edge
colors plus one color -> edge dict per vertex, and find free colors and
fan edges with C-level scans (``filterfalse`` over dict membership), not
a Python call per candidate.  two_factorize splits a 2k-regular multigraph
into k spanning 2-regular factors by Euler-circuit 2-factorization:
alternation at degree 4, Konig colouring of the out/in incidence graph
otherwise.  It powers the degree-at-most-4 weakly semiregular split.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse

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


def _recolor(edges, ecol: list[int], at: list[dict[int, int]], eids, colors) -> None:
    """Give edge ``eids[i]`` color ``colors[i]`` in the partial coloring
    ``ecol`` (-1: uncolored) and its per-vertex color -> edge maps ``at``,
    uncoloring all first: one by one would clobber shared entries."""
    for e in eids:
        c = ecol[e]
        if c != -1:
            u, v = edges[e]
            del at[u][c]
            del at[v][c]
    for e, c in zip(eids, colors):
        u, v = edges[e]
        ecol[e] = c
        at[u][c] = e
        at[v][c] = e


def _flip(edges, ecol: list[int], at: list[dict[int, int]], start: int, first: int, second: int) -> int:
    """Swap colors first and second on the maximal path out of ``start``
    that alternates them, first-colored edge first; returns its far end."""
    path = []
    v, want, then = start, first, second
    while want in at[v]:
        e = at[v][want]
        path.append(e)
        a, b = edges[e]
        v = b if a == v else a
        want, then = then, want
    _recolor(edges, ecol, at, path, [second if ecol[e] == first else first for e in path])
    return v


def bipartite_color(g: Graph) -> ProperEdgeColoring:
    """Proper edge coloring of a bipartite graph with exactly max-degree colors.

    Edges are colored in id order: (u, v) takes the smallest color a free
    at u, after flipping the a/b path out of v if the smallest color b free
    at v differs.  Each smallest free color is one C-level scan of
    range(max_degree), one dict lookup per color tried.
    """
    if not classify(g).is_bipartite:
        raise ValueError("graph is not bipartite")
    delta = max(g.degrees(), default=0)
    if g.m == 0:
        return ProperEdgeColoring((), 0)
    edges = g.edges
    ecol = [-1] * g.m
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    palette = range(delta)
    for e, (u, v) in enumerate(edges):
        a = next(filterfalse(at[u].__contains__, palette))
        b = next(filterfalse(at[v].__contains__, palette))
        if a != b:
            # The path cannot reach u: it would arrive on a b-edge, forcing
            # u and v onto the same side.
            end = _flip(edges, ecol, at, v, a, b)
            assert end != u, "alternating path closed on the new edge"
        _recolor(edges, ecol, at, (e,), (a,))
    return ProperEdgeColoring(tuple(ecol), delta)


def vizing(g: Graph) -> ProperEdgeColoring:
    """Proper edge coloring of a simple graph with at most max_degree + 1
    colors, by fan rotation and alternating-path flips (Misra-Gries).

    Edges are colored in id order.  The maximal fan at u of the uncolored
    edge (u, v0) grows from v0 by the first edge of u, in neighbor order,
    that leads out of the fan, is colored, and whose color is free at the
    fan's last vertex.  ``cols`` lists the colors of u's colored edges once,
    in neighbor order, and the next fan color is its first entry not taken
    at the last vertex; it leaves ``cols`` when its edge joins the fan.
    Both rules pick the same edge: u holds each color at most once, and in
    a simple graph the only colored edges from u into the fan are fan
    edges, v0's edge being uncolored.  Listing ``cols`` is one pass over
    u's edges per uncolored edge; a fan step is then one C-level scan of
    ``cols`` (a dict lookup per color tried) and one removal, with no
    Python-level work per entry.  Free colors come from the same kind of
    scan over the palette.

    With c free at u and d free at the fan's last vertex, the d/c path out
    of u is flipped if d is taken at u, then the shortest fan prefix ending
    where d is free is rotated: each edge takes the next one's color, the
    last takes d.
    """
    if not g.is_simple():
        raise ValueError("fan-rotation coloring requires a simple graph")
    delta = max(g.degrees(), default=0)
    if g.m == 0:
        return ProperEdgeColoring((), 0)
    palette = range(delta + 1)
    edges = g.edges
    ecol = [-1] * g.m
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    incident = [[e for _, e in row] for row in g.adjacency()]  # neighbor order

    for e0, (u, v0) in enumerate(edges):
        au = at[u]
        cols = [ecol[e] for e in incident[u] if ecol[e] != -1]
        fan_v = [v0]
        fan_e = [e0]
        while (col := next(filterfalse(at[fan_v[-1]].__contains__, cols), None)) is not None:
            cols.remove(col)
            e = au[col]
            a, b = edges[e]
            fan_v.append(b if a == u else a)
            fan_e.append(e)
        c = next(filterfalse(au.__contains__, palette))
        d = next(filterfalse(at[fan_v[-1]].__contains__, palette))
        if d in au:
            _flip(edges, ecol, at, u, d, c)
        # shortest fan prefix ending at a vertex where d is free and whose
        # edge colors still cascade; one exists after the flip
        j = None
        for i, w in enumerate(fan_v):
            if i > 0 and ecol[fan_e[i]] in at[fan_v[i - 1]]:
                break
            if d not in at[w]:
                j = i
                break
        assert j is not None, "fan rotation target must exist"
        _recolor(edges, ecol, at, fan_e[: j + 1], [ecol[e] for e in fan_e[1 : j + 1]] + [d])

    return ProperEdgeColoring(tuple(ecol), max(len(set(ecol)), max(ecol) + 1))


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
