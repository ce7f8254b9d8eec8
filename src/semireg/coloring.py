"""Proper edge coloring, the general semiregular split and the
degree-at-most-4 split.

vizing colors any simple graph with at most max_degree + 1 colors by fan
rotation.  It keeps a partial coloring as a flat list of edge colors plus
one color -> edge dict per vertex, and finds free colors and fan edges
with C-level scans (``filterfalse`` over dict membership), not a Python
call per candidate.  sr_general splits any simple graph into
ceil(max_degree / 2) parts with degrees in {1, 2}: it orients the edges
along Euler circuits (Petersen's 2-factor argument) and colors the
bipartite out-copy / in-copy graph in the same kind of partial coloring
(Koenig's edge-coloring theorem): each arc takes the least color free at
both of its copies, and an alternating path is flipped only when no color
is.  wr2_deg4 splits a graph of maximum degree at most 4 into two parts
with degrees in {1, 2} in linear time, by alternating labels along Euler
circuits of the input plus one dummy vertex; two_factorize is the
4-regular case of the same walk.
"""

from __future__ import annotations

from itertools import chain, filterfalse
from typing import Iterable

from .families import EdgePartition
from .graph import Graph, Record, incident_edges


class TwoFactorization(Record):
    """Edge-id sets, each inducing degree exactly 2 at every vertex."""

    __slots__ = ("factors",)


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


def _flip(edges, ecol: list[int], at: list[dict[int, int]], start: int, first: int, second: int) -> None:
    """Swap colors first and second on the maximal path out of ``start``
    that alternates them, first-colored edge first."""
    path = []
    v, want, then = start, first, second
    while want in at[v]:
        e = at[v][want]
        path.append(e)
        a, b = edges[e]
        v = b if a == v else a
        want, then = then, want
    _recolor(edges, ecol, at, path, [second if ecol[e] == first else first for e in path])


def vizing(g: Graph) -> tuple[int, ...]:
    """Proper edge coloring of a simple graph with at most max_degree + 1
    colors, by fan rotation and alternating-path flips (Misra-Gries): one
    color per edge id, ``()`` when there are no edges.

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
        return ()
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

    return tuple(ecol)


def _euler_circuits(edges, incident: list[list[int]], starts: Iterable[int]) -> tuple[list[list[int]], list[int]]:
    """Edge ids of one Euler circuit per component of an all-even-degree
    graph, each in circuit order, by Hierholzer's walk with an explicit
    stack, and ``tail``: ``tail[e]`` is the end the walk left edge e by.
    ``incident[v]`` lists the edge ids at v; the walk leaves v by its first
    unused one.  A component's circuit starts at its first vertex in
    ``starts``, which must list every vertex that has edges.

    Each circuit passes its edges from tail to head: a closed sub-trail
    pushed from a vertex is spliced into the circuit where the walk is
    popped back to that vertex.  So every vertex is the tail of exactly
    half of its edges.
    """
    used = [False] * len(edges)
    tail = [0] * len(edges)
    ptr = [0] * len(incident)
    circuits = []
    for start in starts:
        stack = [start]
        entered = [-1]  # entered[i]: the edge the walk took into stack[i]
        circuit: list[int] = []
        while stack:
            v = stack[-1]
            row = incident[v]
            i, k = ptr[v], len(row)
            while i < k and used[row[i]]:
                i += 1
            if i < k:
                e = row[i]
                ptr[v] = i + 1
                used[e] = True
                tail[e] = v
                a, b = edges[e]
                stack.append(b if a == v else a)
                entered.append(e)
            else:
                ptr[v] = i
                stack.pop()
                circuit.append(entered.pop())
        if len(circuit) > 1:
            circuits.append(circuit[-2::-1])  # reversed, without the start's -1
    return circuits, tail


def two_factorize(g: Graph) -> TwoFactorization:
    """Split a 4-regular multigraph into two spanning 2-regular factors.

    Each component has twice as many edges as vertices, so its Euler
    circuit has even length and alternate edges of it form the two
    factors.  Circuits start at the least vertex of each component and
    leave every vertex by its first unused edge in ``adjacency`` order.
    """
    deg = g.degrees()
    if g.n == 0 or g.m == 0:
        raise ValueError("graph must have edges")
    if set(deg) != {4}:
        raise ValueError("graph is not 4-regular")
    circuits, _ = _euler_circuits(g.edges, [[e for _, e in row] for row in g.adjacency()], range(g.n))
    return TwoFactorization(tuple(
        tuple(sorted(e for c in circuits for e in c[side::2])) for side in (0, 1)
    ))


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
    """Split a graph with maximum degree <= 4 into two parts whose degree
    sets lie in {1, 2}, in linear time.

    A dummy vertex n joined to every odd-degree vertex makes all degrees
    even, and each edge takes the parity of its position on its component's
    Euler circuit.  An input vertex now has degree 0, 2 or 4, so a circuit
    passes it at most twice, each pass entering on one parity and leaving
    on the other: no part gets more than two of its edges.  Only a
    circuit's closing pass can repeat a parity, which is harmless at the
    dummy, at a degree-2 vertex and on a 4-regular component (its circuit
    has even length).  So circuits start at the dummy, then at degree-2
    vertices, then anywhere.
    """
    deg = g.degrees()
    if max(deg, default=0) > 4:
        raise ValueError("maximum degree exceeds 4")
    n = g.n
    edges = g.edges + tuple((v, n) for v in range(n) if deg[v] & 1)
    starts = chain((n,), (v for v in range(n) if deg[v] == 2), range(n))
    part = [0] * len(edges)
    for circuit in _euler_circuits(edges, incident_edges(n + 1, edges), starts)[0]:
        for e in circuit[1::2]:
            part[e] = 1
    return EdgePartition(2, tuple(part[:g.m]))


def sr_general(g: Graph) -> EdgePartition:
    """Semiregular decomposition of any simple graph into exactly
    K = ceil(max_degree / 2) parts with degrees in {1, 2}.

    Petersen's 2-factor argument: a dummy vertex n joined to every
    odd-degree vertex makes all degrees even, and orienting each edge the
    way the Euler walk takes it gives every vertex of degree d at most
    ceil(d / 2) out-edges and as many in-edges.  The bipartite graph of
    out-copies (tail v) and in-copies (head w, as w + n) then has maximum
    degree at most K, so by Koenig's theorem it has a proper K-coloring.
    Edges are colored in id order: an edge takes the least color free at
    both its tail and its head.  If there is none, with a the least color
    free at the tail and b the least free at the head, the a/b path out of
    the head is flipped first and the edge takes a (in a bipartite graph
    that path never reaches the tail).  Such a conflict needs the two
    copies to hold all K colors between them, so flips are rare unless
    both ends are near degree max_degree.  A color class holds at most one
    out-edge and one in-edge per vertex, so its degrees lie in {1, 2}; a
    vertex of degree max_degree meets every class, so none is empty.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    if not g.is_simple():
        raise ValueError("semiregular split requires a simple graph")
    deg = g.degrees()
    k = (max(deg) + 1) // 2
    n = g.n
    edges = g.edges + tuple((v, n) for v in range(n) if deg[v] & 1)
    tail = _euler_circuits(edges, incident_edges(n + 1, edges), range(n + 1))[1]
    ins = list(range(n, 2 * n))  # in-copy ids, one int object each, shared by the arcs
    arcs = [(u, ins[v]) if t == u else (v, ins[u]) for (u, v), t in zip(g.edges, tail)]
    del edges, tail, ins
    palette = range(k)
    ecol = [-1] * g.m
    at: list[dict[int, int]] = [{} for _ in range(2 * n)]
    for e, (t, h) in enumerate(arcs):
        at_t, at_h = at[t], at[h]
        a = next(filterfalse(at_h.__contains__, filterfalse(at_t.__contains__, palette)), None)
        if a is None:
            a = next(filterfalse(at_t.__contains__, palette))
            _flip(arcs, ecol, at, h, a, next(filterfalse(at_h.__contains__, palette)))
        ecol[e] = a
        at_t[a] = e
        at_h[a] = e
    return EdgePartition(k, tuple(ecol))
