"""Core graph type, named constructions, classification, and text formats.

Vertices are dense integers 0..n-1.  Edges are an ordered list of unordered
pairs; the position of a pair in the list is its stable edge id.  Parallel
edges are allowed (a few constructions create them internally), self-loops
are not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

from .errors import ParseError

DegreeSet = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge id) pairs, sorted for determinism."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        for lst in adj:
            lst.sort()
        return adj

    def is_simple(self) -> bool:
        seen = set()
        for u, v in self.edges:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True


@dataclass(frozen=True)
class Classification:
    is_tree: bool
    is_bipartite: bool
    is_connected: bool


@dataclass(frozen=True)
class RootedTree:
    """BFS view of a tree: parent pointers, depth layers, and a scan order.

    ``order`` lists the vertices by nondecreasing depth, ties broken by
    ascending vertex id, so parents always precede children.
    """

    graph: Graph
    root: int
    parent: tuple[Optional[int], ...]
    parent_edge: tuple[Optional[int], ...]
    depth: tuple[int, ...]
    order: tuple[int, ...]

    def child_edges(self) -> list[list[int]]:
        """Per-vertex downward edge ids in ascending order, in O(n): one
        walk over the edge ids appends each edge to its upper endpoint."""
        depth = self.depth
        down: list[list[int]] = [[] for _ in range(self.graph.n)]
        for e, (u, v) in enumerate(self.graph.edges):
            down[u if depth[u] < depth[v] else v].append(e)
        return down


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: left side 0..a-1, right side a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs a, b >= 1")
    return Graph(a + b, tuple((u, a + v) for u in range(a) for v in range(b)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    """P_n on n vertices (n-1 edges), laid out 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star(k: int) -> Graph:
    """K_{1,k} with the center at vertex 0."""
    if k < 1:
        raise ValueError("star needs k >= 1 leaves")
    return Graph(k + 1, tuple((0, i) for i in range(1, k + 1)))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Relabels vertices consecutively and concatenates edge lists in order."""
    n = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, tuple(edges))


_NAMED = {
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "star": (star, 1),
}


def build_named(kind: str, params: Sequence) -> Graph:
    """Instantiate a standard graph by name.

    ``kind`` is one of complete, complete_bipartite, cycle, path, star
    (integer params) or disjoint_union (a list of graphs).
    """
    if kind == "disjoint_union":
        if not all(isinstance(g, Graph) for g in params):
            raise ValueError("disjoint_union expects a list of graphs")
        return disjoint_union(list(params))
    if kind not in _NAMED:
        raise ValueError(f"unknown graph kind {kind!r}")
    fn, arity = _NAMED[kind]
    if len(params) != arity:
        raise ValueError(f"{kind} expects {arity} parameter(s), got {len(params)}")
    return fn(*[int(p) for p in params])


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def degree_set(g: Graph) -> DegreeSet:
    """Sorted distinct vertex degrees."""
    if g.n == 0:
        raise ValueError("degree set of the empty graph is undefined")
    return tuple(sorted(set(g.degrees())))


def classify(g: Graph) -> Classification:
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


def complement(g: Graph) -> Graph:
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


def bfs_root(g: Graph, v: int) -> RootedTree:
    """Root a tree at ``v``.  This is the tree test: a graph is a tree iff
    it has n - 1 edges and the BFS from ``v`` reaches every vertex."""
    if g.m != g.n - 1:
        raise ValueError("input must be a tree")
    if not 0 <= v < g.n:
        raise ValueError(f"root {v} out of range")
    adj = g.adjacency()
    parent: list[Optional[int]] = [None] * g.n
    parent_edge: list[Optional[int]] = [None] * g.n
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
    if -1 in depth:
        raise ValueError("input must be a tree")
    layers: list[list[int]] = [[] for _ in range(max(depth) + 1)]
    for x in range(g.n):
        layers[depth[x]].append(x)
    order = tuple(chain.from_iterable(layers))
    return RootedTree(
        graph=g,
        root=v,
        parent=tuple(parent),
        parent_edge=tuple(parent_edge),
        depth=tuple(depth),
        order=order,
    )


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: a header line "n m", then m lines "u v"."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("line 1: missing header")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("line 1: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("line 1: header must be two integers") from None
    if n < 0 or m < 0:
        raise ParseError("line 1: negative counts in header")
    edges = []
    for i in range(m):
        lineno = i + 2
        if lineno - 1 >= len(lines):
            raise ParseError(f"line {lineno}: expected {m} edges, input ended early")
        parts = lines[lineno - 1].split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: edge endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex out of range")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    for extra in lines[m + 1:]:
        if extra.strip():
            raise ParseError(f"line {m + 2}: trailing content after {m} edges")
    return Graph(n, tuple(edges))


def serialize_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def to_dot(g: Graph) -> str:
    """Undirected DOT document for visualization."""
    deg = g.degrees()
    out = ["graph G {"]
    out.extend(f"  {v};" for v in range(g.n) if deg[v] == 0)
    out.extend(f"  {u} -- {v};" for u, v in g.edges)
    out.append("}")
    return "\n".join(out) + "\n"
