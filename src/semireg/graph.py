"""Core graph type, standard graphs, classification, and text formats.

Vertices are dense integers 0..n-1.  Edges are an ordered list of unordered
pairs; the position of a pair in the list is its stable edge id.  Parallel
edges are allowed (a few constructions create them internally), self-loops
are not.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ParseError


class Record:
    """Base of the immutable records: equality and hash on the type and the
    fields named in ``_compared`` (every slot unless a class names fewer),
    the repr ``Name(field=value, ...)`` over the same fields, and
    ``AttributeError`` on assignment or deletion.

    ``__init__`` is generated once per class from ``__slots__``: one
    parameter per slot, in order, with the defaults a class names in
    ``_defaults``; it ends with ``self.__post_init__()`` when the class has
    one, so that check sees every slot set."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._compared = cls.__dict__.get("_compared", cls.__slots__)
        # compiled source, as namedtuple builds its __new__: a loop over the
        # slots would cost more per record and hide the signature
        defaults = cls.__dict__.get("_defaults", {})
        params = "".join(f", {f}=_d[{f!r}]" if f in defaults else f", {f}" for f in cls.__slots__)
        body = [f"object.__setattr__(self, {f!r}, {f})" for f in cls.__slots__]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_d": defaults}
        exec(f"def __init__(self{params}):\n " + "\n ".join(body), namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._compared])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # for copy and pickle, which would set the slots one by one
        return type(self), tuple([getattr(self, f) for f in self.__slots__])


class Graph(Record):
    __slots__ = ("n", "edges")

    def __post_init__(self):
        # One pass checks each edge once; the converting scan below runs only
        # for input that is not a tuple of int pairs or to name a bad edge.
        n = self.n
        if type(self.edges) is tuple and n >= 0:
            for e in self.edges:
                u, v = e
                if (type(e) is not tuple or type(u) is not int or type(v) is not int
                        or u == v or not (0 <= u < n and 0 <= v < n)):
                    break
            else:
                return
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")

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


class Classification(Record):
    __slots__ = ("is_tree", "is_bipartite", "is_connected")


class RootedTree(Record):
    """A rooted tree: each vertex's parent edge (None at the root), a scan
    order and each vertex's downward edge ids in ascending order.

    ``order`` lists every vertex after its parent and starts at the root:
    ``bfs_root`` orders by (depth, id), the tree algorithms by reversed
    leaf-peeling order.  The rows of ``down`` are shared with every reader,
    so do not modify them; a leaf's row may be a shared empty tuple.
    """

    __slots__ = ("graph", "parent_edge", "order", "down")
    _compared = __slots__[:-1]  # not ``down``: it follows from the rest


# ---------------------------------------------------------------------------
# standard graphs
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


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def degree_set(g: Graph) -> tuple[int, ...]:
    """Sorted distinct vertex degrees."""
    if g.n == 0:
        raise ValueError("degree set of the empty graph is undefined")
    return tuple(sorted(set(g.degrees())))


def classify(g: Graph) -> Classification:
    """BFS 2-coloring: bipartite iff no edge joins two equal colors."""
    color = [-1] * g.n
    edges = g.edges
    inc = incident_edges(g.n, edges)
    components = 0
    for s in range(g.n):
        if color[s] != -1:
            continue
        components += 1
        color[s] = 0
        queue = [s]
        for x in queue:
            c = 1 - color[x]
            for e in inc[x]:
                a, b = edges[e]
                w = b if a == x else a
                if color[w] == -1:
                    color[w] = c
                    queue.append(w)
    connected = components <= 1
    return Classification(
        is_tree=connected and g.m == g.n - 1,
        is_bipartite=all(color[u] != color[v] for u, v in edges),
        is_connected=connected,
    )


def incident_edges(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Entry v lists the ids of the edges at v, in id order."""
    inc: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        inc[u].append(e)
        inc[v].append(e)
    return inc


def neighbor_masks(g: Graph) -> Optional[list[int]]:
    """Entry u is an int whose bit v is set when u and v are adjacent, or
    None when g has a parallel edge, so this is also the simplicity test.

    The masks take n^2/8 bytes: read them where the work is quadratic in n
    anyway, and use ``Graph.is_simple`` on large sparse graphs.
    """
    nb = [0] * g.n
    for u, v in g.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    # without loops, each edge sets two bits unless it repeats an earlier one
    return nb if sum(map(int.bit_count, nb)) == 2 * g.m else None


def complement(g: Graph) -> Graph:
    nb = neighbor_masks(g)
    if nb is None:
        raise ValueError("complement is defined for simple graphs only")
    n = g.n
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if not nb[u] >> v & 1))


def bfs_root(g: Graph, v: int) -> RootedTree:
    """Root a tree at any vertex ``v`` by BFS, with ``order`` by (depth, id).
    This is the tree test: a graph is a tree iff it has n - 1 edges and the
    BFS from ``v`` reaches every vertex.  The tree algorithms root at
    vertex 0 by their own leaf-peeling pass instead.

    Runs in O(n) without sorting.  Each vertex's incident edge ids are
    listed in id order; dropping its parent edge when the BFS reaches it
    leaves its downward edges in ascending order, the rows of ``down``.
    In a tree the depths do not depend on the visiting order, and
    ``order`` is bucketed per depth in id order.
    """
    n, edges = g.n, g.edges
    if len(edges) != n - 1:
        raise ValueError("input must be a tree")
    if not 0 <= v < n:
        raise ValueError(f"root {v} out of range")
    down = incident_edges(n, edges)
    parent_edge: list[Optional[int]] = [None] * n
    depth = [-1] * n
    depth[v] = 0
    queue = [v]
    for x in queue:
        d = depth[x] + 1
        for e in down[x]:
            a, b = edges[e]
            w = b if a == x else a
            if depth[w] == -1:
                depth[w] = d
                parent_edge[w] = e
                down[w].remove(e)
                queue.append(w)
    if -1 in depth:
        raise ValueError("input must be a tree")
    layers: list[list[int]] = [[] for _ in range(max(depth) + 1)]
    for x in range(n):
        layers[depth[x]].append(x)
    return RootedTree(g, tuple(parent_edge), tuple(chain.from_iterable(layers)), down)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"-?[0-9]+")


def parse_int(token: str) -> int:
    """A number token of every text format: ASCII digits after an optional
    '-' (``int`` alone also reads "+3", "1_2" and non-ASCII digits)."""
    if _NUMBER.fullmatch(token) is None:
        raise ValueError(f"not a number: {token!r}")
    return int(token)


def number_reader(text: str) -> Callable[[str], int]:
    """The converter for the number tokens of ``text``: plain ``int`` when
    ``text`` holds nothing that ``int`` reads but ``parse_int`` rejects, so
    long inputs skip the per-token match, else ``parse_int``."""
    plain = text.isascii() and "+" not in text and "_" not in text
    return int if plain else parse_int


def parse_header(lines: Iterable[str], shape: str) -> tuple[int, int]:
    """The two nonnegative counts on line 1 of a text format whose header
    is ``shape``, such as "n m"; from an iterator, line 1 is consumed."""
    line = next(iter(lines), None)
    if line is None:
        raise ParseError("line 1: missing header")
    head = line.split()
    if len(head) != 2:
        raise ParseError(f"line 1: header must be '{shape}'")
    try:
        a, b = parse_int(head[0]), parse_int(head[1])
    except ValueError:
        raise ParseError("line 1: header must be two integers") from None
    if a < 0 or b < 0:
        raise ParseError("line 1: negative counts in header")
    return a, b


_PIECE = 1 << 13  # characters that text_lines splits at once, up to the next "\n"


def text_lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split off one piece of ``text`` at
    a time, so a reader holds one piece of lines rather than all of them.

    Each piece ends just after a "\n" (or at the end of ``text``), which is
    a line boundary for every separator ``splitlines`` knows and keeps
    "\r\n" whole."""
    return chain.from_iterable(map(str.splitlines, _pieces(text)))


def _pieces(text: str) -> Iterator[str]:
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _PIECE - 1)
        end = len(text) if cut < 0 else cut + 1
        yield text[start:end]
        start = end


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: a header line "n m", then m lines "u v".

    One comprehension reads the edge lines and ``Graph`` checks the
    endpoints; when either fails or the lines run out, ``_edge_line_error``
    names the first bad line.
    """
    lines = text_lines(text)
    n, m = parse_header(lines, "n m")
    num = number_reader(text)
    try:
        edges = [(num(u), num(v)) for u, v in map(str.split, islice(lines, m))]
        g = Graph(n, tuple(edges))
    except ValueError:
        g = None
    if g is None or g.m < m:
        raise _edge_line_error(text.splitlines(), n, m)
    if any(map(str.strip, lines)):
        raise ParseError(f"line {m + 2}: trailing content after {m} edges")
    return g


def _edge_line_error(lines: list[str], n: int, m: int) -> ParseError:
    """The error for the first of the m edge lines that is malformed, names
    an endpoint outside 0..n-1 or a self-loop; if none is, the input ended
    before line m + 1."""
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


def serialize_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
