"""Graph-family predicates and edge-partition verification.

A part of an edge partition is judged as the edge-induced subgraph: only
vertices incident to at least one of its edges contribute a degree, so a
vertex absent from a part never adds a spurious 0.  Degrees are multigraph
degrees (parallel edges count twice).
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import chain
from typing import Sequence

from .errors import ParseError
from .graph import Graph, Record, number_reader, parse_header


class Family(enum.Enum):
    WEAKLY_SEMIREGULAR = "weakly-semiregular"
    SEMIREGULAR = "semiregular"
    REGULAR = "regular"
    LOCALLY_REGULAR = "locally-regular"
    LOCALLY_IRREGULAR = "locally-irregular"
    REGULAR_OR_LOCALLY_IRREGULAR = "regular-or-locally-irregular"
    MIXED = "mixed"  # locally irregular or weakly semiregular


class EdgePartition(Record):
    """Map from edge id to part id.  Empty parts are permitted."""

    __slots__ = ("k", "part")

    def __post_init__(self):
        # through a list, so the tuple is allocated at its final length: a
        # tuple grown from an iterator of unknown length is resized, and
        # small ones freed after resizing pile up on CPython's per-size free
        # lists until a full garbage collection
        part = tuple(list(map(int, self.part)))
        object.__setattr__(self, "part", part)
        if part and (min(part) < 0 or max(part) >= self.k):
            e = next(e for e, q in enumerate(part) if not 0 <= q < self.k)
            raise ValueError(f"edge {e} assigned to invalid part {part[e]}")

    def part_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for p in self.part:
            sizes[p] += 1
        return sizes

    def nonempty_parts(self) -> int:
        return sum(1 for s in self.part_sizes() if s > 0)


def part_subgraph(g: Graph, p: EdgePartition, i: int) -> Graph:
    """Edge-induced subgraph of part ``i`` (vertex ids unchanged)."""
    if not 0 <= i < p.k:
        raise ValueError(f"part id {i} out of range for k={p.k}")
    return Graph(g.n, tuple(g.edges[e] for e, q in enumerate(p.part) if q == i))


def is_family(g: Graph, f: Family) -> bool:
    """Does the graph satisfy the family constraint?

    Degrees are taken over incident vertices only; a graph with no edges
    vacuously satisfies every family.
    """
    return _edges_fit(g.edges, f)


def _edges_fit(edges: Sequence[tuple[int, int]], f: Family) -> bool:
    """``is_family`` on the edge-induced graph of ``edges``."""
    deg = Counter(chain.from_iterable(edges))
    ds = set(deg.values())
    if f is Family.WEAKLY_SEMIREGULAR:
        return len(ds) <= 2
    if f is Family.SEMIREGULAR:
        return not ds or max(ds) - min(ds) <= 1
    if f is Family.REGULAR:
        return len(ds) <= 1
    if f is Family.LOCALLY_REGULAR:
        return all(deg[u] == deg[v] for u, v in edges)
    if f is Family.LOCALLY_IRREGULAR:
        return all(deg[u] != deg[v] for u, v in edges)
    if f is Family.REGULAR_OR_LOCALLY_IRREGULAR:
        return len(ds) <= 1 or all(deg[u] != deg[v] for u, v in edges)
    if f is Family.MIXED:
        return len(ds) <= 2 or all(deg[u] != deg[v] for u, v in edges)
    raise ValueError(f"unknown family {f!r}")


def verify_partition(g: Graph, p: EdgePartition, f: Family) -> bool:
    """True iff every nonempty part's subgraph satisfies the family."""
    if len(p.part) != g.m:
        raise ValueError(f"partition covers {len(p.part)} edges, graph has {g.m}")
    parts: dict[int, list[tuple[int, int]]] = {}
    for e, q in enumerate(p.part):
        parts.setdefault(q, []).append(g.edges[e])
    return all(_edges_fit(edges, f) for edges in parts.values())


def wr_lower_bound(g: Graph, coarse: bool = False) -> int:
    """Counting lower bound on the weakly semiregular number from |D|.

    Each part contributes one of three degrees (0 or its two values) at a
    vertex, and the all-zero combination is impossible when the minimum
    degree is at least one, so |D| <= 3^k - 1.  ``coarse`` drops the -1
    refinement and uses |D| <= 3^k.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    deg = g.degrees()
    if min(deg) == 0:
        raise ValueError("graph has an isolated vertex")
    size = len(set(deg))
    k = 0
    while 3**k - (not coarse) < size:
        k += 1
    return k


def parse_partition(text: str) -> EdgePartition:
    """Parse the partition format: header "k m", then m lines "edge_id part_id",
    then nothing but blank lines."""
    lines = text.splitlines()
    k, m = parse_header(lines, "k m")
    if m > len(lines) - 1:
        raise ParseError(f"line {len(lines) + 1}: expected {m} assignments, input ended early")
    part: list[int | None] = [None] * m
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
    return EdgePartition(k, tuple(part))  # type: ignore[arg-type]


def serialize_partition(p: EdgePartition) -> str:
    out = [f"{p.k} {len(p.part)}"]
    out.extend(f"{e} {q}" for e, q in enumerate(p.part))
    return "\n".join(out) + "\n"
