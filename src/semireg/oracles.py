"""Exact exponential-time computation of edge-partition numbers.

The search enumerates part assignments in canonical form (edge 0 in part
0, new part ids in order of first use), pruning as soon as any part can no
longer extend to a valid family member.  A vertex's degree in a part is
final once its last incident edge has been assigned; the checks below only
ever constrain finished degrees, which keeps pruning sound.

These searches are the ground truth the constructive algorithms are
validated against, so they share nothing with those code paths beyond the
basic graph type.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import BudgetError
from .families import EdgePartition, Family
from .graph import Graph

_HARD_EDGE_CAP = 24


@dataclass(frozen=True)
class OracleBudget:
    max_edges: int = 16
    max_parts: int = 4

    def __post_init__(self):
        if self.max_edges > _HARD_EDGE_CAP:
            raise ValueError(f"max_edges is hard-capped at {_HARD_EDGE_CAP}")
        if self.max_edges < 0 or self.max_parts < 1:
            raise ValueError("invalid budget")


def oracle_min_parts(
    g: Graph, f: Family, budget: Optional[OracleBudget] = None
) -> Optional[tuple[int, EdgePartition]]:
    """Least number of nonempty parts in an edge partition whose parts all
    satisfy the family, with a witness; None if no count within the part
    budget works."""
    budget = budget or OracleBudget()
    if g.m > budget.max_edges:
        raise BudgetError(f"{g.m} edges exceed the budget of {budget.max_edges}")
    if g.m == 0:
        return 0, EdgePartition(0, ())
    for k in range(1, min(budget.max_parts, g.m) + 1):
        found = _search_exact(g, f, k)
        if found is not None:
            return k, EdgePartition(k, tuple(found))
    return None


def oracle_mixed(g: Graph, budget: Optional[OracleBudget] = None):
    """Each part locally irregular or weakly semiregular."""
    return oracle_min_parts(g, Family.MIXED, budget)


def _search_exact(g: Graph, f: Family, k: int) -> Optional[list[int]]:
    """First canonical assignment onto exactly k nonempty valid parts."""
    m, n = g.m, g.n
    edges = g.edges
    last = [-1] * n
    for e, (u, v) in enumerate(edges):
        last[u] = e
        last[v] = e
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        incident[u].append((v, e))
        incident[v].append((u, e))

    deg = [[0] * k for _ in range(n)]
    fin = [False] * n
    dcnt: list[dict[int, int]] = [{} for _ in range(k)]
    bad_first = [False] * k   # regular (or weakly semiregular, for mixed) disqualified
    bad_irr = [False] * k     # locally irregular disqualified
    part = [-1] * m

    wsr = f is Family.WEAKLY_SEMIREGULAR
    semi = f is Family.SEMIREGULAR
    reg = f is Family.REGULAR
    locreg = f is Family.LOCALLY_REGULAR
    locirr = f is Family.LOCALLY_IRREGULAR
    # the two "first family or locally irregular" families: a part leaves
    # the first family at its (first_cap + 1)-th distinct finished degree
    first_cap = {Family.REGULAR_OR_LOCALLY_IRREGULAR: 1, Family.MIXED: 2}.get(f, 0)
    local_edges = locreg or locirr or first_cap > 0

    def degree_cap_ok(p: int, d: int) -> bool:
        # a partial degree can only grow, so exceeding what the finished
        # degrees of the part still allow is fatal
        dc = dcnt[p]
        if not dc:
            return True
        if wsr:
            return len(dc) < 2 or d <= max(dc)
        if semi:
            return d <= min(dc) + 1
        if reg:
            return d <= next(iter(dc))
        return True

    def finish(w: int, trail: list) -> bool:
        fin[w] = True
        trail.append(("fin", w))
        for p in range(k):
            d = deg[w][p]
            if d == 0:
                continue
            dc = dcnt[p]
            fresh = d not in dc
            if fresh:
                if wsr and len(dc) >= 2:
                    return False
                if semi and dc and (d > min(dc) + 1 or d < max(dc) - 1):
                    return False
                if reg and dc:
                    return False
                if first_cap and len(dc) >= first_cap and not bad_first[p]:
                    bad_first[p] = True
                    trail.append(("first", p))
            dc[d] = dc.get(d, 0) + 1
            trail.append(("dc", p, d))
        if local_edges:
            for nbr, eid in incident[w]:
                q = part[eid]
                if q == -1 or not fin[nbr]:
                    continue
                same = deg[w][q] == deg[nbr][q]
                if locreg and not same:
                    return False
                if locirr and same:
                    return False
                if first_cap and same and not bad_irr[q]:
                    bad_irr[q] = True
                    trail.append(("irr", q))
        if first_cap:
            for p in range(k):
                if bad_first[p] and bad_irr[p]:
                    return False
        return True

    def undo(trail: list) -> None:
        for op in reversed(trail):
            tag = op[0]
            if tag == "dc":
                _, p, d = op
                dc = dcnt[p]
                if dc[d] == 1:
                    del dc[d]
                else:
                    dc[d] -= 1
            elif tag == "fin":
                fin[op[1]] = False
            elif tag == "first":
                bad_first[op[1]] = False
            else:
                bad_irr[op[1]] = False

    def place(i: int, used: int) -> bool:
        if i == m:
            return used == k
        if m - i < k - used:
            return False
        u, v = edges[i]
        limit = used + 1 if used < k else k
        for p in range(limit):
            deg[u][p] += 1
            deg[v][p] += 1
            if degree_cap_ok(p, deg[u][p]) and degree_cap_ok(p, deg[v][p]):
                part[i] = p
                trail: list = []
                ok = True
                if last[u] == i:
                    ok = finish(u, trail)
                if ok and last[v] == i:
                    ok = finish(v, trail)
                if ok and place(i + 1, max(used, p + 1)):
                    return True
                undo(trail)
                part[i] = -1
            deg[u][p] -= 1
            deg[v][p] -= 1
        return False

    if place(0, 0):
        return list(part)
    return None


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees on n vertices, decoded from their sequence
    encodings.  Capped at n = 9."""
    if not 1 <= n <= 9:
        raise ValueError("tree enumeration supports 1 <= n <= 9")
    if n == 1:
        yield Graph(1, ())
        return
    if n == 2:
        yield Graph(2, ((0, 1),))
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield decode_tree(n, seq)


def decode_tree(n: int, seq: tuple[int, ...]) -> Graph:
    """Decode a length n-2 sequence over 0..n-1 into its labeled tree."""
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    # vertices become eligible leaves when their degree drops to 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, tuple(edges))
