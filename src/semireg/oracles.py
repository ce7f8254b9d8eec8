"""Exact exponential-time computation of edge-partition numbers.

The search enumerates part assignments in canonical form (edge 0 in part
0, new part ids in order of first use), pruning as soon as any part can no
longer extend to a valid family member.  A vertex's degree in a part is
final once its last incident edge has been assigned; the checks below only
ever constrain finished degrees, which keeps pruning sound.

One part works exactly when the whole graph is a family member, so k = 1
is answered by the family predicate, with no search.  Otherwise each call
prepares one search per graph: a step per edge (its ends, and whether each
end finishes there) and state arrays sized for the largest k.  A search
that fails unwinds fully, so the same arrays serve k = 2, 3, ... in turn,
and per-part counts of finished degrees keep the degree cap of a part as
one number.

These searches are the ground truth the constructive algorithms are
validated against, so they share nothing with those code paths beyond the
basic graph type and the family predicate, which is the family's
definition rather than a construction.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, Optional

from .errors import BudgetError
from .families import EdgePartition, Family, is_family
from .graph import Graph, Record

_HARD_EDGE_CAP = 24

# the two "first family or locally irregular" families: a part leaves the
# first family at its (first_cap + 1)-th distinct finished degree
_FIRST_CAP = {Family.REGULAR_OR_LOCALLY_IRREGULAR: 1, Family.MIXED: 2}


class OracleBudget(Record):
    __slots__ = ("max_edges", "max_parts")
    _defaults = {"max_edges": 16, "max_parts": 4}

    def __post_init__(self):
        if self.max_edges > _HARD_EDGE_CAP:
            raise ValueError(f"max_edges is hard-capped at {_HARD_EDGE_CAP}")
        if self.max_edges < 0 or self.max_parts < 1:
            raise ValueError("invalid budget")


_DEFAULT_BUDGET = OracleBudget()


def oracle_min_parts(
    g: Graph, f: Family, budget: Optional[OracleBudget] = None
) -> Optional[tuple[int, EdgePartition]]:
    """Least number of nonempty parts in an edge partition whose parts all
    satisfy the family, with a witness; None if no count within the part
    budget works.

    A family member needs one part, and with one part the only canonical
    assignment puts every edge in part 0, so ``is_family`` answers k = 1;
    only a non-member is searched, from k = 2."""
    budget = budget or _DEFAULT_BUDGET
    m = g.m
    if m > budget.max_edges:
        raise BudgetError(f"{m} edges exceed the budget of {budget.max_edges}")
    if m == 0:
        return 0, EdgePartition(0, ())
    if is_family(g, f):
        return 1, EdgePartition(1, (0,) * m)
    found = _search(g, f, min(budget.max_parts, m))
    if found is None:
        return None
    k, part = found
    return k, EdgePartition(k, part)


def oracle_mixed(g: Graph, budget: Optional[OracleBudget] = None):
    """Each part locally irregular or weakly semiregular."""
    return oracle_min_parts(g, Family.MIXED, budget)


def _search(g: Graph, f: Family, top: int) -> Optional[tuple[int, list[int]]]:
    """Least k with 2 <= k <= top and a canonical assignment of g's edges
    onto exactly k nonempty parts valid for f, and the first such
    assignment; None if no such k works.  The caller has ruled out k = 1
    (g is not a member of f).  The assignment is the search's own list,
    handed over: it is the caller's from then on.

    The search is prepared once: a search that fails at k unwinds everything
    it changed, so the arrays allocated here at k = top serve every k.
    """
    edges, n = g.edges, g.n
    m = len(edges)
    last = [-1] * n
    for e, (u, v) in enumerate(edges):
        last[u] = e
        last[v] = e
    # per edge: its ends, and whether each end finishes there
    steps = [(u, v, last[u] == e, last[v] == e) for e, (u, v) in enumerate(edges)]

    wsr = f is Family.WEAKLY_SEMIREGULAR
    semi = f is Family.SEMIREGULAR
    reg = f is Family.REGULAR
    locirr = f is Family.LOCALLY_IRREGULAR
    first_cap = _FIRST_CAP.get(f, 0)
    # capped families bound every partial degree of a part by its finished
    # degrees; the others test the two finished ends of each edge
    capped = wsr or semi or reg
    counts = capped or first_cap > 0
    if not capped:
        incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(edges):
            incident[u].append((v, e))
            incident[v].append((u, e))
        # two ends joined only to each other have equal degrees in every part
        if locirr and any(all(w == v for w, _ in incident[u]) and all(w == u for w, _ in incident[v])
                          for u, v in edges):
            return None
    # a part fails at a fresh finished degree once it holds this many (a
    # semiregular part holding d and d + 1 admits no third)
    most_distinct = 1 if reg else 2 if capped else m + 1

    deg = [[0] * n for _ in range(top)]      # deg[p][w]: degree of w in part p
    cnt = [[0] * (m + 1) for _ in range(top)]  # cnt[p][d]: finished vertices of degree d in p
    distinct = [0] * top                     # distinct finished degrees in p
    lo = [0] * top                           # least and greatest of them
    hi = [0] * top
    cap = [m] * top                          # no partial degree in p may exceed cap[p]
    same_ends = [0] * top                    # finished edges of p with equal end degrees
    saved: list[tuple[int, int, int]] = []   # (lo, hi, cap) before each fresh degree
    fin = [False] * n                        # finished vertices, read by the edge tests
    part = [0] * m

    def finish(w: int) -> bool:
        """Marks w finished; False, with nothing changed, if a part breaks."""
        if counts:
            for p in range(k):
                d = deg[p][w]
                if d and not cnt[p][d]:
                    if distinct[p] >= most_distinct:
                        return False
                    if semi and distinct[p] and (d > lo[p] + 1 or d < hi[p] - 1):
                        return False
        else:  # locally regular or locally irregular
            for nbr, e in incident[w]:
                if fin[nbr]:
                    q = part[e]
                    if (deg[q][w] == deg[q][nbr]) is locirr:
                        return False
        if not capped:
            fin[w] = True
        if counts:
            for p in range(k):
                d = deg[p][w]
                if d:
                    c = cnt[p]
                    if not c[d]:
                        distinct[p] += 1
                        if capped:
                            saved.append((lo[p], hi[p], cap[p]))
                            if distinct[p] == 1:
                                lo[p] = hi[p] = d
                            elif d < lo[p]:
                                lo[p] = d
                            else:
                                hi[p] = d
                            # a partial degree only grows, so one above what
                            # the finished degrees still allow is fatal
                            if semi:
                                cap[p] = lo[p] + 1
                            elif reg:
                                cap[p] = lo[p]
                            elif distinct[p] == 2:
                                cap[p] = hi[p]
                    c[d] += 1
        if first_cap:
            for nbr, e in incident[w]:
                if fin[nbr]:
                    q = part[e]
                    if deg[q][w] == deg[q][nbr]:
                        same_ends[q] += 1
            for p in range(k):
                if same_ends[p] and distinct[p] > first_cap:
                    unfinish(w)
                    return False
        return True

    def unfinish(w: int) -> None:
        """Undoes the last successful finish, which was of w."""
        if first_cap:
            for nbr, e in incident[w]:
                if fin[nbr]:
                    q = part[e]
                    if deg[q][w] == deg[q][nbr]:
                        same_ends[q] -= 1
        if counts:
            for p in range(k - 1, -1, -1):
                d = deg[p][w]
                if d:
                    c = cnt[p]
                    c[d] -= 1
                    if not c[d]:
                        distinct[p] -= 1
                        if capped:
                            lo[p], hi[p], cap[p] = saved.pop()
        if not capped:
            fin[w] = False

    def place(i: int, used: int) -> bool:
        if i == m:
            return used == k
        if m - i < k - used:
            return False
        u, v, u_ends, v_ends = steps[i]
        for p in range(used + 1 if used < k else k):
            dp = deg[p]
            dp[u] += 1
            dp[v] += 1
            c = cap[p]
            if dp[u] <= c and dp[v] <= c:
                part[i] = p
                if not u_ends or finish(u):
                    if not v_ends or finish(v):
                        if place(i + 1, used if p < used else p + 1):
                            return True
                        if v_ends:
                            unfinish(v)
                    if u_ends:
                        unfinish(u)
            dp[u] -= 1
            dp[v] -= 1
        return False

    try:
        for k in range(2, top + 1):  # the part count the closures above read
            if place(0, 0):
                return k, part  # EdgePartition copies it once anyway
        return None
    finally:
        # place calls itself through its own closure cell; without this the
        # arrays would wait for the cycle collector
        del place


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees on n vertices, decoded from their sequence
    encodings.  Capped at n = 9."""
    if not 1 <= n <= 9:
        raise ValueError("tree enumeration supports 1 <= n <= 9")
    if n == 1:
        yield Graph(1, ())
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
