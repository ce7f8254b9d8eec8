"""Tree edge-decomposition algorithms.

Three constructions on trees:

* an exact decision procedure for splitting a tree into a (1,alpha)-forest
  and a (1,beta)-forest, with a restart-and-force search over BFS order;
  its vertex step is closed form, O(deg v), so one pass is O(n);
* its c-way generalization driven by per-edge forbidden-color sets, whose
  vertex step (``vertex_feasible``) searches target vectors;
* a binary-expansion labeling producing O(log max_degree) weakly
  semiregular forests, and the optimal semiregular decomposition into
  exactly ceil(max_degree / 2) parts.

All scans run over the BFS order rooted at vertex 0 with ties broken by
vertex id, so results are reproducible.
"""

from __future__ import annotations

import itertools
from typing import Collection, Optional, Sequence

from .families import EdgePartition
from .graph import DegreeSet, Graph, RootedTree, bfs_root, degree_set

_FREE = -1


def candidate_pairs(degrees: Sequence[int] | DegreeSet, max_degree: int) -> list[tuple[int, int]]:
    """All pairs (alpha, beta), alpha <= beta <= max_degree, whose combined
    per-vertex degree options cover the tree's degree set.

    A vertex incident to both forests sees a degree in
    {1, 2, alpha, alpha+1, beta, beta+1, alpha+beta}; a degree set not
    contained in that union rules the pair out.  Eight or more distinct
    degrees rule out every pair.
    """
    ds = set(degrees)
    if len(ds) >= 8:
        return []
    out = []
    for alpha in range(1, max_degree + 1):
        for beta in range(alpha, max_degree + 1):
            allowed = {1, 2, alpha, alpha + 1, beta, beta + 1, alpha + beta}
            if ds <= allowed:
                out.append((alpha, beta))
    return out


def vertex_feasible(
    free_slots: int,
    forced_counts: Sequence[int],
    parent_color: Optional[int],
    forbidden: Sequence[Collection[int]],
    targets: Sequence[Collection[int]],
) -> Optional[list[int]]:
    """Color the free downward edges at one vertex, or report impossibility.

    For each color k the total count at the vertex -- free edges given k,
    plus already-forced edges, plus the parent edge if it carries k -- must
    land in ``targets[k]``.  Free edge i may not take a color in
    ``forbidden[i]``.  Returns one color per free slot (deterministically
    the lexicographically smallest feasible target vector, filling low
    slots with low colors first), or None.

    Enumerates the <= 3^c per-color target vectors and solves each exact
    assignment by augmenting paths, which replaces a general
    degree-constrained-subgraph routine for these single-vertex instances.
    This is the vertex step of the c-way split ``partition_forests``; the
    two-forest split, which has no forbidden sets, uses a closed form.
    """
    c = len(targets)
    if len(forced_counts) != c:
        raise ValueError("forced_counts and targets must have equal length")
    if len(forbidden) != free_slots:
        raise ValueError("one forbidden set per free slot required")
    if free_slots == 0 and c == 0:
        return []
    options = [sorted(set(t)) for t in targets]
    parent_add = [1 if parent_color == k else 0 for k in range(c)]
    for vector in itertools.product(*options):
        req = [vector[k] - forced_counts[k] - parent_add[k] for k in range(c)]
        if any(r < 0 for r in req) or sum(req) != free_slots:
            continue
        assignment = _assign_exact(free_slots, forbidden, req)
        if assignment is not None:
            return assignment
    return None


def _assign_exact(slots: int, forbidden: Sequence[Collection[int]], capacity: list[int]) -> Optional[list[int]]:
    """Assign each slot one color, exactly ``capacity[k]`` slots per color."""
    c = len(capacity)
    color_of = [-1] * slots
    holders: list[list[int]] = [[] for _ in range(c)]

    def place(slot: int, visited: set[int]) -> bool:
        # prefer free capacity on the smallest color, then reroute
        for k in range(c):
            if k in forbidden[slot]:
                continue
            if len(holders[k]) < capacity[k]:
                holders[k].append(slot)
                color_of[slot] = k
                return True
        for k in range(c):
            if capacity[k] == 0 or k in visited or k in forbidden[slot]:
                continue
            visited.add(k)
            for idx, other in enumerate(holders[k]):
                if place(other, visited):
                    holders[k][idx] = slot
                    color_of[slot] = k
                    return True
        return False

    for slot in range(slots):
        if not place(slot, set()):
            return None
    return color_of


def _require_rooted(t: Graph | RootedTree) -> RootedTree:
    return t if isinstance(t, RootedTree) else bfs_root(t, 0)


def partition_two_forests(t: Graph | RootedTree, alpha: int, beta: int) -> Optional[EdgePartition]:
    """Split a tree into a (1,alpha)-forest (part 0) and a (1,beta)-forest
    (part 1), or return None if impossible.

    Each pass labels downward edges vertex by vertex.  The vertex step is
    closed form, O(deg v), so one pass is O(n): with the parent edge's
    label and the forced downward edges counted, it takes the smallest
    label-0 degree in {0, 1, alpha} whose complement lies in {0, 1, beta},
    and gives the first free edges label 0 and the rest label 1 (the
    choice ``vertex_feasible`` makes with no forbidden sets).  When a
    vertex cannot be completed, the current label of its parent edge is
    provably wrong, so the opposite label is recorded as forced and the
    pass restarts; a forced edge failing again is final.  At most one edge
    is forced per restart, so the number of passes is bounded by m+1.
    """
    if not (1 <= alpha <= beta):
        raise ValueError("need 1 <= alpha <= beta")
    rt = _require_rooted(t)
    g = rt.graph
    if g.m == 0:
        return EdgePartition(2, ())
    down = rt.child_edges()
    zero_targets = sorted({0, 1, alpha})
    one_targets = {0, 1, beta}

    forced = [_FREE] * g.m
    restarts = 0
    while True:
        labels = [_FREE] * g.m
        broke = False
        for v in rt.order:
            pe = rt.parent_edge[v]
            base = [0, 0]
            if pe is not None:
                base[labels[pe]] += 1
            free = 0
            for e in down[v]:
                if forced[e] == _FREE:
                    free += 1
                else:
                    base[forced[e]] += 1
            total = free + base[0] + base[1]
            zeros = -1
            for t0 in zero_targets:
                if 0 <= t0 - base[0] <= free and total - t0 in one_targets:
                    zeros = t0 - base[0]
                    break
            if zeros < 0:
                if pe is None or forced[pe] != _FREE:
                    return None
                forced[pe] = 1 - labels[pe]
                restarts += 1
                assert restarts <= g.m, "restart bound exceeded"
                broke = True
                break
            for e in down[v]:
                if forced[e] != _FREE:
                    labels[e] = forced[e]
                elif zeros:
                    labels[e] = 0
                    zeros -= 1
                else:
                    labels[e] = 1
        if not broke:
            return EdgePartition(2, tuple(labels))


def partition_forests(t: Graph | RootedTree, alphas: Sequence[int]) -> Optional[EdgePartition]:
    """Split a tree into c forests, forest k a (1, alphas[k])-forest, or None.

    Same restart discipline as the two-forest case, except failures grow a
    per-edge forbidden-color set instead of forcing a single label, so the
    pass count is bounded by c*m + 1.
    """
    c = len(alphas)
    if c < 1:
        raise ValueError("need at least one part")
    if any(a < 1 for a in alphas):
        raise ValueError("alphas must be >= 1")
    rt = _require_rooted(t)
    g = rt.graph
    if g.m == 0:
        return EdgePartition(c, ())
    down = rt.child_edges()
    targets = [{0, 1, a} for a in alphas]
    zeros = [0] * c

    forbid: list[set[int]] = [set() for _ in range(g.m)]
    restarts = 0
    while True:
        labels = [_FREE] * g.m
        broke = False
        for v in rt.order:
            pe = rt.parent_edge[v]
            parent_color = labels[pe] if pe is not None else None
            edges = down[v]
            colors = vertex_feasible(
                len(edges), zeros, parent_color,
                [forbid[e] for e in edges], targets,
            )
            if colors is None:
                if pe is None:
                    return None
                if labels[pe] in forbid[pe]:
                    return None
                forbid[pe].add(labels[pe])
                restarts += 1
                assert restarts <= c * g.m, "restart bound exceeded"
                broke = True
                break
            for e, k in zip(edges, colors):
                labels[e] = k
        if not broke:
            return EdgePartition(c, tuple(labels))


def wr2_tree(t: Graph) -> Optional[EdgePartition]:
    """Decide whether a tree splits into two weakly semiregular forests.

    Returns a witness partition (2 parts, possibly one empty) or None.
    Trees with at most two distinct degrees are weakly semiregular as they
    stand; otherwise every candidate (alpha, beta) pair is tried in order.
    """
    rt = bfs_root(t, 0)
    ds = degree_set(t)
    if len(ds) <= 2:
        return EdgePartition(2, (0,) * t.m)
    delta = max(ds)
    for alpha, beta in candidate_pairs(ds, delta):
        result = partition_two_forests(rt, alpha, beta)
        if result is not None:
            return result
    return None


def wrc_tree(t: Graph, c: int) -> Optional[EdgePartition]:
    """Decide whether a tree splits into at most c weakly semiregular forests.

    Tries every nondecreasing c-tuple of forest parameters up to the
    maximum degree and returns the first witness.
    """
    if c < 1:
        raise ValueError("need c >= 1")
    rt = bfs_root(t, 0)
    if t.m == 0:
        return EdgePartition(c, ())
    delta = max(degree_set(t))
    for alphas in itertools.combinations_with_replacement(range(1, delta + 1), c):
        result = partition_forests(rt, alphas)
        if result is not None:
            return result
    return None


def log_tree_partition(t: Graph) -> EdgePartition:
    """Partition a tree into at most 2*floor(log2 D) + 2 weakly semiregular
    forests, D the maximum degree; every part is a (1, 2^j)-graph.

    Downward edge counts are written in binary and each set bit j sends a
    block of 2^j edges to label j.  Vertices at even depth (including the
    root) use labels offset by floor(log2 D) + 1 while odd depths use raw
    labels, so a parent edge never lands in a label class its lower
    endpoint also feeds; that endpoint then has degree exactly 1 there.
    """
    if t.m == 0:
        raise ValueError("tree has no edges")
    rt = bfs_root(t, 0)
    down = rt.child_edges()
    delta = max(t.degrees())
    offset = delta.bit_length() - 1 + 1  # floor(log2 delta) + 1

    label = [-1] * t.m
    for v in rt.order:
        edges = down[v]
        # the binary value is d(v) at the root and d(v)-1 elsewhere, which
        # is the downward edge count either way
        value = len(edges)
        base = offset if rt.depth[v] % 2 == 0 else 0
        pos = 0
        bit = 0
        while value:
            if value & 1:
                for _ in range(1 << bit):
                    label[edges[pos]] = base + bit
                    pos += 1
            value >>= 1
            bit += 1
        assert pos == len(edges)

    used = sorted(set(label))
    remap = {lab: i for i, lab in enumerate(used)}
    return EdgePartition(len(used), tuple(remap[lab] for lab in label))


def _greedy_tree_coloring(rt: RootedTree) -> list[int]:
    """Proper edge coloring of a tree with exactly max-degree colors."""
    g = rt.graph
    down = rt.child_edges()
    color = [-1] * g.m
    for v in rt.order:
        pe = rt.parent_edge[v]
        taken = color[pe] if pe is not None else -1
        nxt = 0
        for e in down[v]:
            if nxt == taken:
                nxt += 1
            color[e] = nxt
            nxt += 1
    return color


def sr_tree(t: Graph) -> EdgePartition:
    """Optimal semiregular decomposition of a tree: exactly
    ceil(max_degree / 2) parts, each with degrees in {1, 2}.

    Properly colors the edges with max-degree colors (trees are bipartite,
    so that many suffice), then merges color i with color i + ceil(D/2);
    each part is a union of at most two matchings.
    """
    if t.m == 0:
        raise ValueError("tree has no edges")
    rt = bfs_root(t, 0)
    color = _greedy_tree_coloring(rt)
    delta = max(t.degrees())
    half = (delta + 1) // 2
    return EdgePartition(half, tuple(c if c < half else c - half for c in color))
