"""Tree edge-decomposition algorithms.

Three constructions on trees:

* an exact decision procedure for splitting a tree into c forests, forest
  k a (1,alphas[k])-forest, with one restart-and-ban search over BFS
  order; the two-forest split of the paper is its c = 2 case, whose vertex
  step is closed form, O(deg v), so one pass is O(n), while every other c
  takes ``vertex_feasible``, which searches target vectors;
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
    This is the vertex step of the forest-split search for c != 2; the
    c = 2 step is closed form.
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
    (part 1), or return None if impossible: the c = 2 case of ``_split``."""
    if not (1 <= alpha <= beta):
        raise ValueError("need 1 <= alpha <= beta")
    return _split(_require_rooted(t), (alpha, beta))


def partition_forests(t: Graph | RootedTree, alphas: Sequence[int]) -> Optional[EdgePartition]:
    """Split a tree into c forests, forest k a (1, alphas[k])-forest, or None.
    For c = 2 this is ``partition_two_forests``, witnesses included."""
    if len(alphas) < 1:
        raise ValueError("need at least one part")
    if any(a < 1 for a in alphas):
        raise ValueError("alphas must be >= 1")
    return _split(_require_rooted(t), tuple(alphas))


class _LabelSets(dict):
    """Banned-label sets by mask, each built on first use."""

    def __missing__(self, mask: int) -> frozenset[int]:
        labels = self[mask] = frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)
        return labels


def _split(rt: RootedTree, alphas: tuple[int, ...]) -> Optional[EdgePartition]:
    """The restart-and-ban search behind both forest splits.

    Each pass labels the downward edges vertex by vertex in BFS order.  When
    a vertex cannot be completed, the current label of its parent edge is
    provably wrong, so it is banned there (one bit of a per-edge mask) and
    the pass restarts.  A failing root, or an edge with every label banned,
    means no split exists; an edge survives at most c - 1 bans, so there
    are at most (c - 1)*m restarts.

    For c = 2 the vertex step is closed form, O(deg v), so a pass is O(n):
    counting the parent edge and the forced downward edges, it takes the
    smallest label-0 degree in {0, 1, alphas[0]} whose complement lies in
    {0, 1, alphas[1]}, and gives the first free edges label 0 and the rest
    label 1.  Any other c takes ``vertex_feasible``, every downward edge a
    slot whose forbidden set is its banned labels.
    """
    c = len(alphas)
    m = rt.graph.m
    if m == 0:
        return EdgePartition(c, ())
    down = rt.child_edges()
    full = (1 << c) - 1
    two = c == 2
    if two:
        zero_targets = sorted({0, 1, alphas[0]})
        one_targets = {0, 1, alphas[1]}
    else:
        targets = [{0, 1, a} for a in alphas]
        no_forced = [0] * c
        label_sets = _LabelSets()

    parent_edge = rt.parent_edge
    banned = [0] * m
    restarts = 0
    while True:
        labels = [-1] * m
        for v in rt.order:
            edges = down[v]
            if not edges:
                continue  # a leaf fits: every target set holds 0 and 1
            pe = parent_edge[v]
            if two:
                # counts by mask 0, 1, 2: free, forced to 1, forced to 0;
                # the parent edge counts as forced to its label
                counts = [0, 0, 0]
                for e in edges:
                    counts[banned[e]] += 1
                if pe is not None:
                    counts[2 - labels[pe]] += 1
                free, base1, base0 = counts
                total = free + base0 + base1
                zeros = -1
                for t0 in zero_targets:
                    if 0 <= t0 - base0 <= free and total - t0 in one_targets:
                        zeros = t0 - base0
                        break
                if zeros >= 0:
                    for e in edges:
                        b = banned[e]
                        if b:
                            labels[e] = b & 1
                        elif zeros:
                            labels[e] = 0
                            zeros -= 1
                        else:
                            labels[e] = 1
                    continue
            else:
                parent_color = labels[pe] if pe is not None else None
                colors = vertex_feasible(
                    len(edges), no_forced, parent_color,
                    [label_sets[banned[e]] for e in edges], targets,
                )
                if colors is not None:
                    for e, k in zip(edges, colors):
                        labels[e] = k
                    continue
            if pe is None:
                return None
            banned[pe] |= 1 << labels[pe]
            if banned[pe] == full:
                return None
            restarts += 1
            assert restarts <= (c - 1) * m, "restart bound exceeded"
            break
        else:
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
    """Proper edge coloring of a tree with exactly max-degree colors: child
    edge i of a vertex gets color i, or i + 1 once i reaches the color of
    the vertex's parent edge."""
    down = rt.child_edges()
    color = [-1] * rt.graph.m
    for v in rt.order:
        kids = down[v]
        if kids:
            pe = rt.parent_edge[v]
            taken = len(kids) if pe is None else color[pe]
            for i, e in enumerate(kids):
                color[e] = i if i < taken else i + 1
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
    color = _greedy_tree_coloring(bfs_root(t, 0))
    half = (max(color) + 2) // 2  # the coloring uses exactly max_degree colors
    return EdgePartition(half, tuple(c if c < half else c - half for c in color))
