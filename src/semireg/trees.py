"""Tree edge-decomposition algorithms.

Three constructions on trees:

* an exact decision procedure for splitting a tree into c forests, forest
  k a (1,alphas[k])-forest: a top-down labelling pass, parents first, and
  only if it fails, one bottom-up pass that bans every label a parent edge
  cannot take and a second labelling pass.  Both passes call one vertex
  step: closed form at c = 2, the paper's two-forest split, so that split
  is O(n) per pair, and ``vertex_feasible`` for every other c.
  ``wrc_tree`` runs it on each covering parameter tuple of a tree with
  three or more distinct degrees, and ``wr2_tree`` is ``wrc_tree`` at c = 2;
* a binary-expansion labeling producing O(log max_degree) weakly
  semiregular forests, and the optimal semiregular decomposition into
  exactly ceil(max_degree / 2) parts.

Every construction roots the tree at vertex 0 by one leaf-peeling pass
and orders each vertex's downward edges by id; the split search reads
that pass as a ``RootedTree``.  Results are reproducible.
"""

from __future__ import annotations

import itertools
from typing import Callable, Collection, Iterator, Optional, Sequence

from .families import EdgePartition
from .graph import DegreeSet, Graph, RootedTree


def candidate_pairs(degrees: Sequence[int] | DegreeSet, max_degree: int) -> list[tuple[int, int]]:
    """All pairs (alpha, beta), alpha <= beta <= max_degree, whose combined
    per-vertex degree options cover the tree's degree set: the c = 2
    listing of ``_covering_tuples``.

    A vertex incident to both forests sees a degree in
    {1, 2, alpha, alpha+1, beta, beta+1, alpha+beta}; a degree set not
    contained in that union rules the pair out.  Eight or more distinct
    degrees rule out every pair.
    """
    return list(_covering_tuples(set(degrees), max_degree, 2))


def _covering_tuples(ds: Collection[int], delta: int, c: int) -> Iterator[tuple[int, ...]]:
    """The nondecreasing c-tuples over 1..delta, in
    ``combinations_with_replacement`` order, for which every degree in the
    set ``ds`` is a nonzero sum of one value from each {0, 1, alphas[k]}.

    A tree vertex's degree is the sum of its degrees in the c forests, so
    no other tuple can split the tree.  The c parts give at most
    (c + 2) * 2^(c - 1) - 1 distinct nonzero sums.  Sum sets are bit masks.
    """
    if 0 in ds or len(ds) > ((c + 2) << (c - 1)) - 1:
        return
    need = sum(1 << d for d in ds)
    for prefix in itertools.combinations_with_replacement(range(1, delta + 1), c - 1):
        sums = 1  # bit s: one value from each prefix part adds up to s
        for a in prefix:
            sums |= sums << 1 | sums << a
        rest = need & ~(sums | sums << 1)  # the degrees that need the last alpha
        # each is s + alpha for a prefix sum s: alpha is at most the least of
        # them, and shifted down by alpha they must all be prefix sums
        top = min(delta, (rest & -rest).bit_length() - 1) if rest else delta
        for a in range(prefix[-1] if prefix else 1, top + 1):
            if rest >> a & sums == rest >> a:
                yield prefix + (a,)


def vertex_feasible(
    free_slots: int,
    parent_color: Optional[int],
    forbidden: Sequence[int],
    targets: Sequence[Collection[int]],
) -> Optional[list[int]]:
    """Color the free downward edges at one vertex, or report impossibility.

    For each color k the total count at the vertex -- free edges given k,
    plus the parent edge if it carries k -- must land in ``targets[k]``.
    Free edge i may not take color k if bit k of the mask ``forbidden[i]``
    is set.  Returns one color per free slot, or None.

    The answer is deterministic: it meets the first target vector, in
    product order over the sorted target sets, that admits an assignment.
    Slots are placed in order, each on the lowest color with room; if no
    color has room, an augmenting reroute places the slot, and that reroute
    can move an earlier slot to a higher color.

    Enumerates the <= 3^c per-color target vectors and solves each exact
    assignment by augmenting paths, which replaces a general
    degree-constrained-subgraph routine for these single-vertex instances.
    It is the forest split's vertex step for c != 2.
    """
    c = len(targets)
    if len(forbidden) != free_slots:
        raise ValueError("one forbidden mask per free slot required")
    options = [sorted(set(t)) for t in targets]
    parent_add = [1 if parent_color == k else 0 for k in range(c)]
    for vector in itertools.product(*options):
        req = [vector[k] - parent_add[k] for k in range(c)]
        if any(r < 0 for r in req) or sum(req) != free_slots:
            continue
        assignment = _assign_exact(free_slots, forbidden, req)
        if assignment is not None:
            return assignment
    return None


def _assign_exact(slots: int, forbidden: Sequence[int], capacity: list[int]) -> Optional[list[int]]:
    """Assign each slot one color, exactly ``capacity[k]`` slots per color."""
    color_of = [-1] * slots
    holders: list[list[int]] = [[] for _ in capacity]
    for slot in range(slots):
        if not _place(slot, set(), forbidden, capacity, holders, color_of):
            return None
    return color_of


def _place(slot: int, visited: set[int], forbidden: Sequence[int], capacity: list[int],
           holders: list[list[int]], color_of: list[int]) -> bool:
    """Give ``slot`` a color for ``_assign_exact``: free capacity on the
    smallest color, else reroute a holder of an unvisited color."""
    c = len(capacity)
    for k in range(c):
        if forbidden[slot] >> k & 1:
            continue
        if len(holders[k]) < capacity[k]:
            holders[k].append(slot)
            color_of[slot] = k
            return True
    for k in range(c):
        if capacity[k] == 0 or k in visited or forbidden[slot] >> k & 1:
            continue
        visited.add(k)
        for idx, other in enumerate(holders[k]):
            if _place(other, visited, forbidden, capacity, holders, color_of):
                holders[k][idx] = slot
                color_of[slot] = k
                return True
    return False


def _require_rooted(t: Graph | RootedTree) -> RootedTree:
    return t if isinstance(t, RootedTree) else _rooted(t, *_peel(t, t.degrees()))


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
    if min(alphas) < 1:
        raise ValueError("alphas must be >= 1")
    return _split(_require_rooted(t), tuple(alphas))


def _two_step(alphas: tuple[int, ...]) -> Callable[..., bool]:
    """The c = 2 vertex step of ``_split``, closed form and O(deg v): counting
    the parent edge and the forced downward edges, take the smallest label-0
    degree in {0, 1, alphas[0]} whose complement lies in {0, 1, alphas[1]},
    and give the first free edges label 0, the rest label 1."""
    zero_targets = sorted({0, 1, alphas[0]})
    one_targets = {0, 1, alphas[1]}

    def step(edges, banned, p, labels):  # see _split; no annotations, as each split runs this def
        # counts by mask 0, 1, 2: free, forced to 1, forced to 0; the parent
        # edge counts as forced to its label
        counts = [0, 0, 0]
        for e in edges:
            counts[banned[e]] += 1
        if p is not None:
            counts[2 - p] += 1
        free, base1, base0 = counts
        for t0 in zero_targets:
            if 0 <= t0 - base0 <= free and free + base1 + base0 - t0 in one_targets:
                break
        else:
            return False
        if labels is not None:
            zeros = t0 - base0
            for e in edges:
                if banned[e]:
                    labels[e] = banned[e] & 1
                else:
                    labels[e] = 0 if zeros > 0 else 1
                    zeros -= 1
        return True

    return step


def _many_step(alphas: tuple[int, ...]) -> Callable[..., bool]:
    """The vertex step of ``_split`` for any c: ``vertex_feasible``, every
    downward edge a slot whose forbidden mask is its ban mask."""
    targets = [{0, 1, a} for a in alphas]

    def step(edges, banned, p, labels):
        colors = vertex_feasible(len(edges), p, [banned[e] for e in edges], targets)
        if colors is not None and labels is not None:
            for e, k in zip(edges, colors):
                labels[e] = k
        return colors is not None

    return step


def _split(rt: RootedTree, alphas: tuple[int, ...]) -> Optional[EdgePartition]:
    """The search behind both forest splits.

    A labelling pass labels the downward edges vertex by vertex, parents
    first, and stops at the first vertex it cannot complete.  Only if it
    fails, a ban pass walks the order backwards and bans on each parent
    edge (one bit of a per-edge mask) every label under which the vertex
    below cannot be completed, given the bans below it; then a second
    labelling pass runs.  Every ban is sound, so an edge with every label
    banned means no split exists, and in the second labelling pass only the
    root can fail, which also means no split exists.

    Both passes call one ``step(edges, banned, p, labels)``: can the vertex
    below a parent edge labelled ``p`` (None at the root) be completed,
    given the bans on its downward ``edges``?  If so, it writes their
    labels, unless ``labels`` is None.  A step reads only its parent edge's
    label and the bans below it, so any order with parents first gives the
    same split.
    """
    c = len(alphas)
    step = _two_step(alphas) if c == 2 else _many_step(alphas)
    down = rt.down
    parent_edge = rt.parent_edge
    banned = [0] * rt.graph.m
    for second in (False, True):
        labels = [-1] * rt.graph.m
        for v in rt.order:
            edges = down[v]
            if edges:  # a leaf fits: every target set holds 0 and 1
                pe = parent_edge[v]
                if not step(edges, banned, None if pe is None else labels[pe], labels):
                    break
        else:
            return EdgePartition(c, labels)  # it copies the list: a tuple here is one more copy
        if second:
            return None
        for v in reversed(rt.order):
            edges, pe = down[v], parent_edge[v]
            if edges and pe is not None:
                for p in range(c):
                    if not step(edges, banned, p, None):
                        banned[pe] |= 1 << p
                if banned[pe] == (1 << c) - 1:
                    return None


def wr2_tree(t: Graph) -> Optional[EdgePartition]:
    """Decide whether a tree splits into two weakly semiregular forests:
    ``wrc_tree`` at c = 2.  Returns a witness partition (2 parts, possibly
    one empty) or None."""
    return wrc_tree(t, 2)


def wrc_tree(t: Graph, c: int) -> Optional[EdgePartition]:
    """Decide whether a tree splits into at most c weakly semiregular forests.

    A tree with at most two distinct degrees is weakly semiregular as it
    stands, so every edge goes to part 0.  Otherwise this tries the
    nondecreasing c-tuples of forest parameters up to the maximum degree
    whose degree options cover the degree set, in order, and returns the
    first witness.  The peeling pass is the tree test; its result becomes a
    ``RootedTree`` only once some tuple covers the degree set.
    """
    if c < 1:
        raise ValueError("need c >= 1")
    deg = t.degrees()
    ds = set(deg)
    order, parent = _peel(t, deg)
    if len(ds) <= 2:  # n = 1 too; n = 0 fails the tree test
        return EdgePartition(c, (0,) * t.m)
    tuples = _covering_tuples(ds, max(ds), c)
    first = next(tuples, None)
    if first is None:
        return None
    rt = _rooted(t, order, parent)
    del deg, order, parent  # the tree keeps a tuple of the order: drop the lists before the search
    for alphas in itertools.chain((first,), tuples):
        if (result := partition_forests(rt, alphas)) is not None:
            return result
    return None


def _peel(t: Graph, deg: list[int]) -> tuple[list[int], list[int]]:
    """Root a tree at vertex 0 by peeling leaves, in flat int lists: the
    tree test ("input must be a tree").  ``deg`` is the tree's degree
    list, which the pass uses up.

    Each vertex keeps its count of unpeeled neighbours and the XOR of their
    ids, so a leaf's last neighbour is that XOR.  Returns ``order``, the
    other vertices in peeling order (reversed, parents come first), and
    ``parent``, each vertex's upper neighbour (0 at the root).
    """
    n, edges = t.n, t.edges
    if len(edges) != n - 1:
        raise ValueError("input must be a tree")
    last = [0] * n
    for a, b in edges:
        last[a] ^= b
        last[b] ^= a
    parent = [0] * n
    order = [v for v in range(1, n) if deg[v] == 1]
    for v in order:
        w = parent[v] = last[v]
        last[w] ^= v
        deg[w] -= 1
        if deg[w] == 1 and w:
            order.append(w)
    # No cycle is ever peeled.  Both ends of a root-free component's last
    # edge are queued; the second, with no neighbour left, reads 0 and
    # charges the root, which is never queued.  Such a component means
    # some other one holds a cycle, as m = n - 1.
    if len(order) != n - 1:
        raise ValueError("input must be a tree")
    return order, parent


def _ranks(t: Graph, parent: list[int]) -> tuple[list[int], list[int], list[int]]:
    """One pass over the edges of a peeled tree in id order: each edge's
    lower end, and per vertex its downward edge count and its parent
    edge's index among its parent's downward edges, which is its index in
    its parent's row of ``RootedTree.down``."""
    low = []
    count = [0] * t.n
    rank = [0] * t.n
    for a, b in t.edges:
        v = a if parent[a] == b else b
        u = parent[v]
        low.append(v)
        rank[v] = count[u]
        count[u] += 1
    return low, count, rank


def _rooted(t: Graph, order: list[int], parent: list[int]) -> RootedTree:
    """The ``RootedTree`` of a tree that ``_peel`` returned ``order`` and
    ``parent`` for; it reverses ``order`` in place.  Its order is the root,
    then the peeling order reversed, so parents come first; each vertex's
    downward edges are in id order, and leaves share one empty tuple."""
    low, count, rank = _ranks(t, parent)
    down = [[0] * k if k else () for k in count]
    del count
    parent_edge: list[Optional[int]] = [None] * t.n
    for e, v in enumerate(low):
        down[parent[v]][rank[v]] = parent_edge[v] = e
    del low, rank
    order.append(0)
    order.reverse()
    return RootedTree(t, tuple(parent_edge), tuple(order), down)


def log_tree_partition(t: Graph) -> EdgePartition:
    """Partition a tree into at most 2*floor(log2 D) + 2 weakly semiregular
    forests, D the maximum degree; every part is a (1, 2^j)-graph.

    Rooted at vertex 0, each vertex's downward edges, in id order, are cut
    into blocks by the binary expansion of their count, and each set bit j
    sends a block of 2^j edges to label j.  Vertices at even depth
    (including the root) use labels offset past every raw label while odd
    depths use raw labels, so a parent edge never lands in a label class
    its lower endpoint also feeds; that endpoint then has degree exactly 1
    there.  Labels are then renumbered in order from 0.
    """
    if t.m == 0:
        raise ValueError("tree has no edges")
    order, parent = _peel(t, t.degrees())
    low, count, rank = _ranks(t, parent)
    offset = max(count).bit_length()
    base = [offset] * t.n  # the label offset by depth parity
    for v in reversed(order):
        base[v] = offset - base[parent[v]]
    blocks = {}  # downward count -> the bit of each rank's block
    label = []
    for v in low:
        u = parent[v]
        k = count[u]
        if k not in blocks:
            blocks[k] = [j for j in range(k.bit_length()) if k >> j & 1 for _ in range(1 << j)]
        label.append(base[u] + blocks[k][rank[v]])

    used = sorted(set(label))
    remap = {lab: i for i, lab in enumerate(used)}
    return EdgePartition(len(used), tuple(remap[lab] for lab in label))


def sr_tree(t: Graph) -> EdgePartition:
    """Optimal semiregular decomposition of a tree: exactly
    ceil(max_degree / 2) parts, each with degrees in {1, 2}.

    Properly colors the edges with max-degree colors (trees are bipartite,
    so that many suffice), rooted at vertex 0 and parents first: downward
    edge i of a vertex, in id order, gets color i, or i + 1 once i reaches
    the color of the vertex's parent edge.  Then it merges color i with
    color i + ceil(D/2); each part is a union of at most two matchings.
    """
    if t.m == 0:
        raise ValueError("tree has no edges")
    order, parent = _peel(t, t.degrees())
    low, _, color = _ranks(t, parent)
    # color[v], first v's rank, becomes its parent edge's color; the
    # root's tops every rank
    color[0] = t.n
    for v in reversed(order):
        if color[v] >= color[parent[v]]:
            color[v] += 1
    colors = [color[v] for v in low]
    half = (max(colors) + 2) // 2  # the coloring uses exactly max_degree colors
    return EdgePartition(half, tuple(c if c < half else c - half for c in colors))
