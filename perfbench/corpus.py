"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain data: a graph
is ``(n, edges)`` with ``edges`` a list of ``(u, v)`` pairs, a formula is a
list of clauses.  Nothing here imports ``semireg``, so the program under
test only ever sees the generated files and objects.  Apart from the
exhaustive tree enumeration, every generator runs in time near-linear in
the size of what it returns.
"""

from __future__ import annotations

import heapq
import itertools
import random

Edges = list[tuple[int, int]]


def graph_text(n: int, edges: Edges) -> str:
    """The edge-list file format: header ``n m``, then one ``u v`` per edge."""
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def partition_text(k: int, part: list[int]) -> str:
    """The partition file format: header ``k m``, then ``edge_id part_id``."""
    return f"{k} {len(part)}\n" + "".join(f"{e} {q}\n" for e, q in enumerate(part))


def _relabel(n: int, edges: Edges, rng: random.Random) -> Edges:
    """Random vertex names and edge order, so no structure hides in the ids."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def decode_pruefer(n: int, seq: list[int]) -> Edges:
    """Labeled tree of a Pruefer sequence over 0..n-1 (length n - 2)."""
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        edges.append((heapq.heappop(leaves), s))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def pruefer_tree(n: int, rng: random.Random) -> Edges:
    """Uniform random labeled tree on n >= 2 vertices."""
    return decode_pruefer(n, [rng.randrange(n) for _ in range(n - 2)])


def all_labeled_trees(n: int):
    """Every labeled tree on n >= 1 vertices, n^(n-2) of them."""
    if n <= 2:
        yield [(0, 1)] if n == 2 else []
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield decode_pruefer(n, list(seq))


def planted_tree(n: int, alpha: int, beta: int, rng: random.Random) -> tuple[Edges, list[int]]:
    """Tree on n >= 2 vertices grown around a hidden split into a
    (1, alpha)-forest (label 0) and a (1, beta)-forest (label 1).

    Every vertex draws a label-0 degree from {0, 1, alpha} and a label-1
    degree from {0, 1, beta}, its parent edge counting towards its own
    label; draws that overrun the vertex budget are left out, and a leaf is
    always possible, so the hidden labels are a valid split.  Returns the
    edges and the hidden label of each edge.
    """
    targets = ((0, 1, alpha), (0, 1, beta))
    while True:
        edges: Edges = []
        labels: list[int] = []
        queue = [(0, -1)]  # (vertex, label of its parent edge)
        head = 0
        nxt = 1
        while head < len(queue) and nxt < n:
            v, up = queue[head]
            head += 1
            for lab in (0, 1):
                have = 1 if up == lab else 0
                options = [t - have for t in targets[lab] if 0 <= t - have <= n - nxt]
                if up == -1 and lab == 1 and nxt == 1:
                    options = [c for c in options if c > 0]  # the root needs a child
                for _ in range(rng.choice(options)):
                    edges.append((v, nxt))
                    labels.append(lab)
                    queue.append((nxt, lab))
                    nxt += 1
        if nxt == n:
            break  # otherwise the tree died out early: grow it again
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    return (
        [(perm[edges[i][0]], perm[edges[i][1]]) for i in order],
        [labels[i] for i in order],
    )


def caterpillar_graft(n: int, top: int, rng: random.Random) -> Edges:
    """Random tree on n vertices whose degree set contains 1..top.

    A caterpillar with hubs of degree 2..top is joined by one edge to a
    uniform random tree on the remaining vertices.  With top >= 9 the degree
    set has at least 9 values, more than the 3^2 - 1 = 8 that two weakly
    semiregular parts can produce, so the two-forest answer is NO.
    """
    hubs = top - 1
    cat: Edges = [(i, i + 1) for i in range(hubs - 1)]
    deg = [0] * hubs
    for u, v in cat:
        deg[u] += 1
        deg[v] += 1
    deg[0] += 1  # the graft edge lands on hub 0
    nxt = hubs
    for i in range(hubs):
        for _ in range(i + 2 - deg[i]):
            cat.append((i, nxt))
            nxt += 1
    rest = n - nxt
    if rest < 2:
        raise ValueError(f"n = {n} too small for a caterpillar up to degree {top}")
    body = [(u + nxt, v + nxt) for u, v in pruefer_tree(rest, rng)]
    edges = cat + body + [(0, nxt + rng.randrange(rest))]
    return _relabel(n, edges, rng)


def simple_graph(n: int, m: int, rng: random.Random) -> Edges:
    """Uniform random simple graph with n vertices and m edges (m well below
    n(n-1)/2), by rejection of repeated pairs."""
    seen: set[tuple[int, int]] = set()
    edges: Edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v))
    return edges


def deg4_graph(n: int, rng: random.Random) -> Edges:
    """Random simple graph with minimum degree >= 1 and maximum degree <= 4.

    A random near-perfect matching gives every vertex degree 1; the spare
    capacity of every vertex is then paired at random, skipping loops and
    repeated pairs, so most vertices end with degree 3 or 4.
    """
    order = list(range(n))
    rng.shuffle(order)
    seen: set[tuple[int, int]] = set()
    deg = [0] * n

    def add(u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen or deg[u] >= 4 or deg[v] >= 4:
            return False
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
        return True

    for i in range(0, n - 1, 2):
        add(order[i], order[i + 1])
    if n % 2:
        add(order[-1], order[0])
    stubs = [v for v in range(n) for _ in range(4 - deg[v])]
    rng.shuffle(stubs)
    for i in range(0, len(stubs) - 1, 2):
        add(stubs[i], stubs[i + 1])
    return _relabel(n, sorted(seen), rng)


def deg4_union(n: int, block: int, rng: random.Random) -> Edges:
    """Disjoint union of n // block random ``deg4_graph`` blocks, relabeled
    as one graph so the blocks' vertices interleave.  Keeping every
    component small bounds how deep ``wr2-deg4`` recurses."""
    edges: Edges = []
    for start in range(0, n, block):
        edges += [(start + u, start + v) for u, v in deg4_graph(block, rng)]
    return _relabel(n, edges, rng)


def cycle_complement(n: int) -> Edges:
    """Complement of the cycle 0-1-...-(n-1)-0; its complement (the cycle)
    is triangle-free and 2-regular, so it has a constructive
    representation."""
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 2, n)
        if not (u == 0 and v == n - 1)
    ]


def cubic_graph(n: int, rng: random.Random) -> Edges:
    """Random simple 3-regular graph on an even n >= 8: a random Hamiltonian
    cycle plus a random perfect matching of chords.

    A chord that would repeat a cycle edge or another chord is swapped with
    a random partner's chord until none does.
    """
    if n % 2 or n < 8:
        raise ValueError("cubic graph needs an even n >= 8")
    ring = list(range(n))
    rng.shuffle(ring)
    pos = {v: i for i, v in enumerate(ring)}

    def on_ring(u: int, v: int) -> bool:
        return (pos[u] - pos[v]) % n in (1, n - 1)

    mate = list(range(n))
    rng.shuffle(mate)
    pairs = [[mate[i], mate[i + 1]] for i in range(0, n, 2)]
    while True:
        seen: set[tuple[int, int]] = set()
        bad = []
        for i, (u, v) in enumerate(pairs):
            key = (min(u, v), max(u, v))
            if on_ring(u, v) or key in seen:
                bad.append(i)
            seen.add(key)
        if not bad:
            break
        for i in bad:
            j = rng.randrange(len(pairs))
            pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    edges = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    edges += [(u, v) for u, v in pairs]
    return _relabel(n, edges, rng)


def planted_nae(num_vars: int, rng: random.Random) -> tuple[list[tuple[int, int, int]], list[bool]]:
    """Cubic monotone 3-clause formula with a hidden not-all-equal assignment.

    num_vars is even.  Half the variables are true under the hidden
    assignment; each variable occurs in exactly three clauses, and every
    clause mixes true and false variables: half the clauses are
    two-true-one-false, half one-true-two-false.  Returns the clauses and
    the hidden assignment.
    """
    if num_vars % 2 or num_vars < 4:
        raise ValueError("planted NAE formula needs an even num_vars >= 4")
    names = list(range(num_vars))
    rng.shuffle(names)
    h = num_vars // 2
    hidden = [x in set(names[:h]) for x in range(num_vars)]
    while True:
        ts = [x for x in names[:h] for _ in range(3)]
        fs = [x for x in names[h:] for _ in range(3)]
        rng.shuffle(ts)
        rng.shuffle(fs)
        clauses = [(ts[2 * i], ts[2 * i + 1], fs[i]) for i in range(h)]
        clauses += [(ts[2 * h + i], fs[h + 2 * i], fs[h + 2 * i + 1]) for i in range(h)]
        if all(len(set(cl)) == 3 for cl in clauses):
            break
    rng.shuffle(clauses)
    return clauses, hidden
