"""The constructive algorithms at about 10^4 edges with almost no spare
recursion depth: any recursion in proportion to n or m fails here."""

import random
import sys

from semireg import (
    Family,
    Graph,
    bfs_root,
    four_regularize,
    log_tree_partition,
    partition_two_forests,
    sr_general,
    sr_tree,
    two_factorize,
    verify_partition,
    widen_degree_set,
    wr2_deg4,
    wr2_tree,
    wrc_tree,
)
from helpers import random_path_deg4_graph, walk_counting


def _caterpillar(spine: int, rng: random.Random) -> Graph:
    """A path with a leaf on about half its inner vertices: degree set
    {1, 2, 3}, so wr2_tree runs its pair search, at depth about n."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(1, spine - 1):
        if rng.random() < 0.5:
            edges.append((i, n))
            n += 1
    return Graph(n, tuple(edges))


def _planted_caterpillar(spine: int, rng: random.Random) -> Graph:
    """A path with leaves on its inner vertices, built around a hidden
    split into a matching (label 0) and a (1,3)-forest (label 1): each
    inner vertex draws the label of its next path edge and how many
    leaves of either label it gets, keeping its degree in label 0 in
    {0, 1} and in label 1 in {0, 1, 3}."""
    targets = ((0, 1), (0, 1, 3))
    edges = []
    n = spine
    up = None  # the label of the path edge above vertex i
    for i in range(spine - 1):
        have = [int(up == 0), int(up == 1)]
        up = rng.choice([lab for lab in (0, 1) if have[lab] < targets[lab][-1]])
        have[up] += 1
        edges.append((i, i + 1))
        for lab in (0, 1):
            for _ in range(rng.choice([t - have[lab] for t in targets[lab] if t >= have[lab]])):
                edges.append((i, n))
                n += 1
    return Graph(n, tuple(edges))


def _prism(n: int) -> Graph:
    """The 3-regular circular ladder on 2n vertices."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, tuple(edges))


def _depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_constructions_do_not_recurse_with_input_size():
    rng = random.Random(41)
    tree = _caterpillar(5000, rng)
    deg4 = random_path_deg4_graph(5000, rng)
    host, _ = four_regularize(random_path_deg4_graph(1000, rng))
    prism = _prism(3300)
    planted = bfs_root(_planted_caterpillar(5001, rng), 0)  # depth 5000
    counted = walk_counting(planted)
    calls = [
        lambda: sr_tree(tree),
        lambda: log_tree_partition(tree),
        lambda: wr2_tree(tree),
        lambda: wr2_tree(planted.graph),
        lambda: partition_two_forests(counted, 1, 3),
        lambda: sr_general(deg4),
        lambda: wr2_deg4(deg4),
        lambda: two_factorize(host),
        lambda: widen_degree_set(prism),
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 100)
    try:
        for call in calls:
            call()
    finally:
        sys.setrecursionlimit(limit)
    # the caterpillar's first labelling failed, so the ban pass ran too
    assert counted.order.walks == 3


def test_vertex_step_does_not_recurse_with_c():
    # star(3) with one subdivided edge: degrees {1, 2, 3}, so the split
    # runs and the vertex step sees 5000 target sets at the centre
    t = Graph(5, ((0, 1), (0, 2), (0, 3), (1, 4)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 100)
    try:
        p = wrc_tree(t, 5000)
    finally:
        sys.setrecursionlimit(limit)
    assert p is not None and verify_partition(t, p, Family.WEAKLY_SEMIREGULAR)
    assert p.k == 5000 and sum(1 for size in p.part_sizes() if size) == 3
    assert p.part == (4997, 4998, 4999, 4999)
