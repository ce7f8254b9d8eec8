import itertools
import math
import random
import sys

import pytest

from semireg import (
    EdgePartition,
    Family,
    Graph,
    RootedTree,
    bfs_root,
    candidate_pairs,
    cycle,
    degree_set,
    enumerate_trees,
    log_tree_partition,
    oracle_min_parts,
    partition_forests,
    partition_two_forests,
    part_subgraph,
    path,
    sr_tree,
    star,
    verify_partition,
    vertex_feasible,
    wr2_tree,
    wrc_tree,
)
from semireg import trees
from semireg.oracles import OracleBudget
from helpers import make_degree_tree, random_hub_tree, random_tree


def test_candidate_pairs():
    pairs = candidate_pairs((1, 3), 3)
    assert (1, 2) in pairs
    assert pairs == sorted(pairs)
    assert candidate_pairs(tuple(range(1, 9)), 8) == []
    assert (1, 1) in candidate_pairs((1,), 1)


def test_candidate_pairs_cover_necessary_condition():
    # any pair kept must cover the degree set, any pair dropped must not
    ds = (1, 2, 5)
    kept = set(candidate_pairs(ds, 5))
    for alpha in range(1, 6):
        for beta in range(alpha, 6):
            covered = set(ds) <= {1, 2, alpha, alpha + 1, beta, beta + 1, alpha + beta}
            assert ((alpha, beta) in kept) == covered


def test_vertex_feasible_examples():
    # five free edges, no parent: 1 + 4 split
    got = vertex_feasible(5, [0, 0], None, [frozenset()] * 5, [{0, 1, 1}, {0, 1, 4}])
    assert got == [0, 1, 1, 1, 1]

    # two free edges with one color whose counts allow only 0, 1, or 3
    assert vertex_feasible(2, [0], None, [frozenset()] * 2, [{0, 1, 3}]) is None

    # no free edges, parent carries color 0
    assert vertex_feasible(0, [0], 0, [], [{0, 1, 4}]) == []


def test_vertex_feasible_respects_forbidden_sets():
    got = vertex_feasible(2, [0, 0], None, [{0}, set()], [{0, 1}, {0, 1}])
    assert got == [1, 0]
    assert vertex_feasible(2, [0, 0], None, [{0}, {0}], [{0, 2}, {0, 1}]) is None


def test_partition_two_forests_star():
    k15 = star(5)
    rt = bfs_root(k15, 0)
    p = partition_two_forests(rt, 1, 4)
    assert p is not None
    assert verify_partition(k15, p, Family.WEAKLY_SEMIREGULAR)
    sizes = p.part_sizes()
    assert sizes == [1, 4]
    assert set(d for d in part_subgraph(k15, p, 0).degrees() if d) <= {1, 1}
    assert set(d for d in part_subgraph(k15, p, 1).degrees() if d) <= {1, 4}

    assert partition_two_forests(rt, 1, 1) is None


def test_partition_two_forests_single_edge():
    p2 = path(2)
    assert partition_two_forests(bfs_root(p2, 0), 1, 1) is not None


def test_partition_two_forests_rejects_non_tree():
    with pytest.raises(ValueError):
        partition_two_forests(cycle(4), 1, 2)


def test_forest_split_parts_hit_their_degree_targets():
    rng = random.Random(17)
    for _ in range(100):
        t = random_tree(rng.randrange(2, 14), rng)
        delta = max(degree_set(t))
        alpha = rng.randrange(1, delta + 1)
        beta = rng.randrange(alpha, delta + 1)
        p = partition_two_forests(t, alpha, beta)
        if p is None:
            continue
        for i, bound in ((0, alpha), (1, beta)):
            degs = set(d for d in part_subgraph(t, p, i).degrees() if d)
            assert degs <= {1, bound}


def _reference_two_forests(rt, alpha, beta):
    """The two-forest split with the general vertex step: one
    ``vertex_feasible`` call per vertex, forced edges counted apart."""
    m = rt.graph.m
    down = rt.child_edges()
    targets = ({0, 1, alpha}, {0, 1, beta})
    forced = [-1] * m
    while True:
        labels = [-1] * m
        for v in rt.order:
            pe = rt.parent_edge[v]
            parent_color = labels[pe] if pe is not None else None
            forced_counts = [0, 0]
            free = []
            for e in down[v]:
                if forced[e] != -1:
                    forced_counts[forced[e]] += 1
                else:
                    free.append(e)
            colors = vertex_feasible(
                len(free), forced_counts, parent_color, [frozenset()] * len(free), targets
            )
            if colors is None:
                if pe is None or forced[pe] != -1:
                    return None
                forced[pe] = 1 - labels[pe]
                break
            it = iter(colors)
            for e in down[v]:
                labels[e] = forced[e] if forced[e] != -1 else next(it)
        else:
            return tuple(labels)


def _witness_pinning_trees():
    for n in range(2, 7):
        yield from enumerate_trees(n)
    rng = random.Random(53)
    for _ in range(200):
        yield random_tree(rng.randrange(2, 41), rng)
    for k in range(3, 9):
        yield make_degree_tree(k)
    for _ in range(14):
        yield random_hub_tree(rng.randrange(12, 41), rng.randrange(1, 4), rng)


def test_two_forest_witnesses_match_general_vertex_step():
    for t in _witness_pinning_trees():
        rt = bfs_root(t, 0)
        ds = degree_set(t)
        for alpha, beta in candidate_pairs(ds, max(ds)):
            got = partition_two_forests(rt, alpha, beta)
            assert (None if got is None else got.part) == _reference_two_forests(rt, alpha, beta)


def test_partition_forests_examples():
    k17 = star(7)
    p = partition_forests(k17, (1, 2, 4))
    assert p is not None
    assert sorted(p.part_sizes()) == [1, 2, 4]
    assert verify_partition(k17, p, Family.WEAKLY_SEMIREGULAR)

    assert partition_forests(path(3), (1,)) is None
    assert partition_forests(path(3), (2,)) is not None


def _two_way_agreement_trees():
    # the c-way loop with a forbidden-set vertex step gave (1, 0, 0, 0, 0, 0)
    # here, the two-forest split (0, 0, 1, 0, 0, 0)
    yield Graph(7, ((2, 0), (3, 0), (4, 0), (0, 1), (5, 1), (1, 6))), 3, 4
    rng = random.Random(29)
    for _ in range(1000):
        t = random_tree(rng.randrange(2, 31), rng)
        delta = max(degree_set(t))
        alpha = rng.randrange(1, delta + 1)
        yield t, alpha, rng.randrange(alpha, delta + 1)


def test_two_way_agreement_on_random_trees():
    for t, alpha, beta in _two_way_agreement_trees():
        two = partition_two_forests(t, alpha, beta)
        many = partition_forests(t, (alpha, beta))
        assert (None if two is None else two.part) == (None if many is None else many.part)


def _reference_forests(t, alphas):
    """The c-way split as a loop of its own: per-edge forbidden sets, every
    downward edge a ``vertex_feasible`` slot, and no stop when an edge's set
    fills up."""
    c = len(alphas)
    if c < 1:
        raise ValueError("need at least one part")
    if any(a < 1 for a in alphas):
        raise ValueError("alphas must be >= 1")
    rt = t if isinstance(t, RootedTree) else bfs_root(t, 0)
    g = rt.graph
    if g.m == 0:
        return EdgePartition(c, ())
    down = rt.child_edges()
    targets = [{0, 1, a} for a in alphas]
    zeros = [0] * c

    forbid: list[set[int]] = [set() for _ in range(g.m)]
    restarts = 0
    while True:
        labels = [-1] * g.m
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


def _forest_pinning_trees():
    for n in range(1, 7):
        yield from enumerate_trees(n)
    rng = random.Random(59)
    for _ in range(60):
        yield random_tree(rng.randrange(2, 16), rng)


@pytest.mark.parametrize("c", [1, 3])
def test_partition_forests_matches_reference_loop(c):
    for t in _forest_pinning_trees():
        rt = bfs_root(t, 0)
        delta = max(degree_set(t), default=1)
        for alphas in itertools.combinations_with_replacement(range(1, delta + 1), c):
            assert partition_forests(rt, alphas) == _reference_forests(rt, alphas)


def test_partition_forests_stops_when_an_edge_has_every_label_banned(monkeypatch):
    # K_{1,4} rooted at a leaf: the centre fails under each of the three
    # labels of the root edge, and the third failure bans its last label
    t = Graph(5, ((0, 1), (2, 1), (3, 1), (1, 4)))
    calls = {"n": 0}
    step = vertex_feasible

    def counting(*args):
        calls["n"] += 1
        return step(*args)

    monkeypatch.setattr(trees, "vertex_feasible", counting)
    assert partition_forests(t, (1, 1, 1)) is None
    stopped_after = calls["n"]
    monkeypatch.setattr(sys.modules[__name__], "vertex_feasible", counting)
    calls["n"] = 0
    assert _reference_forests(t, (1, 1, 1)) is None
    # the reference takes one more pass, in which the root fails
    assert calls["n"] == stopped_after + 1


def test_wr2_tree_small_degree_set_shortcut():
    for t in (path(6), star(4), path(2)):
        p = wr2_tree(t)
        assert p is not None and p.k == 2
        assert verify_partition(t, p, Family.WEAKLY_SEMIREGULAR)


def test_wr2_tree_eight_distinct_degrees_is_no():
    t = make_degree_tree(8)
    assert degree_set(t) == tuple(range(1, 9))
    assert wr2_tree(t) is None


def test_wr2_tree_spider():
    # three legs of length two: degree set {1, 2, 3}
    spider = Graph(7, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)))
    p = wr2_tree(spider)
    budget = OracleBudget(max_edges=6, max_parts=2)
    oracle = oracle_min_parts(spider, Family.WEAKLY_SEMIREGULAR, budget)
    assert p is not None and oracle is not None
    assert verify_partition(spider, p, Family.WEAKLY_SEMIREGULAR)


def test_wr2_tree_rejects_non_tree():
    with pytest.raises(ValueError):
        wr2_tree(cycle(5))


@pytest.mark.parametrize(
    "g",
    [
        Graph(4, ((0, 1), (1, 2), (2, 0))),  # triangle plus an isolated vertex
        Graph(3, ((0, 1), (0, 1))),  # doubled edge plus an isolated vertex
    ],
)
def test_non_trees_with_tree_edge_count_are_rejected(g):
    assert g.m == g.n - 1
    calls = (
        # roots in the component with the cycle and at the isolated vertex
        *(lambda r=root: bfs_root(g, r) for root in range(g.n)),
        lambda: wr2_tree(g),
        lambda: wrc_tree(g, 2),
        lambda: sr_tree(g),
        lambda: log_tree_partition(g),
        lambda: partition_forests(g, (1, 2)),
    )
    for call in calls:
        with pytest.raises(ValueError, match="input must be a tree"):
            call()


def test_wrc_tree_with_one_part():
    for t in enumerate_trees(6):
        assert (wrc_tree(t, 1) is not None) == (len(degree_set(t)) <= 2)


def test_wrc_tree_two_parts_matches_wr2():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert (wrc_tree(t, 2) is None) == (wr2_tree(t) is None)


def test_wrc_tree_three_parts_star():
    assert wrc_tree(star(3), 3) is not None


def test_log_tree_partition_star():
    k15 = star(5)
    p = log_tree_partition(k15)
    assert sorted(p.part_sizes()) == [1, 4]
    for i in range(p.k):
        degs = set(d for d in part_subgraph(k15, p, i).degrees() if d)
        assert degs in ({1}, {1, 4})


def test_log_tree_partition_single_edge():
    p = log_tree_partition(path(2))
    assert p.k == 1


def test_log_tree_partition_path():
    # both edges of a path of length two meet at a degree-2 middle vertex;
    # parity of the labeling must keep them in distinct parts
    p3 = path(3)
    p = log_tree_partition(p3)
    assert p.nonempty_parts() == 2
    for i in range(p.k):
        degs = set(d for d in part_subgraph(p3, p, i).degrees() if d)
        assert degs == {1}


def _assert_power_classes(t, p):
    delta = max(t.degrees())
    assert p.nonempty_parts() <= 2 * int(math.log2(delta)) + 2
    for i in range(p.k):
        degs = set(d for d in part_subgraph(t, p, i).degrees() if d)
        big = degs - {1}
        assert len(big) <= 1
        if big:
            val = big.pop()
            assert val & (val - 1) == 0  # power of two


def test_log_tree_partition_perfect_binary_tree():
    edges = []
    for v in range(1, 15):
        edges.append(((v - 1) // 2, v))
    t = Graph(15, tuple(edges))
    p = log_tree_partition(t)
    assert verify_partition(t, p, Family.WEAKLY_SEMIREGULAR)
    _assert_power_classes(t, p)


def test_log_tree_partition_random_trees():
    rng = random.Random(41)
    for _ in range(150):
        t = random_tree(rng.randrange(2, 40), rng)
        p = log_tree_partition(t)
        assert verify_partition(t, p, Family.WEAKLY_SEMIREGULAR)
        _assert_power_classes(t, p)


def test_sr_tree_star():
    k15 = star(5)
    p = sr_tree(k15)
    assert p.k == 3
    assert sorted(p.part_sizes()) == [1, 2, 2]
    assert verify_partition(k15, p, Family.SEMIREGULAR)


def test_sr_tree_path():
    p = sr_tree(path(4))
    assert p.k == 1
    assert verify_partition(path(4), p, Family.SEMIREGULAR)


def test_sr_tree_random():
    rng = random.Random(43)
    for _ in range(200):
        t = random_tree(rng.randrange(2, 20), rng)
        delta = max(t.degrees())
        p = sr_tree(t)
        assert p.k == (delta + 1) // 2
        assert all(s > 0 for s in p.part_sizes())
        assert verify_partition(t, p, Family.SEMIREGULAR)


def test_sr_tree_max_degree_seven():
    t = make_degree_tree(7)
    assert max(t.degrees()) == 7
    p = sr_tree(t)
    assert p.k == 4
    assert verify_partition(t, p, Family.SEMIREGULAR)


def test_sr_tree_optimal_on_small_trees():
    rng = random.Random(47)
    for _ in range(25):
        t = random_tree(rng.randrange(2, 9), rng)
        delta = max(t.degrees())
        expected = (delta + 1) // 2
        budget = OracleBudget(max_edges=8, max_parts=max(expected, 1))
        got = oracle_min_parts(t, Family.SEMIREGULAR, budget)
        assert got is not None and got[0] == expected
