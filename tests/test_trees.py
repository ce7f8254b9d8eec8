import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from semireg import (
    EdgePartition,
    Family,
    Graph,
    RootedTree,
    bfs_root,
    candidate_pairs,
    classify,
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
from helpers import (
    cyclic_garbage,
    free_trees_with_edges,
    make_degree_tree,
    planted_tree,
    random_hub_tree,
    random_tree,
    reference_bfs_root,
    walk_counting,
)


def test_candidate_pairs():
    pairs = candidate_pairs((1, 3))
    assert (1, 2) in pairs
    assert pairs == sorted(pairs)
    assert candidate_pairs(tuple(range(1, 9))) == []
    assert (1, 1) in candidate_pairs((1,))
    assert candidate_pairs(()) == []


def test_candidate_pairs_cover_necessary_condition():
    # any pair kept must cover the degree set, any pair dropped must not
    ds = (1, 2, 5)
    kept = set(candidate_pairs(ds))
    for alpha in range(1, 6):
        for beta in range(alpha, 6):
            covered = set(ds) <= {1, 2, alpha, alpha + 1, beta, beta + 1, alpha + beta}
            assert ((alpha, beta) in kept) == covered


def test_vertex_feasible_examples():
    # five free edges, no parent: 1 + 4 split
    got = vertex_feasible(None, [0] * 5, [{0, 1, 1}, {0, 1, 4}])
    assert got == [0, 1, 1, 1, 1]

    # two free edges with one color whose counts allow only 0, 1, or 3
    assert vertex_feasible(None, [0] * 2, [{0, 1, 3}]) is None

    # no free edges, parent carries color 0
    assert vertex_feasible(0, [], [{0, 1, 4}]) == []

    # no colors at all: the one empty target vector colors nothing
    assert vertex_feasible(None, [], []) == []


def test_vertex_feasible_respects_forbidden_sets():
    # bit k of a slot's mask bans color k
    got = vertex_feasible(None, [0b1, 0], [{0, 1}, {0, 1}])
    assert got == [1, 0]
    assert vertex_feasible(None, [0b1, 0b1], [{0, 2}, {0, 1}]) is None
    # the last slot takes only color 0, held by then: the reroute moves
    # slot 0 up to color 2, so the answer is not [1, 2, 0], the
    # lexicographically smallest
    assert vertex_feasible(None, [0, 0, 0b110], [{0, 1}] * 3) == [2, 1, 0]
    # the reroute passes over color 0, which the last slot may not take
    assert vertex_feasible(None, [0, 0, 0b101], [{0, 1}] * 3) == [0, 2, 1]


def _first_feasible_vector(free_slots, parent_color, forbidden, targets):
    """The first per-colour count vector, in product order over the sorted
    target sets, that some colouring of the free slots meets within the
    bans, or None: every colouring enumerated, nothing read from the tree
    module."""
    c = len(targets)
    met = set()
    for colouring in itertools.product(range(c), repeat=free_slots):
        if not any(forbidden[i] >> k & 1 for i, k in enumerate(colouring)):
            met.add(tuple(colouring.count(k) + (parent_color == k) for k in range(c)))
    return next((v for v in itertools.product(*map(sorted, targets)) if v in met), None)


def test_vertex_feasible_matches_brute_force():
    rng = random.Random(71)
    for _ in range(3000):
        c = rng.randint(1, 4)
        slots = rng.randint(0, 5)
        forbidden = [rng.getrandbits(c) & rng.getrandbits(c) for _ in range(slots)]
        parent = rng.choice([None, *range(c)])
        targets = [{0, 1, rng.randint(1, 6)} for _ in range(c)]
        got = vertex_feasible(parent, forbidden, targets)
        first = _first_feasible_vector(slots, parent, forbidden, targets)
        if first is None:
            assert got is None
        else:
            assert got is not None and len(got) == slots
            assert not any(forbidden[i] >> k & 1 for i, k in enumerate(got))
            assert tuple(got.count(k) + (parent == k) for k in range(c)) == first


def test_vertex_feasible_leaves_no_cyclic_garbage():
    # both calls reach the exact slot assignment: one succeeds, one fails
    assert cyclic_garbage(lambda: vertex_feasible(None, [0] * 5, [{0, 1, 1}, {0, 1, 4}])) == 0
    assert cyclic_garbage(lambda: vertex_feasible(None, [0b1, 0b1], [{0, 2}, {0, 1}])) == 0


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
    ``vertex_feasible`` call per vertex, forced edges counted apart by
    shifting the targets down."""
    m = rt.graph.m
    down = rt.down
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
            shifted = [{t - f for t in ts if t >= f} for ts, f in zip(targets, forced_counts)]
            colors = vertex_feasible(parent_color, [0] * len(free), shifted)
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
        for alpha, beta in candidate_pairs(ds):
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

    # a single vertex has no downward edge: the first pass gives empty parts
    single = Graph(1, ())
    assert partition_forests(single, (1, 2, 3)) == EdgePartition(3, ())
    assert partition_two_forests(single, 1, 1) == EdgePartition(2, ())


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
    down = rt.down
    targets = [{0, 1, a} for a in alphas]

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
                parent_color, [sum(1 << k for k in forbid[e]) for e in edges], targets,
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


def _count_vertex_steps(monkeypatch, *modules):
    """Swap a call-counting ``vertex_feasible`` into each module."""
    calls = {"n": 0}
    step = vertex_feasible

    def counting(*args):
        calls["n"] += 1
        return step(*args)

    for module in modules:
        monkeypatch.setattr(module, "vertex_feasible", counting)
    return calls


def test_partition_forests_stops_when_an_edge_has_every_label_banned(monkeypatch):
    # K_{1,4} rooted at a leaf: the labelling pass fails at the centre, the
    # ban pass finds the centre failing under each of the three labels of
    # the root edge, and the search stops there without another pass
    t = Graph(5, ((0, 1), (2, 1), (3, 1), (1, 4)))
    calls = _count_vertex_steps(monkeypatch, trees, sys.modules[__name__])
    assert partition_forests(t, (1, 1, 1)) is None
    stopped_after = calls["n"]
    # the root, the failing centre, and one call per banned label
    assert stopped_after == 5
    calls["n"] = 0
    assert _reference_forests(t, (1, 1, 1)) is None
    assert stopped_after < calls["n"]


@pytest.mark.parametrize("alpha, beta", [(1, 3), (3, 5)])
def test_two_forest_split_of_a_planted_tree_walks_it_three_times(alpha, beta):
    # the first labelling fails, so the ban pass and a second labelling
    # run; a search that relabels after each ban walked a planted (1,3)
    # tree on 5000 vertices 124 times
    rt = walk_counting(bfs_root(planted_tree(20000, alpha, beta, random.Random(7)), 0))
    p = partition_two_forests(rt, alpha, beta)
    assert p is not None
    assert verify_partition(rt.graph, p, Family.WEAKLY_SEMIREGULAR)
    assert rt.order.walks == 3


def test_forest_split_of_a_planted_tree_takes_linear_vertex_steps(monkeypatch):
    calls = _count_vertex_steps(monkeypatch, trees)
    n, alphas = 5000, (1, 3, 5)
    rt = walk_counting(bfs_root(planted_tree(n, 3, 5, random.Random(7)), 0))
    p = partition_forests(rt, alphas)
    assert p is not None
    assert verify_partition(rt.graph, p, Family.WEAKLY_SEMIREGULAR)
    assert rt.order.walks == 3
    assert calls["n"] <= (len(alphas) + 2) * n


def test_wr2_tree_small_degree_set_shortcut():
    for t in (path(6), star(4), path(2)):
        p = wr2_tree(t)
        assert p is not None and p.k == 2
        assert verify_partition(t, p, Family.WEAKLY_SEMIREGULAR)


def test_wr2_tree_eight_distinct_degrees_is_no():
    t = make_degree_tree(8)
    assert degree_set(t) == tuple(range(1, 9))
    assert wr2_tree(t) is None


def test_wr2_tree_agrees_with_the_oracle_on_every_free_tree_up_to_15_edges():
    # the smallest trees with wr(T) = 3 have 14 edges; up to 15 edges
    # there are 17, and every one splits into three forests
    wsr = Family.WEAKLY_SEMIREGULAR
    budget = OracleBudget(max_edges=16, max_parts=2)
    no = 0
    for t in free_trees_with_edges(15):
        witness = wr2_tree(t)
        assert (witness is None) == (oracle_min_parts(t, wsr, budget) is None)
        if witness is None:
            no += 1
            witness = wrc_tree(t, 3)
            assert witness is not None
        assert verify_partition(t, witness, wsr)
    assert no == 17


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
        # peeling from both ends of the disjoint edge leaves no root there
        Graph(5, ((0, 1), (1, 2), (2, 0), (3, 4))),
        Graph(5, ((1, 2), (2, 3), (3, 1), (3, 4))),  # cycle plus pendant, isolated root
        Graph(4, ((0, 1), (0, 1), (1, 2))),  # doubled edge plus pendant and isolated vertex
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
        lambda: trees._peel(g, g.degrees()),
    )
    for call in calls:
        with pytest.raises(ValueError, match="input must be a tree"):
            call()


def test_peeling_pass_is_the_tree_test_on_every_small_multigraph():
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for edges in itertools.combinations_with_replacement(pairs, n - 1):
            g = Graph(n, edges)
            if classify(g).is_tree:
                order, parent = trees._peel(g, g.degrees())
                assert sorted(order) == list(range(1, n))
                assert parent[1:] == list(reference_bfs_root(g, 0)[0][1:])
                placed = {0}  # reversed, the order puts parents first
                for v in reversed(order):
                    assert parent[v] in placed
                    placed.add(v)
            else:
                with pytest.raises(ValueError, match="input must be a tree"):
                    trees._peel(g, g.degrees())


def test_empty_and_one_vertex_graphs_at_the_tree_test():
    empty, single = Graph(0, ()), Graph(1, ())
    peel = lambda g: trees._peel(g, g.degrees())
    for call in (peel, wr2_tree, lambda g: wrc_tree(g, 2), lambda g: bfs_root(g, 0)):
        with pytest.raises(ValueError, match="input must be a tree"):
            call(empty)
    for g in (empty, single):
        for call in (sr_tree, log_tree_partition):
            with pytest.raises(ValueError, match="tree has no edges"):
                call(g)
    assert peel(single) == ([], [0])
    assert wr2_tree(single) == EdgePartition(2, ())
    assert wrc_tree(single, 3) == EdgePartition(3, ())


@pytest.mark.parametrize("max_degree", [8, 12])
def test_wr2_tree_without_a_covering_pair_roots_no_bfs_tree(monkeypatch, max_degree):
    def no_rooted_tree(*args):
        raise AssertionError("RootedTree built")

    monkeypatch.setattr(trees, "_rooted", no_rooted_tree)
    t = make_degree_tree(max_degree)
    assert len(degree_set(t)) == max_degree
    assert wr2_tree(t) is None
    assert wrc_tree(t, 2) is None
    # the peeling pass is then the tree test: a disjoint triangle fails it
    n = t.n
    g = Graph(n + 3, t.edges + ((n, n + 1), (n + 1, n + 2), (n + 2, n)))
    assert g.m == g.n - 1
    for call in (wr2_tree, lambda g: wrc_tree(g, 2)):
        with pytest.raises(ValueError, match="input must be a tree"):
            call(g)


# the smallest trees that split into no two forests have 14 edges; this
# one has the single covering pair (3, 5)
_NO_TREE_WITH_A_COVERING_PAIR = Graph(15, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
                                           (1, 9), (1, 14), (9, 10), (9, 11), (9, 12), (9, 13)))


@pytest.mark.parametrize("t", [make_degree_tree(8), make_degree_tree(12), star(6), path(7),
                               planted_tree(60, 2, 3, random.Random(3)), _NO_TREE_WITH_A_COVERING_PAIR],
                         ids=["eight-degrees", "twelve-degrees", "star", "path", "planted", "no-with-pair"])
def test_tree_deciders_compute_degrees_once(monkeypatch, t):
    calls = []
    built = []
    degrees = Graph.degrees
    rooted = trees._rooted

    def counted(g):
        calls.append(g)
        return degrees(g)

    def counted_rooted(g, order, parent):
        built.append(g)
        return rooted(g, order, parent)

    ds = degree_set(t)
    covered = len(ds) > 2 and bool(candidate_pairs(ds))  # the decider then roots the tree once
    monkeypatch.setattr(Graph, "degrees", counted)
    monkeypatch.setattr(trees, "_rooted", counted_rooted)
    witness = wr2_tree(t)
    assert len(calls) == 1
    assert len(built) == covered
    if len(ds) <= 2:
        assert witness == EdgePartition(2, (0,) * t.m)
    elif not covered:
        assert witness is None
    calls.clear()
    built.clear()
    assert wrc_tree(t, 2) == witness
    assert len(calls) == 1
    assert len(built) == covered


def test_wrc_tree_with_one_part():
    for t in enumerate_trees(6):
        assert (wrc_tree(t, 1) is not None) == (len(degree_set(t)) <= 2)


def test_wrc_tree_two_parts_matches_wr2():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert (wrc_tree(t, 2) is None) == (wr2_tree(t) is None)


def test_wrc_tree_three_parts_star():
    assert wrc_tree(star(3), 3) is not None


def test_wrc_tree_puts_a_two_degree_tree_in_one_part_for_every_c():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            if len(set(t.degrees())) <= 2:
                for c in (1, 2, 3, 5000):
                    assert wrc_tree(t, c) == EdgePartition(c, (0,) * t.m)
    # decided with no tuple search, which takes seconds here
    assert wrc_tree(star(24), 25) == EdgePartition(25, (0,) * 24)


def test_covering_tuples_are_the_tuples_whose_sums_cover_the_degrees():
    rng = random.Random(61)
    for _ in range(300):
        delta = rng.randrange(1, 10)
        ds = set(rng.sample(range(delta + 3), rng.randrange(min(delta + 3, 9) + 1)))
        if rng.random() < 0.8:
            ds.discard(0)
        for c in (1, 2, 3):
            expected = [
                alphas
                for alphas in itertools.combinations_with_replacement(range(1, delta + 1), c)
                if ds <= {sum(pick) for pick in itertools.product(*((0, 1, a) for a in alphas))} - {0}
            ]
            assert list(trees._covering_tuples(ds, delta, c)) == expected


def _reference_candidate_pairs(degrees, max_degree):
    """``candidate_pairs`` before the shared covering generator, verbatim."""
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


def _reference_wr2_tree(t):
    """``wr2_tree`` with its own pair loop, verbatim."""
    rt = bfs_root(t, 0)
    ds = degree_set(t)
    if len(ds) <= 2:
        return EdgePartition(2, (0,) * t.m)
    delta = max(ds)
    for alpha, beta in _reference_candidate_pairs(ds, delta):
        result = partition_two_forests(rt, alpha, beta)
        if result is not None:
            return result
    return None


def _reference_wrc_tree(t, c):
    """``wrc_tree`` over every c-tuple with no covering filter, after the
    two-degree shortcut of ``_reference_wr2_tree``."""
    if c < 1:
        raise ValueError("need c >= 1")
    rt = bfs_root(t, 0)
    ds = degree_set(t)
    if len(ds) <= 2:
        return EdgePartition(c, (0,) * t.m)
    delta = max(ds)
    for alphas in itertools.combinations_with_replacement(range(1, delta + 1), c):
        result = partition_forests(rt, alphas)
        if result is not None:
            return result
    return None


def test_wr2_tree_matches_reference_loop():
    corpus = itertools.chain(_forest_pinning_trees(), enumerate_trees(7))
    for t in corpus:
        assert wr2_tree(t) == _reference_wr2_tree(t)


@pytest.mark.parametrize("c", [1, 2, 3])
def test_wrc_tree_matches_reference_loop(c):
    for t in _forest_pinning_trees():
        assert wrc_tree(t, c) == _reference_wrc_tree(t, c)


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


def _reference_log_tree_partition(t):
    """``log_tree_partition`` over the reference BFS rooting's child lists
    and depths, verbatim."""
    if t.m == 0:
        raise ValueError("tree has no edges")
    _, _, depth, order, down = reference_bfs_root(t, 0)
    delta = max(t.degrees())
    offset = delta.bit_length() - 1 + 1  # floor(log2 delta) + 1

    label = [-1] * t.m
    for v in order:
        edges = down[v]
        # the binary value is d(v) at the root and d(v)-1 elsewhere, which
        # is the downward edge count either way
        value = len(edges)
        base = offset if depth[v] % 2 == 0 else 0
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


def _reference_sr_tree(t):
    """``sr_tree`` over ``bfs_root``'s child lists, verbatim."""
    if t.m == 0:
        raise ValueError("tree has no edges")
    rt = bfs_root(t, 0)
    down = rt.down
    color = [-1] * t.m
    for v in rt.order:
        kids = down[v]
        if kids:
            pe = rt.parent_edge[v]
            taken = len(kids) if pe is None else color[pe]
            for i, e in enumerate(kids):
                color[e] = i if i < taken else i + 1
    half = (max(color) + 2) // 2  # the coloring uses exactly max_degree colors
    return EdgePartition(half, tuple(c if c < half else c - half for c in color))


def _assert_constructions_match_reference(t):
    assert sr_tree(t) == _reference_sr_tree(t)
    assert log_tree_partition(t) == _reference_log_tree_partition(t)


def test_tree_constructions_match_reference_on_every_small_labeled_tree():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            _assert_constructions_match_reference(t)


def _shuffle(t, rng):
    """``t`` with relabeled vertices, reordered edges and flipped endpoints,
    so vertex 0 and the edge ids fall anywhere."""
    ids = rng.sample(range(t.n), t.n)
    edges = [(ids[v], ids[u]) if rng.random() < 0.5 else (ids[u], ids[v]) for u, v in t.edges]
    rng.shuffle(edges)
    return Graph(t.n, tuple(edges))


@st.composite
def _shuffled_trees(draw):
    """Random labeled trees, shuffled."""
    n = draw(st.integers(2, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return _shuffle(random_tree(n, rng), rng)


@settings(max_examples=300, deadline=None)
@given(_shuffled_trees())
def test_tree_constructions_match_reference_on_shuffled_trees(t):
    _assert_constructions_match_reference(t)


def test_tree_constructions_match_reference_on_stars_paths_and_hub_trees():
    rng = random.Random(61)
    shapes = [star(k) for k in range(1, 40)]
    shapes += [Graph(k + 1, tuple((i, k) for i in range(k))) for k in range(1, 40)]  # center k
    shapes += [path(n) for n in range(2, 40)]
    shapes += [random_hub_tree(n, hubs, rng) for n in (40, 300, 3000) for hubs in (1, 3, 8)]
    for t in shapes:
        _assert_constructions_match_reference(t)


@st.composite
def _shuffled_split_trees(draw):
    """Planted (2,3) and (3,5) trees, hub trees and random trees, shuffled."""
    n = draw(st.integers(3, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["planted-2-3", "planted-3-5", "hub", "random"]))
    if kind == "planted-2-3":
        t = planted_tree(n, 2, 3, rng)
    elif kind == "planted-3-5":
        t = planted_tree(n, 3, 5, rng)
    elif kind == "hub":
        t = random_hub_tree(n, rng.randrange(1, 4), rng)
    else:
        t = random_tree(n, rng)
    return _shuffle(t, rng)


@settings(max_examples=30, deadline=None)
@given(_shuffled_split_trees())
def test_split_over_the_peeled_tree_matches_the_bfs_rooted_tree(t):
    # the two parents-first orders differ, yet every step reads only its
    # parent edge's label and the bans below it; about one tuple in five
    # gives NO
    rt = bfs_root(t, 0)
    ds = degree_set(t)
    for c in (2, 3):
        for alphas in itertools.islice(trees._covering_tuples(ds, max(ds), c), 20):
            assert partition_forests(t, alphas) == partition_forests(rt, alphas)
