"""Acceptance suite.

One test per criterion, each at its stated tolerance (everything here is
exact).  Each test prints a single PASS line on success; a failure raises
with the criterion number in the message.  The exhaustive tree sweep in
criterion 1 is the long pole (a few minutes of CPU).
"""

import itertools
import math
import random

from semireg import (
    Family,
    OracleBudget,
    complement,
    complete,
    complete_bipartite,
    cycle,
    enumerate_trees,
    is_additive_coloring,
    log_tree_partition,
    oracle_min_parts,
    part_subgraph,
    partition_from_labels,
    path,
    rep_construct,
    rep_search,
    sr_general,
    sr_tree,
    star,
    verify_partition,
    verify_representation,
    vizing,
    widen_degree_set,
    wr2_deg4,
    wr2_tree,
    wr_lower_bound,
)
from helpers import (
    cubic_graphs_up_to_iso,
    free_trees_with_edges,
    is_proper_coloring,
    petersen,
    random_deg4_graph,
    random_simple_graph,
    random_tree,
)


def _ok(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def test_criterion_1_exhaustive_tree_agreement():
    budget = OracleBudget(max_edges=8, max_parts=2)
    disagreements = []
    count = 0
    for n in range(1, 9):
        for t in enumerate_trees(n):
            count += 1
            algorithmic = wr2_tree(t)
            exhaustive = oracle_min_parts(t, Family.WEAKLY_SEMIREGULAR, budget)
            if (algorithmic is None) != (exhaustive is None):
                disagreements.append((n, t.edges))
            elif algorithmic is not None:
                assert verify_partition(t, algorithmic, Family.WEAKLY_SEMIREGULAR), (
                    f"criterion 1 FAIL: witness rejected on {t.edges}"
                )
    assert not disagreements, f"criterion 1 FAIL: disagreements on {disagreements[:5]}"
    _ok(1, f"two-forest decision matches the oracle on all {count} labeled trees, n <= 8")


def test_criterion_2_tree_semiregular_number():
    trees = free_trees_with_edges(10)
    for t in trees:
        delta = max(t.degrees())
        expected = (delta + 1) // 2
        budget = OracleBudget(max_edges=10, max_parts=expected)
        got = oracle_min_parts(t, Family.SEMIREGULAR, budget)
        assert got is not None and got[0] == expected, (
            f"criterion 2 FAIL: oracle gives {got} on {t.edges}, expected {expected}"
        )
        built = sr_tree(t)
        assert built.k == expected and all(s > 0 for s in built.part_sizes()), (
            f"criterion 2 FAIL: construction emitted {built.k} parts on {t.edges}"
        )
        assert verify_partition(t, built, Family.SEMIREGULAR), (
            f"criterion 2 FAIL: construction invalid on {t.edges}"
        )
    _ok(2, f"semiregular number is ceil(max_degree/2) on all {len(trees)} trees with <= 10 edges")


def test_criterion_3_logarithmic_tree_bound():
    rng = random.Random(1003)
    for _ in range(1000):
        t = random_tree(rng.randrange(2, 201), rng)
        p = log_tree_partition(t)
        delta = max(t.degrees())
        bound = 2 * int(math.log2(delta)) + 2
        assert p.nonempty_parts() <= bound, (
            f"criterion 3 FAIL: {p.nonempty_parts()} parts exceed {bound}"
        )
        assert verify_partition(t, p, Family.WEAKLY_SEMIREGULAR)
        for i in range(p.k):
            degs = set(d for d in part_subgraph(t, p, i).degrees() if d)
            big = degs - {1}
            assert len(big) <= 1 and all(v & (v - 1) == 0 for v in big), (
                f"criterion 3 FAIL: part degrees {degs} are not a (1, power-of-two) set"
            )
    _ok(3, "binary-expansion split stays within 2*floor(log2 D) + 2 parts on 1000 trees, n <= 200")


def test_criterion_4_low_degree_two_part_split():
    rng = random.Random(1004)
    for _ in range(1000):
        g = random_deg4_graph(rng.randrange(2, 61), rng)
        p = wr2_deg4(g)
        assert p.k == 2
        for i in range(2):
            degs = set(d for d in part_subgraph(g, p, i).degrees() if d)
            assert degs <= {1, 2}, f"criterion 4 FAIL: part degrees {degs}"
    _ok(4, "degree-at-most-4 graphs split into two parts with degrees in {1,2}, 1000 graphs")


def test_criterion_5_general_semiregular_bound():
    rng = random.Random(1005)
    for _ in range(500):
        n = rng.randrange(2, 41)
        g = random_simple_graph(n, rng.randrange(1, n * (n - 1) // 2 + 1), rng)
        delta = max(g.degrees())
        coloring = vizing(g)
        assert is_proper_coloring(g, coloring), "criterion 5 FAIL: improper coloring"
        assert len(set(coloring)) <= delta + 1, "criterion 5 FAIL: too many colors"
        p = sr_general(g)
        assert p.k <= (delta + 2) // 2, (
            f"criterion 5 FAIL: {p.k} parts exceed ceil((D+1)/2) with D={delta}"
        )
        assert verify_partition(g, p, Family.SEMIREGULAR), "criterion 5 FAIL: invalid part"
    _ok(5, "fan-rotation coloring and paired color classes meet the bounds on 500 graphs, n <= 40")


def test_criterion_6_degree_spread_instances():
    for g in (complete(4), complete_bipartite(3, 3)):
        wide = widen_degree_set(g)
        assert sorted(set(wide.degrees())) == list(range(1, 10)), (
            "criterion 6 FAIL: degree set is not 1..9"
        )
        assert wr_lower_bound(wide) == 3, "criterion 6 FAIL: refined bound is not 3"
        assert wr_lower_bound(wide, coarse=True) == 2
    _ok(6, "widened instances have degree set 1..9 and counting bound 3 (no 2-part split)")


def test_criterion_7_additive_biconditional_exhaustive():
    reps = []
    for n in (4, 6, 8):
        reps.extend(cubic_graphs_up_to_iso(n))
    assert len(reps) == 9  # 1 + 2 + 6 representatives
    checked = 0
    for g in reps:
        for labels in itertools.product((1, 2), repeat=g.m):
            additive = is_additive_coloring(g, labels)
            split_ok = verify_partition(
                g, partition_from_labels(g, labels), Family.LOCALLY_IRREGULAR
            )
            assert additive == split_ok, (
                f"criterion 7 FAIL: labels {labels} on {g.edges}"
            )
            checked += 1
    _ok(7, f"additive labeling <=> locally irregular split on all {checked} labelings "
           f"of every cubic graph with <= 8 vertices")


def test_criterion_8_representation_numbers():
    assert rep_search(complete(2), 100).r == 2, "criterion 8 FAIL: rep(K2)"
    assert rep_search(complete(3), 100).r == 3, "criterion 8 FAIL: rep(K3)"
    from semireg import disjoint_union

    two_k2 = disjoint_union([complete(2), complete(2)])
    assert rep_search(two_k2, 100).r == 6, "criterion 8 FAIL: rep(2K2)"

    for g in (complement(petersen()), cycle(5)):
        rep, plan = rep_construct(g)
        assert verify_representation(g, rep), "criterion 8 FAIL: construction rejected"
        n = g.n
        for prime, matching in zip(plan.primes, plan.matchings):
            assert prime >= n - len(matching), "criterion 8 FAIL: prime below n - |M|"
            assert 2 * prime >= n, "criterion 8 FAIL: prime below n/2"
    _ok(8, "rep(K2)=2, rep(K3)=3, rep(2K2)=6; constructions verify with prime bounds")


def test_criterion_9_consistency_chain():
    rng = random.Random(1009)
    corpus = [
        path(5), cycle(4), cycle(5), star(4), complete(4),
        complete_bipartite(2, 3),
    ]
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = random_simple_graph(n, rng.randrange(1, min(10, n * (n - 1) // 2) + 1), rng)
        corpus.append(g)
    checked = 0
    for g in corpus:
        if g.m == 0:
            continue
        delta = max(g.degrees())
        budget = OracleBudget(max_edges=10, max_parts=(delta + 2) // 2)
        wr = oracle_min_parts(g, Family.WEAKLY_SEMIREGULAR, budget)
        srn = oracle_min_parts(g, Family.SEMIREGULAR, budget)
        assert srn is not None, f"criterion 9 FAIL: no semiregular split within bound on {g.edges}"
        assert wr is not None and wr[0] <= srn[0] <= (delta + 2) // 2, (
            f"criterion 9 FAIL: chain broken on {g.edges}: wr={wr}, sr={srn}"
        )
        checked += 1
    _ok(9, f"wr <= sr <= ceil((D+1)/2) on all {checked} corpus graphs")
