import random

import pytest

from semireg import (
    BudgetError,
    Family,
    Graph,
    OracleBudget,
    classify,
    complete,
    cycle,
    enumerate_trees,
    is_family,
    oracle_min_parts,
    oracle_mixed,
    path,
    star,
    verify_partition,
    wr_lower_bound,
)
from helpers import random_simple_graph


def test_examples():
    got = oracle_min_parts(path(4), Family.WEAKLY_SEMIREGULAR)
    assert got is not None and got[0] == 1

    got = oracle_min_parts(star(5), Family.SEMIREGULAR)
    assert got is not None and got[0] == 3

    pendant = Graph(5, ((0, 1), (0, 2), (0, 3), (1, 4)))
    got = oracle_min_parts(pendant, Family.WEAKLY_SEMIREGULAR)
    assert got is not None and got[0] == 2


def test_min_parts_one_iff_family_member():
    rng = random.Random(211)
    for _ in range(80):
        g = random_simple_graph(rng.randrange(2, 8), rng.randrange(1, 9), rng)
        for fam in Family:
            got = oracle_min_parts(g, fam, OracleBudget(max_edges=10, max_parts=3))
            if got is not None and got[0] == 1:
                assert is_family(g, fam)
            elif is_family(g, fam):
                assert got is not None and got[0] == 1


def test_witness_verifies():
    rng = random.Random(223)
    for _ in range(60):
        g = random_simple_graph(rng.randrange(2, 8), rng.randrange(1, 9), rng)
        for fam in (Family.WEAKLY_SEMIREGULAR, Family.SEMIREGULAR, Family.LOCALLY_IRREGULAR):
            got = oracle_min_parts(g, fam, OracleBudget(max_edges=10, max_parts=3))
            if got is not None:
                k, witness = got
                assert witness.k == k
                assert witness.nonempty_parts() == k
                assert verify_partition(g, witness, fam)


def test_monotone_in_max_parts():
    rng = random.Random(227)
    for _ in range(30):
        g = random_simple_graph(rng.randrange(2, 7), rng.randrange(1, 8), rng)
        wsr = Family.WEAKLY_SEMIREGULAR
        small = oracle_min_parts(g, wsr, OracleBudget(max_edges=10, max_parts=2))
        large = oracle_min_parts(g, wsr, OracleBudget(max_edges=10, max_parts=4))
        if small is not None:
            assert large is not None and large[0] == small[0]
        elif large is not None:
            assert large[0] > 2


def test_budget_guards():
    big = complete(7)  # 21 edges
    with pytest.raises(BudgetError):
        oracle_min_parts(big, Family.WEAKLY_SEMIREGULAR, OracleBudget(max_edges=16, max_parts=2))
    with pytest.raises(ValueError):
        OracleBudget(max_edges=30)
    with pytest.raises(ValueError):
        OracleBudget(max_parts=0)


def test_reports_above_max_parts():
    # a single edge has no locally irregular partition at all
    budget = OracleBudget(max_edges=4, max_parts=3)
    assert oracle_min_parts(path(2), Family.LOCALLY_IRREGULAR, budget) is None


def test_locally_irregular_on_small_graphs():
    got = oracle_min_parts(path(3), Family.LOCALLY_IRREGULAR)
    assert got is not None and got[0] == 1
    got = oracle_min_parts(star(3), Family.LOCALLY_IRREGULAR)
    assert got is not None and got[0] == 1


def test_reg_irr_and_mixed():
    got = oracle_min_parts(cycle(4), Family.REGULAR_OR_LOCALLY_IRREGULAR)
    assert got is not None and got[0] == 1
    got = oracle_mixed(star(6))
    assert got is not None and got[0] == 1  # a star is weakly semiregular
    got = oracle_min_parts(path(2), Family.REGULAR_OR_LOCALLY_IRREGULAR)
    assert got is not None and got[0] == 1  # a single edge is regular


def test_wr_oracle_respects_counting_bound():
    rng = random.Random(229)
    for _ in range(40):
        g = random_simple_graph(rng.randrange(2, 8), rng.randrange(1, 10), rng)
        if g.m == 0 or min(g.degrees()) == 0:
            continue
        budget = OracleBudget(max_edges=10, max_parts=4)
        got = oracle_min_parts(g, Family.WEAKLY_SEMIREGULAR, budget)
        if got is not None:
            assert got[0] >= wr_lower_bound(g)


def test_enumerate_trees():
    assert len(list(enumerate_trees(3))) == 3
    assert len(list(enumerate_trees(4))) == 16
    trees5 = list(enumerate_trees(5))
    assert len(trees5) == 125
    assert all(classify(t).is_tree for t in trees5)
    assert len({t.edges for t in trees5}) == 125  # all distinct
    with pytest.raises(ValueError):
        list(enumerate_trees(0))
    with pytest.raises(ValueError):
        list(enumerate_trees(10))


def test_empty_graph_needs_no_parts():
    got = oracle_min_parts(Graph(3, ()), Family.WEAKLY_SEMIREGULAR)
    assert got is not None and got[0] == 0
