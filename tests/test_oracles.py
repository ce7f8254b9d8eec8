import random
from typing import Optional

import pytest

import semireg.oracles as oracles
from semireg import (
    BudgetError,
    Family,
    Graph,
    OracleBudget,
    classify,
    complete,
    cycle,
    disjoint_union,
    enumerate_trees,
    is_family,
    oracle_min_parts,
    oracle_mixed,
    path,
    star,
    verify_partition,
    wr_lower_bound,
)
from helpers import random_simple_graph, random_tree


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


_BUNDLE = Graph(2, ((0, 1),) * 12)


@pytest.mark.parametrize("g", [_BUNDLE, disjoint_union([_BUNDLE, path(4)]), disjoint_union([path(4), _BUNDLE])])
def test_two_vertex_component_has_no_locally_irregular_split(g):
    # the bundle's two ends have equal degrees in every part; without the
    # pre-test the search takes about a second to prove it on the bundle
    budget = OracleBudget(16, 4)
    assert oracle_min_parts(g, Family.LOCALLY_IRREGULAR, budget) is None
    got = oracle_mixed(g, budget)  # a bundle part is weakly semiregular
    assert got is not None and verify_partition(g, got[1], Family.MIXED)


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


# center of degree 3, three legs of two edges: degrees 3, 2, 1 on every
# path from the center, so locally irregular but not weakly semiregular
_SPIDER = Graph(7, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)))


@pytest.mark.parametrize(
    "g,fam",
    [
        (star(5), Family.WEAKLY_SEMIREGULAR),
        (path(4), Family.SEMIREGULAR),
        (cycle(5), Family.REGULAR),
        (disjoint_union([cycle(3), path(2)]), Family.LOCALLY_REGULAR),
        (_SPIDER, Family.LOCALLY_IRREGULAR),
        (complete(4), Family.REGULAR_OR_LOCALLY_IRREGULAR),
        (_SPIDER, Family.MIXED),
    ],
)
def test_family_member_is_one_part_without_a_search(g, fam, monkeypatch):
    assert is_family(g, fam)
    calls = []
    monkeypatch.setattr(oracles, "_search", lambda *args: calls.append(args))
    assert _min_parts(g, fam, OracleBudget(max_edges=8, max_parts=3)) == (1, (0,) * g.m)
    assert calls == []


def test_non_member_is_searched_once_from_two_parts(monkeypatch):
    g, fam = star(5), Family.SEMIREGULAR
    assert not is_family(g, fam)
    calls = []
    search = oracles._search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(oracles, "_search", counted)
    got = oracle_min_parts(g, fam)
    assert len(calls) == 1
    assert got is not None and got[0] >= 2 and verify_partition(g, got[1], fam)


# The search as it stood before it was prepared once per graph and reused
# for every k, kept verbatim: every k and witness must stay the same.
def _reference_search_exact(g: Graph, f: Family, k: int) -> Optional[list[int]]:
    """First canonical assignment onto exactly k nonempty valid parts."""
    m, n = g.m, g.n
    edges = g.edges
    last = [-1] * n
    for e, (u, v) in enumerate(edges):
        last[u] = e
        last[v] = e
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        incident[u].append((v, e))
        incident[v].append((u, e))

    deg = [[0] * k for _ in range(n)]
    fin = [False] * n
    dcnt: list[dict[int, int]] = [{} for _ in range(k)]
    bad_first = [False] * k   # regular (or weakly semiregular, for mixed) disqualified
    bad_irr = [False] * k     # locally irregular disqualified
    part = [-1] * m

    wsr = f is Family.WEAKLY_SEMIREGULAR
    semi = f is Family.SEMIREGULAR
    reg = f is Family.REGULAR
    locreg = f is Family.LOCALLY_REGULAR
    locirr = f is Family.LOCALLY_IRREGULAR
    # the two "first family or locally irregular" families: a part leaves
    # the first family at its (first_cap + 1)-th distinct finished degree
    first_cap = {Family.REGULAR_OR_LOCALLY_IRREGULAR: 1, Family.MIXED: 2}.get(f, 0)
    local_edges = locreg or locirr or first_cap > 0

    def degree_cap_ok(p: int, d: int) -> bool:
        # a partial degree can only grow, so exceeding what the finished
        # degrees of the part still allow is fatal
        dc = dcnt[p]
        if not dc:
            return True
        if wsr:
            return len(dc) < 2 or d <= max(dc)
        if semi:
            return d <= min(dc) + 1
        if reg:
            return d <= next(iter(dc))
        return True

    def finish(w: int, trail: list) -> bool:
        fin[w] = True
        trail.append(("fin", w))
        for p in range(k):
            d = deg[w][p]
            if d == 0:
                continue
            dc = dcnt[p]
            fresh = d not in dc
            if fresh:
                if wsr and len(dc) >= 2:
                    return False
                if semi and dc and (d > min(dc) + 1 or d < max(dc) - 1):
                    return False
                if reg and dc:
                    return False
                if first_cap and len(dc) >= first_cap and not bad_first[p]:
                    bad_first[p] = True
                    trail.append(("first", p))
            dc[d] = dc.get(d, 0) + 1
            trail.append(("dc", p, d))
        if local_edges:
            for nbr, eid in incident[w]:
                q = part[eid]
                if q == -1 or not fin[nbr]:
                    continue
                same = deg[w][q] == deg[nbr][q]
                if locreg and not same:
                    return False
                if locirr and same:
                    return False
                if first_cap and same and not bad_irr[q]:
                    bad_irr[q] = True
                    trail.append(("irr", q))
        if first_cap:
            for p in range(k):
                if bad_first[p] and bad_irr[p]:
                    return False
        return True

    def undo(trail: list) -> None:
        for op in reversed(trail):
            tag = op[0]
            if tag == "dc":
                _, p, d = op
                dc = dcnt[p]
                if dc[d] == 1:
                    del dc[d]
                else:
                    dc[d] -= 1
            elif tag == "fin":
                fin[op[1]] = False
            elif tag == "first":
                bad_first[op[1]] = False
            else:
                bad_irr[op[1]] = False

    def place(i: int, used: int) -> bool:
        if i == m:
            return used == k
        if m - i < k - used:
            return False
        u, v = edges[i]
        limit = used + 1 if used < k else k
        for p in range(limit):
            deg[u][p] += 1
            deg[v][p] += 1
            if degree_cap_ok(p, deg[u][p]) and degree_cap_ok(p, deg[v][p]):
                part[i] = p
                trail: list = []
                ok = True
                if last[u] == i:
                    ok = finish(u, trail)
                if ok and last[v] == i:
                    ok = finish(v, trail)
                if ok and place(i + 1, max(used, p + 1)):
                    return True
                undo(trail)
                part[i] = -1
            deg[u][p] -= 1
            deg[v][p] -= 1
        return False

    if place(0, 0):
        return list(part)
    return None


def _reference_min_parts(g, f, budget):
    if g.m == 0:
        return 0, ()
    for k in range(1, min(budget.max_parts, g.m) + 1):
        found = _reference_search_exact(g, f, k)
        if found is not None:
            return k, tuple(found)
    return None


def _min_parts(g, f, budget):
    got = oracle_min_parts(g, f, budget)
    return None if got is None else (got[0], got[1].part)


def _random_multigraph(rng):
    """3-7 vertices, up to 12 edges, parallel edges allowed.  Two vertices
    are left out: a bundle of 10-12 parallel edges has no locally irregular
    split, and proving that walks the whole search tree (seconds a graph)."""
    n = rng.randrange(3, 8)
    edges = []
    for _ in range(rng.randrange(1, 13)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return Graph(n, tuple(edges))


def _connected_graph(rng):
    """7-9 vertices, 12-14 edges, maximum degree at most 6: a random tree
    plus random new edges."""
    while True:
        n = rng.randint(7, 9)
        m = rng.randint(12, 14)
        edges = list(random_tree(n, rng).edges)
        have = {(min(u, v), max(u, v)) for u, v in edges}
        while len(edges) < m:
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in have:
                have.add((u, v))
                edges.append((u, v))
        g = Graph(n, tuple(edges))
        if max(g.degrees()) <= 6:
            return g


def test_witnesses_match_reference_on_small_trees():
    budget = OracleBudget(max_edges=8, max_parts=3)
    for n in range(1, 7):
        for t in enumerate_trees(n):
            for fam in Family:
                assert _min_parts(t, fam, budget) == _reference_min_parts(t, fam, budget), (fam, t.edges)


def test_witnesses_match_reference_on_multigraphs():
    rng = random.Random(233)
    budget = OracleBudget(max_edges=12, max_parts=4)
    for _ in range(300):
        g = _random_multigraph(rng)
        for fam in Family:
            assert _min_parts(g, fam, budget) == _reference_min_parts(g, fam, budget), (fam, g)


def test_witnesses_match_reference_on_connected_graphs():
    rng = random.Random(239)
    budget = OracleBudget()
    families = (Family.SEMIREGULAR, Family.LOCALLY_IRREGULAR,
                Family.REGULAR_OR_LOCALLY_IRREGULAR, Family.MIXED)
    for _ in range(50):
        g = _connected_graph(rng)
        for fam in families:
            assert _min_parts(g, fam, None) == _reference_min_parts(g, fam, budget), (fam, g)


# The last six are small inputs on which a search that kept some state from
# a failed smaller k (degree bounds, finished vertices, equal-degree edges)
# returns a different k or witness.
@pytest.mark.parametrize(
    "g,fam,max_parts,expected_k",
    [
        (star(5), Family.SEMIREGULAR, 4, 3),        # not a member; the search fails k = 2 first
        (path(2), Family.LOCALLY_IRREGULAR, 3, None),  # max_parts above m
        (star(3), Family.REGULAR, 5, 3),            # needs every k up to m
        (star(3), Family.REGULAR, 2, None),
        (Graph(6, ((0, 4), (1, 5), (2, 5), (3, 5), (4, 5))), Family.WEAKLY_SEMIREGULAR, 4, 2),
        (Graph(5, ((0, 3), (0, 4), (1, 4), (2, 4), (3, 4))), Family.REGULAR, 4, 3),
        (Graph(5, ((3, 0), (0, 1), (1, 2), (2, 4))), Family.LOCALLY_IRREGULAR, 4, 2),
        (Graph(5, ((2, 0), (0, 4), (3, 1), (1, 4))), Family.REGULAR_OR_LOCALLY_IRREGULAR, 4, 2),
        (Graph(4, ((0, 2), (0, 3), (1, 3), (2, 3))), Family.LOCALLY_REGULAR, 4, 2),
        (Graph(6, ((2, 0), (3, 0), (0, 1), (4, 1), (1, 5))), Family.REGULAR_OR_LOCALLY_IRREGULAR, 4, 2),
    ],
)
def test_search_state_is_reused_across_k_and_calls(g, fam, max_parts, expected_k):
    budget = OracleBudget(max_edges=8, max_parts=max_parts)
    first = _min_parts(g, fam, budget)
    assert (None if first is None else first[0]) == expected_k
    assert first == _reference_min_parts(g, fam, budget)
    for other in Family:  # other families in between share nothing
        _min_parts(g, other, budget)
    assert _min_parts(g, fam, budget) == first
