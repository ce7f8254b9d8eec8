import itertools
import math
import random
from typing import Optional

import pytest

from semireg import (
    BudgetError,
    Graph,
    ParseError,
    Representation,
    complement,
    complete,
    cycle,
    disjoint_union,
    next_prime,
    parse_representation,
    path,
    rep_construct,
    rep_search,
    serialize_representation,
    verify_representation,
)
from helpers import cyclic_garbage, petersen


def test_verify_representation_examples():
    assert verify_representation(complete(2), Representation(2, (0, 1)))
    assert verify_representation(Graph(2, ()), Representation(4, (0, 2)))
    assert not verify_representation(complete(2), Representation(4, (0, 2)))


def test_verify_representation_errors():
    with pytest.raises(ValueError):
        verify_representation(complete(2), Representation(4, (1, 1)))
    with pytest.raises(ValueError):
        verify_representation(complete(2), Representation(2, (0, 5)))
    with pytest.raises(ValueError):
        verify_representation(complete(2), Representation(2, (0,)))


def test_rep_search_known_values():
    assert rep_search(complete(2), 10).r == 2
    assert rep_search(complete(3), 10).r == 3
    two_k2 = disjoint_union([complete(2), complete(2)])
    found = rep_search(two_k2, 10)
    assert found.r == 6
    assert verify_representation(two_k2, found)


def test_rep_search_witness_is_minimal():
    two_k2 = disjoint_union([complete(2), complete(2)])
    for r in range(4, 6):
        assert rep_search(two_k2, r) is None


def test_rep_search_leaves_no_cyclic_garbage():
    assert cyclic_garbage(lambda: rep_search(cycle(5), 50)) == 0
    assert cyclic_garbage(lambda: rep_search(disjoint_union([complete(2), complete(2)]), 5)) == 0


def test_rep_search_budgets():
    with pytest.raises(BudgetError):
        rep_search(Graph(9, ()), 10)
    with pytest.raises(BudgetError):
        rep_search(complete(2), 10**4 + 1)


def test_fixing_the_first_label_loses_nothing():
    # gcd(|a-b|, r) only depends on (a-b) mod r, so translating any valid
    # labeling to contain 0 keeps it valid; check on every 4-vertex graph
    pairs = list(itertools.combinations(range(4), 2))
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        g = Graph(4, tuple(p for p, take in zip(pairs, picks) if take))
        fixed = rep_search(g, 40, fix_first_label=True)
        free = rep_search(g, 40, fix_first_label=False)
        assert (fixed is None) == (free is None)
        if fixed is not None:
            assert fixed.r == free.r


# The search as it stood with a gcd call and a pair lookup per label pair,
# kept verbatim: the least modulus and its labels must stay the same.
def _reference_rep_search(
    g: Graph, r_max: int, fix_first_label: bool = True
) -> Optional[Representation]:
    adjacent = {(min(u, v), max(u, v)) for u, v in g.edges}

    for r in range(max(2, g.n), r_max + 1):
        labels = [-1] * g.n
        used = [False] * r

        def place(i: int) -> bool:
            if i == g.n:
                return True
            first = fix_first_label and i == 0
            for lab in range(1 if first else r):
                if used[lab]:
                    continue
                ok = True
                for j in range(i):
                    coprime = math.gcd(abs(lab - labels[j]), r) == 1
                    if coprime != ((min(i, j), max(i, j)) in adjacent):
                        ok = False
                        break
                if ok:
                    labels[i] = lab
                    used[lab] = True
                    if place(i + 1):
                        return True
                    used[lab] = False
                    labels[i] = -1
            return False

        if place(0):
            return Representation(r, tuple(labels))
    return None


def test_rep_search_matches_reference():
    # r_max = 16 reaches every least modulus of a 4-vertex graph (4 to 15)
    # and leaves some graphs without one
    pairs = list(itertools.combinations(range(4), 2))
    graphs = [Graph(4, tuple(p for p, take in zip(pairs, picks) if take))
              for picks in itertools.product((0, 1), repeat=len(pairs))]
    rng = random.Random(241)
    for _ in range(40):
        n = rng.randint(1, 6)
        graphs.append(Graph(n, tuple(p for p in itertools.combinations(range(n), 2)
                                     if rng.random() < 0.5)))
    for g in graphs:
        for fix in (True, False):
            assert rep_search(g, 16, fix) == _reference_rep_search(g, 16, fix), (g, fix)


def test_next_prime():
    assert next_prime(7) == 7
    assert next_prime(8) == 11
    assert next_prime(1) == 2
    with pytest.raises(ValueError):
        next_prime(0)


def _check_plan(g, rep, plan):
    n = g.n
    assert verify_representation(g, rep)
    assert list(plan.primes) == sorted(set(plan.primes))
    for p, matching in zip(plan.primes, plan.matchings):
        assert p >= n - len(matching)
        assert 2 * p >= n
    assert rep.r == math.prod(plan.primes)


def test_rep_construct_cycle5():
    g = cycle(5)  # self-complementary, and C5 is triangle-free 2-regular
    rep, plan = rep_construct(g)
    _check_plan(g, rep, plan)
    assert len(plan.primes) == 3  # odd cycles need max-degree + 1 matchings


def test_rep_construct_petersen_complement():
    g = complement(petersen())
    rep, plan = rep_construct(g)
    _check_plan(g, rep, plan)
    assert len(plan.primes) == 4  # the complement's edges split into 4 matchings


def test_rep_construct_complete_graph():
    g = complete(5)  # complement has no edges: trivially 0-regular
    rep, plan = rep_construct(g)
    _check_plan(g, rep, plan)


def test_rep_construct_single_matching_complement():
    # complement is a perfect matching (1-regular): needs the padded
    # second coordinate to stay injective
    g = complement(Graph(4, ((0, 1), (2, 3))))
    rep, plan = rep_construct(g)
    _check_plan(g, rep, plan)


def test_rep_construct_preconditions():
    with pytest.raises(ValueError):
        rep_construct(complement(complete(3)))  # complement K3 has a triangle
    with pytest.raises(ValueError):
        rep_construct(complement(path(3)))  # complement P3 is not regular


def test_representation_text_roundtrip():
    g = cycle(5)
    rep, plan = rep_construct(g)
    text = serialize_representation(rep, plan)
    back = parse_representation(text)
    assert back == rep
    with pytest.raises(ParseError):
        parse_representation("labels 0 1")
    with pytest.raises(ParseError):
        parse_representation("nonsense 3")


@pytest.mark.parametrize("text, line", [("r x\nlabels 0 1\n", 1), ("r 5\n\nlabels 0 1.5\n", 3)])
def test_parse_representation_names_the_line_of_a_non_integer(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: "):
        parse_representation(text)
