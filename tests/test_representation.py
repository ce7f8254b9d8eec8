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
from semireg.representation import _coprime_mask
from helpers import cyclic_garbage, petersen, seeded_simple_graphs


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


# The verifier as it stood with a simplicity pass and a pair set, kept
# verbatim: the answer and the error must stay the same.
def _reference_verify_representation(g: Graph, rep: Representation) -> bool:
    """True iff adjacency coincides with label differences coprime to r."""
    if not g.is_simple():
        raise ValueError("representations are defined for simple graphs")
    if len(rep.labels) != g.n:
        raise ValueError("one label per vertex required")
    if len(set(rep.labels)) != g.n:
        raise ValueError("labels must be injective")
    if any(not 0 <= lab < rep.r for lab in rep.labels):
        raise ValueError("labels must lie in 0..r-1")
    adjacent = {(min(u, v), max(u, v)) for u, v in g.edges}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            coprime = math.gcd(abs(rep.labels[u] - rep.labels[v]), rep.r) == 1
            if coprime != ((u, v) in adjacent):
                return False
    return True


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_verify_representation_matches_reference():
    rng = random.Random(1203)
    for g in seeded_simple_graphs(1204):
        n = g.n
        r = rng.randint(max(n, 1), 3 * n + 5)
        labels = rng.sample(range(r), n)
        # the graph these labels represent modulo r, and one edge away from it
        pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if math.gcd(labels[u] - labels[v], r) == 1]
        represented = Graph(n, tuple(pairs))
        assert verify_representation(represented, Representation(r, tuple(labels)))
        cases = [(represented, labels), (g, labels), (Graph(n, tuple(pairs[1:])), labels),
                 (g, labels[1:]), (g, labels + [r]), (g, labels[:-1] + [r]), (g, labels[:-1] + [-1])]
        if n >= 2:
            cases.append((g, labels[:-1] + labels[:1]))
        for h, labs in cases:
            rep = Representation(r, tuple(labs))
            assert _outcome(verify_representation, h, rep) == \
                _outcome(_reference_verify_representation, h, rep), (h, rep)
    # simplicity is checked first, before the labels
    multigraph = Graph(3, ((0, 1), (1, 2), (1, 0)))
    for labels in ((0, 1, 2), (0, 0)):
        for fn in (verify_representation, _reference_verify_representation):
            with pytest.raises(ValueError, match="^representations are defined for simple graphs$"):
                fn(multigraph, Representation(5, labels))


def test_coprime_mask_is_the_gcd_one_set():
    for r in range(2, 400):
        assert _coprime_mask(r) == sum(1 << x for x in range(r) if math.gcd(x, r) == 1), r


def test_rep_search_known_values():
    assert rep_search(complete(2), 10).r == 2
    assert rep_search(complete(3), 10).r == 3
    two_k2 = disjoint_union([complete(2), complete(2)])
    found = rep_search(two_k2, 10)
    assert found.r == 6
    assert verify_representation(two_k2, found)
    # recorded with the recursive search at the CLI's default r_max
    assert rep_search(cycle(5), 1000) == Representation(105, (0, 1, 3, 7, 8))


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


def test_rep_search_rejects_a_multigraph_before_its_budgets():
    for g, r_max in ((Graph(3, ((0, 1), (1, 0))), 10), (Graph(9, ((0, 1), (1, 0))), 10),
                     (Graph(2, ((0, 1), (0, 1))), 10**4 + 1)):
        with pytest.raises(ValueError, match="^representations are defined for simple graphs$"):
            rep_search(g, r_max)


def test_fixing_the_first_label_loses_nothing():
    # gcd(|a-b|, r) only depends on (a-b) mod r, so translating any valid
    # labeling to contain 0 keeps it valid; check on every 4-vertex graph
    # against the reference search with vertex 0's label free (r_max = 16
    # reaches every least modulus of a 4-vertex graph, see below)
    pairs = list(itertools.combinations(range(4), 2))
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        g = Graph(4, tuple(p for p, take in zip(pairs, picks) if take))
        fixed = rep_search(g, 16)
        free = _reference_rep_search(g, 16, fix_first_label=False)
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
        assert rep_search(g, 16) == _reference_rep_search(g, 16), g


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
    with pytest.raises(ValueError, match="^complement is not triangle-free$"):
        rep_construct(complement(complete(3)))  # complement K3 has a triangle
    with pytest.raises(ValueError, match="^complement is not regular$"):
        rep_construct(complement(path(3)))  # complement P3 is not regular
    with pytest.raises(ValueError, match="^empty graph$"):
        rep_construct(Graph(0, ()))
    # complement K3 + K1 fails both tests; regularity is checked first
    with pytest.raises(ValueError, match="^complement is not regular$"):
        rep_construct(complement(Graph(4, ((0, 1), (1, 2), (0, 2)))))


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


@pytest.mark.parametrize("text, line", [("r x\nlabels 0 1\n", 1), ("r 5\n\nlabels 0 1.5\n", 3),
                                        ("r 5\nprimes x y\nlabels 0 1 2 3 4\n", 2)])
def test_parse_representation_names_the_line_of_a_non_integer(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: "):
        parse_representation(text)


@pytest.mark.parametrize("text, line, key", [
    ("r 5\nlabels 0 1\nr 7\nlabels 0 2 4\n", 3, "r"),
    ("r 5\nprimes 2 3\n\nprimes 5 7\nlabels 0 1\n", 4, "primes"),
    ("labels 0 1\nr 5\nlabels 0 2\n", 3, "labels"),
], ids=["r", "primes", "labels"])
def test_parse_representation_rejects_a_repeated_line(text, line, key):
    with pytest.raises(ParseError, match=f"^line {line}: second '{key}' line$"):
        parse_representation(text)
