import itertools
import random
import os
import shutil
import time
from dataclasses import dataclass

import pytest

import semireg.reductions
from semireg.cli import run
from semireg import (
    BudgetError,
    EdgePartition,
    Family,
    Gadget,
    GadgetError,
    GadgetSet,
    Graph,
    NaeFormula,
    ParseError,
    ReductionResult,
    build_reduction,
    classify,
    complete,
    complete_bipartite,
    cycle,
    extract_assignment,
    is_additive_coloring,
    load_gadget_set,
    nae_bruteforce,
    parse_gadget,
    parse_nae,
    partition_from_labels,
    verify_partition,
    widen_degree_set,
    wr_lower_bound,
)

GADGETS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "gadgets")


def test_parse_nae():
    f = parse_nae("0 1\n0 1 2")
    assert f.num_vars == 3
    assert f.clauses == ((0, 1), (0, 1, 2))
    assert not f.is_cubic_monotone

    f = parse_nae("0 1\n0 1 2\n0 1 2")
    assert not f.is_cubic_monotone  # variable 0 appears 3 times but 2 only twice

    f = parse_nae("0 1 2\n0 1 2\n0 1 2")
    assert f.is_cubic_monotone


def test_parse_nae_errors():
    with pytest.raises(ParseError):
        parse_nae("0 -1")
    with pytest.raises(ParseError):
        parse_nae("0 1 2 3")
    with pytest.raises(ParseError):
        parse_nae("0")
    with pytest.raises(ParseError):
        parse_nae("0 x")


def test_nae_bruteforce():
    f = parse_nae("0 1\n0 1 2")
    got = nae_bruteforce(f)
    assert got is not None
    for cl in f.clauses:
        values = {got[x] for x in cl}
        assert values == {True, False}

    assert nae_bruteforce(NaeFormula(1, ((0, 0),))) is None
    assert nae_bruteforce(NaeFormula(0, ())) == ()
    assert nae_bruteforce(NaeFormula(3, ())) == (False, False, False)

    with pytest.raises(BudgetError):
        nae_bruteforce(NaeFormula(25, ((0, 1),)))


@pytest.mark.parametrize("text", ["0 1\n1 2\n0 2\n3 23", "3 23\n0 1\n1 2\n0 2", "22 23\n0 1 2\n0 1\n1 2\n0 2"])
def test_nae_low_contradiction_is_unsat_without_walking_the_high_variables(text):
    # one search over every variable walked each assignment of 3..23 above
    # the odd cycle of 2-clauses: "3 20" took 1-2 s, and each further
    # variable doubled it; each component is now searched on its own
    start = time.perf_counter()
    assert nae_bruteforce(parse_nae(text)) is None
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text", ["0 1\n1 2\n2 3\n5 9 23", "5 9 23\n2 3\n0 1\n1 2", "0 23\n1 22\n2 21 20"])
def test_nae_least_assignment_is_the_union_over_components(text):
    f = parse_nae(text)
    assert nae_bruteforce(f) == _old_nae_bruteforce(f)


@pytest.mark.parametrize("text", ["0 0\n1 20", "0 0\n1 23", "5 5 5\n0 1 2\n3 23"])
def test_nae_clause_over_one_variable_is_unsat_at_once(tmp_path, capsys, text):
    # without the clause-mask test the search walks up to 2^23 assignments
    # (about 19 s for "0 0" beside "1 23") before it says UNSAT
    assert nae_bruteforce(parse_nae(text)) is None
    f = tmp_path / "f.nae"
    f.write_text(text)
    assert run(["nae", "solve", str(f)]) == 1
    assert "result: UNSAT" in capsys.readouterr().out


def test_widen_degree_set():
    out = widen_degree_set(complete(4))
    assert out.n == 66
    assert sorted(set(out.degrees())) == list(range(1, 10))
    assert wr_lower_bound(out) == 3

    out = widen_degree_set(complete_bipartite(3, 3))
    assert sorted(set(out.degrees())) == list(range(1, 10))

    with pytest.raises(ValueError):
        widen_degree_set(cycle(4))


def test_additive_coloring_examples():
    k4 = complete(4)
    assert not is_additive_coloring(k4, [1] * 6)
    with pytest.raises(ValueError):
        is_additive_coloring(cycle(4), [1] * 4)
    with pytest.raises(ValueError):
        is_additive_coloring(k4, [1, 2, 3, 1, 2, 1])


def test_partition_from_labels():
    k4 = complete(4)
    p = partition_from_labels(k4, [1, 2, 1, 2, 1, 2])
    assert p.part == (0, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        partition_from_labels(k4, [1, 2, 1])


@pytest.mark.parametrize("g", [complete(4), complete_bipartite(3, 3)])
def test_additive_biconditional_exhaustive(g):
    for labels in itertools.product((1, 2), repeat=g.m):
        additive = is_additive_coloring(g, labels)
        split_ok = verify_partition(
            g, partition_from_labels(g, labels), Family.LOCALLY_IRREGULAR
        )
        assert additive == split_ok


def test_parse_gadget():
    gadget = parse_gadget("H", "3 2\n0 1\n0 2\nport a 2\nport t 0")
    assert gadget.graph.m == 2
    assert gadget.ports == {"a": 2, "t": 0}

    with pytest.raises(GadgetError):
        parse_gadget("X", "3 3\n0 1\n1 2\n2 0\nport a 0")  # odd cycle
    with pytest.raises(GadgetError):
        parse_gadget("X", "2 1\n0 1\nport a 5")  # port out of range
    with pytest.raises(ParseError):
        parse_gadget("X", "2 1\n0 1\nport a")  # malformed port line


@pytest.mark.parametrize("text, message", [
    # a port line inside the edge block is a malformed edge line
    ("3 2\n0 1\nport a 0\n1 x\n", "line 3: edge line must be 'u v'"),
    # content after the ports is named on its own line
    ("3 2\n0 1\n1 2\nport a 0\n\n7 7\n", "line 6: port line must be 'port name vertex'"),
    ("5 3\n0 1\n0 2\n0 3\nport a 4\nport a 0\n", "line 6: port 'a' given twice"),
], ids=["port-line-among-edges", "content-after-ports", "repeated-port"])
def test_parse_gadget_names_the_real_line(text, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_gadget("H", text)


def test_parse_gadget_allows_blank_lines_after_the_edges():
    gadget = parse_gadget("H", "5 3\n0 1\n0 2\n0 3\n\nport a 4\n  \nport t 0\n\n")
    assert gadget.graph == Graph(5, ((0, 1), (0, 2), (0, 3)))
    assert gadget.ports == {"a": 4, "t": 0}


def test_load_gadget_set_missing_file(tmp_path):
    with pytest.raises(GadgetError) as err:
        load_gadget_set(str(tmp_path), "thm2")
    assert "missing gadget" in str(err.value)


def _cubic_3clause_formula():
    return parse_nae("0 1 2\n0 1 2\n0 1 2")


def _cubic_2clause_formula():
    return parse_nae("0 1\n0 1\n0 1")


def test_build_reduction_thm2():
    gadgets = load_gadget_set(os.path.join(GADGETS_DIR, "thm2"), "thm2")
    formula = _cubic_3clause_formula()
    result = build_reduction(formula, gadgets, "thm2")
    g = result.graph
    assert classify(g).is_bipartite
    assert set(g.degrees()) <= {1, 3, 6}
    assert len(result.variable_vertices) == 3
    assert len(result.clause_ports) == 3
    # every variable vertex sees its three clause ports
    for x, xv in enumerate(result.variable_vertices):
        incident = [e for e in g.edges if xv in e]
        assert len(incident) == 3


def test_build_reduction_thm3iii():
    gadgets = load_gadget_set(os.path.join(GADGETS_DIR, "thm3iii"), "thm3iii")
    formula = _cubic_2clause_formula()
    result = build_reduction(formula, gadgets, "thm3iii")
    g = result.graph
    assert classify(g).is_bipartite
    assert set(g.degrees()) <= {2, 3, 4, 6}


def test_build_reduction_empty_formula_gives_bases_only():
    gadgets = load_gadget_set(os.path.join(GADGETS_DIR, "thm2"), "thm2")
    empty = NaeFormula(0, ())
    result = build_reduction(empty, gadgets, "thm2")
    # base gadget B plus the two fixed complete bipartite components
    expected_n = gadgets.get("B").graph.n + 7 + 9
    assert result.graph.n == expected_n
    assert result.clause_ports == ()


def test_build_reduction_requires_cubic():
    gadgets = load_gadget_set(os.path.join(GADGETS_DIR, "thm2"), "thm2")
    with pytest.raises(ValueError):
        build_reduction(parse_nae("0 1 2"), gadgets, "thm2")


def test_build_reduction_rejects_bad_port_degrees(tmp_path):
    # port a with one in-gadget edge ends at degree 4, outside {1, 3, 6}
    (tmp_path / "H.gadget").write_text("2 1\n0 1\nport a 0\nport t 1\n")
    (tmp_path / "I.gadget").write_text("2 1\n0 1\nport b 0\nport t 1\n")
    (tmp_path / "B.gadget").write_text("4 3\n0 1\n0 2\n0 3\n")
    gadgets = load_gadget_set(str(tmp_path), "thm2")
    with pytest.raises(GadgetError) as err:
        build_reduction(_cubic_3clause_formula(), gadgets, "thm2")
    assert "degrees" in str(err.value)


def _bundled_thm2(name):
    with open(os.path.join(GADGETS_DIR, "thm2", f"{name}.gadget"), encoding="utf-8") as fh:
        return fh.read()


def test_oversized_gadget_header_is_refused_before_classify(tmp_path, monkeypatch, capsys):
    # the bundled H with header "1000000 3": at most 2 * 3 + 2 of its
    # vertices lie on an edge or a port, and the others keep degree 0
    text = "\n".join(["1000000 3", *_bundled_thm2("H").splitlines()[1:]]) + "\n"
    classified = []
    monkeypatch.setattr(semireg.reductions, "classify", lambda g: classified.append(g.n) or classify(g))
    with pytest.raises(GadgetError, match=r"^gadget 'H': 1000000 vertices, more than 2 \* 3 edges \+ 2 ports"):
        parse_gadget("H", text)
    assert classified == []
    for name in ("B", "I"):
        shutil.copy(os.path.join(GADGETS_DIR, "thm2", f"{name}.gadget"), tmp_path)
    (tmp_path / "H.gadget").write_text(text)
    (tmp_path / "f.nae").write_text("0 1 2\n0 1 2\n0 1 2\n")
    assert run(["reduce", str(tmp_path / "f.nae"), "--variant", "thm2", "--gadgets", str(tmp_path)]) == 2
    assert "input error: gadget 'H'" in capsys.readouterr().err
    assert 1000000 not in classified


def test_build_reduction_checks_degrees_before_classifying_the_instance(monkeypatch):
    # the bundled H on 1000000 vertices: its isolated vertices put
    # degree 0 into the instance, which the cheap degree check rejects
    parsed = {name: parse_gadget(name, _bundled_thm2(name)) for name in ("B", "H", "I")}
    h = parsed["H"]
    parsed["H"] = Gadget(Graph(1_000_000, h.graph.edges), h.ports)
    gadgets = GadgetSet(parsed)
    classified = []
    monkeypatch.setattr(semireg.reductions, "classify", lambda g: classified.append(g.n) or classify(g))
    with pytest.raises(GadgetError, match=r"degrees \[0\]"):
        build_reduction(parse_nae("0 1 2\n0 1 2\n0 1 2\n"), gadgets, "thm2")
    assert classified == []


def test_extract_assignment():
    # one gadget port joined to three variable stars, all edges split cleanly
    g = Graph(7, ((0, 1), (0, 2), (0, 3), (4, 1), (5, 2), (6, 3)))
    variables = (1, 2, 3)
    from semireg import EdgePartition

    p = EdgePartition(2, (0, 1, 0, 0, 1, 0))
    got = extract_assignment(g, p, variables)
    assert got == (True, False, True)

    mixed = EdgePartition(2, (0, 1, 0, 1, 1, 0))
    with pytest.raises(ValueError) as err:
        extract_assignment(g, mixed, variables)
    assert "vertex 1" in str(err.value)

    with pytest.raises(ValueError):
        extract_assignment(g, EdgePartition(3, (0, 1, 0, 0, 1, 2)), variables)


@pytest.mark.parametrize("v", [-1, 7])
def test_extract_assignment_rejects_a_vertex_outside_the_graph(v):
    g = Graph(7, ((0, 1), (0, 2), (0, 3), (4, 1), (5, 2), (6, 3)))
    with pytest.raises(ValueError, match=f"variable vertex {v} out of range"):
        extract_assignment(g, EdgePartition(2, (0,) * 6), (1, v))


def test_extract_assignment_names_a_variable_vertex_without_edges():
    g = Graph(8, ((0, 1), (0, 2), (0, 3), (4, 1), (5, 2), (6, 3)))
    with pytest.raises(ValueError, match="^variable vertex 7 has no incident edges$"):
        extract_assignment(g, EdgePartition(2, (0,) * 6), (1, 7))


def test_extract_assignment_round_trip_through_reduction():
    gadgets = load_gadget_set(os.path.join(GADGETS_DIR, "thm2"), "thm2")
    formula = _cubic_3clause_formula()
    result = build_reduction(formula, gadgets, "thm2")
    g = result.graph
    # put each variable's star in the part matching a chosen assignment
    want = (True, False, True)
    part = []
    var_of_vertex = {v: i for i, v in enumerate(result.variable_vertices)}
    for u, v in g.edges:
        owner = var_of_vertex.get(u, var_of_vertex.get(v))
        part.append(0 if owner is None or want[owner] else 1)
    from semireg import EdgePartition

    got = extract_assignment(g, EdgePartition(2, tuple(part)), result.variable_vertices)
    assert got == want


def _old_nae_bruteforce(formula):
    # verbatim copy of the search before it backtracked
    n = formula.num_vars
    if n > 24:
        raise BudgetError(f"{n} variables exceed the brute-force budget of 24")
    masks = []
    for cl in formula.clauses:
        mask = 0
        for x in cl:
            mask |= 1 << x
        masks.append(mask)
    # a clause is split iff its variables are neither all false nor all
    # true: 0 < (a & mask) < mask; a one-variable mask can never satisfy it
    for a in range(1 << n):
        if all(0 < (a & mk) < mk for mk in masks):
            return tuple(bool(a >> i & 1) for i in range(n))
    return None


def _planted_nae(n, rng):
    """3-clauses over n variables, each split by a hidden assignment."""
    hidden = [rng.random() < 0.5 for _ in range(n)]
    clauses = []
    while len(clauses) < 3 * n // 2:
        cl = tuple(rng.randrange(n) for _ in range(3))
        if len({hidden[x] for x in cl}) == 2:
            clauses.append(cl)
    return NaeFormula(n, tuple(clauses))


def test_nae_backtracking_matches_old_enumeration():
    rng = random.Random(151)
    formulas = [NaeFormula(n, ()) for n in range(4)]
    formulas += [_planted_nae(rng.choice((16, 18)), rng) for _ in range(10)]
    for _ in range(3000):
        n = rng.randrange(1, 10)
        clauses = tuple(
            tuple(rng.randrange(n) for _ in range(rng.choice((2, 3)))) for _ in range(rng.randrange(0, 3 * n))
        )
        formulas.append(NaeFormula(n, clauses))
    unsat = 0
    for f in formulas:
        got = nae_bruteforce(f)
        assert got == _old_nae_bruteforce(f)
        unsat += got is None
    assert 100 < unsat < len(formulas) - 100


@dataclass(frozen=True)
class _OldVariantRules:
    clause3_gadget: str
    clause3_port: str
    clause2_gadget: str
    clause2_port: str
    base_gadgets: tuple[str, ...]
    extra_bases: tuple[Graph, ...]
    allowed_degrees: frozenset[int]


def _old_variant_rules(variant):
    # verbatim copy of the rules before they became one table
    if variant == "thm2":
        return _OldVariantRules(
            clause3_gadget="H", clause3_port="a",
            clause2_gadget="I", clause2_port="b",
            base_gadgets=("B",),
            extra_bases=(complete_bipartite(1, 6), complete_bipartite(3, 6)),
            allowed_degrees=frozenset({1, 3, 6}),
        )
    if variant == "thm3iii":
        return _OldVariantRules(
            clause3_gadget="F", clause3_port="a",
            clause2_gadget="D", clause2_port="b",
            base_gadgets=("P",),
            extra_bases=(),
            allowed_degrees=frozenset({2, 3, 4, 6}),
        )
    raise ValueError(f"unknown reduction variant {variant!r}")


def _old_build_reduction(formula, gadgets, variant):
    # verbatim copy of the builder before it used disjoint_union
    if not formula.is_cubic_monotone:
        raise ValueError("formula must be cubic monotone (every variable in 3 clauses)")
    rules = _old_variant_rules(variant)

    n = 0
    edges: list[tuple[int, int]] = []

    def append_graph(g: Graph) -> int:
        nonlocal n
        base = n
        edges.extend((u + base, v + base) for u, v in g.edges)
        n += g.n
        return base

    for name in rules.base_gadgets:
        append_graph(gadgets.get(name).graph)
    for g in rules.extra_bases:
        append_graph(g)

    clause_ports = []
    for cl in formula.clauses:
        gname, pname = (
            (rules.clause3_gadget, rules.clause3_port)
            if len(cl) == 3
            else (rules.clause2_gadget, rules.clause2_port)
        )
        gadget = gadgets.get(gname)
        if pname not in gadget.ports:
            raise GadgetError(f"gadget {gname!r} lacks port {pname!r}")
        base = append_graph(gadget.graph)
        clause_ports.append(base + gadget.ports[pname])

    variable_vertices = tuple(range(n, n + formula.num_vars))
    n += formula.num_vars
    for port, cl in zip(clause_ports, formula.clauses):
        edges.extend((port, variable_vertices[x]) for x in cl)

    graph = Graph(n, tuple(edges))
    if not classify(graph).is_bipartite:
        raise GadgetError("gadget data yields a non-bipartite instance")
    degs = set(graph.degrees())
    if not degs <= rules.allowed_degrees:
        raise GadgetError(
            f"gadget data yields degrees {sorted(degs - rules.allowed_degrees)} "
            f"outside {sorted(rules.allowed_degrees)}"
        )
    return ReductionResult(graph, variable_vertices, tuple(clause_ports))


def _random_cubic_formula(num_vars, rng):
    """Every variable in exactly three clauses of sizes 2 and 3; a clause
    may repeat a variable."""
    occurrences = [x for x in range(num_vars) for _ in range(3)]
    rng.shuffle(occurrences)
    clauses = []
    while occurrences:
        left = len(occurrences)
        size = left if left in (2, 3) else 2 if left == 4 else rng.choice((2, 3))
        clauses.append(tuple(occurrences[:size]))
        del occurrences[:size]
    return NaeFormula(num_vars, tuple(clauses))


@pytest.mark.parametrize("variant", ["thm2", "thm3iii"])
def test_build_reduction_matches_old_builder(variant):
    gadgets = load_gadget_set(os.path.join(GADGETS_DIR, variant), variant)
    rng = random.Random(14)
    formulas = [NaeFormula(0, ()), _cubic_3clause_formula(), _cubic_2clause_formula()]
    formulas += [_random_cubic_formula(rng.randrange(1, 30), rng) for _ in range(40)]
    for f in formulas:
        got, want = build_reduction(f, gadgets, variant), _old_build_reduction(f, gadgets, variant)
        assert got.graph == want.graph
        assert got.variable_vertices == want.variable_vertices
        assert got.clause_ports == want.clause_ports
