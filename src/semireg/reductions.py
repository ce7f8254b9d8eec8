"""NAE-SAT data model, hardness-instance constructions, and the gadget
reduction framework.

The clause gadgets the reductions rely on are supplied as data files, not
code: the builder validates each file against every structural constraint
the construction needs (bipartiteness, port arity, final degree sets) and
refuses nonconforming ones, so the checkable skeleton of the reduction is
preserved without inventing gadget internals.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from .errors import BudgetError, GadgetError, ParseError
from .families import EdgePartition
from .graph import (Graph, Record, classify, complete_bipartite, cycle, disjoint_union, incident_edges,
                    parse_graph, parse_header, parse_int, path, star, text_lines)


class NaeFormula(Record):
    """Monotone CNF with clause sizes 2 and 3 over variables 0..num_vars-1."""

    __slots__ = ("num_vars", "clauses")

    def __post_init__(self):
        for cl in self.clauses:
            if len(cl) not in (2, 3):
                raise ValueError(f"clause size {len(cl)} not in {{2, 3}}")
            for x in cl:
                if not 0 <= x < self.num_vars:
                    raise ValueError(f"variable {x} out of range")

    @property
    def is_cubic_monotone(self) -> bool:
        """True when every variable occurs in exactly three clauses."""
        count = [0] * self.num_vars
        for cl in self.clauses:
            for x in cl:
                count[x] += 1
        return all(c == 3 for c in count)


def parse_nae(text: str) -> NaeFormula:
    """One clause per line, space-separated variable ids."""
    clauses = []
    top = -1
    for i, line in enumerate(text_lines(text)):
        if not line.strip():
            continue
        lineno = i + 1
        ids = []
        for tok in line.split():
            try:
                x = parse_int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad variable token {tok!r}") from None
            if x < 0:
                raise ParseError(f"line {lineno}: negated literal {x} in monotone formula")
            ids.append(x)
            top = max(top, x)
        if len(ids) not in (2, 3):
            raise ParseError(f"line {lineno}: clause size {len(ids)} not in {{2, 3}}")
        clauses.append(tuple(ids))
    return NaeFormula(top + 1, tuple(clauses))


def nae_bruteforce(formula: NaeFormula) -> Optional[tuple[bool, ...]]:
    """The numerically least assignment (variable i is bit i) making every
    clause contain both values, or None.

    An empty clause list is vacuously satisfiable.  Repeated variables in
    a clause are kept: a clause over a single variable can never be split.
    Each connected component of the clauses' variables is searched on its
    own, and variables in no clause are False; the least assignment is the
    union of the components' least ones.  Backtracking assigns a
    component's variables from the highest down, False before True, and
    checks each clause once its lowest variable is assigned, so the first
    full assignment reached is the least one.
    """
    n = formula.num_vars
    if n > 24:
        raise BudgetError(f"{n} variables exceed the brute-force budget of 24")
    due: list[list[int]] = [[] for _ in range(n)]
    components: list[int] = []  # disjoint variable masks
    for cl in formula.clauses:
        mask = 0
        for x in cl:
            mask |= 1 << x
        if mask & (mask - 1) == 0:  # one distinct variable: never split
            return None
        due[min(cl)].append(mask)
        for comp in [comp for comp in components if comp & mask]:
            components.remove(comp)
            mask |= comp
        components.append(mask)
    # a clause is split iff its variables are neither all false nor all
    # true: 0 < (a & mask) < mask
    a = 0
    for comp in components:
        xs = [x for x in range(n) if comp >> x & 1]
        i = len(xs) - 1  # xs[i:] hold bits of a; those below i are 0
        while i >= 0:
            if all(0 < (a & mk) < mk for mk in due[xs[i]]):
                i -= 1
                continue
            while a >> xs[i] & 1:  # both values of xs[i] failed: backtrack
                a ^= 1 << xs[i]
                i += 1
                if i == len(xs):
                    return None
            a |= 1 << xs[i]
    return tuple([a >> x & 1 == 1 for x in range(n)])


def widen_degree_set(g: Graph) -> Graph:
    """Attach fixed components to a 3-regular graph so that the result's
    degree set is exactly {1, ..., 9}.

    The companions are a 4-cycle, a 5-path, K_{9,9}, and the stars with 4
    through 8 leaves, appended in that order after the input.
    """
    deg = g.degrees()
    if g.n == 0 or set(deg) != {3}:
        raise ValueError("input must be 3-regular")
    pieces = [g, cycle(4), path(5), complete_bipartite(9, 9)]
    pieces.extend(star(i) for i in range(4, 9))
    return disjoint_union(pieces)


def is_additive_coloring(g: Graph, labels: Sequence[int]) -> bool:
    """Do the incident {1,2} label sums differ across every edge?

    Defined here for 3-regular graphs, where this is equivalent to the
    induced two-part split being locally irregular part by part.
    """
    if set(g.degrees()) != {3}:
        raise ValueError("input must be 3-regular")
    if len(labels) != g.m:
        raise ValueError("one label per edge required")
    if any(lab not in (1, 2) for lab in labels):
        raise ValueError("labels must be 1 or 2")
    sums = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        sums[u] += labels[e]
        sums[v] += labels[e]
    return all(sums[u] != sums[v] for u, v in g.edges)


def partition_from_labels(g: Graph, labels: Sequence[int]) -> EdgePartition:
    """Two-part split by label value: label 1 -> part 0, label 2 -> part 1."""
    if len(labels) != g.m or any(lab not in (1, 2) for lab in labels):
        raise ValueError("labels must be 1 or 2, one per edge")
    return EdgePartition(2, tuple(lab - 1 for lab in labels))


# ---------------------------------------------------------------------------
# gadget framework
# ---------------------------------------------------------------------------

class Gadget(Record):
    __slots__ = ("graph", "ports")


class GadgetSet(Record):
    __slots__ = ("gadgets",)

    def get(self, name: str) -> Gadget:
        if name not in self.gadgets:
            raise GadgetError(f"missing gadget {name!r}")
        return self.gadgets[name]


class ReductionResult(Record):
    __slots__ = ("graph", "variable_vertices", "clause_ports")


class _VariantRules(Record):
    # clause3, clause2: (gadget, port) for a 3-clause and a 2-clause;
    # extra_bases: K_{a,b} shapes
    __slots__ = ("clause3", "clause2", "base_gadgets", "extra_bases", "allowed_degrees")


_RULES = {
    "thm2": _VariantRules(
        clause3=("H", "a"), clause2=("I", "b"), base_gadgets=("B",),
        extra_bases=((1, 6), (3, 6)), allowed_degrees=frozenset({1, 3, 6}),
    ),
    "thm3iii": _VariantRules(
        clause3=("F", "a"), clause2=("D", "b"), base_gadgets=("P",),
        extra_bases=(), allowed_degrees=frozenset({2, 3, 4, 6}),
    ),
}


def _variant_rules(variant: str) -> _VariantRules:
    if variant not in _RULES:
        raise ValueError(f"unknown reduction variant {variant!r}")
    return _RULES[variant]


def parse_gadget(name: str, text: str) -> Gadget:
    """The edge-list format, then one "port <name> <vertex-id>" line per
    port; blank lines may follow the edge block."""
    lines = text.splitlines()
    _, m = parse_header(lines, "n m")
    graph = parse_graph("\n".join(lines[:m + 1]))
    ports: dict[str, int] = {}
    for lineno, line in enumerate(lines[m + 1:], m + 2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3 or fields[0] != "port":
            raise ParseError(f"line {lineno}: port line must be 'port name vertex'")
        try:
            vid = parse_int(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: port vertex must be an integer") from None
        if fields[1] in ports:
            raise ParseError(f"line {lineno}: port {fields[1]!r} given twice")
        ports[fields[1]] = vid
    # a vertex on no edge and no port keeps degree 0 in every instance,
    # which no variant allows; checked before classify, whose cost is per vertex
    if graph.n > 2 * graph.m + len(ports):
        raise GadgetError(f"gadget {name!r}: {graph.n} vertices, more than 2 * {graph.m} edges "
                          f"+ {len(ports)} ports, so one keeps degree 0")
    if not classify(graph).is_bipartite:
        raise GadgetError(f"gadget {name!r} is not bipartite")
    for pname, vid in ports.items():
        if not 0 <= vid < graph.n:
            raise GadgetError(f"gadget {name!r}: port {pname!r} vertex {vid} out of range")
    return Gadget(graph, ports)


def load_gadget_set(directory: str, variant: str) -> GadgetSet:
    """Load the variant's gadgets from ``<name>.gadget`` files."""
    rules = _variant_rules(variant)
    gadgets = {}
    for name in rules.base_gadgets + (rules.clause3[0], rules.clause2[0]):
        filepath = os.path.join(directory, f"{name}.gadget")
        try:
            with open(filepath, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise GadgetError(f"missing gadget {name!r}: no file {filepath}") from None
        except OSError as exc:
            raise GadgetError(f"cannot read gadget {name!r} from {filepath}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise GadgetError(f"cannot read gadget {name!r} from {filepath}: {exc}") from None
        try:
            gadgets[name] = parse_gadget(name, text)
        except (ParseError, GadgetError) as exc:
            # a GadgetError names the gadget first: its name is not repeated
            detail = str(exc).removeprefix(f"gadget {name!r}").lstrip(": ")
            raise type(exc)(f"gadget {name!r} ({filepath}): {detail}") from None
    return GadgetSet(gadgets)


def build_reduction(formula: NaeFormula, gadgets: GadgetSet, variant: str) -> ReductionResult:
    """Assemble the hardness instance for a cubic monotone formula.

    One disjoint union of the fixed base components and one clause gadget
    per clause, then one vertex per variable and clause-port-to-variable
    edges; the result must come out bipartite with degrees inside the
    variant's allowed set, otherwise the gadget data is rejected.
    """
    if not formula.is_cubic_monotone:
        raise ValueError("formula must be cubic monotone (every variable in 3 clauses)")
    rules = _variant_rules(variant)
    pieces = [gadgets.get(name).graph for name in rules.base_gadgets]
    pieces.extend(complete_bipartite(a, b) for a, b in rules.extra_bases)
    n = sum(g.n for g in pieces)
    clause_ports = []
    for cl in formula.clauses:
        gname, pname = rules.clause3 if len(cl) == 3 else rules.clause2
        gadget = gadgets.get(gname)
        if pname not in gadget.ports:
            raise GadgetError(f"gadget {gname!r} lacks port {pname!r}")
        clause_ports.append(n + gadget.ports[pname])
        pieces.append(gadget.graph)
        n += gadget.graph.n
    union = disjoint_union(pieces)
    variable_vertices = tuple(range(n, n + formula.num_vars))
    graph = Graph(n + formula.num_vars, union.edges + tuple(
        (port, variable_vertices[x]) for port, cl in zip(clause_ports, formula.clauses) for x in cl
    ))
    # the one-pass degree test first: classify builds a list per vertex
    degs = set(graph.degrees())
    if not degs <= rules.allowed_degrees:
        raise GadgetError(
            f"gadget data yields degrees {sorted(degs - rules.allowed_degrees)} "
            f"outside {sorted(rules.allowed_degrees)}"
        )
    if not classify(graph).is_bipartite:
        raise GadgetError("gadget data yields a non-bipartite instance")
    return ReductionResult(graph, variable_vertices, tuple(clause_ports))


def extract_assignment(
    g: Graph, p: EdgePartition, variable_vertices: Sequence[int]
) -> tuple[bool, ...]:
    """Read a truth assignment off a two-part split: a variable is true
    when all edges at its vertex lie in part 0.

    A variable vertex with no edges, or with incident edges in both parts,
    violates the construction's structure and is reported by id.
    """
    if p.k != 2 or len(p.part) != g.m:
        raise ValueError("need a two-part partition covering the graph")
    inc = incident_edges(g.n, g.edges)
    out = []
    for v in variable_vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"variable vertex {v} out of range")
        parts = {p.part[e] for e in inc[v]}
        if not parts:
            raise ValueError(f"variable vertex {v} has no incident edges")
        if len(parts) != 1:
            raise ValueError(f"variable vertex {v} has incident edges in both parts")
        out.append(parts == {0})
    return tuple(out)
