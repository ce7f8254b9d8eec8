"""The three workloads: seeded corpora and the op stream each one replays.

A CLI op is the argument list of one ``semireg`` process plus its checks;
an in-process op is a call into the library plus a check of its result.
Each workload builds one round, a fixed list of ops that the runner
replays until time is up, so a run that stops at any point has seen the
kinds in nearly the same proportions.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import checker
import corpus

# Vertices per block of a timed wr2-deg4 graph.  Connected 100-vertex
# graphs need at most about 400 frames of wr2-deg4's recursion, well
# inside Python's default limit of 1000.
DEG4_BLOCK = 100


@dataclass
class CliOp:
    """One ``semireg`` CLI invocation.

    ``expect`` gives the right exit code and ``check`` inspects stdout and
    any output file; both run after the op, outside the timed region.
    """

    kind: str
    argv: list[str]
    expect: Callable[[], int]
    check: Callable[[str], Optional[str]]


@dataclass
class CallOp:
    """One in-process library call; ``check`` inspects its return value."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


class LazyRound:
    """A round of in-process ops kept as compact specs.

    The ops of a spec (its graph, calls and checks) are built just before
    they run and dropped after, so the corpus held in memory stays small
    and no graph is reused from one replay of the round to the next.
    """

    def __init__(self, specs: list, build: Callable[[object], list[CallOp]], size: int):
        self.specs, self.build, self.size = specs, build, size

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        for spec in self.specs:
            yield from self.build(spec)


def _pack(edges) -> bytes:
    """Edges of a graph on at most 256 vertices, two bytes each."""
    return bytes(itertools.chain.from_iterable(edges))


def _unpack(packed: bytes) -> list[tuple[int, int]]:
    return list(zip(packed[::2], packed[1::2]))


def _fixed(code: int) -> Callable[[], int]:
    return lambda: code


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _all_of(*problems: Callable[[], Optional[str]]) -> Optional[str]:
    for problem in problems:
        found = problem()
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# cli-trees
# ---------------------------------------------------------------------------

def _tree_ops(size: int, j: int, work: str, rng: random.Random) -> list[CliOp]:
    """The ops on the j-th trees of one size class: every kind once and
    ``sr-tree`` three times.  Two kinds are faster than ``sr-tree`` and three
    slower, so the size class's median falls in the middle of the
    ``sr-tree`` block instead of on a boundary between two kinds."""
    tag = f"{size}-{j}"
    n = size
    plain = corpus.pruefer_tree(n, rng)
    plain_path = _write(os.path.join(work, f"tree-{tag}.txt"), corpus.graph_text(n, plain))
    planted, hidden = corpus.planted_tree(n, 2, 3, rng)
    if checker.partition_problem(n, planted, 2, hidden, "weakly-semiregular") is not None:
        raise AssertionError("planted tree does not carry its hidden split")
    planted_path = _write(os.path.join(work, f"planted-{tag}.txt"), corpus.graph_text(n, planted))
    graft = corpus.caterpillar_graft(n, 10, rng)
    if len(set(checker.degrees(n, graft))) < 9:
        raise AssertionError("caterpillar graft lost its degree-set certificate")
    graft_path = _write(os.path.join(work, f"graft-{tag}.txt"), corpus.graph_text(n, graft))
    delta = max(checker.degrees(n, plain))
    broken_path = _write(
        os.path.join(work, f"tree-{tag}.broken.parts"),
        corpus.partition_text(math.ceil(delta / 2), [0] * (n - 1)),
    )
    sr_out = os.path.join(work, f"tree-{tag}.sr.parts")
    alg3_out = os.path.join(work, f"tree-{tag}.alg3.parts")
    wr2_out = os.path.join(work, f"planted-{tag}.wr2.parts")
    cls = "1e5" if size >= 50_000 else "1e4" if size >= 5_000 else str(size)

    def decompose(method: str, out: str) -> CliOp:
        return CliOp(
            f"{method}@{cls}",
            ["decompose", plain_path, "--method", method, "--out", out],
            _fixed(0),
            lambda stdout: _all_of(
                lambda: checker.report_problem(stdout, {"verified": "true"}),
                lambda: checker.decomposition_problem(method, n, plain, _read(out)),
            ),
        )

    def verify(kind: str, parts: str) -> CliOp:
        # The right answer is recomputed from the partition file the op read:
        # exit 0 if it is a semiregular partition, 1 if not, 2 if unreadable.
        # ``expect`` runs first and leaves its finding for ``check``.
        state: dict[str, Optional[bool]] = {}

        def expect() -> int:
            try:
                k, part = checker.read_partition(_read(parts), n - 1)
            except (OSError, ValueError):
                state["valid"] = None
                return 2
            state["valid"] = checker.partition_problem(n, plain, k, part, "semiregular") is None
            return 0 if state["valid"] else 1

        def check(stdout: str) -> Optional[str]:
            if state["valid"] is None:
                return None
            return checker.report_problem(stdout, {"valid": "true" if state["valid"] else "false"})

        return CliOp(
            f"{kind}@{cls}",
            ["verify", plain_path, "--family", "semiregular", "--partition", parts],
            expect,
            check,
        )

    def wr2_yes_check(stdout: str) -> Optional[str]:
        def witness() -> Optional[str]:
            k, part = checker.read_partition(_read(wr2_out), n - 1)
            if k != 2:
                return f"witness has {k} parts"
            return checker.partition_problem(n, planted, k, part, "weakly-semiregular")

        return _all_of(
            lambda: checker.report_problem(stdout, {"decision": "YES", "verified": "true"}),
            witness,
        )

    return [
        decompose("sr-tree", sr_out),
        verify("verify", sr_out),
        decompose("alg3", alg3_out),
        decompose("sr-tree", sr_out),
        CliOp(f"wr2-yes@{cls}", ["decide", "wr2-tree", planted_path, "--out", wr2_out],
              _fixed(0), wr2_yes_check),
        decompose("sr-tree", sr_out),
        CliOp(f"wr2-no@{cls}", ["decide", "wr2-tree", graft_path], _fixed(1),
              lambda stdout: checker.report_problem(stdout, {"decision": "NO"})),
        verify("verify-broken", broken_path),
    ]


def cli_trees(seed: int, work: str, quick: bool) -> tuple[list[CliOp], int]:
    """Large trees, one CLI process per op; every fifth op on the large size.

    Returns the round and its cycle, the number of ops after which the
    kinds have come in their exact proportions: 40 ops, which hold every
    kind once on one large tree and four times on small trees.  Each size
    goes through its own kind order, so an ``sr-tree`` op always writes
    the partition that the next ``verify`` op of that size reads.  The
    round is long enough for both orders to close.
    """
    rng = random.Random(seed)
    small, large = (300, 1500) if quick else (10_000, 100_000)
    small_ops = [op for j in range(3) for op in _tree_ops(small, j, work, rng)]
    large_ops = [op for j in range(2) for op in _tree_ops(large, j, work, rng)]
    if quick:
        return small_ops + large_ops, len(small_ops) + len(large_ops)
    rounds = []
    for i in range(5 * 48):  # 48 large ops: 3 large cycles, 8 small cycles
        if i % 5 == 4:
            rounds.append(large_ops[(i // 5) % len(large_ops)])
        else:
            rounds.append(small_ops[(i - i // 5) % len(small_ops)])
    return rounds, 5 * len(large_ops) // 2


# ---------------------------------------------------------------------------
# cli-graphs
# ---------------------------------------------------------------------------

def cli_graphs(seed: int, work: str, quick: bool) -> tuple[list[CliOp], int]:
    """General graphs, one CLI process per op.

    Returns the round and its cycle, one slot of ops (see below).
    """
    rng = random.Random(seed)
    dense, sparse = ((200, 2000), (800, 2000)) if quick else ((1000, 20_000), (5000, 20_000))
    deg4_sizes = (300, 1000) if quick else (300, 1000, 3000)
    # cycle complements up to n = 500: at 600 `rep construct` outlasts the
    # dense sr-general ops and the 90th percentile would straddle the two
    rep_sizes = (30, 45) if quick else (300, 400, 500)
    cubic_n = 200 if quick else 20_000

    def graph_file(name: str, n: int, edges) -> str:
        return _write(os.path.join(work, f"{name}.txt"), corpus.graph_text(n, edges))

    def decompose(kind: str, method: str, name: str, n: int, edges) -> CliOp:
        path = graph_file(name, n, edges)
        out = os.path.join(work, f"{name}.parts")
        return CliOp(
            kind,
            ["decompose", path, "--method", method, "--out", out],
            _fixed(0),
            lambda stdout: _all_of(
                lambda: checker.report_problem(stdout, {"verified": "true"}),
                lambda: checker.decomposition_problem(method, n, edges, _read(out)),
            ),
        )

    def rep(name: str, n: int) -> CliOp:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in corpus.cycle_complement(n)]
        path = graph_file(name, n, edges)
        out = os.path.join(work, f"{name}.rep")
        return CliOp(
            f"rep@{n}",
            ["rep", "construct", path, "--out", out],
            _fixed(0),
            lambda stdout: _all_of(
                lambda: checker.report_problem(stdout, {"verified": "true"}),
                lambda: checker.representation_problem(n, edges, _read(out)),
            ),
        )

    def thm4(name: str) -> CliOp:
        edges = corpus.cubic_graph(cubic_n, rng)
        path = graph_file(name, cubic_n, edges)
        out = os.path.join(work, f"{name}.wide.txt")
        return CliOp(
            "thm4",
            ["reduce", path, "--variant", "thm4", "--out", out],
            _fixed(0),
            lambda stdout: _all_of(
                lambda: checker.report_problem(stdout, {"degree-set": "1 2 3 4 5 6 7 8 9"}),
                lambda: checker.widened_problem(cubic_n, edges, _read(out)),
            ),
        )

    # Pools of distinct inputs, drawn in a fixed order, 12 per kind.  Their
    # op times vary with the input (sr-general on dense graphs by +-15%), so
    # a run averages over many of them.  The wr2-deg4 graphs are unions of
    # DEG4_BLOCK-vertex blocks: on connected graphs from n = 300 up,
    # wr2-deg4 recurses past Python's limit on some or all inputs, an open
    # defect that ``deg4_probe`` measures apart from the timed ops.
    pool = 2 if quick else 12
    dense_ops = [decompose("sr-general@dense", "sr-general", f"dense-{j}", dense[0],
                           corpus.simple_graph(*dense, rng)) for j in range(pool)]
    sparse_ops = [decompose("sr-general@sparse", "sr-general", f"sparse-{j}", sparse[0],
                            corpus.simple_graph(*sparse, rng)) for j in range(pool)]
    deg4_ops = [[decompose(f"wr2-deg4@{n}", "wr2-deg4", f"deg4-{n}-{j}", n,
                           corpus.deg4_union(n, DEG4_BLOCK, rng))
                 for j in range(pool)] for n in deg4_sizes]
    rep_ops = [rep(f"rep-{j}", n) for j, n in enumerate(rep_sizes)]
    thm4_ops = [thm4(f"cubic-{j}") for j in range(1 if quick else 2)]

    # One slot: 4 sparse and 2 dense sr-general ops, one wr2-deg4 op per
    # size, one rep and one thm4 op.  The weights put the median inside the
    # sparse sr-general class and the 90th percentile inside the dense one.
    dense_it, sparse_it, rep_it, thm4_it = map(itertools.cycle, (dense_ops, sparse_ops, rep_ops, thm4_ops))
    deg4_its = [itertools.cycle(size_ops) for size_ops in deg4_ops]
    ops: list[CliOp] = []
    for _ in range(2 if quick else 12):
        slot = [
            next(sparse_it), next(deg4_its[0]), next(dense_it), next(rep_it),
            next(sparse_it), next(deg4_its[1]), next(thm4_it), next(sparse_it),
            next(deg4_its[-1]), next(dense_it), next(sparse_it),
        ]
        ops += slot
    return ops, len(slot)


def deg4_probe(seed: int, quick: bool) -> list[tuple[int, list]]:
    """Connected random degree-<=4 graphs, a fixed number per size, on
    which wr2-deg4's known ``RecursionError`` defect is counted.  Kept out
    of the timed ops: whether an input crashes decides the op mix."""
    rng = random.Random(seed ^ 0x5EED)
    sizes = (300, 1000) if quick else (300, 1000, 3000, 10_000)
    return [(n, corpus.deg4_graph(n, rng)) for n in sizes for _ in range(2 if quick else 3)]


# ---------------------------------------------------------------------------
# exact-small
# ---------------------------------------------------------------------------

def exact_small(seed: int, quick: bool) -> LazyRound:
    """Tiny inputs through the exact searches, in process.

    Returns one round of ops; the round is replayed until time is up.
    """
    from semireg import Family, Graph, NaeFormula, OracleBudget, oracles, reductions, trees

    rng = random.Random(seed)
    top = 5 if quick else 7
    trees_packed = [_pack(e) for n in range(1, top + 1) for e in corpus.all_labeled_trees(n)]
    trees_packed += [_pack(corpus.pruefer_tree(8, rng)) for _ in range(20 if quick else 2000)]
    rng.shuffle(trees_packed)
    wsr2 = OracleBudget(max_edges=8, max_parts=2)

    def tree_check(edges) -> list[CallOp]:
        # One op decides a tree both ways, so that the median op is a whole
        # n = 7 check and does not sit between the faster oracle calls and
        # the slower wr2_tree calls.
        n = len(edges) + 1
        g = Graph(n, tuple(edges))

        def witness_problem(result, k: int) -> Optional[str]:
            if result is None:
                return None
            return checker.partition_problem(n, edges, k, result.part, "weakly-semiregular")

        def check(results) -> Optional[str]:
            wr2, oracle = results
            if wr2 is not None and wr2.k != 2:
                return "wr2 witness does not have 2 parts"
            problem = witness_problem(wr2, 2)
            if problem is None and oracle is not None:
                if oracle[0] == 0:
                    problem = None if not edges else "zero parts for a nonempty tree"
                else:
                    problem = witness_problem(oracle[1], oracle[0])
            if problem is None and (wr2 is None) != (oracle is None):
                problem = "wr2_tree and the oracle disagree"
            return problem

        return [CallOp(f"tree@{n}", lambda: (trees.wr2_tree(g),
                                             oracles.oracle_min_parts(g, Family.WEAKLY_SEMIREGULAR, wsr2)),
                       check)]

    def wrc(edges) -> CallOp:
        g = Graph(len(edges) + 1, tuple(edges))

        def check(result) -> Optional[str]:
            if result is None:
                return "wrc_tree(c=3) found no split of a 9-vertex tree"
            return checker.partition_problem(g.n, edges, 3, result.part, "weakly-semiregular")

        return CallOp("wrc_tree@9", lambda: trees.wrc_tree(g, 3), check)

    def oracle_group(n: int, edges) -> list[CallOp]:
        g = Graph(n, tuple(edges))
        deg = checker.degrees(n, edges)
        found: dict[str, int] = {}

        def check_family(family: str):
            def check(result) -> Optional[str]:
                whole = checker.partition_problem(n, edges, 1, [0] * len(edges), family) is None
                if result is None:
                    if family == "locally-irregular" and checker.odd_path_or_cycle_component(n, edges):
                        return None
                    return f"no {family} split within 4 parts"
                k, witness = result
                if (k == 1) != whole:
                    return f"{family}: minimum {k} contradicts the whole graph's membership"
                if witness.nonempty_parts() != k:
                    return f"{family}: witness does not use exactly {k} parts"
                found[family] = k
                problem = checker.partition_problem(n, edges, witness.k, witness.part, family)
                if problem is None and family == "semiregular" and k > math.ceil((max(deg) + 1) / 2):
                    problem = "semiregular minimum above ceil((D+1)/2)"
                li = found.get("locally-irregular")
                if problem is None and family in ("regular-or-locally-irregular", "mixed") and li and k > li:
                    problem = f"{family} minimum above the locally irregular minimum"
                if problem is None and family == "mixed" and k > found.get("semiregular", k):
                    problem = "mixed minimum above the semiregular minimum"
                return problem
            return check

        return [
            CallOp("oracle-sr", lambda: oracles.oracle_min_parts(g, Family.SEMIREGULAR),
                   check_family("semiregular")),
            CallOp("oracle-irr", lambda: oracles.oracle_min_parts(g, Family.LOCALLY_IRREGULAR),
                   check_family("locally-irregular")),
            CallOp("oracle-reg-irr",
                   lambda: oracles.oracle_min_parts(g, Family.REGULAR_OR_LOCALLY_IRREGULAR),
                   check_family("regular-or-locally-irregular")),
            CallOp("oracle-mixed", lambda: oracles.oracle_mixed(g), check_family("mixed")),
        ]

    def small_graph() -> tuple[int, list]:
        while True:
            n = rng.randint(7, 9)
            m = rng.randint(12, 14)
            tree = corpus.pruefer_tree(n, rng)
            have = {(min(u, v), max(u, v)) for u, v in tree}
            extra = [p for p in corpus.simple_graph(n, m, rng)
                     if (min(p), max(p)) not in have][: m - len(tree)]
            edges = tree + extra
            if len(edges) == m and max(checker.degrees(n, edges)) <= 6:
                return n, edges

    def planted_nae(num_vars: int) -> tuple:
        clauses, hidden = corpus.planted_nae(num_vars, rng)
        if checker.nae_problem(clauses, hidden) is not None:
            raise AssertionError("planted formula does not carry its hidden assignment")
        return ("nae", num_vars, clauses)

    def nae(num_vars: int, clauses) -> list[CallOp]:
        formula = NaeFormula(num_vars, tuple(clauses))
        return [CallOp("nae", lambda: reductions.nae_bruteforce(formula),
                       lambda result: checker.nae_problem(clauses, result))]

    # A spec is a packed tree, run through tree_check, or a tagged tuple.
    builders = {"wrc": lambda edges: [wrc(edges)], "oracle": oracle_group, "nae": nae}
    ops_per_spec = {"wrc": 1, "oracle": 4, "nae": 1}

    def build(spec) -> list[CallOp]:
        if isinstance(spec, bytes):
            return tree_check(_unpack(spec))
        return builders[spec[0]](*spec[1:])

    extras: list[tuple] = []
    for _ in range(5 if quick else 200):
        extras.append(("wrc", corpus.pruefer_tree(9, rng)))
    for _ in range(3 if quick else 200):
        extras.append(("oracle", *small_graph()))
    for _ in range(3 if quick else 50):
        extras.append(planted_nae(8 if quick else 18))
    rng.shuffle(extras)

    specs: list = []
    every = max(1, len(trees_packed) // len(extras))
    for i, packed in enumerate(trees_packed):
        specs.append(packed)
        if i % every == 0 and i // every < len(extras):
            specs.append(extras[i // every])
    size = len(trees_packed) + sum(ops_per_spec[e[0]] for e in extras[:len(specs) - len(trees_packed)])
    return LazyRound(specs, build, size)
