"""Command-line interface.

Every decomposition command re-verifies its own output with the partition
verifier; a failed re-verification is a hard error (exit 4).  Each
subcommand returns a ``RunReport``, and ``run`` alone writes ``--out``,
prints and picks the exit code.  Results go to stdout as a short human
line plus a machine-readable block of "key: value" lines in a fixed order,
so identical inputs give byte-identical output; wall-clock timing goes to
stderr only.

Exit codes: 0 success, 1 negative decision (NO / UNSAT / not found),
2 input error, 3 budget error, 4 failed self-verification (any report
saying "verified: false"), 5 internal error (any other exception; the
traceback goes to stderr).  An unreadable input, an unwritable ``--out``
and an input whose sizes outgrow memory (a header naming 10^12 vertices,
say) are input errors: exit 2, no traceback, nothing on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from functools import partial
from typing import Callable

from . import coloring, families, oracles, reductions, representation, trees
from .errors import BudgetError, ParseError
from .families import EdgePartition, Family
from .graph import Graph, degree_set, parse_graph, serialize_graph

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_UNVERIFIED = 4
EXIT_INTERNAL = 5

class RunReport:
    """What a subcommand hands to ``run``: the human headline (None: no
    line), a function making the text for ``--out`` (None: nothing to
    write; called only when ``--out`` is given), the report block and the
    exit code.  A new report has none of the first three and exit code 0."""

    __slots__ = ("command", "input_digest", "fields", "headline", "out", "code")

    def __init__(self, command: str, input_digest: str):
        self.command = command
        self.input_digest = input_digest
        self.fields: list[tuple[str, str]] = []
        self.headline: str | None = None
        self.out: Callable[[], str] | None = None
        self.code = EXIT_OK

    def add(self, key: str, value) -> None:
        self.fields.append((key, str(value)))

    def emit(self) -> None:
        print("== report ==")
        print(f"command: {self.command}")
        print(f"input-sha256: {self.input_digest}")
        for key, value in self.fields:
            print(f"{key}: {value}")
        print("== end ==")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_graph(path: str) -> tuple[Graph, str]:
    text = _read_text(path)
    return parse_graph(text), _digest(text)


def _verified(report: RunReport, ok: bool) -> int:
    """Adds the ``verified`` line; returns the exit code it gives."""
    report.add("verified", "true" if ok else "false")
    return EXIT_OK if ok else EXIT_UNVERIFIED


def _partition_summary(report: RunReport, g: Graph, p: EdgePartition, fam: Family, headline: str) -> int:
    """Adds the partition lines, ``headline`` formatted with the nonempty
    part count and the partition's ``--out`` text maker to the report; returns
    the exit code that re-verification gives."""
    sizes = p.part_sizes()
    nonempty = len(sizes) - sizes.count(0)
    report.add("parts", p.k)
    report.add("nonempty-parts", nonempty)
    report.add("part-sizes", " ".join(map(str, sizes)))
    report.headline = headline.format(nonempty)
    report.out = partial(families.serialize_partition, p)
    return _verified(report, families.verify_partition(g, p, fam))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_decide(args) -> RunReport:
    g, digest = _load_graph(args.graph)
    if args.decision == "wr2-tree":
        witness = trees.wr2_tree(g)
        report = RunReport("decide wr2-tree", digest)
    else:
        witness = trees.wrc_tree(g, args.c)
        report = RunReport(f"decide wrc-tree c={args.c}", digest)
    if witness is None:
        report.add("decision", "NO")
        report.code = EXIT_NO
        return report
    report.add("decision", "YES")
    report.code = _partition_summary(report, g, witness, Family.WEAKLY_SEMIREGULAR, "YES")
    return report


_METHODS = {
    "alg3": (trees.log_tree_partition, Family.WEAKLY_SEMIREGULAR),
    "sr-tree": (trees.sr_tree, Family.SEMIREGULAR),
    "sr-general": (coloring.sr_general, Family.SEMIREGULAR),
    "wr2-deg4": (coloring.wr2_deg4, Family.WEAKLY_SEMIREGULAR),
}


def _cmd_decompose(args) -> RunReport:
    g, digest = _load_graph(args.graph)
    fn, fam = _METHODS[args.method]
    p = fn(g)
    report = RunReport(f"decompose {args.method}", digest)
    report.add("family", fam.value)
    report.code = _partition_summary(report, g, p, fam, "decomposed into {} nonempty part(s)")
    return report


def _cmd_oracle(args) -> RunReport:
    g, digest = _load_graph(args.graph)
    budget = oracles.OracleBudget(max_edges=args.max_edges, max_parts=args.max_parts)
    fam = Family(args.family)
    result = oracles.oracle_min_parts(g, fam, budget)
    report = RunReport(f"oracle {args.family}", digest)
    if result is None:
        report.add("min-parts", f"> {args.max_parts}")
        report.code = EXIT_NO
        return report
    k, witness = result
    report.add("min-parts", k)
    if k > 0:
        report.code = _partition_summary(report, g, witness, fam, f"minimum parts: {k}")
    else:  # no edges: an empty partition, nothing to verify
        report.add("parts", k)
        report.headline = f"minimum parts: {k}"
        report.out = partial(families.serialize_partition, witness)
    return report


def _cmd_verify(args) -> RunReport:
    g, digest = _load_graph(args.graph)
    p = families.parse_partition(_read_text(args.partition))
    ok = families.verify_partition(g, p, Family(args.family))
    report = RunReport(f"verify {args.family}", digest)
    report.add("parts", p.k)
    report.add("valid", "true" if ok else "false")
    report.headline = "valid" if ok else "invalid"
    report.code = EXIT_OK if ok else EXIT_NO
    return report


def _cmd_reduce(args) -> RunReport:
    text = _read_text(args.input)
    report = RunReport(f"reduce {args.variant}", _digest(text))
    if args.variant == "thm4":
        built = reductions.widen_degree_set(parse_graph(text))
        extra = [("wr-lower-bound", families.wr_lower_bound(built))]
    else:
        if not args.gadgets:
            raise ParseError("gadget reductions need --gadgets DIR")
        formula = reductions.parse_nae(text)
        gadgets = reductions.load_gadget_set(args.gadgets, args.variant)
        result = reductions.build_reduction(formula, gadgets, args.variant)
        built = result.graph
        extra = [
            ("variables", " ".join(str(v) for v in result.variable_vertices)),
            ("clause-ports", " ".join(str(v) for v in result.clause_ports)),
        ]
    report.add("vertices", built.n)
    report.add("edges", built.m)
    report.add("degree-set", " ".join(map(str, degree_set(built))))
    for key, value in extra:
        report.add(key, value)
    report.headline = f"built instance with {built.n} vertices"
    report.out = partial(serialize_graph, built)
    return report


def _cmd_nae(args) -> RunReport:
    text = _read_text(args.formula)
    formula = reductions.parse_nae(text)
    assignment = reductions.nae_bruteforce(formula)
    report = RunReport("nae solve", _digest(text))
    report.add("variables", formula.num_vars)
    report.add("clauses", len(formula.clauses))
    report.add("cubic-monotone", "true" if formula.is_cubic_monotone else "false")
    if assignment is None:
        report.add("result", "UNSAT")
        report.headline = "UNSAT"
        report.code = EXIT_NO
        return report
    report.add("result", "SAT")
    report.add("assignment", " ".join("1" if b else "0" for b in assignment))
    report.headline = "SAT"
    return report


def _cmd_rep(args) -> RunReport:
    g, digest = _load_graph(args.graph)
    report = RunReport(f"rep {args.action}", digest)
    if args.action == "verify":
        rep = representation.parse_representation(_read_text(args.rep))
        ok = representation.verify_representation(g, rep)
        report.add("r", rep.r)
        report.add("valid", "true" if ok else "false")
        report.headline = "valid" if ok else "invalid"
        report.code = EXIT_OK if ok else EXIT_NO
    elif args.action == "search":
        found = representation.rep_search(g, args.r_max)
        if found is None:
            report.add("result", f"not-found <= {args.r_max}")
            report.headline = "not found"
            report.code = EXIT_NO
            return report
        report.add("r", found.r)
        report.add("labels", " ".join(str(x) for x in found.labels))
        report.code = _verified(report, representation.verify_representation(g, found))
        report.headline = f"rep = {found.r}"
    else:
        rep, plan = representation.rep_construct(g)
        report.add("r", rep.r)
        report.add("primes", " ".join(str(p) for p in plan.primes))
        report.add("matching-sizes", " ".join(str(len(mm)) for mm in plan.matchings))
        report.add("labels", " ".join(str(x) for x in rep.labels))
        report.code = _verified(report, representation.verify_representation(g, rep))
        report.headline = f"r = {rep.r}"
        report.out = partial(representation.serialize_representation, rep, plan)
    return report


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semireg",
        description="Edge partitions into weakly semiregular, semiregular, "
        "regular, and locally irregular subgraphs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    family_tokens = sorted(f.value for f in Family)
    budget = oracles.OracleBudget()

    p = sub.add_parser("decide", help="tree decision procedures")
    dsub = p.add_subparsers(dest="decision", required=True)
    d1 = dsub.add_parser("wr2-tree", help="can the tree split into two weakly semiregular forests?")
    d1.add_argument("graph")
    d1.add_argument("--out", help="write the witness partition here")
    d1.set_defaults(fn=_cmd_decide)
    d2 = dsub.add_parser("wrc-tree", help="can the tree split into at most c weakly semiregular forests?")
    d2.add_argument("graph")
    d2.add_argument("--c", type=int, required=True)
    d2.add_argument("--out")
    d2.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("decompose", help="constructive decompositions")
    p.add_argument("graph")
    p.add_argument("--method", choices=sorted(_METHODS), required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("oracle", help="exact minimum part count by exhaustive search")
    p.add_argument("graph")
    p.add_argument("--family", choices=family_tokens, required=True)
    p.add_argument("--max-parts", type=int, default=budget.max_parts)
    p.add_argument("--max-edges", type=int, default=budget.max_edges)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("verify", help="check a partition file against a family")
    p.add_argument("graph")
    p.add_argument("--family", choices=family_tokens, required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reduce", help="hardness-instance constructions")
    p.add_argument("input", help="formula file (gadget variants) or graph file (thm4)")
    p.add_argument("--variant", choices=["thm2", "thm3iii", "thm4"], required=True)
    p.add_argument("--gadgets", help="directory of <name>.gadget files")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("nae", help="not-all-equal satisfiability")
    nsub = p.add_subparsers(dest="action", required=True)
    n1 = nsub.add_parser("solve", help="brute-force an NAE assignment")
    n1.add_argument("formula")
    n1.set_defaults(fn=_cmd_nae)

    p = sub.add_parser("rep", help="representations modulo r")
    rsub = p.add_subparsers(dest="action", required=True)
    r1 = rsub.add_parser("verify")
    r1.add_argument("graph")
    r1.add_argument("--rep", required=True, help="representation file")
    r1.set_defaults(fn=_cmd_rep)
    r2 = rsub.add_parser("search")
    r2.add_argument("graph")
    r2.add_argument("--r-max", type=int, default=1000)
    r2.set_defaults(fn=_cmd_rep)
    r3 = rsub.add_parser("construct")
    r3.add_argument("graph")
    r3.add_argument("--out")
    r3.set_defaults(fn=_cmd_rep)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.fn(args)
        path = getattr(args, "out", None)
        if path and report.out is not None:
            text = report.out()
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ParseError(f"cannot write {path}: {exc}") from None
        if report.headline is not None:
            print(report.headline)
        report.emit()
        if report.code == EXIT_UNVERIFIED:
            print("internal error: output failed re-verification", file=sys.stderr)
        return report.code
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:  # ParseError and GadgetError included
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("input error: input too large for memory", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback  # imported here to keep it off every start-up

        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        elapsed = (time.perf_counter() - start) * 1000
        print(f"elapsed: {elapsed:.1f} ms", file=sys.stderr)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
