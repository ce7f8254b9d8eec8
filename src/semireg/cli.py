"""Command-line interface.

Every decomposition command re-verifies its own output with the partition
verifier before printing; a failed re-verification is a hard error (exit
4).  Results go to stdout as a short human line plus a machine-readable
block of "key: value" lines in a fixed order, so identical inputs give
byte-identical output; wall-clock timing goes to stderr only.

Exit codes: 0 success, 1 negative decision (NO / UNSAT / not found),
2 input error, 3 budget error, 4 failed self-verification, 5 internal
error (any other exception; the traceback goes to stderr).  An input
whose sizes outgrow memory (a header naming 10^12 vertices, say) raises
MemoryError, which is an input error: exit 2, no traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass, field

from . import coloring, families, oracles, reductions, representation, trees
from .errors import BudgetError, GadgetError, ParseError
from .families import EdgePartition, Family
from .graph import Graph, parse_graph, serialize_graph

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_UNVERIFIED = 4
EXIT_INTERNAL = 5

_FAMILIES = {f.value: f for f in Family}


@dataclass
class RunReport:
    command: str
    input_digest: str
    fields: list[tuple[str, str]] = field(default_factory=list)

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
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_graph(path: str) -> tuple[Graph, str]:
    text = _read_text(path)
    return parse_graph(text), _digest(text)


def _write_out(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _partition_summary(report: RunReport, g: Graph, p: EdgePartition, fam: Family) -> tuple[bool, int]:
    """Adds the partition lines to the report; returns whether the partition
    verified and its nonempty part count, both from one count of part sizes."""
    verified = families.verify_partition(g, p, fam)
    sizes = p.part_sizes()
    nonempty = len(sizes) - sizes.count(0)
    report.add("parts", p.k)
    report.add("nonempty-parts", nonempty)
    report.add("part-sizes", " ".join(map(str, sizes)))
    report.add("verified", "true" if verified else "false")
    return verified, nonempty


def _finish_partition(
    args, report: RunReport, g: Graph, p: EdgePartition, fam: Family, headline: str
) -> int:
    """Prints ``headline``, formatted with the nonempty part count, then
    writes the partition to ``--out`` and emits the report."""
    verified, nonempty = _partition_summary(report, g, p, fam)
    print(headline.format(nonempty))
    _write_out(getattr(args, "out", None), families.serialize_partition(p))
    report.emit()
    if not verified:
        print("internal error: produced partition failed re-verification", file=sys.stderr)
        return EXIT_UNVERIFIED
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_decide(args) -> int:
    g, digest = _load_graph(args.graph)
    if args.decision == "wr2-tree":
        witness = trees.wr2_tree(g)
        label = "decide wr2-tree"
    else:
        witness = trees.wrc_tree(g, args.c)
        label = f"decide wrc-tree c={args.c}"
    report = RunReport(label, digest)
    if witness is None:
        report.add("decision", "NO")
        report.emit()
        return EXIT_NO
    report.add("decision", "YES")
    return _finish_partition(args, report, g, witness, Family.WEAKLY_SEMIREGULAR, "YES")


_METHODS = {
    "alg3": (trees.log_tree_partition, Family.WEAKLY_SEMIREGULAR),
    "sr-tree": (trees.sr_tree, Family.SEMIREGULAR),
    "sr-general": (coloring.sr_general, Family.SEMIREGULAR),
    "wr2-deg4": (coloring.wr2_deg4, Family.WEAKLY_SEMIREGULAR),
}


def _cmd_decompose(args) -> int:
    g, digest = _load_graph(args.graph)
    fn, fam = _METHODS[args.method]
    p = fn(g)
    report = RunReport(f"decompose {args.method}", digest)
    report.add("family", fam.value)
    return _finish_partition(args, report, g, p, fam, "decomposed into {} nonempty part(s)")


def _cmd_oracle(args) -> int:
    g, digest = _load_graph(args.graph)
    budget = oracles.OracleBudget(max_edges=args.max_edges, max_parts=args.max_parts)
    fam = _FAMILIES[args.family]
    result = oracles.oracle_min_parts(g, fam, budget)
    report = RunReport(f"oracle {args.family}", digest)
    if result is None:
        report.add("min-parts", f"> {args.max_parts}")
        report.emit()
        return EXIT_NO
    k, witness = result
    report.add("min-parts", k)
    if k > 0:
        verified, _ = _partition_summary(report, g, witness, fam)
    else:
        verified = True
        report.add("parts", k)
    print(f"minimum parts: {k}")
    _write_out(args.out, families.serialize_partition(witness))
    report.emit()
    return EXIT_OK if verified else EXIT_UNVERIFIED


def _cmd_verify(args) -> int:
    g, digest = _load_graph(args.graph)
    p = families.parse_partition(_read_text(args.partition))
    ok = families.verify_partition(g, p, _FAMILIES[args.family])
    report = RunReport(f"verify {args.family}", digest)
    report.add("parts", p.k)
    report.add("valid", "true" if ok else "false")
    print("valid" if ok else "invalid")
    report.emit()
    return EXIT_OK if ok else EXIT_NO


def _cmd_reduce(args) -> int:
    text = _read_text(args.input)
    digest = _digest(text)
    report = RunReport(f"reduce {args.variant}", digest)
    if args.variant == "thm4":
        g = parse_graph(text)
        out = reductions.widen_degree_set(g)
        report.add("vertices", out.n)
        report.add("edges", out.m)
        report.add("degree-set", " ".join(str(d) for d in sorted(set(out.degrees()))))
        report.add("wr-lower-bound", families.wr_lower_bound(out))
        _write_out(args.out, serialize_graph(out))
        print(f"built instance with {out.n} vertices")
        report.emit()
        return EXIT_OK
    if not args.gadgets:
        raise ParseError("gadget reductions need --gadgets DIR")
    formula = reductions.parse_nae(text)
    gadgets = reductions.load_gadget_set(args.gadgets, args.variant)
    result = reductions.build_reduction(formula, gadgets, args.variant)
    report.add("vertices", result.graph.n)
    report.add("edges", result.graph.m)
    report.add("degree-set", " ".join(str(d) for d in sorted(set(result.graph.degrees()))))
    report.add("variables", " ".join(str(v) for v in result.variable_vertices))
    report.add("clause-ports", " ".join(str(v) for v in result.clause_ports))
    _write_out(args.out, serialize_graph(result.graph))
    print(f"built instance with {result.graph.n} vertices")
    report.emit()
    return EXIT_OK


def _cmd_nae(args) -> int:
    text = _read_text(args.formula)
    formula = reductions.parse_nae(text)
    assignment = reductions.nae_bruteforce(formula)
    report = RunReport("nae solve", _digest(text))
    report.add("variables", formula.num_vars)
    report.add("clauses", len(formula.clauses))
    report.add("cubic-monotone", "true" if formula.is_cubic_monotone else "false")
    if assignment is None:
        report.add("result", "UNSAT")
        print("UNSAT")
        report.emit()
        return EXIT_NO
    report.add("result", "SAT")
    report.add("assignment", " ".join("1" if b else "0" for b in assignment))
    print("SAT")
    report.emit()
    return EXIT_OK


def _cmd_rep(args) -> int:
    g, digest = _load_graph(args.graph)
    if args.action == "verify":
        rep = representation.parse_representation(_read_text(args.rep))
        ok = representation.verify_representation(g, rep)
        report = RunReport("rep verify", digest)
        report.add("r", rep.r)
        report.add("valid", "true" if ok else "false")
        print("valid" if ok else "invalid")
        report.emit()
        return EXIT_OK if ok else EXIT_NO
    if args.action == "search":
        found = representation.rep_search(g, args.r_max)
        report = RunReport("rep search", digest)
        if found is None:
            report.add("result", f"not-found <= {args.r_max}")
            print("not found")
            report.emit()
            return EXIT_NO
        report.add("r", found.r)
        report.add("labels", " ".join(str(x) for x in found.labels))
        report.add("verified", "true" if representation.verify_representation(g, found) else "false")
        print(f"rep = {found.r}")
        report.emit()
        return EXIT_OK
    rep, plan = representation.rep_construct(g)
    verified = representation.verify_representation(g, rep)
    report = RunReport("rep construct", digest)
    report.add("r", rep.r)
    report.add("primes", " ".join(str(p) for p in plan.primes))
    report.add("matching-sizes", " ".join(str(len(mm)) for mm in plan.matchings))
    report.add("labels", " ".join(str(x) for x in rep.labels))
    report.add("verified", "true" if verified else "false")
    _write_out(args.out, representation.serialize_representation(rep, plan))
    print(f"r = {rep.r}")
    report.emit()
    return EXIT_OK if verified else EXIT_UNVERIFIED


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
    family_tokens = sorted(_FAMILIES)

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
    p.add_argument("--max-parts", type=int, default=4)
    p.add_argument("--max-edges", type=int, default=16)
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
        code = args.fn(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, GadgetError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
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
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
