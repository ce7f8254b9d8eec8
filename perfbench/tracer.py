"""Span tracing around calls into the program, installed from outside.

``Tracer.install`` replaces each listed public function by a timing
wrapper in every ``semireg`` module namespace that holds it (and in the
module-level dispatch tables that hold it), and wraps the listed ``Graph``
methods on the class itself; ``uninstall`` puts the
originals back.  The program's files are never touched.

A span records its id, name, start, end, parent span id and op id.  Spans
are kept in memory up to a cap (the deepest layers run millions of times
on large trees) and written out at the end; per-name call counts, self
time and non-None results are aggregated for every call,
capped or not.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module that defines it, attribute); "Graph.x" is a method.
TARGETS = {
    "cli.run": ("semireg.cli", "run"),
    "graph.parse_graph": ("semireg.graph", "parse_graph"),
    "graph.Graph": ("semireg.graph", "Graph.__post_init__"),
    "graph.adjacency": ("semireg.graph", "Graph.adjacency"),
    "graph.classify": ("semireg.graph", "classify"),
    "graph.bfs_root": ("semireg.graph", "bfs_root"),
    "graph.degrees": ("semireg.graph", "Graph.degrees"),
    "trees.wr2_tree": ("semireg.trees", "wr2_tree"),
    "trees.partition_two_forests": ("semireg.trees", "partition_two_forests"),
    "trees.partition_forests": ("semireg.trees", "partition_forests"),
    "trees.vertex_feasible": ("semireg.trees", "vertex_feasible"),
    "trees.wrc_tree": ("semireg.trees", "wrc_tree"),
    "trees.sr_tree": ("semireg.trees", "sr_tree"),
    "trees.log_tree_partition": ("semireg.trees", "log_tree_partition"),
    "oracles.oracle_min_parts": ("semireg.oracles", "oracle_min_parts"),
    "oracles.oracle_mixed": ("semireg.oracles", "oracle_mixed"),
    "coloring.vizing": ("semireg.coloring", "vizing"),
    "coloring.sr_general": ("semireg.coloring", "sr_general"),
    "coloring.wr2_deg4": ("semireg.coloring", "wr2_deg4"),
    "coloring.four_regularize": ("semireg.coloring", "four_regularize"),
    "coloring.two_factorize": ("semireg.coloring", "two_factorize"),
    "families.verify_partition": ("semireg.families", "verify_partition"),
    "families.is_family": ("semireg.families", "is_family"),
    "families.serialize_partition": ("semireg.families", "serialize_partition"),
    "families.parse_partition": ("semireg.families", "parse_partition"),
    "reductions.nae_bruteforce": ("semireg.reductions", "nae_bruteforce"),
    "reductions.widen_degree_set": ("semireg.reductions", "widen_degree_set"),
    "representation.rep_construct": ("semireg.representation", "rep_construct"),
    "representation.verify_representation": ("semireg.representation", "verify_representation"),
}

# the (alpha, beta) and alpha-tuple attempts of the forest-split searches
PAIR_SPANS = ("trees.partition_two_forests", "trees.partition_forests")

SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op: int | None = None
        # name -> [calls, self seconds, non-None results]
        self.agg: dict[str, list] = {name: [0, 0.0, 0] for name in TARGETS}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        agg = self.agg[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            entry = [sid, 0.0]
            stack.append(entry)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                agg[0] += 1
                agg[1] += dur - entry[1]
                if result is not None:
                    agg[2] += 1
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, start, end, parent, self.op))
                else:
                    self.dropped += 1
            return result

        return traced

    def install(self) -> None:
        for name, (modname, attr) in TARGETS.items():
            if attr.startswith("Graph."):
                cls = sys.modules[modname].Graph
                method = attr.split(".", 1)[1]
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for modkey, module in list(sys.modules.items()):
                if modkey != "semireg" and not modkey.startswith("semireg."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        self._patch_table(value, original, wrapper)

    def _patch_table(self, table: dict, original, wrapper) -> None:
        """Dispatch tables such as the CLI's method map hold the function in
        a tuple value; swap it there too."""
        for key, value in list(table.items()):
            if isinstance(value, tuple) and any(v is original for v in value):
                self._patches.append((table, key, value))
                table[key] = tuple(wrapper if v is original else v for v in value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-name ``.calls`` and ``.self_ms``, plus the pair-search ratio."""
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, self_s, _) in self.agg.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_ms"] = (self_s * 1000.0, "ms")
        attempts = sum(self.agg[n][0] for n in PAIR_SPANS)
        splits = sum(self.agg[n][2] for n in PAIR_SPANS)
        out["trees.pair_attempts"] = (attempts, "count")
        out["trees.pair_yes_ratio"] = (splits / attempts if attempts else 0.0, "ratio")
        return out

    def dump(self, path: str) -> None:
        """Write the kept spans, one JSON array per line:
        [id, name, start_s, end_s, parent_id, op_id]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
