"""Independent output checks.

Nothing here imports ``semireg``: partitions are re-read from their files
(or taken as plain part tuples), part degrees are recomputed from the
benchmark's own copy of the graph, and the family predicates and part-count
bounds are written out again from their definitions.  Each check returns
``None`` when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math

Edges = list[tuple[int, int]]

TRACEBACK = "Traceback (most recent call last)"


def failure_class(code: int, expected: int, stderr: str, problem: str | None) -> str | None:
    """Failure class of one op, or None when it passed.

    A traceback on stderr wins over everything else, then an exit code
    other than the expected one, then a failed output check.
    """
    if TRACEBACK in stderr:
        return "traceback"
    if code != expected:
        return "wrong-exit"
    if problem is not None:
        return "bad-output"
    return None


def degrees(n: int, edges: Edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def report(stdout: str) -> dict[str, str]:
    """The ``key: value`` lines between ``== report ==`` and ``== end ==``."""
    out: dict[str, str] = {}
    inside = False
    for line in stdout.splitlines():
        if line == "== report ==":
            inside = True
        elif line == "== end ==":
            break
        elif inside and ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def read_partition(text: str, m: int) -> tuple[int, list[int]]:
    """Parse a partition file covering m edges; raises ValueError if malformed."""
    lines = text.split("\n")
    k, count = map(int, lines[0].split())
    if count != m:
        raise ValueError(f"partition covers {count} edges, graph has {m}")
    part = [-1] * m
    for line in lines[1 : m + 1]:
        e, q = map(int, line.split())
        if not (0 <= e < m and 0 <= q < k) or part[e] != -1:
            raise ValueError(f"bad assignment line {line!r}")
        part[e] = q
    if any(line.strip() for line in lines[m + 1 :]):
        raise ValueError("trailing content")
    return k, part


def part_degrees(n: int, edges: Edges, k: int, part) -> list[dict[int, int]]:
    """Per part, the degree of every vertex the part touches."""
    degs: list[dict[int, int]] = [{} for _ in range(k)]
    for (u, v), q in zip(edges, part):
        d = degs[q]
        d[u] = d.get(u, 0) + 1
        d[v] = d.get(v, 0) + 1
    return degs


def _locally_irregular(deg: dict[int, int], part_edges: Edges) -> bool:
    return all(deg[u] != deg[v] for u, v in part_edges)


def in_family(family: str, deg: dict[int, int], part_edges: Edges) -> bool:
    """Family membership of one part from its degrees (an empty part is in
    every family)."""
    values = set(deg.values())
    if family == "weakly-semiregular":
        return len(values) <= 2
    if family == "semiregular":
        return not values or max(values) - min(values) <= 1
    if family == "locally-irregular":
        return _locally_irregular(deg, part_edges)
    if family == "regular-or-locally-irregular":
        return len(values) <= 1 or _locally_irregular(deg, part_edges)
    if family == "mixed":
        return len(values) <= 2 or _locally_irregular(deg, part_edges)
    raise ValueError(f"unknown family {family!r}")


def partition_problem(n: int, edges: Edges, k: int, part, family: str) -> str | None:
    """Does every part of the partition lie in the family?"""
    if len(part) != len(edges):
        return f"partition has {len(part)} entries for {len(edges)} edges"
    if any(not 0 <= q < k for q in part):
        return "part id out of range"
    degs = part_degrees(n, edges, k, part)
    local = family in ("locally-irregular", "regular-or-locally-irregular", "mixed")
    for q in range(k):
        part_edges = [e for e, p in zip(edges, part) if p == q] if local else []
        if not in_family(family, degs[q], part_edges):
            return f"part {q} is not {family}"
    return None


# ---------------------------------------------------------------------------
# per-method bounds
# ---------------------------------------------------------------------------

def max_parts(method: str, max_degree: int) -> int:
    """Part count each constructive method promises for maximum degree D."""
    if method == "sr-tree":
        return math.ceil(max_degree / 2)
    if method == "alg3":
        return 2 * (max_degree.bit_length() - 1) + 2
    if method == "sr-general":
        return math.ceil((max_degree + 1) / 2)
    if method == "wr2-deg4":
        return 2
    raise ValueError(f"unknown method {method!r}")


def decomposition_problem(method: str, n: int, edges: Edges, text: str) -> str | None:
    """Check a ``decompose --out`` file against the method's family and bound."""
    try:
        k, part = read_partition(text, len(edges))
    except ValueError as exc:
        return f"unreadable partition: {exc}"
    bound = max_parts(method, max(degrees(n, edges)))
    if method == "sr-tree" and k != bound:
        return f"sr-tree gave {k} parts, ceil(D/2) = {bound}"
    if k > bound:
        return f"{method} gave {k} parts, bound {bound}"
    if method == "wr2-deg4":
        for q, deg in enumerate(part_degrees(n, edges, k, part)):
            if not set(deg.values()) <= {1, 2}:
                return f"part {q} has degrees outside {{1, 2}}"
        return None
    family = "weakly-semiregular" if method == "alg3" else "semiregular"
    return partition_problem(n, edges, k, part, family)


def report_problem(stdout: str, want: dict[str, str]) -> str | None:
    got = report(stdout)
    for key, value in want.items():
        if got.get(key) != value:
            return f"report {key}: {got.get(key)!r}, expected {value!r}"
    return None


# ---------------------------------------------------------------------------
# other outputs
# ---------------------------------------------------------------------------

def nae_problem(clauses, assignment) -> str | None:
    if assignment is None:
        return "planted formula reported unsatisfiable"
    for cl in clauses:
        if len({bool(assignment[x]) for x in cl}) != 2:
            return f"clause {cl} not split"
    return None


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def representation_problem(n: int, edges: Edges, text: str) -> str | None:
    """Labels modulo r: injective, in range, adjacency exactly where the
    label difference is coprime to r; r the product of the listed primes."""
    fields = dict(line.split(" ", 1) for line in text.splitlines() if line.strip())
    r = int(fields["r"])
    primes = [int(p) for p in fields["primes"].split()]
    labels = [int(x) for x in fields["labels"].split()]
    if math.prod(primes) != r or not all(_is_prime(p) for p in primes):
        return "r is not the product of the listed primes"
    if len(labels) != n or len(set(labels)) != n or not all(0 <= x < r for x in labels):
        return "labels not injective into 0..r-1"
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    for u in range(n):
        lu = labels[u]
        for v in range(u + 1, n):
            if (math.gcd(lu - labels[v], r) == 1) != ((u, v) in adjacent):
                return f"pair ({u},{v}) disagrees with its labels"
    return None


def widened_problem(n: int, edges: Edges, text: str) -> str | None:
    """thm4: the input is kept as the first component and the degree set of
    the result is exactly 1..9."""
    lines = text.split("\n")
    out_n, out_m = map(int, lines[0].split())
    out_edges = [tuple(map(int, line.split())) for line in lines[1 : out_m + 1]]
    if out_edges[: len(edges)] != [tuple(e) for e in edges]:
        return "input graph is not kept as the first component"
    if sorted(set(degrees(out_n, out_edges))) != list(range(1, 10)):
        return "degree set is not 1..9"
    return None


def odd_path_or_cycle_component(n: int, edges: Edges) -> bool:
    """Has the graph a component that is a path or a cycle with an odd
    number of edges?  Such a component has no locally irregular split."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    for s in range(n):
        if seen[s] or not adj[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        m = sum(len(adj[x]) for x in comp) // 2
        if max(len(adj[x]) for x in comp) <= 2 and m % 2 == 1:
            return True
    return False
