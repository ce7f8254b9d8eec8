"""Representations of graphs modulo an integer.

A graph is represented modulo r by an injective labeling into Z_r with
adjacency exactly where the label difference is coprime to r.  This module
verifies claimed representations, searches for the least modulus on tiny
graphs, and constructs a representation for any graph whose complement is
triangle-free and regular by combining one prime-indexed coordinate per
matching of the complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .coloring import vizing
from .errors import BudgetError, ParseError
from .graph import Graph, complement


@dataclass(frozen=True)
class Representation:
    r: int
    labels: tuple[int, ...]


@dataclass(frozen=True)
class PrimePlan:
    """Build record: matchings of the complement, one prime per matching,
    and the per-vertex residue vector."""

    matchings: tuple[tuple[int, ...], ...]
    primes: tuple[int, ...]
    coordinates: tuple[tuple[int, ...], ...]


def verify_representation(g: Graph, rep: Representation) -> bool:
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


def rep_search(
    g: Graph, r_max: int, fix_first_label: bool = True
) -> Optional[Representation]:
    """Least modulus r <= r_max admitting a representation, with a witness.

    Backtracking over vertex labels with pairwise pruning.  Since
    gcd(x, r) = gcd(r - x, r), label differences matter only modulo r, so
    every representation can be translated to one containing label 0;
    ``fix_first_label`` exploits that (and can be disabled to cross-check).
    """
    if not g.is_simple():
        raise ValueError("representations are defined for simple graphs")
    if g.n > 8:
        raise BudgetError("representation search supports n <= 8")
    if r_max > 10**4:
        raise BudgetError("representation search supports r_max <= 10^4")
    adj = [[False] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = True

    for r in range(max(2, g.n), r_max + 1):
        # cop[x]: whether gcd(x, r) = 1; a negative difference x indexes
        # cop[r + x], and gcd(r + x, r) = gcd(|x|, r)
        cop = [math.gcd(x, r) == 1 for x in range(r)]
        labels = [-1] * g.n
        used = [False] * r

        def place(i: int) -> bool:
            if i == g.n:
                return True
            first = fix_first_label and i == 0
            row = adj[i]
            for lab in range(1 if first else r):
                if used[lab]:
                    continue
                for j in range(i):
                    if cop[lab - labels[j]] != row[j]:
                        break
                else:
                    labels[i] = lab
                    used[lab] = True
                    if place(i + 1):
                        return True
                    used[lab] = False
                    labels[i] = -1
            return False

        try:
            if place(0):
                return Representation(r, tuple(labels))
        finally:
            del place  # place refers to itself through its closure cell: a cycle
    return None


def next_prime(m: int) -> int:
    """Smallest prime >= m, by trial division."""
    if m < 1:
        raise ValueError("need m >= 1")
    candidate = max(m, 2)
    while True:
        if candidate >= 2 and all(
            candidate % d for d in range(2, math.isqrt(candidate) + 1)
        ):
            return candidate
        candidate += 1


def _has_triangle(g: Graph) -> bool:
    neighbors = [set() for _ in range(g.n)]
    for u, v in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return any(neighbors[u] & neighbors[v] for u, v in g.edges)


def _crt(residues: list[int], moduli: list[int]) -> int:
    x, modulus = 0, 1
    for res, p in zip(residues, moduli):
        t = ((res - x) * pow(modulus, -1, p)) % p
        x += modulus * t
        modulus *= p
    return x


def rep_construct(g: Graph) -> tuple[Representation, PrimePlan]:
    """Representation of a graph whose complement is triangle-free regular.

    The complement is split into matchings by proper edge coloring; each
    matching gets a distinct prime p >= n - |M| (so matched pairs share a
    residue and everyone else gets a fresh one), and the label is the
    unique lift of the residue vector modulo the product of the primes.
    """
    h = complement(g)
    degs = h.degrees() if h.n else []
    if h.n == 0:
        raise ValueError("empty graph")
    if len(set(degs)) > 1:
        raise ValueError("complement is not regular")
    if _has_triangle(h):
        raise ValueError("complement is not triangle-free")
    n = g.n

    if h.m:
        coloring = vizing(h)
        classes: dict[int, list[int]] = {}
        for e, c in enumerate(coloring.colors):
            classes.setdefault(c, []).append(e)
        matchings = [tuple(sorted(classes[c])) for c in sorted(classes)]
    else:
        matchings = []
    if len(matchings) < 2:
        # a second (possibly empty) coordinate keeps the labels injective
        matchings += [()] * (2 - len(matchings))

    primes: list[int] = []
    coords: list[list[int]] = [[] for _ in range(n)]
    prev = 1
    for matching in matchings:
        p = next_prime(max(n - len(matching), prev + 1, 2))
        assert p >= n - len(matching) and 2 * p >= n
        primes.append(p)
        prev = p
        residue = [-1] * n
        for j, e in enumerate(matching):
            u, v = h.edges[e]
            residue[u] = residue[v] = j
        nxt = len(matching)
        for v in range(n):
            if residue[v] == -1:
                residue[v] = nxt
                nxt += 1
        assert nxt <= p, "prime too small for fresh residues"
        for v in range(n):
            coords[v].append(residue[v])

    r = math.prod(primes)
    labels = tuple(_crt(coords[v], primes) for v in range(n))
    plan = PrimePlan(
        matchings=tuple(matchings),
        primes=tuple(primes),
        coordinates=tuple(tuple(c) for c in coords),
    )
    return Representation(r, labels), plan


def serialize_representation(rep: Representation, plan: Optional[PrimePlan] = None) -> str:
    out = [f"r {rep.r}"]
    if plan is not None:
        out.append("primes " + " ".join(str(p) for p in plan.primes))
    out.append("labels " + " ".join(str(lab) for lab in rep.labels))
    return "\n".join(out) + "\n"


def parse_representation(text: str) -> Representation:
    r = None
    labels = None
    for i, line in enumerate(text.splitlines()):
        fields = line.split()
        if not fields:
            continue
        key = fields[0]
        if key == "primes":
            continue
        if key not in ("r", "labels") or key == "r" and len(fields) != 2:
            raise ParseError(f"line {i + 1}: unrecognized representation line")
        try:
            values = tuple(map(int, fields[1:]))
        except ValueError:
            raise ParseError(f"line {i + 1}: {key} values must be integers") from None
        if key == "r":
            (r,) = values
        else:
            labels = values
    if r is None or labels is None:
        raise ParseError("representation needs an 'r' line and a 'labels' line")
    return Representation(r, labels)
