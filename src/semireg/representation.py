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
from typing import Optional

from .coloring import vizing
from .errors import BudgetError, ParseError
from .graph import Graph, Record, complement, neighbor_masks, parse_int, text_lines


class Representation(Record):
    __slots__ = ("r", "labels")


class PrimePlan(Record):
    """Build record: matchings of the complement and one prime per
    matching."""

    __slots__ = ("matchings", "primes")


def verify_representation(g: Graph, rep: Representation) -> bool:
    """True iff adjacency coincides with label differences coprime to r."""
    nb = neighbor_masks(g)
    if nb is None:
        raise ValueError("representations are defined for simple graphs")
    labels, r = rep.labels, rep.r
    if len(labels) != g.n:
        raise ValueError("one label per vertex required")
    if len(set(labels)) != g.n:
        raise ValueError("labels must be injective")
    if any(not 0 <= lab < r for lab in labels):
        raise ValueError("labels must lie in 0..r-1")
    for u, row in enumerate(nb):
        a = labels[u]
        for v in range(u + 1, g.n):
            if (math.gcd(a - labels[v], r) == 1) != (row >> v & 1):
                return False
    return True


def _coprime_mask(r: int) -> int:
    """Bit x, 0 <= x < r, set when gcd(x, r) = 1, for r >= 2: every x that
    shares a divisor d > 1 with r is cleared, and the multiples of d below
    r are the bits of (2^r - 1) // (2^d - 1)."""
    full = (1 << r) - 1
    mask = full ^ 1
    for d in range(2, math.isqrt(r) + 1):
        if r % d == 0:
            mask &= ~(full // ((1 << d) - 1) | full // ((1 << r // d) - 1))
    return mask


def rep_search(g: Graph, r_max: int) -> Optional[Representation]:
    """Least modulus r <= r_max admitting a representation, with a witness.

    Depth-first over vertex labels, lowest label first, with no recursion:
    vertex i's untried labels are one bit mask, the unused labels whose
    difference to every placed label is coprime to r exactly where the
    vertices are adjacent.  Since gcd(x, r) = gcd(r - x, r), label
    differences matter only modulo r, so every representation can be
    translated to one containing label 0, and vertex 0 takes label 0.
    """
    if not g.is_simple():
        raise ValueError("representations are defined for simple graphs")
    if g.n > 8:
        raise BudgetError("representation search supports n <= 8")
    if r_max > 10**4:
        raise BudgetError("representation search supports r_max <= 10^4")
    n, nb = g.n, neighbor_masks(g)

    for r in range(max(2, n), r_max + 1):
        full, cop = (1 << r) - 1, _coprime_mask(r)
        # near[j]: the labels whose difference to labels[j] is coprime to r,
        # never labels[j] itself as gcd(0, r) = r; far[j]: the others but
        # labels[j], so no label is placed twice
        labels, near, far = [0] * n, [0] * n, [0] * n
        untried = [1] + [0] * n
        i = 0
        while 0 <= i < n:
            m = untried[i]
            if not m:
                i -= 1
                continue
            low = m & -m
            untried[i] = m ^ low
            lab = labels[i] = low.bit_length() - 1
            near[i] = (cop << lab | cop >> (r - lab)) & full
            far[i] = full ^ near[i] ^ low
            i += 1
            if i < n:
                m, row = full, nb[i]
                for j in range(i):
                    m &= near[j] if row >> j & 1 else far[j]
                untried[i] = m
        if i == n:
            return Representation(r, tuple(labels))
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
    if h.n == 0:
        raise ValueError("empty graph")
    nb = neighbor_masks(h)  # the complement is simple, so never None
    if len(set(map(int.bit_count, nb))) > 1:
        raise ValueError("complement is not regular")
    if any(nb[u] & nb[v] for u, v in h.edges):
        raise ValueError("complement is not triangle-free")
    n = g.n

    classes: dict[int, list[int]] = {}
    for e, c in enumerate(vizing(h)):
        classes.setdefault(c, []).append(e)
    matchings = [tuple(classes[c]) for c in sorted(classes)]
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
    return Representation(r, labels), PrimePlan(tuple(matchings), tuple(primes))


def serialize_representation(rep: Representation, plan: PrimePlan) -> str:
    lines = [f"r {rep.r}", "primes " + " ".join(str(p) for p in plan.primes),
             "labels " + " ".join(str(lab) for lab in rep.labels)]
    return "\n".join(lines) + "\n"


def parse_representation(text: str) -> Representation:
    """An "r" line, an optional "primes" line and a "labels" line, each at
    most once, in any order; blank lines are skipped."""
    seen: dict[str, tuple[int, ...]] = {}
    for i, line in enumerate(text_lines(text)):
        fields = line.split()
        if not fields:
            continue
        key = fields[0]
        if key not in ("r", "primes", "labels") or key == "r" and len(fields) != 2:
            raise ParseError(f"line {i + 1}: unrecognized representation line")
        try:
            values = tuple(map(parse_int, fields[1:]))
        except ValueError:
            raise ParseError(f"line {i + 1}: {key} values must be integers") from None
        if key in seen:
            raise ParseError(f"line {i + 1}: second {key!r} line")
        seen[key] = values
    if "r" not in seen or "labels" not in seen:
        raise ParseError("representation needs an 'r' line and a 'labels' line")
    return Representation(seen["r"][0], seen["labels"])
