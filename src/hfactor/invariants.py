"""Exact chromatic invariants of a pattern graph.

Computes the chromatic number by branch and bound, enumerates the
class-size multisets of all optimal colourings, and derives from them
the critical chromatic number, the consecutive-difference set and the
combined divisibility condition that decides which degree threshold
(critical-chromatic or chromatic) governs perfect packings of the
pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSet, EmptyGraph, PatternTooLarge
from .graphs import Graph, VertexSet, bits_of

#: Exhaustive optimal-colouring enumeration is capped at this order.
MAX_PATTERN_ORDER = 20


@dataclass(frozen=True)
class ColouringProfile:
    """Chromatic data of a pattern: chi, sigma and all optimal class-size multisets."""

    chi: int
    sigma: int
    size_multisets: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        for ms in self.size_multisets:
            if len(ms) != self.chi or list(ms) != sorted(ms):
                raise ValueError("malformed size multiset")
        if self.sigma != min(ms[0] for ms in self.size_multisets):
            raise ValueError("sigma inconsistent with multisets")


@dataclass(frozen=True)
class HcfReport:
    """Divisibility ledger of a pattern's optimal colourings and components."""

    d_set: frozenset[int]
    hcf_chi: int | float  # math.inf when every optimal colouring is balanced
    hcf_c: int
    hcf_is_one: bool


def _greedy_upper_bound(h: Graph) -> int:
    order = sorted(range(h.n), key=lambda v: -h.degree(v))
    colour = [-1] * h.n
    used = 0
    for v in order:
        taken = {colour[w] for w in bits_of(h.adj[v]) if colour[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        colour[v] = c
        used = max(used, c + 1)
    return used


def _greedy_clique_bound(h: Graph) -> int:
    best = 1 if h.n else 0
    for seed in range(h.n):
        clique = [seed]
        cand = h.adj[seed]
        while cand:
            v = max(bits_of(cand), key=lambda w: (cand & h.adj[w]).bit_count())
            clique.append(v)
            cand &= h.adj[v]
        best = max(best, len(clique))
    return best


def _colourable(h: Graph, k: int) -> bool:
    """Exact k-colourability via backtracking with symmetry breaking."""
    order = sorted(range(h.n), key=lambda v: -h.degree(v))
    colour = [-1] * h.n

    def place(idx: int, used: int) -> bool:
        if idx == h.n:
            return True
        v = order[idx]
        taken = 0
        for w in bits_of(h.adj[v]):
            if colour[w] >= 0:
                taken |= 1 << colour[w]
        limit = min(k, used + 1)  # first use of a new colour is canonical
        for c in range(limit):
            if (taken >> c) & 1:
                continue
            colour[v] = c
            if place(idx + 1, max(used, c + 1)):
                return True
            colour[v] = -1
        return False

    return place(0, 0)


def chromatic_number(h: Graph) -> int:
    """Exact chromatic number (clique lower bound, greedy upper bound, refinement)."""
    if h.n == 0:
        raise EmptyGraph("chromatic number of the empty graph")
    lo = _greedy_clique_bound(h)
    hi = _greedy_upper_bound(h)
    k = lo
    while k < hi and not _colourable(h, k):
        k += 1
    return k


def colouring_profile(h: Graph) -> ColouringProfile:
    """Enumerate the sorted class-size multisets realizable by optimal colourings.

    Walks all partitions of V(H) into exactly chi independent sets
    (canonical class order breaks colour symmetry) and deduplicates at
    the size-multiset level.
    """
    if h.n == 0:
        raise EmptyGraph("colouring profile of the empty graph")
    if h.n > MAX_PATTERN_ORDER:
        raise PatternTooLarge(f"pattern order {h.n} exceeds cap {MAX_PATTERN_ORDER}")
    chi = chromatic_number(h)
    multisets: set[tuple[int, ...]] = set()
    class_masks = [0] * chi
    sizes = [0] * chi

    def place(v: int, used: int) -> None:
        if v == h.n:
            if used == chi:
                multisets.add(tuple(sorted(sizes)))
            return
        remaining = h.n - v
        if used + remaining < chi:
            return  # cannot open enough classes with the vertices left
        limit = min(chi, used + 1)
        for c in range(limit):
            if h.adj[v] & class_masks[c]:
                continue
            class_masks[c] |= 1 << v
            sizes[c] += 1
            place(v + 1, max(used, c + 1))
            class_masks[c] &= ~(1 << v)
            sizes[c] -= 1

    place(0, 0)
    sigma = min(ms[0] for ms in multisets)
    return ColouringProfile(chi, sigma, frozenset(multisets))


def critical_chromatic_number(h: Graph) -> Fraction:
    """(chi - 1) |H| / (|H| - sigma), exact."""
    profile = colouring_profile(h)
    if profile.chi < 2:
        raise DegenerateSet("critical chromatic number needs chi >= 2")
    return Fraction((profile.chi - 1) * h.n, h.n - profile.sigma)


def component_sets(h: Graph) -> list[VertexSet]:
    """Connected components as vertex sets, ordered by least vertex."""
    seen = 0
    out = []
    for v in range(h.n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits_of(frontier):
                nxt |= h.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(VertexSet(comp, h.n))
    return out


def hcf_report(h: Graph) -> HcfReport:
    """Consecutive-difference gcd, component-order gcd, and the combined flag.

    The difference set collects x_{i+1} - x_i over the sorted class sizes
    of every optimal colouring. Zeros are ignored by the gcd; if no
    nonzero difference exists the gcd is reported as infinity. For
    bipartite patterns the flag additionally requires component orders
    with gcd one.
    """
    profile = colouring_profile(h)
    d_set: set[int] = set()
    for ms in profile.size_multisets:
        for i in range(len(ms) - 1):
            d_set.add(ms[i + 1] - ms[i])
    nonzero = sorted(d for d in d_set if d != 0)
    hcf_chi: int | float = math.inf if not nonzero else math.gcd(*nonzero)
    hcf_c = math.gcd(*(len(c) for c in component_sets(h)))
    if profile.chi == 2:
        hcf_is_one = hcf_c == 1 and hcf_chi <= 2
    else:
        hcf_is_one = hcf_chi == 1
    return HcfReport(frozenset(d_set), hcf_chi, hcf_c, hcf_is_one)


def threshold_coefficient(h: Graph) -> Fraction:
    """Leading coefficient of the perfect-packing degree threshold.

    1 - 1/chi_cr(H) when the divisibility flag holds, else 1 - 1/chi(H).
    The additive constant of the threshold is not computed.
    """
    report = hcf_report(h)
    if report.hcf_is_one:
        return 1 - 1 / critical_chromatic_number(h)
    profile = colouring_profile(h)
    if profile.chi < 2:
        raise DegenerateSet("threshold coefficient needs chi >= 2")
    return Fraction(profile.chi - 1, profile.chi)


def is_complete_multipartite(h: Graph) -> list[int] | None:
    """Class sizes (in vertex order of first appearance) if h is complete
    multipartite, else None."""
    class_of = [-1] * h.n
    classes: list[int] = []
    full = (1 << h.n) - 1
    for v in range(h.n):
        non_nbrs = full & ~h.adj[v] & ~(1 << v)
        if class_of[v] == -1:
            class_of[v] = len(classes)
            classes.append(1 << v)
        for w in bits_of(non_nbrs):
            if class_of[w] == -1:
                class_of[w] = class_of[v]
                classes[class_of[v]] |= 1 << w
            elif class_of[w] != class_of[v]:
                return None
    for i, mask in enumerate(classes):
        for v in bits_of(mask):
            if h.adj[v] & mask:
                return None  # edge inside a class
            if h.adj[v] != full & ~mask:
                return None  # missing cross edge
    return [m.bit_count() for m in classes]


__all__ = [
    "ColouringProfile",
    "HcfReport",
    "MAX_PATTERN_ORDER",
    "chromatic_number",
    "colouring_profile",
    "component_sets",
    "critical_chromatic_number",
    "hcf_report",
    "is_complete_multipartite",
    "threshold_coefficient",
]
