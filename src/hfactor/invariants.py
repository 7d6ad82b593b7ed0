"""Exact chromatic invariants of a pattern graph.

One explicit-stack colouring search decides the chromatic number
(counting up from a greedy clique bound) and enumerates the class-size
multisets of all optimal colourings; from these the module derives
the critical chromatic number, the consecutive-difference set and the
combined divisibility condition that decides which degree threshold
(critical-chromatic or chromatic) governs perfect packings of the
pattern. Each public function enumerates the profile once; the private
``_*_from`` helpers derive from a profile already in hand.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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


def _colourings(h: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Sorted class sizes of every colouring of h into exactly k non-empty classes.

    Walks them on an explicit stack, placing the vertices component by
    component, each in descending degree. ``free[i]`` holds the classes
    the i-th vertex may still try: opened classes holding none of its
    neighbours, plus the next unopened one (classes open in order, which
    breaks the colour symmetry). A vertex must open a class when only as
    many vertices are left as unopened classes.
    """
    n = h.n
    order = [v for c in component_sets(h) for v in sorted(c, key=lambda v: -h.degree(v))]
    adj = [h.adj[v] for v in order]
    bit = [1 << v for v in order]
    classes = [0] * k
    colour = [-1] * n
    opened = [0] * n  # classes opened by the vertices before the i-th
    free = [1 if 0 < k <= n else 0] + [0] * (n - 1)  # classes left to try, as bits
    i = 0
    while i >= 0:
        c = colour[i]
        if c >= 0:
            classes[c] ^= bit[i]
        f = free[i]
        if not f:
            colour[i] = -1
            i -= 1
            continue
        low = f & -f
        free[i] = f ^ low
        c = colour[i] = low.bit_length() - 1
        classes[c] |= bit[i]
        if i + 1 == n:
            yield tuple(sorted(m.bit_count() for m in classes))
            continue
        used = opened[i] + (c == opened[i])
        i += 1
        opened[i] = used
        if used + n - i == k:
            free[i] = 1 << used
            continue
        a = adj[i]
        f = 1 << used if used < k else 0
        for c in range(used):
            if not a & classes[c]:
                f |= 1 << c
        free[i] = f


def chromatic_number(h: Graph) -> int:
    """Exact chromatic number: the least k, from the greedy clique bound up, with a k-colouring.

    Counting starts at the clique bound because each k below it would cost
    a full refutation: Stirling-number many partial colourings on a complete
    multipartite host.
    """
    if h.n == 0:
        raise EmptyGraph("chromatic number of the empty graph")
    k = _greedy_clique_bound(h)
    while next(_colourings(h, k), None) is None:
        k += 1
    return k


def colouring_profile(h: Graph) -> ColouringProfile:
    """Sorted class-size multisets of all optimal colourings, from the search that decides chi."""
    if h.n == 0:
        raise EmptyGraph("colouring profile of the empty graph")
    if h.n > MAX_PATTERN_ORDER:
        raise PatternTooLarge(f"pattern order {h.n} exceeds cap {MAX_PATTERN_ORDER}")
    chi = chromatic_number(h)
    multisets = frozenset(_colourings(h, chi))
    return ColouringProfile(chi, min(ms[0] for ms in multisets), multisets)


def critical_chromatic_number(h: Graph) -> Fraction:
    """(chi - 1) |H| / (|H| - sigma), exact."""
    return _critical_from(h, colouring_profile(h))


def _critical_from(h: Graph, profile: ColouringProfile) -> Fraction:
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
    return _hcf_from(h, colouring_profile(h))


def _hcf_from(h: Graph, profile: ColouringProfile) -> HcfReport:
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
    return _coefficient_from(h, colouring_profile(h))


def _coefficient_from(h: Graph, profile: ColouringProfile) -> Fraction:
    if _hcf_from(h, profile).hcf_is_one:
        return 1 - 1 / _critical_from(h, profile)
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
