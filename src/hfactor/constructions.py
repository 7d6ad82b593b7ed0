"""Deterministic builders for the named graphs of the toolkit.

Covers the clique-minus-an-edge patterns, bottle graphs, the two
extremal blockers that witness tightness of the packing threshold,
canonical multipartite models, the remainder pattern packed into the
last canonical class, and apex multipartite graphs for the Hall packer.

Constructors assert their claimed minimum-degree identities at build
time; a mismatch means a transcription bug, so they fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameter, InternalError
from .graphs import Graph, Partition, complete_multipartite, disjoint_union, min_degree
from .invariants import colouring_profile, is_complete_multipartite
from .solver import Copy, Packing


def kr_minus(r: int) -> Graph:
    """Complete graph on r vertices minus the edge 0-1."""
    if r < 3:
        raise BadParameter(f"kr_minus needs r >= 3, got {r}")
    full = (1 << r) - 1
    adj = [full & ~(1 << v) for v in range(r)]
    adj[0] &= ~(1 << 1)
    adj[1] &= ~(1 << 0)
    return Graph(r, adj)


def kr_minus_threshold(r: int) -> Fraction:
    """1 - 1/chi_cr(K_r^-) = 1 - (r-1)/(r(r-2)), the degree coefficient
    of the perfect-packing threshold for the clique-minus-an-edge pattern."""
    return 1 - Fraction(r - 1, r * (r - 2))


def sparse_class_size(r: int, n: int) -> int:
    """ceil((r-1) n / (r(r-2))), the size of each sparse class of an n-vertex host."""
    return math.ceil(Fraction((r - 1) * n, r * (r - 2)))


def bottle_graph(h: Graph) -> Graph:
    """Complete chi-partite graph with chi-1 classes of size |H| - sigma
    and one class of size (chi - 1) sigma; packs chi - 1 copies of h."""
    profile = colouring_profile(h)
    if profile.chi < 2:
        raise BadParameter("bottle graph needs a pattern with chi >= 2")
    ell, sigma = profile.chi, profile.sigma
    sizes = [h.n - sigma] * (ell - 1) + [(ell - 1) * sigma]
    return complete_multipartite(sizes)


def kr_minus_extremal(r: int, k: int) -> Graph:
    """Complete (r-1)-partite blocker for the clique-minus-an-edge pattern.

    One deficient class of size k-1 plus r-2 classes splitting the rest
    as equally as possible (larger classes first). Its minimum degree is
    exactly one below the packing threshold, yet every copy of the
    pattern must use the deficient class, so no perfect packing exists.
    """
    if r < 4 or k < 1:
        raise BadParameter(f"need r >= 4 and k >= 1, got r={r}, k={k}")
    n = k * r
    rest = n - (k - 1)
    base, extra = divmod(rest, r - 2)
    sizes = [k - 1] + [base + 1] * extra + [base] * (r - 2 - extra)
    if sizes[0] == 0:
        sizes = sizes[1:]  # k = 1: the deficient class is empty
    g = complete_multipartite(sizes)
    expected = math.ceil(kr_minus_threshold(r) * n) - 1
    if min_degree(g) != expected:
        raise InternalError(
            f"blocker min degree {min_degree(g)} != {expected} for r={r}, k={k}"
        )
    return g


def multipartite_extremal(h: Graph, k: int) -> Graph:
    """Blocker showing the threshold's additive constant cannot vanish for
    complete multipartite patterns with >= 3 classes, all large classes >= 3.

    Complete multipartite host with a slightly oversized first class and
    undersized last class, plus a perfect matching inside the first class
    (or a near-matching and a 2-edge path when its size is odd). Minimum
    degree lands exactly on the critical-chromatic threshold.
    """
    sizes_h = is_complete_multipartite(h)
    if sizes_h is None:
        raise BadParameter("pattern must be complete multipartite")
    ell = len(sizes_h)
    if ell < 3:
        raise BadParameter(f"pattern needs at least 3 classes, got {ell}")
    if k < 1:
        raise BadParameter(f"k must be positive, got {k}")
    sigma = min(sizes_h)
    small_at = sizes_h.index(sigma)
    if any(s < 3 for i, s in enumerate(sizes_h) if i != small_at):
        raise BadParameter("every class except possibly the smallest needs >= 3 vertices")
    m = h.n
    n = k * (ell - 1) * m
    sizes = [(m - sigma) * k + 1] + [(m - sigma) * k] * (ell - 2) + [k * (ell - 1) * sigma - 1]
    g = complete_multipartite(sizes)
    a1 = sizes[0]
    if a1 % 2 == 0:
        matching = [(2 * i, 2 * i + 1) for i in range(a1 // 2)]
    else:
        matching = [(2 * i, 2 * i + 1) for i in range((a1 - 3) // 2)]
        matching += [(a1 - 3, a1 - 2), (a1 - 2, a1 - 1)]  # 2-edge path on the top three
    g = g.add_edges(matching)
    chi_cr = Fraction((ell - 1) * m, m - sigma)
    expected = (1 - 1 / chi_cr) * n
    if expected.denominator != 1 or min_degree(g) != expected:
        raise InternalError(
            f"blocker min degree {min_degree(g)} != {expected} for |H|={m}, k={k}"
        )
    return g


@dataclass(frozen=True)
class CanonicalSpec:
    """Parameters of a canonical partition: q equal sparse classes of size
    (r-1) n / (r (r-2)) plus one remainder class."""

    r: int
    q: int
    n: int

    def __post_init__(self) -> None:
        if self.r < 4:
            raise BadParameter(f"need r >= 4, got {self.r}")
        if not 1 <= self.q <= self.r - 2:
            raise BadParameter(f"need 1 <= q <= r-2, got q={self.q}")
        if self.n <= 0 or self.n % (self.r * (self.r - 2)):
            raise BadParameter(f"n={self.n} not a positive multiple of r(r-2)={self.r * (self.r - 2)}")

    @property
    def sparse_size(self) -> int:
        return sparse_class_size(self.r, self.n)

    @property
    def remainder_size(self) -> int:
        return self.n - self.q * self.sparse_size

    def class_sizes(self) -> list[int]:
        return [self.sparse_size] * self.q + [self.remainder_size]


def remainder_pattern_order(r: int, q: int) -> int:
    """(r-q-1)(r-1) - 1, the order of the remainder pattern."""
    return (r - q - 1) * (r - 1) - 1


def canonical_graph(spec: CanonicalSpec) -> Graph:
    """Complete graph with each sparse class turned into an independent set.

    The remainder class stays internally complete; always admits a
    perfect packing by clique-minus-an-edge copies.
    """
    sizes = spec.class_sizes()
    if sizes[-1] % remainder_pattern_order(spec.r, spec.q):
        raise InternalError("remainder class size not divisible by the remainder pattern")
    labels: list[int] = []
    for i, s in enumerate(sizes):
        labels.extend([i] * s)
    n = len(labels)
    class_masks = [0] * len(sizes)
    for v, lab in enumerate(labels):
        class_masks[lab] |= 1 << v
    full = (1 << n) - 1
    adj = []
    for v in range(n):
        if labels[v] < spec.q:
            adj.append(full & ~class_masks[labels[v]])
        else:
            adj.append(full & ~(1 << v))
    return Graph(n, adj, labels)


def canonical_partition(spec: CanonicalSpec) -> Partition:
    sizes = spec.class_sizes()
    classes = []
    start = 0
    for s in sizes:
        classes.append(range(start, start + s))
        start += s
    return Partition.from_lists(classes, spec.n)


def split_bottle_block(parts: list[list[int]], small: list[int]) -> list[Copy]:
    """Split a bottle block of K_r^- into r-2 copies.

    The block has r-2 large parts of r-1 vertices and a small part of r-2.
    Copy j takes small[j], the next two vertices of part j as its
    nonadjacent pair (embedded first, in order) and the next vertex of
    every other part; each part is consumed front to back.
    """
    taken = [0] * len(parts)
    copies = []
    for j, v in enumerate(small):
        pair = sorted(parts[j][taken[j] : taken[j] + 2])
        taken[j] += 2
        rest = [v]
        for i, part in enumerate(parts):
            if i != j:
                rest.append(part[taken[i]])
                taken[i] += 1
        emb = tuple(pair + sorted(rest))
        copies.append(Copy(tuple(sorted(emb)), emb))
    return copies


def canonical_packing(spec: CanonicalSpec) -> Packing:
    """Constructive perfect packing of the canonical graph.

    Blocks of r(r-2) vertices are carved bottle-graph style: each block
    takes r-1 vertices from every sparse class and the rest from the
    remainder class, as r-2-q more large parts and a small part of r-2,
    then ``split_bottle_block`` splits it into r-2 copies.
    """
    r, q, n = spec.r, spec.q, spec.n
    sizes = spec.class_sizes()
    cursors = [sum(sizes[:i]) for i in range(len(sizes))]
    copies: list[Copy] = []
    for _ in range(n // (r * (r - 2))):
        # slices of r-1 from each sparse class, then r-2-q more from the remainder
        parts = []
        for i in [*range(q)] + [q] * (r - 2 - q):
            parts.append(list(range(cursors[i], cursors[i] + r - 1)))
            cursors[i] += r - 1
        small = list(range(cursors[q], cursors[q] + r - 2))
        cursors[q] += r - 2
        copies.extend(split_bottle_block(parts, small))
    return Packing(tuple(copies), n)


def remainder_pattern(r: int, q: int) -> Graph:
    """q disjoint (r-q-1)-cliques plus r-q-2 disjoint (r-q)-cliques-minus-an-edge.

    Arranged as an (r-q-1)-partite graph: labels give one class of size
    r-2 and r-q-2 classes of size r-1. Component j of the second kind
    parks its nonadjacent pair in large class j.
    """
    if r < 4 or not 1 <= q <= r - 2:
        raise BadParameter(f"need r >= 4 and 1 <= q <= r-2, got r={r}, q={q}")
    s = r - q - 1
    parts: list[Graph] = []
    for _ in range(q):
        full = (1 << s) - 1
        comp = Graph(s, [full & ~(1 << v) for v in range(s)], labels=list(range(s)))
        parts.append(comp)
    for j in range(r - q - 2):
        comp = kr_minus(s + 1)
        # pair (vertices 0 and 1) goes to large class j+1; the rest fill the others
        others = [0] + [c for c in range(1, s) if c != j + 1]
        labels = [j + 1, j + 1] + others
        comp = Graph(comp.n, comp.adj, labels=labels)
        parts.append(comp)
    g = disjoint_union(parts)
    if g.n != remainder_pattern_order(r, q):
        raise InternalError("remainder pattern order mismatch")
    return g


def apex_multipartite(q: int, r: int) -> Graph:
    """Complete (q+1)-partite graph: q classes of size r plus one apex vertex."""
    if q < 1 or r < 1:
        raise BadParameter(f"need q >= 1 and r >= 1, got q={q}, r={r}")
    return complete_multipartite([r] * q + [1])


__all__ = [
    "CanonicalSpec",
    "apex_multipartite",
    "bottle_graph",
    "canonical_graph",
    "canonical_packing",
    "canonical_partition",
    "kr_minus",
    "kr_minus_extremal",
    "kr_minus_threshold",
    "multipartite_extremal",
    "remainder_pattern",
    "remainder_pattern_order",
    "sparse_class_size",
    "split_bottle_block",
]
