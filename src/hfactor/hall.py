"""Perfect packings of almost-complete multipartite graphs by star matchings.

The constructive loop, one level per class: match the apex class's
vertices to disjoint r-sets of the next class down (a perfect matching
in the r-fold blow-up, found by augmenting paths), then merge each star
into its centre, adjacent to the vertices adjacent to the whole star.
Contraction is in place, so every level's graph keeps the host's vertex
order and every index, witnesses included, is a host vertex. Failures
are exact: the augmenting search that fails at a level has visited the
neighbourhood of a Hall-violating centre set, and that set is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameter, InternalError
from .graphs import Graph, Partition, VertexSet, bits_of, contract_groups
from .solver import Copy, Packing


def default_tolerance(q: int, r: int) -> Fraction:
    """Per-class miss-fraction under which the recursion is guaranteed.

    1/2 at one level; each contraction multiplies the per-vertex miss
    fraction by at most r+1, so deeper levels divide accordingly.
    """
    if q < 1 or r < 1:
        raise BadParameter(f"need q >= 1 and r >= 1, got q={q}, r={r}")
    return Fraction(1, 2) / (r + 1) ** (q - 1)


@dataclass(frozen=True)
class StarPacking:
    """Disjoint stars: each centre paired with r leaves it is adjacent to."""

    stars: tuple[tuple[int, tuple[int, ...]], ...]  # (centre, leaves)


@dataclass(frozen=True)
class HallWitness:
    """A centre set whose blown-up demand exceeds its neighbourhood."""

    centers: tuple[int, ...]
    neighborhood: tuple[int, ...]
    r: int

    def violation(self) -> tuple[int, int]:
        """(demand, supply) with demand > supply."""
        return (self.r * len(self.centers), len(self.neighborhood))


@dataclass(frozen=True)
class PackFailure:
    """Packing failed at a contraction level, with the Hall witness found there."""

    level: int
    witness: HallWitness


def star_pack(g: Graph, big: VertexSet, small: VertexSet, r: int) -> StarPacking | HallWitness:
    """Perfect star packing with centres in `small` and r leaves each in `big`.

    Runs a maximum matching on the r-fold blow-up of the centres via
    augmenting paths, searched on an explicit stack. When a search fails
    it has visited every leaf alternating paths reach from its slot, and
    each of them is matched: the witness is the root's centre plus the
    centres owning those leaves, whose neighbourhood in `big` is exactly
    the visited leaves, so |N(S) & big| < r |S|.
    """
    centers = small.to_list()
    if len(big) != r * len(centers):
        raise BadParameter(f"|big| = {len(big)} != r |small| = {r * len(centers)}")
    n_slots = r * len(centers)
    slot_center = [centers[i // r] for i in range(n_slots)]
    slot_adj = [g.adj[c] & big.bits for c in slot_center]

    match_of_slot = [-1] * n_slots  # leaf of each slot
    match_of_leaf = [-1] * g.n  # slot of each leaf

    def augment(root: int) -> int | None:
        """Depth-first augmenting path from root on an explicit stack.

        Each slot on the path tries its unvisited leaves in ascending
        order; a leaf is visited at most once per root. None once the
        path is found and flipped, else the mask of visited leaves.
        """
        visited = 0
        path = [root]  # slots on the current alternating path
        untried = [slot_adj[root]]  # their leaves not yet tried
        taken: list[int] = []  # leaf each slot but the last is trying
        while path:
            cands = untried[-1] & ~visited
            if not cands:
                path.pop()
                untried.pop()
                if taken:
                    taken.pop()
                continue
            low = cands & -cands
            visited |= low
            untried[-1] = cands ^ low
            leaf = low.bit_length() - 1
            taken.append(leaf)
            owner = match_of_leaf[leaf]
            if owner < 0:
                for slot, v in zip(path, taken):
                    match_of_leaf[v] = slot
                    match_of_slot[slot] = v
                return None
            path.append(owner)
            untried.append(slot_adj[owner])
        return visited

    for slot in range(n_slots):
        visited = augment(slot)
        if visited is not None:
            reached = {slot_center[slot]}
            reached.update(slot_center[match_of_leaf[v]] for v in bits_of(visited))
            witness = HallWitness(tuple(sorted(reached)), tuple(bits_of(visited)), r)
            demand, supply = witness.violation()
            if demand <= supply:
                raise InternalError("witness fails to violate the Hall condition")
            return witness
    stars = (tuple(sorted(match_of_slot[i : i + r])) for i in range(0, n_slots, r))
    return StarPacking(tuple(zip(centers, stars)))


def contract_stars(g: Graph, sp: StarPacking, rest: list[VertexSet]) -> Graph:
    """Merge each star into its centre, adjacent to exactly the `rest`
    vertices adjacent to the whole star; `rest` classes keep their induced
    adjacency and every other vertex is left isolated.

    The contracted graph keeps g's order and carries no class labels.
    """
    keep = 0
    for c in rest:
        keep |= c.bits
    return contract_groups(g, keep, [(c,) + leaves for c, leaves in sp.stars])


def pack_apex_multipartite(g: Graph, classes: Partition, q: int, r: int) -> Packing | PackFailure:
    """Perfect packing of a (q+1)-partite host by apex multipartite copies.

    Classes 0..q-1 must have size k*r and class q size k. Levels run from
    q down to 1: level i star-packs class i-1 onto the apex class q, and
    merges each star into its centre, so each apex vertex collects r
    leaves per class. The loop needs no adjacency hypothesis checked up
    front: it succeeds whenever every level's star matching exists
    (``default_tolerance`` bounds the misses under which that is
    guaranteed), and a level that has none returns a PackFailure with its
    Hall witness, in host vertices, so the outcome is exact.
    """
    if q < 1 or r < 1:
        raise BadParameter(f"need q >= 1 and r >= 1, got q={q}, r={r}")
    if len(classes) != q + 1:
        raise BadParameter(f"expected {q + 1} classes, got {len(classes)}")
    apex = classes[q]
    k = len(apex)
    for i in range(q):
        if len(classes[i]) != k * r:
            raise BadParameter(
                f"class {i} has {len(classes[i])} vertices, expected k*r = {k * r}"
            )
    collected: dict[int, list[int]] = {c: [] for c in apex}  # leaves, class 0 first
    for level in range(q, 0, -1):
        result = star_pack(g, classes[level - 1], apex, r)
        if isinstance(result, HallWitness):
            return PackFailure(level, result)
        for centre, leaves in result.stars:
            collected[centre][:0] = leaves
        if level > 1:  # in place, so g keeps its order and g.n
            g = contract_stars(g, result, list(classes.classes[: level - 1]))
    out = []
    for centre, leaves in collected.items():
        emb = tuple(leaves) + (centre,)
        out.append(Copy(tuple(sorted(emb)), emb))
    return Packing(tuple(out), g.n)


__all__ = [
    "HallWitness",
    "PackFailure",
    "StarPacking",
    "contract_stars",
    "default_tolerance",
    "pack_apex_multipartite",
    "star_pack",
]
