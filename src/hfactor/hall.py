"""Perfect packings of almost-complete multipartite graphs by star matchings.

The constructive recursion: match the last class's vertices to disjoint
r-sets of the second-to-last class (a perfect matching in the r-fold
blow-up, found by augmenting paths), contract each star to a single
vertex whose neighbours are the vertices adjacent to the whole star,
and recurse with one class fewer. Failures are exact: a failed level
yields a Hall-violating witness set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameter
from .graphs import Graph, Partition, VertexSet, bits_of, contracted_adjacency
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
    r: int


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
    augmenting paths, searched on an explicit stack; when no perfect
    matching exists the returned witness is a centre set S with
    |N(S) & big| < r |S|.
    """
    centers = small.to_list()
    leaves = big.to_list()
    if len(leaves) != r * len(centers):
        raise BadParameter(f"|big| = {len(leaves)} != r |small| = {r * len(centers)}")
    n_slots = r * len(centers)
    slot_center = [centers[i // r] for i in range(n_slots)]
    slot_adj = [g.adj[c] & big.bits for c in slot_center]
    leaf_index = {v: i for i, v in enumerate(leaves)}

    match_of_slot: list[int | None] = [None] * n_slots
    match_of_leaf: list[int | None] = [None] * len(leaves)

    def augment(root: int) -> bool:
        """Depth-first augmenting path from root on an explicit stack.

        Each slot on the path tries its unvisited leaves in ascending
        order; a leaf is visited at most once per root.
        """
        visited = 0
        path = [root]  # slots on the current alternating path
        untried = [slot_adj[root]]  # their leaves not yet tried
        taken: list[int] = []  # leaf index each slot but the last is trying
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
            li = leaf_index[low.bit_length() - 1]
            taken.append(li)
            owner = match_of_leaf[li]
            if owner is None:
                for slot, leaf in zip(path, taken):
                    match_of_leaf[leaf] = slot
                    match_of_slot[slot] = leaf
                return True
            path.append(owner)
            untried.append(slot_adj[owner])
        return False

    for slot in range(n_slots):
        if not augment(slot):
            return _hall_witness(
                slot, slot_center, slot_adj, leaf_index, leaves, match_of_slot, match_of_leaf, r
            )
    stars = []
    for ci, c in enumerate(centers):
        star_leaves = tuple(sorted(leaves[match_of_slot[ci * r + j]] for j in range(r)))
        stars.append((c, star_leaves))
    return StarPacking(tuple(stars), r)


def _hall_witness(
    root_slot: int,
    slot_center: list[int],
    slot_adj: list[int],
    leaf_index: dict[int, int],
    leaves: list[int],
    match_of_slot: list[int | None],
    match_of_leaf: list[int | None],
    r: int,
) -> HallWitness:
    """Alternating-reachability closure from an unmatched slot, closed over
    sibling slots (same centre, same neighbourhood)."""
    seen_centers = {slot_center[root_slot]}
    seen_leaves: set[int] = set()
    frontier = [root_slot]
    while frontier:
        nxt: list[int] = []
        for slot in frontier:
            for v in bits_of(slot_adj[slot]):
                li = leaf_index[v]
                if li in seen_leaves:
                    continue
                seen_leaves.add(li)
                back = match_of_leaf[li]
                if back is not None and slot_center[back] not in seen_centers:
                    seen_centers.add(slot_center[back])
                    nxt.append(back)
        # all slots of a newly seen centre share its adjacency; one suffices
        frontier = nxt
    witness = HallWitness(
        tuple(sorted(seen_centers)),
        tuple(sorted(leaves[li] for li in seen_leaves)),
        r,
    )
    demand, supply = witness.violation()
    if demand <= supply:
        raise AssertionError("witness fails to violate the Hall condition")
    return witness


def contract_stars(g: Graph, sp: StarPacking, rest: list[VertexSet]) -> tuple[Graph, list[tuple[int, ...]]]:
    """Replace each star by a single vertex adjacent to exactly the vertices
    adjacent to the whole star; `rest` classes keep their induced adjacency.

    Returns the contracted graph, which carries no class labels, and a back
    map from its vertices to host vertex tuples (singletons for untouched
    vertices, then one sorted tuple per star).
    """
    rest_bits = 0
    for c in rest:
        rest_bits |= c.bits
    rest_verts = list(bits_of(rest_bits))
    stars = [tuple(sorted((c,) + ls)) for c, ls in sorted(sp.stars)]
    adj = contracted_adjacency(g, rest_verts, stars)
    back_map = [(v,) for v in rest_verts] + stars
    return Graph(len(adj), adj), back_map


def pack_apex_multipartite(g: Graph, classes: Partition, q: int, r: int) -> Packing | PackFailure:
    """Perfect packing of a (q+1)-partite host by apex multipartite copies.

    Classes 0..q-1 must have size k*r and class q size k. The recursion
    needs no adjacency hypothesis checked up front: it succeeds whenever
    every level's star matching exists (``default_tolerance`` bounds the
    misses under which that is guaranteed), and a level that has none
    returns a PackFailure with its Hall witness, so the outcome is exact.
    """
    if len(classes) != q + 1:
        raise BadParameter(f"expected {q + 1} classes, got {len(classes)}")
    k = len(classes[q])
    for i in range(q):
        if len(classes[i]) != k * r:
            raise BadParameter(
                f"class {i} has {len(classes[i])} vertices, expected k*r = {k * r}"
            )
    copies_classes = _pack_levels(g, list(classes.classes), q, r)
    if isinstance(copies_classes, PackFailure):
        return copies_classes
    out = []
    for parts in copies_classes:
        emb: list[int] = []
        for class_verts in parts[:-1]:
            emb.extend(sorted(class_verts))
        emb.append(parts[-1][0])
        out.append(Copy(tuple(sorted(emb)), tuple(emb)))
    return Packing(tuple(out), g.n)


def _pack_levels(
    g: Graph, classes: list[VertexSet], q: int, r: int
) -> list[list[tuple[int, ...]]] | PackFailure:
    """Recursive core; returns per-copy class groups as host-vertex tuples."""
    result = star_pack(g, classes[q - 1], classes[q], r)
    if isinstance(result, HallWitness):
        return PackFailure(q, result)
    if q == 1:
        return [[leaves, (center,)] for center, leaves in result.stars]
    contracted, back_map = contract_stars(g, result, classes[: q - 1])
    # rest vertices occupy contracted indices in ascending host order
    host_to_sub = {
        bm[0]: i for i, bm in enumerate(back_map) if len(bm) == 1
    }
    n_rest = len(host_to_sub)
    sub_classes = [
        VertexSet.from_iterable((host_to_sub[v] for v in c), contracted.n)
        for c in classes[: q - 1]
    ]
    sub_classes.append(VertexSet.from_iterable(range(n_rest, contracted.n), contracted.n))
    sub = _pack_levels(contracted, sub_classes, q - 1, r)
    if isinstance(sub, PackFailure):
        return sub
    star_of = {}
    for ci, (center, leaves) in enumerate(sorted(result.stars)):
        star_of[n_rest + ci] = (center, leaves)
    out = []
    for parts in sub:
        host_parts = []
        for group in parts[:-1]:
            host_parts.append(tuple(back_map[v][0] for v in group))
        center, leaves = star_of[parts[-1][0]]
        host_parts.append(leaves)
        host_parts.append((center,))
        out.append(host_parts)
    return out


__all__ = [
    "HallWitness",
    "PackFailure",
    "StarPacking",
    "contract_stars",
    "default_tolerance",
    "pack_apex_multipartite",
    "star_pack",
]
