"""Perfect packings of almost-complete multipartite graphs by star matchings.

The host is read as one adjacency row per vertex. The constructive loop,
one level per class: match the apex class's vertices to disjoint r-sets
of the next class down (a perfect matching in the r-fold blow-up: each
slot takes a free leaf when it has one, else an augmenting path), then
merge each star into its centre by ANDing the leaves' rows into the
centre's row, so the centre is adjacent to the vertices adjacent to the
whole star. No contracted graph is built, and every index, witnesses
included, is a host vertex. Failures are exact: the augmenting search
that fails at a level has visited the neighbourhood of a Hall-violating
centre set, and that set is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BadParameter, InternalError
from .graphs import Partition, VertexSet, bits_of
from .solver import CLOCK_EVERY, Copy, Packing, read_clock


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


def star_pack(
    rows: Sequence[int], big: VertexSet, small: VertexSet, r: int, deadline: float | None = None
) -> StarPacking | HallWitness:
    """Perfect star packing with centres in `small` and r leaves each in `big`.

    ``rows[c]`` is centre c's adjacency row; only its bits in `big` are
    read. Runs a maximum matching on the r-fold blow-up of the centres:
    each slot, in order, takes its least leaf that no slot holds yet, and
    a slot with none searches an augmenting path on an explicit stack.
    When a search fails it has visited every leaf alternating paths reach
    from its slot, and each of them is held: the witness is the root's
    centre plus the centres holding those leaves, whose neighbourhood in
    `big` is exactly the visited leaves, so |N(S) & big| < r |S|.
    ``read_clock`` counts leaves picked or visited.
    """
    centers = small.to_list()
    if len(big) != r * len(centers):
        raise BadParameter(f"|big| = {len(big)} != r |small| = {r * len(centers)}")
    n_slots = r * len(centers)
    slot_center = [centers[i // r] for i in range(n_slots)]
    slot_adj = [rows[c] & big.bits for c in slot_center]

    match_of_slot = [-1] * n_slots  # leaf of each slot
    match_of_leaf = [-1] * len(rows)  # slot of each leaf
    held = 0  # mask of the leaves some slot holds

    def augment(root: int) -> tuple[bool, int]:
        """Depth-first augmenting path from root on an explicit stack.

        Each slot on the path tries its unvisited leaves in ascending
        order; a leaf is visited at most once per root. Returns whether a
        path was found (and flipped) and the mask of visited leaves, all
        of them held but the free leaf that ends a found path.
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
                return True, visited
            path.append(owner)
            untried.append(slot_adj[owner])
        return False, visited

    work, tick = 0, CLOCK_EVERY
    for slot in range(n_slots):
        free = slot_adj[slot] & ~held
        if free:
            low = free & -free
            leaf = low.bit_length() - 1
            match_of_leaf[leaf] = slot
            match_of_slot[slot] = leaf
            held |= low
            work += 1
        else:
            found, visited = augment(slot)
            if not found:
                reached = {slot_center[slot]}
                reached.update(slot_center[match_of_leaf[v]] for v in bits_of(visited))
                witness = HallWitness(tuple(sorted(reached)), tuple(bits_of(visited)), r)
                demand, supply = witness.violation()
                if demand <= supply:
                    raise InternalError("witness fails to violate the Hall condition")
                return witness
            held |= visited  # gains the free leaf the path ends at
            work += visited.bit_count()
        if work >= tick:
            tick = read_clock(
                work, deadline, f"budget exhausted packing stars, {slot + 1} of {n_slots} slots held"
            )
    stars = (tuple(sorted(match_of_slot[i : i + r])) for i in range(0, n_slots, r))
    return StarPacking(tuple(zip(centers, stars)))


def contract_stars(rows: Sequence[int], sp: StarPacking) -> list[int]:
    """The rows with each star merged into its centre.

    A centre's row becomes the AND of its own row and its leaves' rows,
    so it is adjacent to exactly the vertices adjacent to the whole star;
    every other row is unchanged.
    """
    out = list(rows)
    for centre, leaves in sp.stars:
        row = rows[centre]
        for v in leaves:
            row &= rows[v]
        out[centre] = row
    return out


def pack_apex_multipartite(
    rows: Sequence[int], classes: Partition, q: int, r: int, deadline: float | None = None
) -> Packing | PackFailure:
    """Perfect packing of a (q+1)-partite host by apex multipartite copies.

    ``rows[v]`` is host vertex v's adjacency row (``g.adj``, or the rows
    of ``pipeline.build_auxiliary``). Classes 0..q-1 must have size k*r
    and class q size k. Levels run from q down to 1: level i star-packs
    class i-1 onto the apex class q, and merges each star into its
    centre's row, so each apex vertex collects r leaves per class. The
    loop needs no adjacency hypothesis checked up front: it succeeds
    whenever every level's star matching exists (``default_tolerance``
    bounds the misses under which that is guaranteed), and a level that
    has none returns a PackFailure with its Hall witness, in host
    vertices, so the outcome is exact. ``deadline`` reaches every level's
    ``star_pack``.
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
        result = star_pack(rows, classes[level - 1], apex, r, deadline)
        if isinstance(result, HallWitness):
            return PackFailure(level, result)
        for centre, leaves in result.stars:
            collected[centre][:0] = leaves
        if level > 1:
            rows = contract_stars(rows, result)
    out = []
    for centre, leaves in collected.items():
        emb = tuple(leaves) + (centre,)
        out.append(Copy(tuple(sorted(emb)), emb))
    return Packing(tuple(out), classes.host_n)


__all__ = [
    "HallWitness",
    "PackFailure",
    "StarPacking",
    "contract_stars",
    "default_tolerance",
    "pack_apex_multipartite",
    "star_pack",
]
