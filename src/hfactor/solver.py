"""Exact perfect-packing decision and search.

A packing instance is compiled to an exact-cover problem: one row per
distinct vertex set of the host that carries a copy of the pattern, one
column per host vertex. The search always branches on the uncovered
vertex lying in the fewest remaining copies, removes conflicting copies,
and backtracks; covered-vertex sets proven unwinnable are memoized, so a
negative answer is an exhaustive proof. Timeouts are a first-class
outcome and never conflated with a proven negative.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .errors import Timeout
from .graphs import Graph, bits_of

DEFAULT_BUDGET_SECS = 60.0

_TIME_CHECK_MASK = 0x3FF  # consult the clock every 1024 nodes


@dataclass(frozen=True)
class Copy:
    """An embedded occurrence of a pattern in a host graph.

    ``embedding[p]`` is the host vertex playing pattern vertex p;
    ``vertices`` is the sorted host vertex set.
    """

    vertices: tuple[int, ...]
    embedding: tuple[int, ...]

    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        return m


@dataclass(frozen=True)
class Packing:
    """A set of pairwise vertex-disjoint copies."""

    copies: tuple[Copy, ...]
    host_n: int


@dataclass
class SearchStats:
    nodes: int = 0
    elapsed: float = 0.0


def _lex_least_embedding(h: Graph, g: Graph, verts: tuple[int, ...]) -> tuple[int, ...] | None:
    """First (hence lexicographically least) embedding of h onto exactly verts.

    Host edges beyond the pattern's are allowed; every pattern edge must
    map to a host edge.
    """
    k = h.n
    assignment = [-1] * k
    used = 0

    def place(p: int) -> bool:
        nonlocal used
        if p == k:
            return True
        earlier = h.adj[p] & ((1 << p) - 1)
        for v in verts:
            bit = 1 << v
            if used & bit:
                continue
            ok = True
            for q in bits_of(earlier):
                if not (g.adj[assignment[q]] >> v) & 1:
                    ok = False
                    break
            if ok:
                assignment[p] = v
                used |= bit
                if place(p + 1):
                    return True
                used &= ~bit
                assignment[p] = -1
        return False

    if place(0):
        return tuple(assignment)
    return None


def enumerate_copies(h: Graph, g: Graph) -> list[Copy]:
    """All copies of h in g, one per hosting vertex set.

    The stored embedding is the lexicographically least one for its set.
    Patterns that are a clique minus at most one edge take a fast path
    that filters candidate sets by induced edge count alone.
    """
    if h.n > g.n:
        return []
    k = h.n
    h_edges = h.edge_count()
    max_edges = k * (k - 1) // 2
    dense_pattern = h_edges >= max_edges - 1  # complete or one edge short
    h_degs = sorted((h.degree(v) for v in range(h.n)), reverse=True)
    out: list[Copy] = []
    for verts in combinations(range(g.n), k):
        mask = 0
        for v in verts:
            mask |= 1 << v
        within = [(g.adj[v] & mask).bit_count() for v in verts]
        if sum(within) // 2 < h_edges:
            continue
        if dense_pattern:
            emb = _dense_embedding(h, g, verts, mask)
        else:
            if sorted(within, reverse=True) < h_degs:
                emb = None
            else:
                emb = _lex_least_embedding(h, g, verts)
        if emb is not None:
            out.append(Copy(verts, emb))
    return out


def _dense_embedding(h: Graph, g: Graph, verts: tuple[int, ...], mask: int) -> tuple[int, ...] | None:
    """Embedding for clique / clique-minus-an-edge patterns.

    The candidate set already has enough edges; a valid embedding exists
    iff the set misses at most one edge and, when both pattern and set
    miss one, the missing pairs align.
    """
    k = h.n
    missing_host: list[tuple[int, int]] = []
    for i, v in enumerate(verts):
        for w in verts[i + 1 :]:
            if not (g.adj[v] >> w) & 1:
                missing_host.append((v, w))
                if len(missing_host) > 1:
                    return None
    missing_pat: tuple[int, int] | None = None
    for p in range(k):
        for q in range(p + 1, k):
            if not (h.adj[p] >> q) & 1:
                missing_pat = (p, q)
    if not missing_host:
        return tuple(verts)  # complete set hosts anything this dense
    if missing_pat is None:
        return None  # complete pattern cannot absorb a missing host edge
    a, b = missing_host[0]
    p, q = missing_pat
    emb = [-1] * k
    emb[p], emb[q] = (a, b) if p < q else (b, a)
    rest = [v for v in verts if v != a and v != b]
    it = iter(rest)
    for i in range(k):
        if emb[i] == -1:
            emb[i] = next(it)
    # lex-least among the two pair orientations
    alt = emb.copy()
    alt[p], alt[q] = emb[q], emb[p]
    return tuple(min(emb, alt))


class _CoverState:
    """Shared search state: copy masks, per-vertex copy bitmaps, clock."""

    def __init__(self, g_n: int, copies: list[Copy], budget_secs: float | None):
        self.n = g_n
        self.copies = copies
        self.masks = [c.mask() for c in copies]
        self.vertex_rows = [0] * g_n
        for idx, m in enumerate(self.masks):
            bit = 1 << idx
            for v in bits_of(m):
                self.vertex_rows[v] |= bit
        self.full_cover = (1 << g_n) - 1
        self.all_rows = (1 << len(copies)) - 1
        self.deadline = None if budget_secs is None else time.monotonic() + budget_secs
        self.stats = SearchStats()

    def tick(self) -> None:
        self.stats.nodes += 1
        if self.deadline is not None and (
            self.stats.nodes == 1 or not (self.stats.nodes & _TIME_CHECK_MASK)
        ):
            if time.monotonic() > self.deadline:
                raise Timeout(f"search budget exhausted after {self.stats.nodes} nodes")

    def conflict_rows(self, copy_idx: int) -> int:
        rows = 0
        for v in bits_of(self.masks[copy_idx]):
            rows |= self.vertex_rows[v]
        return rows


def _hitting_bound(st: _CoverState, uncovered: int, active: int) -> int:
    """Size of a greedy transversal of the active copies.

    Disjoint copies consume distinct transversal vertices, so no packing
    holds more copies than any hitting set of the family.
    """
    size = 0
    while active:
        best_v = -1
        best_cnt = 0
        for v in bits_of(uncovered):
            cnt = (st.vertex_rows[v] & active).bit_count()
            if cnt > best_cnt:
                best_v, best_cnt = v, cnt
        if best_v == -1:
            break
        active &= ~st.vertex_rows[best_v]
        uncovered &= ~(1 << best_v)
        size += 1
    return size


def _cover_search(st: _CoverState, covered: int, active: int, failed: set[int]) -> list[int] | None:
    st.tick()
    if covered == st.full_cover:
        return []
    if covered in failed:
        return None
    # MRV: the uncovered vertex in the fewest remaining copies
    best_v = -1
    best_cnt = -1
    uncovered = st.full_cover & ~covered
    for v in bits_of(uncovered):
        cnt = (st.vertex_rows[v] & active).bit_count()
        if cnt == 0:
            failed.add(covered)
            return None
        if best_cnt == -1 or cnt < best_cnt:
            best_v, best_cnt = v, cnt
            if cnt == 1:
                break
    k = len(st.copies[0].vertices) if st.copies else 1
    needed = uncovered.bit_count() // k
    if needed > 1 and _hitting_bound(st, uncovered, active) < needed:
        failed.add(covered)
        return None
    for idx in bits_of(st.vertex_rows[best_v] & active):
        sub = _cover_search(
            st,
            covered | st.masks[idx],
            active & ~st.conflict_rows(idx),
            failed,
        )
        if sub is not None:
            return [idx] + sub
    failed.add(covered)
    return None


def find_perfect_packing(
    h: Graph,
    g: Graph,
    budget_secs: float | None = DEFAULT_BUDGET_SECS,
    stats: SearchStats | None = None,
) -> Packing | None:
    """A perfect packing of g by copies of h, or None after exhaustive search.

    Raises Timeout when the budget runs out before the search finishes;
    a None return is always a completed proof of nonexistence. A caller
    supplied SearchStats is filled with node count and elapsed time.
    """
    if h.n == 0:
        return None
    if g.n % h.n:
        return None
    # an empty host falls through to the empty perfect packing
    t0 = time.monotonic()
    copies = enumerate_copies(h, g)
    st = _CoverState(g.n, copies, budget_secs)
    if stats is not None:
        st.stats = stats
    try:
        chosen = _cover_search(st, 0, st.all_rows, set())
    finally:
        st.stats.elapsed = time.monotonic() - t0
    if chosen is None:
        return None
    return Packing(tuple(copies[i] for i in sorted(chosen)), g.n)


def max_packing_size(
    h: Graph,
    g: Graph,
    budget_secs: float | None = DEFAULT_BUDGET_SECS,
    stats: SearchStats | None = None,
) -> int:
    """Maximum number of disjoint copies of h in g (branch and bound).

    The bound at each node is packed + coverable // |H| where coverable
    counts vertices still lying in some active copy. A caller supplied
    SearchStats is filled with node count and elapsed time.
    """
    if h.n == 0 or h.n > g.n:
        return 0
    t0 = time.monotonic()
    copies = enumerate_copies(h, g)
    st = _CoverState(g.n, copies, budget_secs)
    if stats is not None:
        st.stats = stats
    best = 0

    def search(packed: int, blocked: int, active: int) -> None:
        nonlocal best
        st.tick()
        counts: dict[int, int] = {}
        coverable_mask = 0
        for v in bits_of(st.full_cover & ~blocked):
            cnt = (st.vertex_rows[v] & active).bit_count()
            if cnt:
                counts[v] = cnt
                coverable_mask |= 1 << v
        if packed > best:
            best = packed
        if not counts:
            return
        room = min(
            len(counts) // h.n,
            _hitting_bound(st, coverable_mask, active),
        )
        if packed + room <= best:
            return
        pivot = min(counts, key=lambda v: (counts[v], v))
        for idx in bits_of(st.vertex_rows[pivot] & active):
            search(packed + 1, blocked | st.masks[idx], active & ~st.conflict_rows(idx))
        # pivot left uncovered
        search(packed, blocked | (1 << pivot), active & ~st.vertex_rows[pivot])

    try:
        if copies:
            search(0, 0, st.all_rows)
    finally:
        st.stats.elapsed = time.monotonic() - t0
    return best


def packing_defect(h: Graph, g: Graph, p: Packing, require_perfect: bool = False) -> str | None:
    """Reason the packing is invalid, or None when it verifies."""
    if p.host_n != g.n:
        return f"packing host order {p.host_n} != graph order {g.n}"
    seen = 0
    for i, c in enumerate(p.copies):
        if len(c.embedding) != h.n:
            return f"copy {i}: embedding arity {len(c.embedding)} != |H| = {h.n}"
        if len(set(c.embedding)) != h.n:
            return f"copy {i}: embedding not injective"
        if tuple(sorted(c.embedding)) != c.vertices:
            return f"copy {i}: vertex set disagrees with embedding"
        if any(not (0 <= v < g.n) for v in c.vertices):
            return f"copy {i}: vertex outside host"
        for u in range(h.n):
            for w in bits_of(h.adj[u] >> (u + 1)):
                wu = u + 1 + w
                if not g.has_edge(c.embedding[u], c.embedding[wu]):
                    return (
                        f"copy {i}: pattern edge {u}-{wu} maps to non-edge "
                        f"{c.embedding[u]}-{c.embedding[wu]}"
                    )
        m = c.mask()
        if m & seen:
            return f"copy {i}: overlaps an earlier copy"
        seen |= m
    if require_perfect and seen != (1 << g.n) - 1:
        return "packing does not cover every host vertex"
    return None


def verify_packing(h: Graph, g: Graph, p: Packing, require_perfect: bool = False) -> bool:
    """True iff copies are disjoint, each hosts h, and (optionally) cover V(G)."""
    return packing_defect(h, g, p, require_perfect) is None


__all__ = [
    "Copy",
    "DEFAULT_BUDGET_SECS",
    "Packing",
    "SearchStats",
    "enumerate_copies",
    "find_perfect_packing",
    "max_packing_size",
    "packing_defect",
    "verify_packing",
]
