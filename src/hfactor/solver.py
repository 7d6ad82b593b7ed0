"""Exact perfect-packing decision and search.

A packing instance is compiled to an exact-cover problem: one row per
distinct vertex set of the host that carries a copy of the pattern, one
column per host vertex. The rows come from a depth-first search over
ascending vertex sets that drops a set as soon as it misses more host
edges than the pattern leaves out, so its cost follows the number of
near-copies, not the number of subsets. For a clique or a clique minus
one edge the search stops one vertex short: each (k - 1)-set reads its
last vertices off one mask and emits those copies together, so a copy
costs one mask step. For other patterns a set goes to an embedding search
that draws each pattern vertex from its own candidate mask; tidy places
its copies with it.

One branch and bound on an explicit stack answers both questions. It
looks for a packing with more copies than a floor: n/|H| - 1 for a
perfect packing, 0 for a maximum one. It branches on the free vertex
lying in the fewest remaining copies (Knuth's Algorithm X order), once
per copy and then once leaving the vertex uncovered, and cuts a node
when the copies it can still add cannot beat the best so far. A
``proved`` memo keyed by the blocked vertex set keeps those bounds. A
branching node whose best has grown since it was bounded is bounded
again, and drops all its untried children at once if it can no longer
beat the best. A cut only drops subtrees that cannot beat the best, so
a negative answer is an exhaustive proof. Timeouts, which count
enumeration time, are a first-class outcome and never conflated with a
proven negative. Enumeration reads the clock by candidates scanned, not
by sets stacked, so one long scan cannot run far past the budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from .errors import Timeout
from .graphs import Graph, bits_of

DEFAULT_BUDGET_SECS = 60.0

_TIME_CHECK_MASK = 0x3FF  # consult the clock every 1024 nodes or enumeration candidates


class Copy(NamedTuple):
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
    copies: int = 0
    cuts: int = 0  # nodes and branching frames dropped by the bound


def _lex_least_embedding(h: Graph, g: Graph, cands: list[int]) -> tuple[int, ...] | None:
    """First (hence lexicographically least) embedding of h into g.

    Pattern vertex p draws its host, in ascending order, from the bitmask
    ``cands[p]``, among the vertices not yet used that are joined to the
    hosts of p's earlier neighbours. Host edges beyond the pattern's are
    allowed; every pattern edge must map to a host edge. The search is a
    backtrack on an explicit stack and exhausts every choice, so None is
    a proof that no embedding draws from the masks.
    """
    k = h.n
    earlier = [list(bits_of(h.adj[p] & ((1 << p) - 1))) for p in range(k)]
    hosts = [0] * k
    left = [0] * k
    left[0] = cands[0]
    used = 0
    p = 0
    while p >= 0:
        c = left[p]
        if not c:
            p -= 1
            if p >= 0:
                used ^= 1 << hosts[p]
            continue
        low = c & -c
        left[p] = c ^ low
        hosts[p] = low.bit_length() - 1
        if p + 1 == k:
            return tuple(hosts)
        used |= low
        p += 1
        c = cands[p] & ~used
        for q in earlier[p]:
            c &= g.adj[hosts[q]]
        left[p] = c
    return None


def enumerate_copies(h: Graph, g: Graph, deadline: float | None = None) -> list[Copy]:
    """All copies of h in g, one per hosting vertex set, sets in lex order.

    A k-set hosts h only if it misses at most ``slack = C(k, 2) - e(h)``
    host edges, and none of its subsets misses more. One depth-first
    search therefore grows ascending vertex sets, drops a set once it
    misses more than ``slack`` edges, and extends a set that misses
    exactly ``slack`` by common neighbours only. The stored embedding is
    the lexicographically least one for its set: for a clique or a clique
    minus one edge it follows from the set's missing pair; other patterns
    pass a degree-sequence filter and then a backtracking search.

    For a clique or a clique minus one edge (slack at most 1) the search
    never stacks a (k - 1)-set: it reads the set's last vertices off one
    mask, its common neighbourhood above its last vertex once the set is
    at the slack, else every vertex above it that adds at most one gap,
    and emits those copies at once in ascending order. The clock counts
    work, the candidates scanned at each stacked set and each (k - 1)-set,
    and Timeout is raised once ``time.monotonic()`` passes ``deadline``.
    """
    n, k = g.n, h.n
    if k > n:
        return []
    if k == 0:
        return [Copy((), ())]
    if k == 1:
        return [Copy((v,), (v,)) for v in range(n)]
    adj = g.adj
    slack = k * (k - 1) // 2 - h.edge_count()
    dense = slack <= 1
    if dense:
        # a set missing no edge hosts h as itself; one missing pair (a, b)
        # takes the pattern's missing pair (p, q), the rest go in ascending
        # order, so the set's largest vertex takes the last slot outside (p, q)
        pat_pair = next(
            ((p, q) for p in range(k) for q in range(p + 1, k) if not (h.adj[p] >> q) & 1),
            None,
        )
        if pat_pair is not None:
            p, q = pat_pair
            last_slot = max((i for i in range(k) if i != p and i != q), default=-1)
    else:
        needs = [h.degree(p) for p in range(k)]
        h_degs = sorted(needs, reverse=True)
    last = k - 1 if dense else k  # sets of this size are finished where they form
    out: list[Copy] = []
    full = (1 << n) - 1
    # work counts the candidates scanned, at stacked sets and at (k - 1)-sets;
    # the clock is read before the next candidate once it passes tick
    work, tick = 0, _TIME_CHECK_MASK + 1
    # frame: vertices, their mask, common neighbourhood, missing edges, first missing pair
    stack = [((), 0, full, 0, None)]
    while stack:
        verts, mask, common, missing, pair = stack.pop()
        depth = len(verts) + 1  # size of the sets this frame's children form
        above = verts[-1] + 1 if verts else 0
        room = (1 << (n - k + depth)) - 1  # leaves k - depth vertices above the last
        cands = (common if missing == slack else full) & room & ~((1 << above) - 1)
        work += cands.bit_count()
        children = []
        while cands:
            if work >= tick:
                tick = (work | _TIME_CHECK_MASK) + 1
                if deadline is not None and time.monotonic() > deadline:
                    raise Timeout(f"budget exhausted enumerating copies, {len(out)} found so far")
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            gaps = mask & ~adj[v]
            now_missing = missing + gaps.bit_count()
            if now_missing > slack:
                continue
            vs = verts + (v,)
            if pair is None and gaps:
                pair_v = ((gaps & -gaps).bit_length() - 1, v)
            else:
                pair_v = pair
            if depth < last:
                children.append((vs, mask | low, common & adj[v], now_missing, pair_v))
            elif dense:
                higher = full & -(low << 1)
                if now_missing == slack:
                    ends = common & adj[v] & higher
                    if not ends:
                        continue
                else:
                    ends = higher
                work += ends.bit_count()
                if now_missing < slack:
                    # no pair yet: the last vertex w may bring the one gap (a, w)
                    vs_mask = mask | low
                    for w in bits_of(ends):
                        gaps = vs_mask & ~adj[w]
                        if not gaps:
                            vs_w = vs + (w,)
                            out.append(Copy(vs_w, vs_w))
                        elif not gaps & (gaps - 1):
                            a = gaps.bit_length() - 1
                            emb = [x for x in vs if x != a]
                            emb.insert(p, a)
                            emb.insert(q, w)
                            out.append(Copy(vs + (w,), tuple(emb)))
                elif pair_v is None:
                    for w in bits_of(ends):
                        vs_w = vs + (w,)
                        out.append(Copy(vs_w, vs_w))
                else:
                    a, b = pair_v
                    emb = [x for x in vs if x != a and x != b]
                    emb.append(-1)  # holds the last slot, which each w fills
                    emb.insert(p, a)
                    emb.insert(q, b)
                    head, tail = tuple(emb[:last_slot]), tuple(emb[last_slot + 1 :])
                    for w in bits_of(ends):
                        out.append(Copy(vs + (w,), head + (w,) + tail))
            else:
                # pattern vertex p may only go to members of at least its degree inside vs
                vs_mask = mask | low
                inside = [(x, (adj[x] & vs_mask).bit_count()) for x in vs]
                if sorted((d for _, d in inside), reverse=True) < h_degs:
                    continue
                fits = [sum(1 << x for x, d in inside if d >= need) for need in needs]
                emb = _lex_least_embedding(h, g, fits)
                if emb is not None:
                    out.append(Copy(vs, emb))
        stack.extend(reversed(children))
    return out


def _hitting_bound(vertex_rows: list[int], uncovered: int, active: int) -> int:
    """Size of a greedy transversal of the active copies.

    Disjoint copies consume distinct transversal vertices, so no packing
    holds more copies than any hitting set of the family.
    """
    size = 0
    while active:
        best_v = -1
        best_cnt = 0
        for v in bits_of(uncovered):
            cnt = (vertex_rows[v] & active).bit_count()
            if cnt > best_cnt:
                best_v, best_cnt = v, cnt
        if best_v == -1:
            break
        active &= ~vertex_rows[best_v]
        uncovered &= ~(1 << best_v)
        size += 1
    return size


def _branch_and_bound(
    h: Graph, g: Graph, deadline: float | None, stats: SearchStats, floor: int
) -> list[Copy] | None:
    """The largest packing with more than ``floor`` copies, or None if none has.

    A node is ``blocked``, the vertices covered or given up; its active
    copies are those avoiding ``blocked``. It branches on the coverable
    vertex in the fewest active copies: once per copy through it, in index
    order, then once leaving it uncovered when that can still beat the
    best. ``proved[blocked]`` bounds the copies any completion can add.
    A branching frame keeps its coverable vertices and the best it was
    last bounded against; popped after the best has grown, it is bounded
    again and drops its untried copies if they cannot beat it.
    The search stops at the first packing that covers every vertex.
    """
    copies = enumerate_copies(h, g, deadline)
    stats.copies = len(copies)
    k, n = h.n, g.n
    full = (1 << n) - 1
    # bit idx of vertex_rows[v] is set iff copy idx covers v
    rows = [bytearray((len(copies) + 7) >> 3) for _ in range(n)]
    for idx, c in enumerate(copies):
        byte, bit = idx >> 3, 1 << (idx & 7)
        for v in c.vertices:
            rows[v][byte] |= bit
    vertex_rows = [int.from_bytes(row, "little") for row in rows]
    del rows
    best, best_chain = floor, None
    proved: dict[int, int] = {}
    # frame: packed, blocked, active, chain of chosen copies, then the copy
    # rows still to try (a branching node), 0 (a finished node) or None (a new
    # node), then a branching node's coverable vertices and the best it was
    # last bounded against
    stack: list[tuple] = [(0, 0, (1 << len(copies)) - 1, (), None, 0, 0)]
    while stack:
        packed, blocked, active, chain, todo, coverable, seen = stack.pop()
        if todo:
            if best > seen:
                room = min(
                    coverable.bit_count() // k, _hitting_bound(vertex_rows, coverable, active)
                )
                if packed + room <= best:
                    stats.cuts += 1
                    continue
                seen = best
            low = todo & -todo
            if todo != low:
                stack.append((packed, blocked, active, chain, todo ^ low, coverable, seen))
            idx = low.bit_length() - 1
            conflict, taken = 0, blocked
            for v in copies[idx].vertices:
                conflict |= vertex_rows[v]
                taken |= 1 << v
            stack.append((packed + 1, taken, active & ~conflict, (idx, chain), None, 0, 0))
            continue
        if todo == 0:
            proved[blocked] = best - packed
            continue
        stats.nodes += 1
        if deadline is not None and (stats.nodes == 1 or not (stats.nodes & _TIME_CHECK_MASK)):
            if time.monotonic() > deadline:
                raise Timeout(f"search budget exhausted after {stats.nodes} nodes")
        if packed > best:
            best, best_chain = packed, chain
            if packed * k == n:
                break
        bound = proved.get(blocked)
        if bound is not None and packed + bound <= best:
            stats.cuts += 1
            continue
        coverable = 0
        pivot, pivot_cnt = -1, 0
        for v in bits_of(full & ~blocked):
            cnt = (vertex_rows[v] & active).bit_count()
            if cnt:
                coverable |= 1 << v
                if pivot_cnt == 0 or cnt < pivot_cnt:
                    pivot, pivot_cnt = v, cnt
        n_coverable = coverable.bit_count()
        room = n_coverable // k
        if best < packed + room and packed < best:
            room = min(room, _hitting_bound(vertex_rows, coverable, active))
        if packed + room <= best:
            proved[blocked] = room
            stats.cuts += 1
            continue
        stack.append((packed, blocked, active, chain, 0, 0, 0))
        if packed + (n_coverable - 1) // k > best:
            stack.append(
                (packed, blocked | 1 << pivot, active & ~vertex_rows[pivot], chain, None, 0, 0)
            )
        stack.append((packed, blocked, active, chain, vertex_rows[pivot] & active, coverable, best))
    if best_chain is None:
        return None
    chosen = []
    while best_chain:
        idx, best_chain = best_chain
        chosen.append(idx)
    return [copies[i] for i in sorted(chosen)]


def find_perfect_packing(
    h: Graph,
    g: Graph,
    budget_secs: float | None = DEFAULT_BUDGET_SECS,
    stats: SearchStats | None = None,
) -> Packing | None:
    """A perfect packing of g by copies of h, or None after exhaustive search.

    Raises Timeout when the budget, which covers copy enumeration as well
    as the search, runs out before the search finishes; a None return is
    always a completed proof of nonexistence. A caller supplied
    SearchStats is filled with copy, node and cut counts and elapsed time.
    """
    if h.n == 0 or g.n % h.n:
        return None
    # an empty host falls through to the empty perfect packing
    stats = SearchStats() if stats is None else stats
    t0 = time.monotonic()
    deadline = None if budget_secs is None else t0 + budget_secs
    try:
        chosen = _branch_and_bound(h, g, deadline, stats, g.n // h.n - 1)
    finally:
        stats.elapsed = time.monotonic() - t0
    return None if chosen is None else Packing(tuple(chosen), g.n)


def max_packing_size(
    h: Graph,
    g: Graph,
    budget_secs: float | None = DEFAULT_BUDGET_SECS,
    stats: SearchStats | None = None,
) -> int:
    """Maximum number of disjoint copies of h in g (branch and bound).

    The bound at each node is packed + coverable // |H| where coverable
    counts vertices still lying in some active copy, tightened by a
    greedy transversal. The budget covers copy enumeration as well as the
    search. A caller supplied SearchStats is filled with copy, node and
    cut counts and elapsed time.
    """
    if h.n == 0 or h.n > g.n:
        return 0
    stats = SearchStats() if stats is None else stats
    t0 = time.monotonic()
    deadline = None if budget_secs is None else t0 + budget_secs
    try:
        chosen = _branch_and_bound(h, g, deadline, stats, 0)
    finally:
        stats.elapsed = time.monotonic() - t0
    return 0 if chosen is None else len(chosen)


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
