"""Independent reference implementations used to cross-check the fast paths.

Everything here is deliberately naive: permutation scans and direct
partition enumeration, sharing no code with the exact-cover solver or
the profile enumerator. Intended for small instances in tests and for
the acceptance harness.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .errors import EmptyGraph
from .graphs import Graph
from .invariants import ColouringProfile


def least_embedding(h: Graph, g: Graph, verts: tuple[int, ...]) -> tuple[int, ...] | None:
    """First embedding of h onto verts in a permutation scan, or None.

    ``permutations`` of a sorted tuple come in lexicographic order, so for
    sorted verts the first valid one is the least.
    """
    pattern_edges = [(u, v) for u in range(h.n) for v in range(u + 1, h.n) if (h.adj[u] >> v) & 1]
    for perm in permutations(verts):
        if all((g.adj[perm[u]] >> perm[v]) & 1 for u, v in pattern_edges):
            return perm
    return None


def hosts_pattern(h: Graph, g: Graph, verts: tuple[int, ...]) -> bool:
    """True iff the host set carries h under some vertex bijection (permutation scan)."""
    return len(verts) == h.n and least_embedding(h, g, verts) is not None


def brute_force_perfect_packing(h: Graph, g: Graph) -> bool:
    """Decide a perfect packing by enumerating all block partitions of V(G)."""
    if g.n % h.n:
        return False

    def extend(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        v, rest = remaining[0], remaining[1:]
        for others in combinations(rest, h.n - 1):
            block = (v,) + others
            if hosts_pattern(h, g, block):
                leftover = tuple(x for x in rest if x not in others)
                if extend(leftover):
                    return True
        return False

    return extend(tuple(range(g.n)))


def brute_force_max_packing(h: Graph, g: Graph) -> int:
    """Maximum number of disjoint copies, by exhaustive block selection."""
    hosting = [
        verts for verts in combinations(range(g.n), h.n) if hosts_pattern(h, g, verts)
    ]

    def extend(used: int, start: int) -> int:
        best = 0
        for i in range(start, len(hosting)):
            mask = 0
            for v in hosting[i]:
                mask |= 1 << v
            if mask & used:
                continue
            best = max(best, 1 + extend(used | mask, i + 1))
        return best

    return extend(0, 0)


def brute_force_copies(h: Graph, g: Graph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(vertex set, least embedding) per hosting set, sets in ``combinations`` order."""
    out = []
    for verts in combinations(range(g.n), h.n):
        emb = least_embedding(h, g, verts)
        if emb is not None:
            out.append((verts, emb))
    return out


def brute_force_copy_sets(h: Graph, g: Graph) -> set[tuple[int, ...]]:
    """All hosting vertex sets, by raw subset scan."""
    return {
        verts for verts in combinations(range(g.n), h.n) if hosts_pattern(h, g, verts)
    }


def brute_force_profile(h: Graph) -> ColouringProfile:
    """Independent oracle: all set partitions into independent sets, minimal count.

    Exponential in h.n; intended for cross-checks on tiny patterns only.
    """
    if h.n == 0:
        raise EmptyGraph("profile of the empty graph")
    best_parts: int | None = None
    multisets: set[tuple[int, ...]] = set()

    def extend(v: int, parts: list[int]) -> None:
        nonlocal best_parts, multisets
        if best_parts is not None and len(parts) > best_parts:
            return
        if v == h.n:
            k = len(parts)
            if best_parts is None or k < best_parts:
                best_parts = k
                multisets = set()
            if k == best_parts:
                multisets.add(tuple(sorted(m.bit_count() for m in parts)))
            return
        for i, mask in enumerate(parts):
            if not (h.adj[v] & mask):
                parts[i] |= 1 << v
                extend(v + 1, parts)
                parts[i] &= ~(1 << v)
        parts.append(1 << v)
        extend(v + 1, parts)
        parts.pop()

    extend(0, [])
    assert best_parts is not None
    sigma = min(ms[0] for ms in multisets)
    return ColouringProfile(best_parts, sigma, frozenset(multisets))
