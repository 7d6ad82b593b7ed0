"""Immutable simple graphs over integer bitsets.

Vertices are 0..n-1. Adjacency is stored as one Python int per vertex
(bit v of ``adj[u]`` set iff uv is an edge), which keeps neighbourhood
intersections, degree counts and induced-subgraph work down to a few
big-int operations. All densities are exact ``Fraction`` values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import BadSizes, DegenerateSet, EmptyGraph, OverlappingSets


def bits_of(mask: int) -> Iterator[int]:
    """Iterate set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of a host graph, stored as a bitmask."""

    bits: int
    host_n: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.host_n:
            raise ValueError("set bits outside host range")

    @classmethod
    def from_iterable(cls, vertices: Iterable[int], host_n: int) -> "VertexSet":
        bits = 0
        for v in vertices:
            bits |= 1 << v
        return cls(bits, host_n)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.bits)

    def __contains__(self, v: int) -> bool:
        return bool((self.bits >> v) & 1)

    def to_list(self) -> list[int]:
        return list(self)


class Graph:
    """Immutable undirected simple graph.

    ``labels`` optionally records a class index per vertex (used by the
    multipartite constructors). ``origin`` maps the vertices of an induced
    subgraph back to the parent graph it was cut from.
    """

    __slots__ = ("n", "adj", "labels", "origin")

    def __init__(
        self,
        n: int,
        adj: Sequence[int],
        labels: Sequence[int] | None = None,
        origin: Sequence[int] | None = None,
    ):
        if len(adj) != n:
            raise ValueError("adjacency length mismatch")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise ValueError("adjacency bit outside vertex range")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
        # symmetric iff the bit matrix equals its transpose, compared as strings;
        # only a mismatch walks the entries, to name the first asymmetric pair
        rows = [format(row, f"0{n}b")[::-1] for row in adj]
        if rows != list(map("".join, zip(*rows))):
            for u in range(n):
                for v in bits_of(adj[u]):
                    if not (adj[v] >> u) & 1:
                        raise ValueError(f"asymmetric edge {u}-{v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)
        object.__setattr__(self, "origin", tuple(origin) if origin is not None else None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[int] | None = None,
    ) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj, labels)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits_of(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def vertex_set(self) -> VertexSet:
        return VertexSet((1 << self.n) - 1, self.n)

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with extra edges (the original is untouched)."""
        adj = list(self.adj)
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(self.n, adj, self.labels, self.origin)

    def drop_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given edges removed."""
        adj = list(self.adj)
        for u, v in edges:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return Graph(self.n, adj, self.labels, self.origin)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint vertex classes; the union may be a proper subset."""

    classes: tuple[VertexSet, ...]
    host_n: int

    def __post_init__(self) -> None:
        seen = 0
        for c in self.classes:
            if c.host_n != self.host_n:
                raise ValueError("class over a different host")
            if c.bits & seen:
                raise OverlappingSets("partition classes overlap")
            seen |= c.bits

    @classmethod
    def from_lists(cls, classes: Iterable[Iterable[int]], host_n: int) -> "Partition":
        return cls(tuple(VertexSet.from_iterable(c, host_n) for c in classes), host_n)

    def __len__(self) -> int:
        return len(self.classes)

    def __getitem__(self, i: int) -> VertexSet:
        return self.classes[i]

    def class_of(self) -> list[int]:
        """Vertex -> class index map; -1 for vertices outside every class."""
        out = [-1] * self.host_n
        for i, c in enumerate(self.classes):
            for v in c:
                out[v] = i
        return out


# ---------------------------------------------------------------------------
# Operations


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise EmptyGraph("minimum degree of the empty graph")
    return min(g.degree(v) for v in range(g.n))


def edges_within(g: Graph, a: VertexSet) -> int:
    """Number of edges of g with both ends in a."""
    return sum((g.adj[v] & a.bits).bit_count() for v in a) // 2


def edges_between(g: Graph, a: VertexSet, b: VertexSet) -> int:
    if a.bits & b.bits:
        raise OverlappingSets("edge count between overlapping sets")
    return sum((g.adj[v] & b.bits).bit_count() for v in a)


def density_within(g: Graph, a: VertexSet) -> Fraction:
    """Exact density e(G[A]) / C(|A|, 2)."""
    size = len(a)
    if size < 2:
        raise DegenerateSet("density needs at least two vertices")
    return Fraction(edges_within(g, a), comb(size, 2))


def density_between(g: Graph, a: VertexSet, b: VertexSet) -> Fraction:
    """Exact cross density e(A, B) / (|A| |B|)."""
    if len(a) == 0 or len(b) == 0:
        raise DegenerateSet("cross density needs nonempty sides")
    if a.bits & b.bits:
        raise OverlappingSets("cross density of overlapping sets")
    return Fraction(edges_between(g, a, b), len(a) * len(b))


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; vertices grouped by class, labels record it."""
    if not sizes or any(s <= 0 for s in sizes):
        raise BadSizes(f"class sizes must be positive, got {list(sizes)}")
    labels: list[int] = []
    for i, s in enumerate(sizes):
        labels.extend([i] * s)
    n = len(labels)
    class_masks = [0] * len(sizes)
    for v, lab in enumerate(labels):
        class_masks[lab] |= 1 << v
    full = (1 << n) - 1
    adj = [full & ~class_masks[labels[v]] for v in range(n)]
    return Graph(n, adj, labels)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise BadSizes("complete graph needs at least one vertex")
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise BadSizes("negative vertex count")
    return Graph(n, [0] * n)


def induced(g: Graph, a: VertexSet) -> Graph:
    """Induced subgraph; vertex order inherited ascending, origin retained."""
    verts = a.to_list()
    if not verts:
        raise DegenerateSet("induced subgraph of the empty set")
    bit_of = {v: 1 << i for i, v in enumerate(verts)}
    adj = []
    for v in verts:
        row = 0
        for w in bits_of(g.adj[v] & a.bits):
            row |= bit_of[w]
        adj.append(row)
    labels = [g.labels[v] for v in verts] if g.labels is not None else None
    return Graph(len(verts), adj, labels, origin=verts)


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Disjoint union; vertex blocks in the given order, labels concatenated."""
    n = sum(p.n for p in parts)
    adj: list[int] = []
    labels: list[int] = []
    have_labels = all(p.labels is not None for p in parts)
    offset = 0
    for p in parts:
        adj.extend(row << offset for row in p.adj)
        if have_labels:
            labels.extend(p.labels)  # type: ignore[arg-type]
        offset += p.n
    return Graph(n, adj, labels if have_labels else None)


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" (0-based).


def write_edge_list(g: Graph, path: str | Path) -> None:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path: str | Path) -> Graph:
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise ValueError("edge-list file too short")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges, found {(len(tokens) - 2) // 2}")
    seen: set[tuple[int, int]] = set()
    edges = []
    for i in range(m):
        u, v = int(tokens[2 + 2 * i]), int(tokens[3 + 2 * i])
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {u}-{v}")
        seen.add(key)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def write_class_labels(g: Graph, path: str | Path) -> None:
    if g.labels is None:
        raise ValueError("graph has no class labels")
    k = max(g.labels) + 1
    classes: list[list[int]] = [[] for _ in range(k)]
    for v, lab in enumerate(g.labels):
        classes[lab].append(v)
    Path(path).write_text(json.dumps({"classes": classes}))


def read_class_labels(path: str | Path, n: int) -> list[list[int]]:
    """Classes of a sidecar ``{"classes": [[...], ...]}``; ValueError on a bad shape."""
    data = json.loads(Path(path).read_text())
    classes = data.get("classes") if isinstance(data, dict) else None
    if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
        raise ValueError('class sidecar needs "classes": a list of lists of vertices')
    seen: set[int] = set()
    for c in classes:
        for v in c:
            if type(v) is not int or not (0 <= v < n) or v in seen:
                raise ValueError(f"bad class member {v!r}")
            seen.add(v)
    return [list(c) for c in classes]
