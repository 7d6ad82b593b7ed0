"""Seeded instance generators for tests and corpus sweeps.

Every generator takes an explicit seed and is deterministic given it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .constructions import CanonicalSpec, canonical_graph, canonical_partition
from .errors import BadParameter
from .graphs import Graph, Partition


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p)."""
    if n < 0:
        raise BadParameter(f"random graph needs n >= 0, got {n}")
    if not 0 <= p <= 1:  # NaN fails too
        raise BadParameter(f"random graph needs 0 <= p <= 1, got {p}")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_multipartite_deleted(
    class_sizes: list[int], rate: Fraction | float, seed: int
) -> tuple[Graph, Partition]:
    """Complete multipartite host minus independent cross-edge deletions."""
    rng = random.Random(seed)
    labels: list[int] = []
    for i, s in enumerate(class_sizes):
        labels.extend([i] * s)
    n = len(labels)
    rate = float(rate)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if labels[u] != labels[v] and rng.random() >= rate
    ]
    g = Graph.from_edges(n, edges, labels=labels)
    classes = []
    start = 0
    for s in class_sizes:
        classes.append(range(start, start + s))
        start += s
    return g, Partition.from_lists(classes, n)


def hypothesis_deleted_multipartite(
    class_sizes: list[int], rate: Fraction | float, band: Fraction, seed: int
) -> tuple[Graph, Partition]:
    """Cross deletions at the given rate, repaired into the guarantee band.

    Edges are first deleted independently; a repair pass then restores
    edges (ascending) at any vertex missing more than floor(band * |V_j|)
    of a class, so every vertex ends inside the per-class tolerance that
    makes the star-matching recursion provably succeed. Raw independent
    deletion alone occasionally isolates a vertex from a small class,
    which no packer can survive.
    """
    g, part = random_multipartite_deleted(class_sizes, rate, seed)
    class_of = part.class_of()
    adj = list(g.adj)
    n = g.n
    for x in range(n):
        i = class_of[x]
        for j, cls in enumerate(part.classes):
            if j == i:
                continue
            cap = int(band * len(cls))
            members = cls.to_list()
            missing = [y for y in members if not (adj[x] >> y) & 1]
            for y in missing[: max(0, len(missing) - cap)]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    labels = g.labels
    return Graph(n, adj, labels), part


def _power_cap(tau: Fraction, size: int, root: int) -> int:
    """Largest integer c with c**root <= tau * size**root."""
    cap = 0
    while (cap + 1) ** root <= tau * size**root:
        cap += 1
    return cap


def noisy_canonical(
    spec: CanonicalSpec,
    seed: int,
    noise_density: Fraction = Fraction(1, 200),
    planted_exceptional: int = 0,
    planted_relocatable: int = 0,
    planted_useless: int = 0,
    tau: Fraction = Fraction(1, 100),
) -> tuple[Graph, Partition]:
    """Canonical host with sparse-class noise and planted deviant vertices.

    Noise adds random edges inside each sparse class up to the given
    density. Planted vertices come in three flavours:

    - exceptional: a remainder-class vertex keeps only a sliver of its
      edges into one sparse class;
    - relocatable: a sparse-class vertex loses just over the useless
      threshold of its remainder neighbours;
    - useless: a sparse-class vertex loses just over the useless (but
      under the exceptional) threshold of another sparse class.

    Sparse-class vertices that lose edges receive compensating in-class
    edges, which is the only way their degree can stay near the
    threshold; the cut partner vertices end one edge short of it, which
    the cleanup tolerates.
    """
    g = canonical_graph(spec)
    part = canonical_partition(spec)
    rng = random.Random(seed)
    q = spec.q
    add: list[tuple[int, int]] = []
    drop: list[tuple[int, int]] = []
    for i in range(q):
        members = part[i].to_list()
        pairs = [(u, v) for ui, u in enumerate(members) for v in members[ui + 1 :]]
        budget = int(noise_density * len(pairs))
        add.extend(rng.sample(pairs, min(budget, len(pairs))))

    remainder = part[q].to_list()
    planted = rng.sample(remainder, min(planted_exceptional, len(remainder)))
    for x in planted:
        target = rng.randrange(q)
        members = part[target].to_list()
        keep_cap = _power_cap(tau, len(members), 3)
        keep = rng.sample(members, max(keep_cap // 2, 0))
        drop.extend((x, v) for v in members if v not in keep)

    sparse_pool: list[int] = []
    for i in range(q):
        sparse_pool.extend(part[i].to_list())
    rng.shuffle(sparse_pool)
    class_of = part.class_of()

    def plant_sparse_deficit(x: int, target: int, keep_self_sufficient: bool) -> None:
        members = part[target].to_list()
        useless_cap = _power_cap(tau, len(members), 4)
        exceptional_cap = _power_cap(tau, len(members), 3)
        misses = min(useless_cap + 2, len(members) - exceptional_cap - 2)
        cut = rng.sample(members, max(misses, 0))
        drop.extend((x, v) for v in cut)
        own = [v for v in part[class_of[x]].to_list() if v != x]
        comp = len(cut)
        if keep_self_sufficient:
            # enough in-class edges that x, once moved out, is not
            # deficient towards its old class
            own_cap = _power_cap(tau, len(own) + 1, 4)
            comp = max(comp, len(own) + 1 - own_cap)
        add.extend((x, v) for v in rng.sample(own, min(comp, len(own))))

    for _ in range(planted_relocatable):
        if not sparse_pool:
            break
        x = sparse_pool.pop()
        plant_sparse_deficit(x, q, keep_self_sufficient=True)
    for _ in range(planted_useless):
        if not sparse_pool or q < 2:
            break
        x = sparse_pool.pop()
        others = [j for j in range(q) if j != class_of[x]]
        plant_sparse_deficit(x, rng.choice(others), keep_self_sufficient=False)

    g = g.add_edges(add).drop_edges(drop)
    return g, part


def planted_sparse_graph(
    n: int, r: int, q: int, flip_rate: float, seed: int
) -> tuple[Graph, Partition]:
    """Near-canonical host with a small fraction of random edge flips."""
    spec = CanonicalSpec(r, q, n)
    g = canonical_graph(spec)
    part = canonical_partition(spec)
    rng = random.Random(seed)
    add, drop = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < flip_rate:
                if g.has_edge(u, v):
                    drop.append((u, v))
                else:
                    add.append((u, v))
    return g.add_edges(add).drop_edges(drop), part
