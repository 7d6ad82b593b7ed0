"""End-to-end engine: detect sparse classes, tidy, pack, expand.

The path for a host G of order divisible by r: find the largest number q
of disjoint near-independent classes of the canonical size; tidy them
into a canonical core; pack the core's remainder class with remainder
patterns (an exact-solver stage standing in for the asymptotic
machinery); contract each packed pattern to a single vertex of an
auxiliary graph and pack that with apex multipartite copies via the Hall
packer; expand back into clique-minus-an-edge copies and merge with
everything removed during tidying. Any intermediate dead end falls back
to the direct exact solver on the whole host, so the final decision is
always exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .constructions import (
    kr_minus,
    kr_minus_threshold,
    remainder_pattern,
    remainder_pattern_order,
    sparse_class_size,
)
from .errors import BadParameter, InternalError, Stuck, Timeout
from .graphs import Graph, Partition, VertexSet, bits_of, contracted_adjacency, edges_within, induced
from .hall import PackFailure, pack_apex_multipartite
from .solver import DEFAULT_BUDGET_SECS, Copy, Packing, find_perfect_packing, packing_defect
from .tidy import TidyResult, tidy


@dataclass(frozen=True)
class TauLadder:
    """Strictly increasing sparseness tolerances tau_1 < ... < tau_{r-1} < 1/r."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise BadParameter("empty tolerance ladder")
        for a, b in zip(self.values, self.values[1:]):
            if a >= b:
                raise BadParameter("ladder not strictly increasing")

    def tau_for(self, q: int) -> Fraction:
        return self.values[q - 1]


def default_ladder(r: int) -> TauLadder:
    """tau_{r-1} = 1/(100 r), each lower level the square of the one above."""
    if r < 4:
        raise BadParameter(f"need r >= 4, got {r}")
    vals = [Fraction(1, 100 * r)]
    for _ in range(r - 2):
        vals.append(vals[-1] ** 2)
    vals.reverse()
    return TauLadder(tuple(vals))


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Contraction of a remainder-class packing against the sparse classes.

    A sparse-class vertex is adjacent to a packed-copy vertex exactly
    when the host joins it to every vertex of that copy; sparse-sparse
    adjacency is inherited.
    """

    j_graph: Graph
    left_classes: tuple[VertexSet, ...]
    right_class: VertexSet
    back_map: tuple[tuple[int, ...], ...]


@dataclass
class PipelineConfig:
    ladder: TauLadder | None = None
    budget_secs: float | None = DEFAULT_BUDGET_SECS  # for the whole run


@dataclass
class PipelineResult:
    decision: bool
    packing: Packing | None
    path: str  # "pipeline" | "fallback" | "direct"
    stages: list[dict] = field(default_factory=list)
    elapsed: float = 0.0


# ---------------------------------------------------------------------------
# Sparse-set detection


def _improve_sparse_set(g: Graph, bits: int, pool: int, max_iters: int) -> int:
    """Steepest-descent swaps minimizing internal edges of the set."""
    for _ in range(max_iters):
        members = list(bits_of(bits))
        outside = list(bits_of(pool & ~bits))
        best_gain = 0
        best_swap: tuple[int, int] | None = None
        indeg = {u: (g.adj[u] & bits).bit_count() for u in members}
        for u in members:
            without_u = bits & ~(1 << u)
            for v in outside:
                gain = indeg[u] - (g.adj[v] & without_u).bit_count()
                if gain > best_gain:
                    best_gain = gain
                    best_swap = (u, v)
        if best_swap is None:
            break
        u, v = best_swap
        bits = (bits & ~(1 << u)) | (1 << v)
    return bits


def _find_one_sparse_set(
    g: Graph, size: int, tau: Fraction, used: int
) -> VertexSet | None:
    pool = ((1 << g.n) - 1) & ~used
    if pool.bit_count() < size:
        return None
    candidates = sorted(bits_of(pool), key=lambda v: (g.degree(v), v))
    seeds = []
    seeds.append(candidates[:size])
    # greedy grow: always the vertex adding the fewest internal edges
    grown = [candidates[0]]
    grown_bits = 1 << candidates[0]
    rest = set(candidates[1:])
    while len(grown) < size:
        v = min(rest, key=lambda w: ((g.adj[w] & grown_bits).bit_count(), w))
        grown.append(v)
        grown_bits |= 1 << v
        rest.remove(v)
    seeds.append(grown)
    budget = 4 * g.n
    threshold = tau * math.comb(size, 2)
    for seed in seeds:
        bits = 0
        for v in seed:
            bits |= 1 << v
        bits = _improve_sparse_set(g, bits, pool, budget)
        vs = VertexSet(bits, g.n)
        if edges_within(g, vs) <= threshold:
            return vs
    return None


def find_sparse_sets(g: Graph, r: int, ladder: TauLadder) -> tuple[int, list[VertexSet]]:
    """Largest q admitting q disjoint canonical-size sets of density <= tau_q.

    q = 0 means no sparse structure was found (the non-extremal regime).
    """
    n = g.n
    size = sparse_class_size(r, n)
    for q in range(r - 2, 0, -1):
        if q * size > n or size < 2:
            continue
        tau = ladder.tau_for(q)
        sets: list[VertexSet] = []
        used = 0
        for _ in range(q):
            s = _find_one_sparse_set(g, size, tau, used)
            if s is None:
                break
            sets.append(s)
            used |= s.bits
        if len(sets) == q:
            return q, sets
    return 0, []


# ---------------------------------------------------------------------------
# Remainder-class packing and the auxiliary graph


def pack_remainder_class(
    g: Graph,
    remainder: VertexSet,
    r: int,
    q: int,
    budget_secs: float | None = DEFAULT_BUDGET_SECS,
) -> Packing | None:
    """Perfect remainder-pattern packing of G[remainder], host-indexed.

    For q = r-2 the pattern is edgeless and consecutive batching is
    enough; otherwise the exact solver runs on the induced subgraph.
    """
    order = remainder_pattern_order(r, q)
    members = remainder.to_list()
    if len(members) % order:
        raise BadParameter(
            f"remainder class size {len(members)} not divisible by pattern order {order}"
        )
    if q == r - 2:
        copies = []
        for i in range(0, len(members), order):
            block = tuple(members[i : i + order])
            copies.append(Copy(block, block))
        return Packing(tuple(copies), g.n)
    pattern = remainder_pattern(r, q)
    sub = induced(g, remainder)
    packing = find_perfect_packing(pattern, sub, budget_secs)
    if packing is None:
        return None
    origin = sub.origin
    assert origin is not None
    host_copies = []
    for c in packing.copies:
        emb = tuple(origin[v] for v in c.embedding)
        host_copies.append(Copy(tuple(sorted(emb)), emb))
    return Packing(tuple(host_copies), g.n)


def build_auxiliary(
    g: Graph, sparse_classes: list[VertexSet], b1pack: Packing, r: int
) -> AuxiliaryGraph:
    """Auxiliary graph: sparse-class vertices plus one vertex per packed copy."""
    left_verts: list[int] = []
    class_ranges: list[tuple[int, int]] = []
    for c in sparse_classes:
        start = len(left_verts)
        left_verts.extend(c.to_list())
        class_ranges.append((start, len(left_verts)))
    n_left = len(left_verts)
    n_j = n_left + len(b1pack.copies)
    for start, end in class_ranges:
        if end - start != (r - 1) * len(b1pack.copies):
            raise InternalError(
                f"auxiliary class size {end - start} != (r-1) * {len(b1pack.copies)}"
            )
    groups = [cp.vertices for cp in b1pack.copies]
    j_graph = Graph(n_j, contracted_adjacency(g, left_verts, groups))
    back_map = [(v,) for v in left_verts]
    back_map += groups
    lefts = tuple(
        VertexSet.from_iterable(range(s, e), n_j) for s, e in class_ranges
    )
    right = VertexSet.from_iterable(range(n_left, n_j), n_j)
    return AuxiliaryGraph(j_graph, lefts, right, tuple(back_map))


def expand_packing(
    aux: AuxiliaryGraph,
    jpack: Packing,
    b1pack: Packing,
    r: int,
    q: int,
    g: Graph,
) -> list[Copy]:
    """Expand apex-multipartite copies of the auxiliary graph into r-2
    clique-minus-an-edge copies each.

    Component t of the remainder pattern (a clique when t < q) takes two
    host vertices from sparse class t and one from every other class;
    each clique-minus-an-edge component takes one vertex per class. Every
    adjacency this relies on is guaranteed by the auxiliary edge
    semantics; a violation raises InternalError.
    """
    s = r - q - 1
    pattern = kr_minus(r)
    copy_by_right: dict[int, Copy] = {}
    n_left = len(aux.back_map) - len(b1pack.copies)
    for ci, cp in enumerate(b1pack.copies):
        copy_by_right[n_left + ci] = cp
    out: list[Copy] = []
    for jcopy in jpack.copies:
        emb = jcopy.embedding
        groups = [list(emb[u * (r - 1) : (u + 1) * (r - 1)]) for u in range(q)]
        host_groups = [[aux.back_map[v][0] for v in grp] for grp in groups]
        for grp in host_groups:
            grp.sort()
        apex = emb[q * (r - 1)]
        b1copy = copy_by_right[apex]
        # component host groups, via the remainder-pattern embedding
        comp_hosts: list[list[int]] = []
        pos = 0
        for _ in range(q):
            comp_hosts.append([b1copy.embedding[pos + i] for i in range(s)])
            pos += s
        minus_pairs: list[tuple[int, int]] = []
        for _ in range(r - q - 2):
            comp = [b1copy.embedding[pos + i] for i in range(s + 1)]
            comp_hosts.append(comp)
            minus_pairs.append((comp[0], comp[1]))
            pos += s + 1
        queues = [list(grp) for grp in host_groups]
        for t, comp in enumerate(comp_hosts):
            chosen = list(comp)
            pair: tuple[int, int] | None = None
            if t < q:
                a, b = queues[t].pop(0), queues[t].pop(0)
                chosen.extend([a, b])
                pair = (min(a, b), max(a, b))
                for u in range(q):
                    if u != t:
                        chosen.append(queues[u].pop(0))
            else:
                pair = minus_pairs[t - q]
                for u in range(q):
                    chosen.append(queues[u].pop(0))
            rest = sorted(v for v in chosen if v not in pair)
            emb_out = (pair[0], pair[1]) + tuple(rest)
            kcopy = Copy(tuple(sorted(chosen)), emb_out)
            defect = packing_defect(pattern, g, Packing((kcopy,), g.n))
            if defect is not None:
                raise InternalError(f"expansion produced an invalid copy: {defect}")
            out.append(kcopy)
        if any(queues[u] for u in range(q)):
            raise InternalError("expansion left class vertices unconsumed")
    return out


# ---------------------------------------------------------------------------
# The driver


def threshold_table(r: int, n_max: int) -> dict[int, int]:
    """Degree threshold ceil((1 - 1/chi_cr) n) for each admissible order."""
    if r < 4:
        raise BadParameter(f"need r >= 4, got {r}")
    coeff = kr_minus_threshold(r)
    return {n: math.ceil(coeff * n) for n in range(r, n_max + 1, r)}


def run_pipeline(g: Graph, r: int, config: PipelineConfig | None = None) -> PipelineResult:
    """Decide and construct a perfect clique-minus-an-edge packing of g.

    Follows the sparse-set route when the host is extremal-like, else
    (or on any intermediate dead end) the direct exact solver. The
    returned packing, when present, always verifies. The budget covers
    the whole run: each solver call gets the time left of it, and the
    deadline is checked again before tidy, the Hall packer and expansion.
    A Timeout carries the stage trace so far as ``stages``.
    """
    cfg = config or PipelineConfig()
    t0 = time.monotonic()
    deadline = None if cfg.budget_secs is None else t0 + cfg.budget_secs
    stages: list[dict] = []
    pattern = kr_minus(r)

    def budget_left() -> float | None:
        return None if deadline is None else max(0.0, deadline - time.monotonic())

    def check_deadline(stage: str) -> None:
        if deadline is not None and time.monotonic() > deadline:
            stages.append({"stage": stage, "result": "timeout"})
            exc = Timeout(f"budget exhausted before {stage}")
            exc.stages = stages
            raise exc

    def finish(decision: bool, packing: Packing | None, path: str) -> PipelineResult:
        if packing is not None:
            defect = packing_defect(pattern, g, packing, require_perfect=True)
            if defect is not None:
                raise InternalError(f"pipeline produced an invalid packing: {defect}")
        return PipelineResult(decision, packing, path, stages, time.monotonic() - t0)

    def direct(path: str) -> PipelineResult:
        try:
            packing = find_perfect_packing(pattern, g, budget_left())
        except Timeout as exc:
            stages.append({"stage": "solver", "result": "timeout"})
            exc.stages = stages
            raise
        stages.append({"stage": "solver", "result": "exists" if packing else "absent"})
        return finish(packing is not None, packing, path)

    if g.n % r:
        stages.append({"stage": "divisibility", "result": f"r = {r} does not divide n = {g.n}"})
        return finish(False, None, "direct")
    if g.n > 0:
        need = math.ceil(kr_minus_threshold(r) * g.n)
        delta = min(g.degree(v) for v in range(g.n))
        if delta < need:
            stages.append(
                {"stage": "degree-check", "result": f"min degree {delta} below {need}"}
            )
    ladder = cfg.ladder or default_ladder(r)
    q, sparse_sets = find_sparse_sets(g, r, ladder)
    stages.append({"stage": "sparse-sets", "q": q})
    if q == 0:
        return direct("direct")

    check_deadline("tidy")
    try:
        result: TidyResult = tidy(g, sparse_sets, r, ladder.tau_for(q))
    except Stuck as exc:
        stages.append({"stage": "tidy", "result": f"stuck: {exc.stage}"})
        return direct("fallback")
    stages.append(
        {"stage": "tidy", "n_star": result.n_star, "removed": len(result.removed)}
    )

    remainder = result.partition_star[q]
    try:
        b1pack = pack_remainder_class(g, remainder, r, q, budget_left())
    except Timeout:
        stages.append({"stage": "remainder-pack", "result": "timeout"})
        return direct("fallback")
    if b1pack is None:
        stages.append({"stage": "remainder-pack", "result": "absent"})
        return direct("fallback")
    stages.append({"stage": "remainder-pack", "copies": len(b1pack.copies)})

    check_deadline("auxiliary-pack")
    sparse_star = [result.partition_star[i] for i in range(q)]
    aux = build_auxiliary(g, sparse_star, b1pack, r)
    jpack = pack_apex_multipartite(
        aux.j_graph,
        Partition(aux.left_classes + (aux.right_class,), aux.j_graph.n),
        q,
        r - 1,
    )
    if isinstance(jpack, PackFailure):
        stages.append({"stage": "auxiliary-pack", "result": f"hall failure at level {jpack.level}"})
        return direct("fallback")
    stages.append({"stage": "auxiliary-pack", "copies": len(jpack.copies)})

    check_deadline("expand")
    expanded = expand_packing(aux, jpack, b1pack, r, q, g)
    final = Packing(tuple(result.removed) + tuple(expanded), g.n)
    stages.append({"stage": "expand", "copies": len(final.copies)})
    return finish(True, final, "pipeline")


__all__ = [
    "AuxiliaryGraph",
    "PipelineConfig",
    "PipelineResult",
    "TauLadder",
    "build_auxiliary",
    "default_ladder",
    "expand_packing",
    "find_sparse_sets",
    "pack_remainder_class",
    "run_pipeline",
    "threshold_table",
]
