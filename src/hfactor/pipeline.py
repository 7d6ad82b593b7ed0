"""End-to-end engine: detect sparse classes, tidy, pack, expand.

The path for a host G of order divisible by r: find the largest number q
of disjoint near-independent classes of the canonical size; tidy them
into a canonical core; pack the core's remainder class with remainder
patterns (an exact-solver stage standing in for the asymptotic
machinery); merge each packed pattern into its least vertex, giving an
auxiliary graph in the host's own vertex order whose last class is those
least vertices, and pack it with apex multipartite copies via the Hall
packer; split each copy and its remainder pattern, as one bottle block,
into clique-minus-an-edge copies and merge with everything removed
during tidying. Any intermediate dead end falls back to the direct exact
solver on the whole host, so the final decision is always exact.
"""

from __future__ import annotations

import bisect
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
    split_bottle_block,
)
from .errors import BadParameter, InternalError, Stuck, Timeout
from .graphs import Graph, Partition, VertexSet, bits_of, contract_groups, edges_within, induced
from .hall import PackFailure, pack_apex_multipartite
from .solver import (
    _TIME_CHECK_MASK,
    DEFAULT_BUDGET_SECS,
    Copy,
    Packing,
    find_perfect_packing,
    packing_defect,
)
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


def _improve_sparse_set(
    g: Graph, bits: int, pool: int, max_swaps: int, deadline: float | None = None
) -> int:
    """Steepest-descent swaps minimizing internal edges of the set.

    Swapping member u for outsider v (v in pool) removes
    inside[u] - inside[v] + [uv in E] internal edges, where inside[x]
    counts the neighbours of x in the set. Each step takes the largest
    positive gain, the first in (u, v) ascending order on ties, so only
    outsiders at the least count m (the gain's + 1 needs one adjacent to
    u) or at m + 1 adjacent to u can win. The counts are kept for every
    host vertex; a swap changes only those of the vertices in exactly one
    of adj[u] and adj[v]. The outsiders, and the members in ascending
    order, are kept as lists across swaps. Each step scans the pool; the
    clock counts those vertices, and Timeout is raised once
    ``time.monotonic()`` passes ``deadline``.
    """
    adj = g.adj
    inside = [(a & bits).bit_count() for a in adj]
    outside = list(bits_of(pool & ~bits))
    members = list(bits_of(bits))
    scanned = pool.bit_count()
    work, tick = 0, _TIME_CHECK_MASK + 1
    for _ in range(max_swaps):
        if not outside:
            break
        work += scanned
        if work >= tick:
            tick = (work | _TIME_CHECK_MASK) + 1
            if deadline is not None and time.monotonic() > deadline:
                raise Timeout("budget exhausted finding sparse sets")
        low = min(inside[v] for v in outside)
        at_low = at_next = 0
        for v in outside:
            if inside[v] == low:
                at_low |= 1 << v
            elif inside[v] == low + 1:
                at_next |= 1 << v
        best_gain = 0
        best_swap: tuple[int, int] | None = None
        for u in members:
            hit = at_low & adj[u]
            if hit:
                gain = inside[u] - low + 1
            else:
                gain = inside[u] - low
                hit = at_low | (at_next & adj[u])
            if gain > best_gain:
                best_gain = gain
                best_swap = (u, (hit & -hit).bit_length() - 1)
        if best_swap is None:
            break
        u, v = best_swap
        bits ^= (1 << u) | (1 << v)
        members.remove(u)
        bisect.insort(members, v)
        outside.remove(v)
        if pool >> u & 1:
            outside.append(u)
        for x in bits_of(adj[u] & ~adj[v]):
            inside[x] -= 1
        for x in bits_of(adj[v] & ~adj[u]):
            inside[x] += 1
    return bits


def _sparse_seeds(g: Graph, pool: int, size: int):
    """The ``size`` least-degree pool vertices, then a greedy-grown set.

    The grow starts at the least-degree vertex and always adds the pool
    vertex with the fewest neighbours in the set, the least on ties. A
    generator, so the grown seed is built only when the first one fails.
    """
    candidates = sorted(bits_of(pool), key=g.degree)  # stable: ties stay ascending
    yield candidates[:size]
    grown = [candidates[0]]
    grown_bits = 1 << candidates[0]
    rest = set(candidates[1:])
    while len(grown) < size:
        v = min(rest, key=lambda w: ((g.adj[w] & grown_bits).bit_count(), w))
        grown.append(v)
        grown_bits |= 1 << v
        rest.remove(v)
    yield grown


def _find_one_sparse_set(
    g: Graph, size: int, tau: Fraction, used: int, deadline: float | None
) -> VertexSet | None:
    """A set of ``size`` unused vertices with at most tau * C(size, 2) edges, or None.

    Each seed of ``_sparse_seeds`` is improved by swaps within the unused
    vertices, and the first that meets the bound is returned; the second
    seed is built only when the first fails.
    """
    pool = ((1 << g.n) - 1) & ~used
    threshold = tau * math.comb(size, 2)
    for seed in _sparse_seeds(g, pool, size):
        bits = 0
        for v in seed:
            bits |= 1 << v
        vs = VertexSet(_improve_sparse_set(g, bits, pool, 4 * g.n, deadline), g.n)
        if edges_within(g, vs) <= threshold:
            return vs
    return None


def find_sparse_sets(
    g: Graph, r: int, ladder: TauLadder, deadline: float | None = None
) -> tuple[int, list[VertexSet]]:
    """Largest q admitting q disjoint canonical-size sets of density <= tau_q.

    q = 0 means no sparse structure was found (the non-extremal regime).
    Timeout is raised once ``time.monotonic()`` passes ``deadline``.
    """
    if len(ladder.values) < r - 2:
        raise BadParameter(f"ladder has {len(ladder.values)} levels, r = {r} needs {r - 2}")
    n = g.n
    size = sparse_class_size(r, n)
    for q in range(r - 2, 0, -1):
        # q * size <= n leaves the i-th search n - i * size >= size unused vertices
        if q * size > n or size < 2:
            continue
        tau = ladder.tau_for(q)
        sets: list[VertexSet] = []
        used = 0
        for _ in range(q):
            s = _find_one_sparse_set(g, size, tau, used, deadline)
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
) -> tuple[Graph, Partition]:
    """Auxiliary graph and classes, as ``pack_apex_multipartite`` takes them.

    Each packed copy merges into its least vertex, adjacent to exactly the
    sparse-class vertices the host joins to all of that copy; sparse-sparse
    adjacency is inherited and the host's order kept. The classes are the
    sparse classes, then the copies' least vertices.
    """
    keep = 0
    for c in sparse_classes:
        if len(c) != (r - 1) * len(b1pack.copies):
            raise InternalError(
                f"auxiliary class size {len(c)} != (r-1) * {len(b1pack.copies)}"
            )
        keep |= c.bits
    groups = [cp.vertices for cp in b1pack.copies]
    heads = VertexSet.from_iterable((group[0] for group in groups), g.n)
    return contract_groups(g, keep, groups), Partition((*sparse_classes, heads), g.n)


def expand_packing(
    classes: Partition,
    jpack: Packing,
    b1pack: Packing,
    r: int,
    q: int,
    g: Graph,
) -> list[Copy]:
    """Expand apex-multipartite copies of the auxiliary graph into r-2
    clique-minus-an-edge copies each.

    ``classes`` is the auxiliary partition from ``build_auxiliary``. An
    auxiliary copy and its apex's remainder copy make one bottle block:
    its r-1 vertices in each sparse class are large parts, the remainder
    copy's pattern classes (``remainder_pattern(r, q).labels``) give the
    small part (class 0) and the other large parts, and
    ``split_bottle_block`` splits it along the remainder pattern's
    components. Every adjacency this relies on is guaranteed by the
    auxiliary edge semantics; a violation raises InternalError.
    """
    pattern = kr_minus(r)
    labels = remainder_pattern(r, q).labels
    b1_of = {cp.vertices[0]: cp for cp in b1pack.copies}
    out: list[Copy] = []
    for jcopy in jpack.copies:
        emb = jcopy.embedding
        sparse_parts = [sorted(v for v in emb if v in c) for c in classes.classes[:q]]
        by_label: list[list[int]] = [[] for _ in range(r - q - 1)]
        for label, v in zip(labels, b1_of[emb[-1]].embedding):
            by_label[label].append(v)
        for kcopy in split_bottle_block(sparse_parts + by_label[1:], by_label[0]):
            defect = packing_defect(pattern, g, Packing((kcopy,), g.n))
            if defect is not None:
                raise InternalError(f"expansion produced an invalid copy: {defect}")
            out.append(kcopy)
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
    the whole run: each solver call gets the time left of it, sparse-set
    detection reads the deadline as it swaps, and the deadline is checked
    again before tidy, the Hall packer and expansion.
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
    try:
        q, sparse_sets = find_sparse_sets(g, r, ladder, deadline)
    except Timeout as exc:
        stages.append({"stage": "sparse-sets", "result": "timeout"})
        exc.stages = stages
        raise
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
    j_graph, j_classes = build_auxiliary(g, sparse_star, b1pack, r)
    jpack = pack_apex_multipartite(j_graph, j_classes, q, r - 1)
    if isinstance(jpack, PackFailure):
        stages.append({"stage": "auxiliary-pack", "result": f"hall failure at level {jpack.level}"})
        return direct("fallback")
    stages.append({"stage": "auxiliary-pack", "copies": len(jpack.copies)})

    check_deadline("expand")
    expanded = expand_packing(j_classes, jpack, b1pack, r, q, g)
    final = Packing(tuple(result.removed) + tuple(expanded), g.n)
    stages.append({"stage": "expand", "copies": len(final.copies)})
    return finish(True, final, "pipeline")


__all__ = [
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
