"""Cleanup of a sparse-class partition into a canonical near-complete core.

Given a host whose vertex set splits into q near-independent classes of
the right size plus a remainder class, this module classifies deviant
vertices (bad: too many in-class neighbours; useless: too few neighbours
in some other class; exceptional: almost none), repairs what it can by
swaps, and removes the rest inside small batches of clique-minus-an-edge
copies chosen so that every class shrinks by exactly its canonical share.
The result is a core graph whose classes are perfectly proportioned and
whose every vertex sees almost all of every other class. Copies are placed
by the solver's exhaustive embedding search, one candidate mask per slot.

All threshold comparisons against fractional powers of tau are exact:
``count >= tau^(1/3) * size`` is evaluated as
``count^3 * tau.denominator >= tau.numerator * size^3`` over integers
only, never through Fractions or floats. ``classify`` finds, once per
class, the least count at which each of its tests turns true.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .constructions import kr_minus, kr_minus_threshold, remainder_pattern_order, sparse_class_size
from .errors import BadParameter, Stuck
from .graphs import Graph, Partition, VertexSet, bits_of, complete_graph, density_within
from .solver import Copy, Packing, _lex_least_embedding, packing_defect


def ge_power(count: int, tau: Fraction, size: int, root: int) -> bool:
    """count >= tau**(1/root) * size, exactly, in integers (the denominator is positive)."""
    if count < 0:
        return False
    return count**root * tau.denominator >= tau.numerator * size**root


def le_power(count: int, tau: Fraction, size: int, root: int) -> bool:
    """count <= tau**(1/root) * size, exactly, in integers (the denominator is positive)."""
    if count < 0:
        return True
    return count**root * tau.denominator <= tau.numerator * size**root


@dataclass
class VertexClassification:
    """Per-vertex neighbourhood flags relative to a partition.

    ``cross_counts[x][j]`` is |N(x) & A_j| (own class included);
    ``exceptional[x]`` lists the classes x almost entirely misses.
    """

    class_sizes: list[int]
    class_of: list[int]
    cross_counts: list[list[int]]
    bad: list[bool]
    useless: list[bool]
    exceptional: list[tuple[int, ...]]
    warnings: list[str] = field(default_factory=list)


@dataclass
class TidyResult:
    """Canonical core plus the copies removed to reach it.

    The core is given by its classes, as host vertex sets; a caller that
    needs the core graph itself takes ``induced`` on their union.
    """

    partition_star: Partition  # host-indexed classes of the core
    removed: list[Copy]  # host-indexed copies, pairwise disjoint
    trace: list[dict]
    n_star: int


def adjust_for_divisibility(g: Graph, p: Partition, r: int) -> tuple[Partition, int]:
    """Write n = n' + k r with r(r-2) | n'; rebalance classes when k < q.

    When k < q one vertex moves from each later sparse class into the
    remainder class, chosen with maximum in-class degree so the sparse
    densities only improve.
    """
    n = g.n
    if n % r:
        raise BadParameter(f"order {n} not divisible by r = {r}")
    q = len(p) - 1
    block = r * (r - 2)
    k = (n % block) // r
    expected = sparse_class_size(r, n)
    for i in range(q):
        if len(p[i]) != expected:
            raise BadParameter(
                f"sparse class {i} has {len(p[i])} vertices, expected {expected}"
            )
    if k == 0 or k >= q:
        return p, k
    classes = [c.bits for c in p.classes]
    for i in range(k, q):
        mover = max(
            bits_of(classes[i]),
            key=lambda v: ((g.adj[v] & classes[i]).bit_count(), -v),
        )
        classes[i] &= ~(1 << mover)
        classes[q] |= 1 << mover
    return Partition(tuple(VertexSet(b, n) for b in classes), n), k


def classify(g: Graph, p: Partition, tau: Fraction) -> VertexClassification:
    """Exact bad/useless/exceptional flags, with soft count-bound warnings."""
    q = len(p) - 1
    sizes = [len(c) for c in p.classes]
    class_of = p.class_of()
    n = g.n
    cross = [[0] * len(p.classes) for _ in range(n)]
    bad = [False] * n
    useless = [False] * n
    exceptional: list[tuple[int, ...]] = [()] * n

    def turns_at(holds) -> list[int]:
        """Per class of size s, the least count in 0..s where ``holds`` turns true, else s + 1."""
        return [bisect.bisect_left(range(s + 1), True, key=lambda c: holds(c, s)) for s in sizes]

    bad_at = turns_at(lambda c, s: ge_power(c, tau, s, 3))
    useless_at = turns_at(lambda c, s: ge_power(c, tau, s, 4))
    far_at = turns_at(lambda c, s: not le_power(c, tau, s, 3))
    for x in range(n):
        i = class_of[x]
        if i < 0:
            continue
        targets = []
        for j, c in enumerate(p.classes):
            cross[x][j] = (g.adj[x] & c.bits).bit_count()
        bad[x] = cross[x][i] >= bad_at[i]
        for j in range(len(p.classes)):
            if j == i:
                continue
            if sizes[j] - cross[x][j] >= useless_at[j]:
                useless[x] = True
            if cross[x][j] < far_at[j]:
                targets.append(j)
        exceptional[x] = tuple(targets)
    warnings = []
    tau_sq = tau * tau
    for i in range(q):
        n_bad = sum(1 for x in range(n) if class_of[x] == i and bad[x])
        if not le_power(n_bad, tau_sq, sizes[i], 3):
            warnings.append(f"class {i}: {n_bad} bad vertices exceeds soft bound")
        n_useless = sum(1 for x in range(n) if class_of[x] == i and useless[x])
        if not le_power(n_useless, tau_sq, sizes[i], 3):
            warnings.append(f"class {i}: {n_useless} useless vertices exceeds soft bound")
    u_last = sum(1 for x in range(n) if class_of[x] == q and useless[x])
    if not le_power(u_last, tau_sq, sizes[q], 3):
        warnings.append(f"remainder class: {u_last} useless vertices exceeds soft bound")
    return VertexClassification(sizes, class_of, cross, bad, useless, exceptional, warnings)


def swap_bad_exceptional(g: Graph, p: Partition, c: VertexClassification) -> Partition:
    """Swap each in-class-heavy sparse vertex with a vertex missing that class.

    Greedy and maximal, lowest vertex indices first; each vertex takes
    part in at most one swap. Only sparse classes are repaired this way:
    the remainder class is internally dense by design, so in-class-heavy
    is meaningless there.
    """
    classes = [cs.bits for cs in p.classes]
    swapped: set[int] = set()
    for i in range(len(p.classes) - 1):
        bad_pool = [x for x in sorted(bits_of(classes[i])) if c.bad[x] and x not in swapped]
        exc_pool = [
            y
            for y in range(g.n)
            if y not in swapped
            and c.class_of[y] not in (-1, i)
            and i in c.exceptional[y]
        ]
        exc_pool.sort()
        for x, y in zip(bad_pool, exc_pool):
            j = c.class_of[y]
            classes[i] &= ~(1 << x)
            classes[i] |= 1 << y
            classes[j] &= ~(1 << y)
            classes[j] |= 1 << x
            swapped.add(x)
            swapped.add(y)
    return Partition(tuple(VertexSet(b, p.host_n) for b in classes), p.host_n)


# ---------------------------------------------------------------------------
# Batch machinery


@dataclass
class _Anchor:
    """Pinned content of the first copy of a batch."""

    pinned: list[tuple[int, int]] = field(default_factory=list)  # (vertex, class)
    exempt_class: int | None = None  # class holding the allowed missing pair


class _TidyState:
    def __init__(self, g: Graph, masks: list[int], r: int):
        self.g = g
        self.masks = masks
        self.r = r
        self.q = len(masks) - 1
        self.removed: list[Copy] = []
        self.trace: list[dict] = []
        self.avoid = 0  # useless / reserved vertices, excluded from greedy picks

    def class_of(self, v: int) -> int:
        for i, m in enumerate(self.masks):
            if (m >> v) & 1:
                return i
        return -1

    def move(self, v: int, dst: int, stage: str) -> None:
        src = self.class_of(v)
        self.masks[src] &= ~(1 << v)
        self.masks[dst] |= 1 << v
        self.trace.append({"stage": stage, "action": "move", "vertex": v, "from": src, "to": dst})

    def swap(self, x: int, y: int, stage: str) -> None:
        cx, cy = self.class_of(x), self.class_of(y)
        self.masks[cx] &= ~(1 << x)
        self.masks[cy] &= ~(1 << y)
        self.masks[cx] |= 1 << y
        self.masks[cy] |= 1 << x
        self.trace.append({"stage": stage, "action": "swap", "vertices": [x, y], "classes": [cx, cy]})


def _distribute(
    take: list[int],
    n_copies: int,
    r: int,
    anchor_counts: list[int],
    anchor_pair_class: int | None,
) -> list[list[int]] | None:
    """Split per-class removal totals into per-copy profiles.

    Each copy removes exactly r vertices, at most 2 from any sparse
    class, and holds at most one allowed-missing pair: taking 2 from a
    sparse class commits the pair there, and an anchor whose pair lives
    in the remainder class blocks sparse doubling for copy 0. Copy 0
    starts from the anchor's counts. The remainder class absorbs each
    copy's slack; since no copy is filled past r and both callers make
    ``sum(take) == r * n_copies``, that slack always sums to take[q].
    First feasible assignment in deterministic order wins.
    """
    q = len(take) - 1
    profiles = [[0] * (q + 1) for _ in range(n_copies)]
    profiles[0] = anchor_counts.copy()
    pair_class: list[int | None] = [None] * n_copies
    pair_class[0] = anchor_pair_class
    for c in range(q):
        if anchor_counts[c] == 2:
            pair_class[0] = c

    def sparse_load(p: list[int]) -> int:
        return sum(p[:q])

    def assign(c: int) -> bool:
        if c == q:
            for cp in range(n_copies):
                profiles[cp][q] = r - sparse_load(profiles[cp])
            return True
        need = take[c] - sum(profiles[cp][c] for cp in range(n_copies))
        if need < 0:
            return False

        def put(cp: int, left: int) -> bool:
            if left == 0:
                return assign(c + 1)
            if cp == n_copies:
                return False
            room = r - sparse_load(profiles[cp]) - profiles[cp][q]
            for amt in (1, 2, 0):
                if amt > left or amt > room or profiles[cp][c] + amt > 2:
                    continue
                if profiles[cp][c] + amt == 2 and pair_class[cp] not in (None, c):
                    continue
                was = pair_class[cp]
                profiles[cp][c] += amt
                if profiles[cp][c] == 2:
                    pair_class[cp] = c
                if put(cp + 1, left - amt):
                    return True
                profiles[cp][c] -= amt
                pair_class[cp] = was
            return False

        return put(0, need)

    if assign(0):
        return profiles
    return None


def _realize_copy(
    state: _TidyState,
    profile: list[int],
    anchor: _Anchor | None,
    used: int,
) -> Copy | None:
    """First copy with the class profile that keeps the anchor's pins and
    avoids ``used``, or None when none exists. Slots 0 and 1, the one pair
    that may be nonadjacent, hold the exempt class's pins and then its free
    slots; the other pins follow, then the free slots class by class."""
    g, q = state.g, state.q
    pinned = anchor.pinned if anchor else []
    exempt_class = anchor.exempt_class if anchor else None
    if exempt_class is None:
        exempt_class = next((c for c in range(q) if profile[c] >= 2), None)
    free = profile.copy()
    taken = used
    for v, c in pinned:
        free[c] -= 1
        taken |= 1 << v
    if min(free) < 0:
        return None
    open_masks = [m & ~state.avoid & ~taken for m in state.masks]
    pair = [v for v, c in pinned if c == exempt_class][:2]
    slots = [1 << v for v in pair]
    if exempt_class is not None:
        extra = min(2 - len(pair), free[exempt_class])
        slots += [open_masks[exempt_class]] * extra
        free[exempt_class] -= extra
    paired = len(slots) == 2
    slots += [1 << v for v, _c in pinned if v not in pair]
    for c in range(q + 1):
        slots += [open_masks[c]] * free[c]
    pattern = kr_minus(state.r) if paired else complete_graph(state.r)
    hosts = _lex_least_embedding(pattern, g, slots)
    if hosts is None:
        return None
    verts = tuple(sorted(hosts))
    a, b = sorted(hosts[:2])
    if not paired or g.has_edge(a, b):
        return Copy(verts, verts)
    return Copy(verts, (a, b) + tuple(v for v in verts if v != a and v != b))


def _run_batch(
    state: _TidyState,
    stage: str,
    anchor: _Anchor | None,
    moves_applied: dict[int, int],
) -> None:
    """Remove r-2 copies whose net effect, together with the moves already
    applied, shrinks every sparse class by exactly r-1 and the remainder
    class by its canonical share. The moves sum to zero, so the take
    vector sums to r(r-2)."""
    r, q = state.r, state.q
    take = [(r - 1) + moves_applied.get(c, 0) for c in range(q)]
    take.append(r * (r - 2) - q * (r - 1) + moves_applied.get(q, 0))
    _remove_batch(state, stage, take, r - 2, anchor)


def _remove_batch(
    state: _TidyState,
    stage: str,
    take: list[int],
    copies: int,
    anchor: _Anchor | None,
) -> None:
    """Split the per-class take vector over `copies` copies (the first
    anchored), realize each, remove them from their classes and trace."""
    q = state.q
    anchor_counts = [0] * (q + 1)
    anchor_pair_class = None
    if anchor:
        for _v, c in anchor.pinned:
            anchor_counts[c] += 1
        anchor_pair_class = anchor.exempt_class
    profiles = _distribute(take, copies, state.r, anchor_counts, anchor_pair_class)
    if profiles is None:
        raise Stuck(stage, f"no feasible batch profile for take {take}")
    used = 0
    batch: list[Copy] = []
    for ci, profile in enumerate(profiles):
        a = anchor if ci == 0 else None
        cp = _realize_copy(state, profile, a, used)
        if cp is None:
            raise Stuck(stage, f"could not realize copy {ci} with profile {profile}")
        batch.append(cp)
        used |= cp.mask()
    for cp in batch:
        for v in cp.vertices:
            c = state.class_of(v)
            state.masks[c] &= ~(1 << v)
        state.removed.append(cp)
    state.trace.append(
        {
            "stage": stage,
            "action": "remove-batch",
            "copies": [list(c.vertices) for c in batch],
        }
    )


def remove_proportional_batch(
    g: Graph,
    p: Partition,
    r: int,
    anchor: Copy | None = None,
) -> list[Copy]:
    """Public batch primitive: r-2 disjoint copies jointly taking exactly
    r-1 vertices from each sparse class, remainder from the last class."""
    state = _TidyState(g, [c.bits for c in p.classes], r)
    a = None
    if anchor is not None:
        class_of = p.class_of()
        # in embedding order, so the anchor's missing pair comes first
        a = _Anchor(pinned=[(v, class_of[v]) for v in anchor.embedding])
        pair = [v for v in anchor.embedding[:2]]
        if not g.has_edge(pair[0], pair[1]):
            a.exempt_class = class_of[pair[0]]
    _run_batch(state, "proportional-batch", a, {})
    return state.removed


# ---------------------------------------------------------------------------
# The full cleanup procedure


def _check_hypotheses(g: Graph, sparse_sets: Sequence[VertexSet], r: int, tau: Fraction) -> list[str]:
    n = g.n
    if n % r:
        raise BadParameter(f"order {n} not divisible by r={r}")
    q = len(sparse_sets)
    if not 1 <= q <= r - 2:
        raise BadParameter(f"need 1 <= q <= r-2 sparse sets, got {q}")
    seen = 0
    expected = sparse_class_size(r, n)
    for i, a in enumerate(sparse_sets):
        if a.host_n != n:
            raise BadParameter(f"sparse set {i} over a different host")
        if len(a) != expected:
            raise BadParameter(f"sparse set {i} has {len(a)} vertices, expected {expected}")
        if a.bits & seen:
            raise BadParameter("sparse sets overlap")
        seen |= a.bits
    soft: list[str] = []
    threshold = kr_minus_threshold(r) * n
    delta = min(g.degree(v) for v in range(n))
    if delta < threshold:
        soft.append(f"min degree {delta} below threshold {threshold}")
    for i, a in enumerate(sparse_sets):
        d = density_within(g, a)
        if d > tau:
            soft.append(f"sparse set {i} density {d} exceeds tau {tau}")
    return soft


def tidy(g: Graph, sparse_sets: Sequence[VertexSet], r: int, tau: Fraction) -> TidyResult:
    """Run the full cleanup and return a canonical core.

    Structural preconditions (divisibility, set sizes, disjointness) are
    hard errors. The degree and density hypotheses are checked but only
    logged into the trace: the procedure is attempted regardless, and a
    dead end surfaces as Stuck with its stage tag.
    """
    soft = _check_hypotheses(g, sparse_sets, r, tau)
    n = g.n
    q = len(sparse_sets)
    rest_bits = (1 << n) - 1
    for a in sparse_sets:
        rest_bits &= ~a.bits
    p0 = Partition(tuple(sparse_sets) + (VertexSet(rest_bits, n),), n)
    p1, k = adjust_for_divisibility(g, p0, r)

    state = _TidyState(g, [c.bits for c in p1.classes], r)
    for w in soft:
        state.trace.append({"stage": "hypotheses", "action": "warn", "detail": w})
    if k:
        state.trace.append({"stage": "divisibility", "action": "offset", "k": k})

    cls = classify(g, p1, tau)
    p2 = swap_bad_exceptional(g, p1, cls)
    if p2 != p1:
        state.masks = [c.bits for c in p2.classes]
        state.trace.append({"stage": "swap", "action": "swap-bad-exceptional"})
        cls = classify(g, p2, tau)
    for w in cls.warnings:
        state.trace.append({"stage": "classify", "action": "warn", "detail": w})

    for x in range(n):
        if cls.useless[x] or cls.exceptional[x]:
            state.avoid |= 1 << x

    # --- exceptional vertices ---------------------------------------------
    handled: set[int] = set()
    if q == r - 2:
        handled = _handle_exceptional_last_class(state, cls)
    exceptional = [x for x in range(n) if cls.exceptional[x]]
    for x in sorted(exceptional, key=lambda v: (cls.class_of[v], v)):
        i = state.class_of(x)
        if i < 0 or x in handled:
            continue
        targets = cls.exceptional[x]
        j = targets[0]
        if len(targets) > 1:
            raise Stuck("exceptional", f"vertex {x} exceptional for {targets}")
        if j == q and q <= r - 3:
            raise Stuck("exceptional", f"vertex {x} exceptional for the remainder class")
        state.move(x, j, "exceptional")
        state.avoid &= ~(1 << x)
        _run_batch(state, "exceptional", _Anchor(pinned=[(x, j)], exempt_class=j), {j: 1, i: -1})

    # --- vertices deficient towards the remainder class -------------------
    u_set = []
    for x in range(n):
        i = state.class_of(x)
        if i < 0 or i >= q:
            continue
        miss = cls.class_sizes[q] - cls.cross_counts[x][q]
        if ge_power(miss, tau, cls.class_sizes[q], 4):
            u_set.append(x)
    requeued: list[int] = []
    for x in sorted(u_set):
        i = state.class_of(x)
        if i < 0:
            continue
        state.move(x, q, "relocate")
        anchor = _Anchor(pinned=[], exempt_class=q)
        _run_batch(state, "relocate", anchor, {i: -1, q: 1})
        requeued.append(x)

    # --- remaining useless vertices ----------------------------------------
    queue = []
    for x in range(n):
        if state.class_of(x) < 0 or not cls.useless[x]:
            continue
        if x in requeued or x in handled:
            continue
        queue.append(x)
    for x in requeued:
        if state.class_of(x) < 0:
            continue
        deficient = any(
            ge_power(cls.class_sizes[j] - cls.cross_counts[x][j], tau, cls.class_sizes[j], 4)
            for j in range(q)
        )
        if deficient:
            queue.append(x)
    # one pass over the initially flagged vertices; nothing is requeued past it
    for x in sorted(queue):
        if state.class_of(x) < 0:
            continue
        _handle_useless(state, cls, x)

    # --- final rebalancing to canonical sizes ------------------------------
    if k:
        _final_rebalance(state, k)

    _verify_result(state, g, n, tau)
    part = Partition(tuple(VertexSet(m, n) for m in state.masks), n)
    return TidyResult(part, state.removed, state.trace, sum(m.bit_count() for m in state.masks))


def _handle_exceptional_last_class(state: _TidyState, cls: VertexClassification) -> set[int]:
    """q = r-2 branch: exceptional vertices of the remainder class leave via
    matching swaps inside their target sparse class. Returns the vertices
    it dealt with."""
    q, n = state.q, state.g.n
    per_target: dict[int, list[int]] = {}
    for x in range(n):
        if cls.class_of[x] == q and cls.exceptional[x]:
            per_target.setdefault(cls.exceptional[x][0], []).append(x)
    matchings: dict[int, list[tuple[int, int]]] = {}
    reserved = 0
    for i, xs in sorted(per_target.items()):
        edges = _internal_matching(state, i, len(xs))
        if edges is None:
            raise Stuck("matching", f"class {i}: fewer than {len(xs)} disjoint edges")
        matchings[i] = edges
        for u, v in edges:
            reserved |= (1 << u) | (1 << v)
    state.avoid |= reserved
    handled: set[int] = set()
    for i, xs in sorted(per_target.items()):
        for x in sorted(xs):
            y, z = matchings[i].pop(0)
            state.avoid &= ~((1 << y) | (1 << z))
            reserved &= ~((1 << y) | (1 << z))
            state.swap(x, y, "exceptional-last")
            # y keeps its old non-neighbours inside class i, so the copy's
            # doubled pair must sit in a different sparse class
            j_pair = min(j for j in range(q) if j != i)
            anchor = _Anchor(pinned=[(y, q), (z, i)], exempt_class=j_pair)
            _run_batch(state, "exceptional-last", anchor, {})
            handled.add(x)
    return handled


def _internal_matching(state: _TidyState, i: int, need: int) -> list[tuple[int, int]] | None:
    """First ``need`` disjoint edges inside sparse class i over non-useless vertices.

    Searches the class's edges in ascending (u, v) order, depth first on
    an explicit stack, so the first branch is the greedy matching. None
    when no ``need`` disjoint edges exist.
    """
    g = state.g
    mask = state.masks[i] & ~state.avoid
    edges = [(u, v) for u in bits_of(mask) for v in bits_of(g.adj[u] & mask & ~((2 << u) - 1))]
    # reach[j]: the vertices that edges j.. touch
    reach = [0] * (len(edges) + 1)
    for j in range(len(edges) - 1, -1, -1):
        u, v = edges[j]
        reach[j] = reach[j + 1] | (1 << u) | (1 << v)
    stack: list[tuple[int, int, tuple]] = [(0, 0, ())]  # next edge, matched, chosen edges
    while stack:
        j, matched, chosen = stack.pop()
        while j < len(edges) and (matched >> edges[j][0] | matched >> edges[j][1]) & 1:
            j += 1
        if (reach[j] & ~matched).bit_count() // 2 < need - len(chosen):
            continue
        u, v = edges[j]
        if len(chosen) + 1 == need:
            return [*chosen, (u, v)]
        stack.append((j + 1, matched, chosen))
        stack.append((j + 1, matched | (1 << u) | (1 << v), chosen + ((u, v),)))
    return None


def _handle_useless(state: _TidyState, cls: VertexClassification, x: int) -> None:
    """Remove one useless vertex inside an anchored batch."""
    g, q = state.g, state.q
    i = state.class_of(x)
    if i < q:
        choices = [j for j in range(q) if j != i]
        if not choices:
            raise Stuck("useless", f"sparse vertex {x} with no partner class (q=1)")
        j = min(choices, key=lambda jj: (cls.cross_counts[x][jj], jj))
    else:
        j = min(range(q), key=lambda jj: (cls.cross_counts[x][jj], jj))
    nbrs = g.adj[x] & state.masks[j] & ~state.avoid
    picks = []
    for v in bits_of(nbrs):
        picks.append(v)
        if len(picks) == 2:
            break
    if len(picks) < 2:
        raise Stuck("useless", f"vertex {x}: fewer than two usable neighbours in class {j}")
    y, z = picks
    state.avoid &= ~(1 << x)
    anchor = _Anchor(pinned=[(x, i), (y, j), (z, j)], exempt_class=j)
    _run_batch(state, "useless", anchor, {})


def _final_rebalance(state: _TidyState, k: int) -> None:
    """Remove k copies so the classes land exactly on canonical sizes."""
    r, q = state.r, state.q
    n_now = sum(m.bit_count() for m in state.masks)
    n_final = n_now - k * r
    block = r * (r - 2)
    if n_final % block:
        raise Stuck("rebalance", f"target order {n_final} not divisible by {block}")
    target_sparse = sparse_class_size(r, n_final)
    take = [state.masks[c].bit_count() - target_sparse for c in range(q)]
    take.append(state.masks[q].bit_count() - (n_final - q * target_sparse))
    if any(t < 0 for t in take) or sum(take) != k * r:
        raise Stuck("rebalance", f"infeasible take vector {take}")
    _remove_batch(state, "rebalance", take, k, None)


def _verify_result(state: _TidyState, g: Graph, n: int, tau: Fraction) -> None:
    r, q = state.r, state.q
    union = 0
    for m in state.masks:
        union |= m
    n_star = union.bit_count()
    block = r * (r - 2)
    if n_star % block:
        raise Stuck("verify", f"core order {n_star} not divisible by {block}")
    removed_mask = 0
    for cp in state.removed:
        m = cp.mask()
        if m & removed_mask:
            raise Stuck("verify", "removed copies overlap")
        removed_mask |= m
    if removed_mask != ((1 << n) - 1) & ~union:
        raise Stuck("verify", "removed copies do not partition the complement of the core")
    defect = packing_defect(kr_minus(r), g, Packing(tuple(state.removed), n))
    if defect is not None:
        raise Stuck("verify", f"removed copy invalid: {defect}")
    if not le_power(n - n_star, tau, n, 3):
        raise Stuck("verify", f"removed {n - n_star} vertices, over the tau^(1/3) n bound")
    target = sparse_class_size(r, n_star)
    for c in range(q):
        if state.masks[c].bit_count() != target:
            raise Stuck(
                "verify", f"class {c} size {state.masks[c].bit_count()} != canonical {target}"
            )
    if state.masks[q].bit_count() % remainder_pattern_order(r, q):
        raise Stuck("verify", "remainder class size not divisible by the remainder pattern")
    sizes = [m.bit_count() for m in state.masks]
    for i in range(q + 1):
        for j in range(q + 1):
            if i == j:
                continue
            for v in bits_of(state.masks[i]):
                have = (g.adj[v] & state.masks[j]).bit_count()
                if not le_power(sizes[j] - have, tau, sizes[j], 5):
                    raise Stuck(
                        "verify",
                        f"vertex {v} sees only {have}/{sizes[j]} of class {j}",
                    )


__all__ = [
    "TidyResult",
    "VertexClassification",
    "adjust_for_divisibility",
    "classify",
    "ge_power",
    "le_power",
    "remove_proportional_batch",
    "swap_bad_exceptional",
    "tidy",
]
