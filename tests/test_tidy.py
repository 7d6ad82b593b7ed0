from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfactor.constructions import CanonicalSpec, canonical_graph, canonical_partition, kr_minus
from hfactor.errors import BadParameter
from hfactor.generators import noisy_canonical
from hfactor.graphs import Graph, Partition, VertexSet, complete_graph
from hfactor.solver import Copy, Packing, packing_defect, verify_packing
from hfactor.tidy import (
    _Anchor,
    _realize_copy,
    _TidyState,
    adjust_for_divisibility,
    classify,
    ge_power,
    le_power,
    remove_proportional_batch,
    swap_bad_exceptional,
    tidy,
)

TAU = Fraction(1, 100)


def _canonical_instance(r: int, q: int, n: int):
    spec = CanonicalSpec(r, q, n)
    return canonical_graph(spec), canonical_partition(spec)


def test_power_comparisons_are_exact():
    # count >= tau^(1/3) * size without floats: 7 >= (1/100)^(1/3) * 30 is true
    assert ge_power(7, TAU, 30, 3)
    assert not ge_power(6, TAU, 30, 3)
    assert le_power(6, TAU, 30, 3)
    # boundary: tau = 1/8, size = 2: threshold is exactly 1
    assert ge_power(1, Fraction(1, 8), 2, 3)
    assert le_power(1, Fraction(1, 8), 2, 3)


def test_adjust_for_divisibility_no_op_cases():
    g, p = _canonical_instance(4, 1, 16)
    p2, k = adjust_for_divisibility(g, p, 4)
    assert k == 0 and [c.bits for c in p2.classes] == [c.bits for c in p.classes]


def test_adjust_for_divisibility_moves_when_k_below_q():
    # n = 20 = 16 + 4: k = 1 < q = 2, so one vertex leaves the second class
    n, q, r = 20, 2, 4
    size = 8  # ceil(3*20/8)
    classes = [list(range(8)), list(range(8, 16)), list(range(16, 20))]
    labels = [0] * 8 + [1] * 8 + [2] * 4
    adj = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and labels[u] != labels[v]:
                adj[u] |= 1 << v
    g = Graph(n, adj, labels)
    p = Partition.from_lists(classes, n)
    p2, k = adjust_for_divisibility(g, p, r)
    assert k == 1
    assert len(p2[0]) == 8 and len(p2[1]) == 7 and len(p2[2]) == 5


def test_adjust_for_divisibility_k_equals_q():
    # n = 12 = 8 + 4: k = 1 = q, nothing moves
    n, r = 12, 4
    size = 5  # ceil(3*12/8)
    labels = [0] * 5 + [1] * 7
    adj = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and (labels[u] != labels[v] or labels[u] == 1):
                adj[u] |= 1 << v
    g = Graph(n, adj, labels)
    p = Partition.from_lists([range(5), range(5, 12)], n)
    p2, k = adjust_for_divisibility(g, p, r)
    assert k == 1
    assert len(p2[0]) == 5 and len(p2[1]) == 7


def test_adjust_rejects_wrong_sizes():
    g, p = _canonical_instance(4, 1, 16)
    bad = Partition.from_lists([range(4), range(4, 16)], 16)
    with pytest.raises(BadParameter):
        adjust_for_divisibility(g, bad, 4)


def test_classify_clean_canonical_has_no_flags():
    g, p = _canonical_instance(4, 1, 16)
    cls = classify(g, p, TAU)
    # sparse vertices carry no flags at all; remainder vertices are
    # in-class-heavy by construction (the remainder class is a clique),
    # which the definition records but no cleanup step acts on
    sparse = p[0].to_list()
    assert not any(cls.bad[v] for v in sparse)
    assert not any(cls.useless)
    assert all(not e for e in cls.exceptional)
    assert cls.warnings == []


def test_classify_flags_a_rewired_vertex():
    g, p = _canonical_instance(4, 1, 16)  # classes of 6 and 10
    # a sparse-class vertex loses every edge into the remainder class
    g2 = g.drop_edges([(0, v) for v in range(6, 16)])
    cls = classify(g2, p, TAU)
    assert cls.exceptional[0] == (1,)
    assert cls.useless[0]
    assert not cls.bad[0]


def test_swap_bad_exceptional_pairs_up():
    g, p = _canonical_instance(4, 2, 16)  # classes 6, 6, 4
    # make vertex 0 heavy inside class 0 and vertex 6 (class 1) miss class 0
    g2 = g.add_edges([(0, v) for v in range(1, 4)])
    g2 = g2.drop_edges([(6, v) for v in range(6)])
    cls = classify(g2, p, TAU)
    assert cls.bad[0]
    assert 0 in cls.exceptional[6]
    p2 = swap_bad_exceptional(g2, p, cls)
    assert 6 in p2[0] and 0 in p2[1]
    # idempotent on a clean instance
    g3, p3 = _canonical_instance(4, 1, 16)
    cls3 = classify(g3, p3, TAU)
    assert [c.bits for c in swap_bad_exceptional(g3, p3, cls3).classes] == [
        c.bits for c in p3.classes
    ]


def test_remove_proportional_batch_shapes():
    g, p = _canonical_instance(4, 1, 16)
    batch = remove_proportional_batch(g, p, 4)
    assert len(batch) == 2
    from_sparse = sum(1 for c in batch for v in c.vertices if v < 6)
    assert from_sparse == 3  # r - 1
    assert verify_packing(kr_minus(4), g, Packing(tuple(batch), g.n))


def test_remove_proportional_batch_with_anchor():
    g, p = _canonical_instance(4, 1, 16)
    anchor = Copy((0, 1, 6, 7), (0, 1, 6, 7))  # two sparse vertices, two remainder
    batch = remove_proportional_batch(g, p, 4, anchor=anchor)
    assert batch[0] == anchor
    from_sparse = sum(1 for c in batch for v in c.vertices if v < 6)
    assert from_sparse == 3
    assert verify_packing(kr_minus(4), g, Packing(tuple(batch), g.n))


def test_anchor_missing_pair_among_three_pinned_remainder_vertices():
    # the missing pair 7-8 is not the anchor's two smallest remainder vertices
    g = complete_graph(12).drop_edges([(7, 8)])
    p = Partition.from_lists([range(6), range(6, 12)], 12)
    anchor = Copy((0, 6, 7, 8), (7, 8, 0, 6))
    batch = remove_proportional_batch(g, p, 4, anchor=anchor)
    assert batch[0] == anchor
    assert verify_packing(kr_minus(4), g, Packing(tuple(batch), g.n))


def test_tidy_clean_input_is_identity():
    g, p = _canonical_instance(4, 1, 80)
    res = tidy(g, [p[0]], 4, TAU)
    assert res.n_star == 80 and not res.removed
    assert res.partition_star[0].bits == p[0].bits


@pytest.mark.parametrize("spec,q", [(CanonicalSpec(4, 1, 80), 1), (CanonicalSpec(4, 2, 96), 2)])
@pytest.mark.parametrize("planted", [1, 2])
def test_tidy_removes_planted_exceptional_vertices(spec, q, planted):
    g, part = noisy_canonical(spec, seed=planted * 17, planted_exceptional=planted, tau=TAU)
    res = tidy(g, list(part.classes[:q]), 4, TAU)
    n = g.n
    r = 4
    # invariant: block divisibility, disjoint removed copies partitioning the rest
    assert res.n_star % (r * (r - 2)) == 0
    assert n - res.n_star == r * len(res.removed)
    assert (n - res.n_star) ** 3 <= TAU * n**3
    assert verify_packing(kr_minus(r), g, Packing(tuple(res.removed), n))
    # invariant: equal sparse classes at the canonical ratio
    target = (r - 1) * res.n_star // (r * (r - 2))
    for i in range(q):
        assert len(res.partition_star[i]) == target
    # invariant: near-complete cross adjacency at the tau^(1/5) level
    sizes = [len(c) for c in res.partition_star.classes]
    for i in range(q + 1):
        for j in range(q + 1):
            if i == j:
                continue
            for v in res.partition_star[i]:
                have = (g.adj[v] & res.partition_star[j].bits).bit_count()
                assert le_power(sizes[j] - have, TAU, sizes[j], 5)


def test_tidy_trace_is_deterministic():
    spec = CanonicalSpec(4, 1, 80)
    g, part = noisy_canonical(spec, seed=5, planted_exceptional=2, tau=TAU)
    res1 = tidy(g, [part[0]], 4, TAU)
    res2 = tidy(g, [part[0]], 4, TAU)
    assert res1.trace == res2.trace
    assert [c.vertices for c in res1.removed] == [c.vertices for c in res2.removed]


def test_tidy_case_two_matching_path():
    spec = CanonicalSpec(4, 2, 96)
    g, part = noisy_canonical(spec, seed=1, planted_exceptional=1, tau=TAU)
    res = tidy(g, list(part.classes[:2]), 4, TAU)
    stages = {entry["stage"] for entry in res.trace}
    assert "exceptional-last" in stages
    assert res.n_star == 88


def test_tidy_finds_an_in_class_matching_that_greedy_misses():
    # both planted exceptional vertices target class 0, whose usable edges
    # include (2, 8), (2, 10) and (8, 9): the first edge blocks a second one
    spec = CanonicalSpec(4, 2, 96)
    g, part = noisy_canonical(spec, 1841905643, planted_exceptional=2)
    res = tidy(g, [part[0], part[1]], 4, TAU)
    assert res.n_star == 80
    assert len(res.removed) == 4
    assert verify_packing(kr_minus(4), g, Packing(tuple(res.removed), g.n))


def test_tidy_rejects_structural_violations():
    g, p = _canonical_instance(4, 1, 16)
    with pytest.raises(BadParameter):
        tidy(g, [VertexSet.from_iterable(range(4), 16)], 4, TAU)  # wrong size
    g2 = complete_graph(15)
    with pytest.raises(BadParameter):
        tidy(g2, [VertexSet.from_iterable(range(6), 15)], 4, TAU)  # 4 does not divide 15
    with pytest.raises(BadParameter):
        tidy(g, [], 4, TAU)  # no sparse set
    thirds = [VertexSet.from_iterable(range(i, i + 5), 16) for i in (0, 5, 10)]
    with pytest.raises(BadParameter):
        tidy(g, thirds, 4, TAU)  # more than r - 2 sparse sets
    with pytest.raises(BadParameter):
        tidy(g, [VertexSet.from_iterable(range(6), 17)], 4, TAU)  # over another host
    with pytest.raises(BadParameter):
        tidy(g, [VertexSet.from_iterable(range(i, i + 6), 16) for i in (0, 3)], 4, TAU)  # overlap


def test_tidy_relocates_remainder_deficient_sparse_vertices():
    # a sparse vertex losing just over the useless threshold of its
    # remainder neighbours is moved into the remainder class, paid for
    # by one batch
    for spec, q in [(CanonicalSpec(4, 1, 80), 1), (CanonicalSpec(4, 2, 96), 2)]:
        g, part = noisy_canonical(spec, seed=3, planted_relocatable=1, tau=TAU)
        res = tidy(g, list(part.classes[:q]), 4, TAU)
        stages = {e["stage"] for e in res.trace}
        assert "relocate" in stages
        assert res.n_star == spec.n - 8
        assert verify_packing(kr_minus(4), g, Packing(tuple(res.removed), g.n))


def test_tidy_removes_sparse_to_sparse_useless_vertices():
    spec = CanonicalSpec(4, 2, 96)
    g, part = noisy_canonical(spec, seed=11, planted_useless=1, tau=TAU)
    res = tidy(g, list(part.classes[:2]), 4, TAU)
    stages = {e["stage"] for e in res.trace}
    assert "useless" in stages
    assert res.n_star == 88
    assert verify_packing(kr_minus(4), g, Packing(tuple(res.removed), g.n))


def test_tidy_mixed_planting_keeps_invariants():
    spec = CanonicalSpec(4, 2, 96)
    for seed in range(8):
        g, part = noisy_canonical(
            spec,
            seed=seed,
            planted_exceptional=1,
            planted_relocatable=1,
            tau=TAU,
        )
        res = tidy(g, list(part.classes[:2]), 4, TAU)
        n = g.n
        assert n - res.n_star == 4 * len(res.removed)
        assert (n - res.n_star) ** 3 <= TAU * n**3
        target = 3 * res.n_star // 8
        assert all(len(res.partition_star[i]) == target for i in range(2))
        assert verify_packing(kr_minus(4), g, Packing(tuple(res.removed), n))


def test_remove_proportional_batch_last_class_branch():
    # q = r-2: the batch works down to the smallest canonical host
    g, p = _canonical_instance(4, 2, 8)
    batch = remove_proportional_batch(g, p, 4)
    assert len(batch) == 2
    removed = sorted(v for c in batch for v in c.vertices)
    assert removed == list(range(8))
    assert verify_packing(kr_minus(4), g, Packing(tuple(batch), 8))


def test_realization_searches_past_twenty_thousand_nodes():
    # every A-B pair with a remainder vertex that sees both sits at the top of B
    a_cls, b_cls = range(40), range(40, 80)
    edges = [(a, b) for a in a_cls for b in b_cls]
    edges += [(80, a) for a in a_cls] + [(80, 78), (80, 79)]
    edges += [(81, a) for a in a_cls] + [(81, 77)]
    g = Graph.from_edges(82, edges)
    p = Partition.from_lists([list(a_cls), list(b_cls), [80, 81]], 82)
    batch = remove_proportional_batch(g, p, 4)
    assert [(c.vertices, c.embedding) for c in batch] == [
        ((0, 78, 79, 80), (78, 79, 0, 80)),
        ((1, 2, 77, 81), (1, 2, 77, 81)),
    ]


def _fits(g, s, masks, profile, pinned, exempt, free_mask):
    """s has the class profile, holds the pins, draws its other vertices
    from free_mask and misses at most the exempt pair: the first two pins
    of the exempt class, else one of them and a free member, else any two
    members of that class."""
    if [sum(1 for v in s if (m >> v) & 1) for m in masks] != profile:
        return False
    pins = [v for v, _c in pinned]
    if not set(pins) <= set(s) or any(not (free_mask >> v) & 1 for v in s if v not in pins):
        return False
    missing = [(u, v) for u, v in combinations(s, 2) if not g.has_edge(u, v)]
    if not missing:
        return True
    if len(missing) > 1 or exempt is None:
        return False
    pair = set(missing[0])
    exempt_pins = [v for v, c in pinned if c == exempt][:2]
    return all((masks[exempt] >> v) & 1 for v in pair) and (
        pair == set(exempt_pins) if len(exempt_pins) == 2 else set(exempt_pins) <= pair
    )


@given(st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_realize_copy_is_exhaustive(seed):
    rng = random.Random(seed)
    r = rng.randint(3, 5)
    n = rng.randint(r, 9)
    q = rng.randint(1, 3)
    density = rng.choice([0.5, 0.8, 0.95])
    g = Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
    )
    class_of = [rng.randint(0, q) for _ in range(n)]
    masks = [sum(1 << v for v in range(n) if class_of[v] == c) for c in range(q + 1)]
    # profile, pins and exempt class drawn from one r-set, so that most cases fit
    seed_set = rng.sample(range(n), r)
    profile = [sum(1 for v in seed_set if class_of[v] == c) for c in range(q + 1)]
    anchor = None
    if rng.random() < 0.6:
        pins = rng.sample(seed_set if rng.random() < 0.8 else range(n), rng.randint(0, r))
        exempt = rng.choice([None, *sorted({class_of[v] for v in seed_set})])
        anchor = _Anchor([(v, class_of[v]) for v in pins], exempt)
    state = _TidyState(g, masks, r)
    state.avoid = sum(1 << v for v in range(n) if rng.random() < 0.1)
    used = sum(1 << v for v in range(n) if rng.random() < 0.1)
    pinned = anchor.pinned if anchor else []
    exempt = anchor.exempt_class if anchor else None
    if exempt is None:
        exempt = next((c for c in range(q) if profile[c] >= 2), None)
    free_mask = ((1 << n) - 1) & ~state.avoid & ~used
    fitting = {
        s
        for s in combinations(range(n), r)
        if _fits(g, s, masks, profile, pinned, exempt, free_mask)
    }
    cp = _realize_copy(state, profile, anchor, used)
    if cp is None:
        assert not fitting
    else:
        assert cp.vertices in fitting
        assert packing_defect(kr_minus(r), g, Packing((cp,), n)) is None
