from __future__ import annotations

import gc
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfactor.constructions import (
    CanonicalSpec,
    bottle_graph,
    kr_minus,
    kr_minus_extremal,
    multipartite_extremal,
)
from hfactor.errors import Timeout
from hfactor.generators import noisy_canonical, random_graph
from hfactor.graphs import (
    Graph,
    complete_graph,
    complete_multipartite,
    disjoint_union,
    empty_graph,
)
from hfactor.oracles import (
    brute_force_copies,
    brute_force_copy_sets,
    brute_force_max_packing,
    brute_force_perfect_packing,
)
from hfactor.solver import (
    Copy,
    Packing,
    SearchStats,
    enumerate_copies,
    find_perfect_packing,
    max_packing_size,
    packing_defect,
    verify_packing,
)


def test_enumerate_copies_counts():
    assert len(enumerate_copies(complete_graph(3), complete_graph(4))) == 4
    assert len(enumerate_copies(kr_minus(4), complete_graph(4))) == 1
    bottle = bottle_graph(kr_minus(4))
    copies = enumerate_copies(kr_minus(4), bottle)
    assert len(copies) == 45  # frozen from the independent subset scan below
    assert {c.vertices for c in copies} == brute_force_copy_sets(kr_minus(4), bottle)


def test_enumerate_copies_embeddings_are_lex_least_and_valid():
    bottle = bottle_graph(kr_minus(4))
    h = kr_minus(4)
    for c in enumerate_copies(h, bottle):
        assert tuple(sorted(c.embedding)) == c.vertices
        # the nonadjacent pattern pair maps onto the host's missing edge (if any)
        assert packing_defect(h, bottle, Packing((c,), bottle.n)) is None


def test_perfect_packing_on_bottle_graph():
    h = kr_minus(4)
    bottle = bottle_graph(h)
    p = find_perfect_packing(h, bottle)
    assert p is not None and len(p.copies) == 2
    assert verify_packing(h, bottle, p, require_perfect=True)


@pytest.mark.parametrize("r,k", [(4, 2), (4, 3), (4, 4), (5, 2)])
def test_blockers_have_no_perfect_packing(r, k):
    g = kr_minus_extremal(r, k)
    assert find_perfect_packing(kr_minus(r), g, budget_secs=120) is None
    assert max_packing_size(kr_minus(r), g, budget_secs=120) <= k - 1


def test_multipartite_blocker_has_no_perfect_packing():
    h = complete_multipartite([1, 3, 3])
    g = multipartite_extremal(h, 1)
    assert g.n == 14
    assert find_perfect_packing(h, g, budget_secs=120) is None


@pytest.mark.parametrize("r,k", [(4, 6), (5, 5), (4, 8)])
def test_blocker_absence_is_cut_at_the_root(r, k):
    # every copy meets the class of size k - 1, which the greedy transversal finds
    stats = SearchStats()
    assert find_perfect_packing(kr_minus(r), kr_minus_extremal(r, k), None, stats) is None
    assert (stats.nodes, stats.cuts) == (1, 1)


def test_perfect_search_memoises_failed_blocked_sets():
    # two odd cliques: no perfect matching, and no bound cuts before one
    # vertex of K13 is left, so only the memo keeps the search off the full tree
    g = disjoint_union([complete_graph(13), complete_graph(15)])
    stats = SearchStats()
    assert find_perfect_packing(complete_graph(2), g, None, stats) is None
    assert stats.nodes <= 2000


def test_max_packing_drops_siblings_once_the_best_is_reached():
    g = kr_minus_extremal(4, 8)
    perm = [(7 * v + 3) % g.n for v in range(g.n)]
    relabelled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    stats = SearchStats()
    assert max_packing_size(kr_minus(4), relabelled, None, stats) == 7
    assert stats.nodes <= 100


def test_max_packing_rebounds_each_time_the_best_improves():
    g = disjoint_union([kr_minus_extremal(4, 5), kr_minus_extremal(4, 6)])
    stats = SearchStats()
    assert max_packing_size(kr_minus(4), g, None, stats) == 9
    assert stats.nodes <= 1000


def test_max_packing_basics():
    assert max_packing_size(complete_graph(3), complete_graph(3)) == 1
    assert max_packing_size(kr_minus(4), empty_graph(8)) == 0
    g = kr_minus_extremal(4, 2)
    assert max_packing_size(kr_minus(4), g) == 1


@pytest.mark.parametrize("entry", [find_perfect_packing, max_packing_size])
def test_entry_points_fill_search_stats(entry):
    h, g = kr_minus(4), kr_minus_extremal(4, 3)
    stats = SearchStats()
    entry(h, g, None, stats)
    assert stats.nodes > 0
    assert stats.elapsed > 0
    assert stats.copies == len(enumerate_copies(h, g)) > 0


@pytest.mark.parametrize("entry", [find_perfect_packing, max_packing_size])
def test_budget_covers_copy_enumeration(entry):
    # 5 divides n, and enumeration builds over 100k copies of K5-
    g = random_graph(35, 0.8, 5)
    stats = SearchStats()
    t0 = time.monotonic()
    with pytest.raises(Timeout):
        entry(kr_minus(5), g, 0.0, stats)
    assert time.monotonic() - t0 < 1.0
    assert stats.nodes == 0  # the clock ran out before the search began


def test_budget_bounds_enumeration_on_a_large_host():
    # a (k - 1)-set's completions here are hundreds of candidates read off one
    # mask: a clock that counted stacked sets, not candidates, would overrun
    g = noisy_canonical(CanonicalSpec(4, 2, 400), 0)[0]
    t0 = time.monotonic()
    with pytest.raises(Timeout):
        find_perfect_packing(kr_minus(4), g, 0.2)
    assert time.monotonic() - t0 < 1.0


def test_search_reads_the_clock_at_node_one_then_every_1024_nodes(monkeypatch):
    # a hub joined to one vertex of each of three K11s: no perfect matching,
    # found out after 2,800 nodes on 168 copies. Enumeration scans fewer than
    # 1,024 candidates, so the reads are the start, nodes 1, 1,024 and 2,048,
    # and the elapsed time
    g = disjoint_union([empty_graph(1)] + [complete_graph(11)] * 3).add_edges(
        [(0, 1), (0, 12), (0, 23)]
    )
    real = time.monotonic
    reads = 0

    def counted_monotonic():
        nonlocal reads
        reads += 1
        return real()

    monkeypatch.setattr(time, "monotonic", counted_monotonic)
    stats = SearchStats()
    assert find_perfect_packing(complete_graph(2), g, 60.0, stats) is None
    monkeypatch.undo()
    assert stats.nodes > 2048 and stats.copies == 168
    assert reads == 5


@pytest.mark.parametrize("entry", [find_perfect_packing, max_packing_size])
def test_entry_points_leave_no_cyclic_garbage(entry):
    h, g = kr_minus(4), kr_minus_extremal(4, 3)
    gc.collect()
    gc.disable()
    try:
        entry(h, g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nondivisible_order_is_immediately_absent():
    assert find_perfect_packing(complete_graph(3), complete_graph(7)) is None


def test_verify_packing_rejects_bad_copies():
    h = complete_graph(3)
    g = complete_graph(6)
    good = Packing(
        (Copy((0, 1, 2), (0, 1, 2)), Copy((3, 4, 5), (3, 4, 5))), 6
    )
    assert verify_packing(h, g, good, require_perfect=True)
    overlapping = Packing(
        (Copy((0, 1, 2), (0, 1, 2)), Copy((2, 3, 4), (2, 3, 4))), 6
    )
    assert not verify_packing(h, g, overlapping)
    assert "overlaps" in packing_defect(h, g, overlapping)
    sparse_host = Graph.from_edges(3, [(0, 1), (1, 2)])
    missing_edge = Packing((Copy((0, 1, 2), (0, 1, 2)),), 3)
    assert not verify_packing(h, sparse_host, missing_edge)


def test_timeout_is_raised_not_conflated():
    g = random_graph(24, 0.5, 99)
    with pytest.raises(Timeout):
        find_perfect_packing(kr_minus(4), g, budget_secs=0.0)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_agreement_with_brute_force(seed):
    n = 4 + seed % 7
    h = [complete_graph(3), kr_minus(3), kr_minus(4)][seed % 3]
    g = random_graph(n, 0.25 + (seed % 5) / 8, seed)
    assert (find_perfect_packing(h, g, budget_secs=60) is not None) == (
        brute_force_perfect_packing(h, g)
    )


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_max_packing_agrees_with_brute_force(seed):
    g = random_graph(4 + seed % 5, 0.5, seed)
    h = kr_minus(3)
    assert max_packing_size(h, g) == brute_force_max_packing(h, g)
    # larger patterns on up to 10 vertices, where the best can improve twice
    g = random_graph(4 + seed % 7, (3 + seed % 7) / 10, seed)
    for h in (kr_minus(4), complete_multipartite([1, 2, 2])):
        assert max_packing_size(h, g) == brute_force_max_packing(h, g)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_adding_edges_never_kills_a_packing(seed):
    n = 4 + (seed % 2) * 4  # 4 or 8
    g = random_graph(n, 0.55, seed)
    h = kr_minus(4)
    before = find_perfect_packing(h, g, budget_secs=60)
    if before is None:
        return
    extra = random_graph(n, 0.3, seed + 1)
    g2 = g.add_edges(list(extra.edges()))
    after = find_perfect_packing(h, g2, budget_secs=60)
    assert after is not None
    assert verify_packing(h, g2, after, require_perfect=True)


def test_found_packings_always_verify():
    h = kr_minus(4)
    for seed in range(40):
        g = random_graph(12, 0.7, seed)
        p = find_perfect_packing(h, g, budget_secs=60)
        if p is not None:
            assert verify_packing(h, g, p, require_perfect=True)


ORACLE_PATTERNS = {
    "K1": complete_graph(1),
    "E2": empty_graph(2),
    "K2": complete_graph(2),
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "K3-": kr_minus(3),
    "K4-": kr_minus(4),
    "K5-": kr_minus(5),
    "K6-": kr_minus(6),
    # cliques minus a pair other than (0, 1): the pair's hosts land mid-embedding,
    # and in K4-23 a set's largest vertex takes slot 1, ahead of the pair
    "K5-13": Graph.from_edges(5, [e for e in combinations(range(5), 2) if e != (1, 3)]),
    "K4-23": Graph.from_edges(4, [e for e in combinations(range(4), 2) if e != (2, 3)]),
    "K122": complete_multipartite([1, 2, 2]),
    "P4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),  # slack 3
}


@given(st.sampled_from(sorted(ORACLE_PATTERNS)), st.integers(0, 9), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_naive_oracle(name, n, seed):
    h = ORACLE_PATTERNS[name]
    g = random_graph(n, (1 + seed % 9) / 10, seed)  # n < h.n included
    got = [(c.vertices, c.embedding) for c in enumerate_copies(h, g)]
    assert got == brute_force_copies(h, g)


@given(st.sampled_from(sorted(ORACLE_PATTERNS)), st.integers(0, 12), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_maximum_reaches_n_over_h_iff_a_perfect_packing_exists(name, n, seed):
    h = ORACLE_PATTERNS[name]
    g = random_graph(n, (1 + seed % 9) / 10, seed)
    perfect = find_perfect_packing(h, g, budget_secs=60)
    assert (max_packing_size(h, g, budget_secs=60) * h.n == g.n) == (perfect is not None)


def test_stored_embeddings_are_lexicographically_least():
    from itertools import permutations

    from hfactor.generators import random_graph

    h = kr_minus(4)
    g = random_graph(9, 0.6, 7)
    pattern_edges = [
        (u, v) for u in range(h.n) for v in range(u + 1, h.n) if (h.adj[u] >> v) & 1
    ]
    for c in enumerate_copies(h, g):
        valid = [
            perm
            for perm in permutations(c.vertices)
            if all(g.has_edge(perm[u], perm[v]) for u, v in pattern_edges)
        ]
        assert c.embedding == min(valid)
