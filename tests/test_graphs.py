from __future__ import annotations

from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfactor.errors import DegenerateSet, EmptyGraph, OverlappingSets
from hfactor.generators import random_graph
from hfactor.graphs import (
    Graph,
    Partition,
    VertexSet,
    complete_graph,
    complete_multipartite,
    density_between,
    density_within,
    induced,
    min_degree,
    read_class_labels,
    read_edge_list,
    write_class_labels,
    write_edge_list,
)


def test_graph_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b00])  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # 0->1 without 1->0
    with pytest.raises(ValueError, match="asymmetric edge 1-0"):
        Graph(2, [0b00, 0b01])  # 1->0 without 0->1: a lower entry only


@given(st.data())
def test_graph_symmetry_check_matches_an_entrywise_walk(data):
    n = data.draw(st.integers(0, 6))
    adj = [0] * n
    for u, v in combinations(range(n), 2):
        if data.draw(st.booleans()):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in data.draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=3)):
            adj[u] ^= 1 << v
    walk = [
        f"asymmetric edge {u}-{v}"
        for u in range(n)
        for v in range(n)
        if (adj[u] >> v) & 1 and not (adj[v] >> u) & 1
    ]
    if walk:
        with pytest.raises(ValueError, match=f"^{walk[0]}$"):
            Graph(n, adj)
    else:
        assert Graph(n, adj).adj == tuple(adj)


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_min_degree_complete_and_edgeless():
    assert min_degree(complete_graph(5)) == 4
    assert min_degree(Graph(3, [0, 0, 0])) == 0
    with pytest.raises(EmptyGraph):
        min_degree(Graph(0, []))


def test_density_within_extremes():
    g = complete_multipartite([4, 4])
    a = VertexSet.from_iterable(range(4), 8)  # one class: independent
    assert density_within(g, a) == 0
    k4 = complete_graph(4)
    assert density_within(k4, k4.vertex_set()) == 1
    with pytest.raises(DegenerateSet):
        density_within(k4, VertexSet.from_iterable([0], 4))


def test_density_between_complete_bipartite_and_disjoint_cliques():
    g = complete_multipartite([3, 5])
    a = VertexSet.from_iterable(range(3), 8)
    b = VertexSet.from_iterable(range(3, 8), 8)
    assert density_between(g, a, b) == 1
    # two disjoint triangles
    g2 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    a2 = VertexSet.from_iterable([0, 1, 2], 6)
    b2 = VertexSet.from_iterable([3, 4, 5], 6)
    assert density_between(g2, a2, b2) == 0
    with pytest.raises(OverlappingSets):
        density_between(g2, a2, VertexSet.from_iterable([2, 3], 6))


def test_complete_multipartite_shapes():
    k3 = complete_multipartite([1, 1, 1])
    assert k3.edge_count() == 3
    bottle_skeleton = complete_multipartite([3, 3, 2])
    assert bottle_skeleton.n == 8
    assert bottle_skeleton.edge_count() == 21
    edgeless = complete_multipartite([8])
    assert edgeless.edge_count() == 0
    assert min_degree(complete_multipartite([2, 5, 3])) == 10 - 5


def test_induced_inherits_order_and_origin():
    k5 = complete_graph(5)
    sub = induced(k5, VertexSet.from_iterable([1, 3, 4], 5))
    assert sub.n == 3 and sub.edge_count() == 3
    assert sub.origin == (1, 3, 4)
    whole = induced(k5, k5.vertex_set())
    assert whole == k5


def test_induced_on_blocker_classes_is_complete_bipartite():
    from hfactor.constructions import kr_minus_extremal

    g = kr_minus_extremal(4, 2)  # classes (1, 4, 3)
    a = VertexSet.from_iterable([0] + list(range(1, 5)), g.n)  # U0 plus one class
    sub = induced(g, a)
    assert sub.edge_count() == 1 * 4


def test_partition_rejects_overlap():
    with pytest.raises(OverlappingSets):
        Partition.from_lists([[0, 1], [1, 2]], 4)


@given(st.integers(0, 10**6), st.integers(2, 12))
def test_density_identity_on_random_graphs(seed, n):
    g = random_graph(n, 0.5, seed)
    assert density_within(g, g.vertex_set()) * comb(n, 2) == g.edge_count()


@given(st.integers(0, 10**6))
def test_edge_list_round_trip(tmp_path_factory, seed):
    g = random_graph(9, 0.4, seed)
    path = tmp_path_factory.mktemp("io") / "g.txt"
    write_edge_list(g, path)
    g2 = read_edge_list(path)
    assert g2 == Graph(g.n, g.adj)


def test_class_sidecar_round_trip(tmp_path):
    g = complete_multipartite([2, 3])
    path = tmp_path / "g.classes.json"
    write_class_labels(g, path)
    assert read_class_labels(path, g.n) == [[0, 1], [2, 3, 4]]
