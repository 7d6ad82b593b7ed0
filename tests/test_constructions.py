from __future__ import annotations

import math
from fractions import Fraction

import pytest

from hfactor.constructions import (
    CanonicalSpec,
    apex_multipartite,
    bottle_graph,
    canonical_graph,
    canonical_packing,
    canonical_partition,
    kr_minus,
    kr_minus_extremal,
    multipartite_extremal,
    remainder_pattern,
    remainder_pattern_order,
    sparse_class_size,
)
from hfactor.errors import BadParameter
from hfactor.graphs import complete_multipartite, min_degree
from hfactor.invariants import component_sets, critical_chromatic_number
from hfactor.solver import find_perfect_packing, max_packing_size, verify_packing


def test_kr_minus_shapes():
    p3 = kr_minus(3)
    assert p3.n == 3 and p3.edge_count() == 2
    assert kr_minus(4).edge_count() == 5
    assert kr_minus(6).edge_count() == 14
    assert not kr_minus(4).has_edge(0, 1)
    with pytest.raises(BadParameter):
        kr_minus(2)


def test_bottle_graph_shapes():
    b4 = bottle_graph(kr_minus(4))
    assert b4.n == 8
    assert sorted(b4.labels.count(i) for i in set(b4.labels)) == [2, 3, 3]
    b5 = bottle_graph(kr_minus(5))
    assert b5.n == 15
    sizes = [b5.labels.count(i) for i in set(b5.labels)]
    assert sorted(sizes) == [3, 4, 4, 4]


def test_bottle_graph_packs_its_pattern():
    h = kr_minus(4)
    p = find_perfect_packing(h, bottle_graph(h))
    assert p is not None and verify_packing(h, bottle_graph(h), p, True)


@pytest.mark.parametrize(
    "r,k,sizes,delta",
    [
        (4, 2, [1, 4, 3], 4),
        (4, 4, [3, 7, 6], 9),
        (5, 2, [1, 3, 3, 3], 7),
    ],
)
def test_kr_minus_extremal_shapes(r, k, sizes, delta):
    g = kr_minus_extremal(r, k)
    assert [g.labels.count(i) for i in sorted(set(g.labels))] == sizes
    assert min_degree(g) == delta
    chi_cr = Fraction(r * (r - 2), r - 1)
    assert delta == math.ceil((1 - 1 / chi_cr) * g.n) - 1


@pytest.mark.parametrize(
    "r,k",
    [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (6, 2), (7, 2), (8, 2)],
)
def test_kr_minus_extremal_blocks_all_small_orders(r, k):
    g = kr_minus_extremal(r, k)
    assert g.n == k * r and g.n <= 16
    assert find_perfect_packing(kr_minus(r), g, budget_secs=120) is None
    assert max_packing_size(kr_minus(r), g, budget_secs=120) <= k - 1


def test_multipartite_extremal_shapes():
    h = complete_multipartite([1, 3, 3])
    g1 = multipartite_extremal(h, 1)
    assert g1.n == 14
    assert [g1.labels.count(i) for i in sorted(set(g1.labels))] == [7, 6, 1]
    assert min_degree(g1) == 8
    g2 = multipartite_extremal(h, 2)
    assert g2.n == 28
    assert [g2.labels.count(i) for i in sorted(set(g2.labels))] == [13, 12, 3]
    assert min_degree(g2) == 16


def test_multipartite_extremal_matching_parity():
    # even first class: pure perfect matching inside it
    h = complete_multipartite([2, 3, 3])
    g = multipartite_extremal(h, 1)  # first class size (8-2)*1+1 = 7 -> odd: path branch
    first = [v for v in range(g.n) if g.labels[v] == 0]
    internal = sum(
        1 for i, u in enumerate(first) for v in first[i + 1 :] if g.has_edge(u, v)
    )
    assert internal == (len(first) - 3) // 2 + 2

    h3 = complete_multipartite([1, 4, 3])
    g3 = multipartite_extremal(h3, 1)  # (8-1)*1+1 = 8: even branch
    first3 = [v for v in range(g3.n) if g3.labels[v] == 0]
    internal3 = sum(
        1 for i, u in enumerate(first3) for v in first3[i + 1 :] if g3.has_edge(u, v)
    )
    assert internal3 == len(first3) // 2


def test_multipartite_extremal_rejects_bad_patterns():
    with pytest.raises(BadParameter):
        multipartite_extremal(complete_multipartite([3, 3]), 1)  # only 2 classes
    with pytest.raises(BadParameter):
        multipartite_extremal(complete_multipartite([2, 2, 3]), 1)  # large class < 3
    with pytest.raises(BadParameter):
        multipartite_extremal(kr_minus(4), 1)  # a non-smallest class of size < 3


def test_canonical_spec_sizes():
    assert CanonicalSpec(4, 1, 8).class_sizes() == [3, 5]
    assert CanonicalSpec(4, 2, 8).class_sizes() == [3, 3, 2]
    assert CanonicalSpec(5, 1, 15).class_sizes() == [4, 11]
    with pytest.raises(BadParameter):
        CanonicalSpec(4, 1, 12)  # not a multiple of r(r-2)
    assert sparse_class_size(4, 12) == 5  # ceil(3 * 12 / 8)
    with pytest.raises(BadParameter):
        CanonicalSpec(4, 3, 8)  # q > r-2


def test_canonical_graph_structure():
    spec = CanonicalSpec(4, 1, 8)
    g = canonical_graph(spec)
    part = canonical_partition(spec)
    a1 = part[0]
    assert all(not g.has_edge(u, v) for u in a1 for v in a1 if u != v)
    rest = part[1].to_list()
    assert all(g.has_edge(u, v) for i, u in enumerate(rest) for v in rest[i + 1 :])


@pytest.mark.parametrize("r,q,n", [(4, 1, 8), (4, 2, 8), (4, 1, 16), (4, 2, 16), (4, 1, 24), (5, 1, 15)])
def test_canonical_graph_packs(r, q, n):
    spec = CanonicalSpec(r, q, n)
    g = canonical_graph(spec)
    built = canonical_packing(spec)
    assert verify_packing(kr_minus(r), g, built, require_perfect=True)
    solved = find_perfect_packing(kr_minus(r), g, budget_secs=120)
    assert solved is not None


def test_remainder_pattern_shapes():
    b = remainder_pattern(4, 1)  # one edge component and one 2-edge path
    assert b.n == 5 == remainder_pattern_order(4, 1)
    comp_orders = sorted(len(c) for c in component_sets(b))
    assert comp_orders == [2, 3]
    assert sorted(b.labels.count(i) for i in set(b.labels)) == [2, 3]

    b2 = remainder_pattern(4, 2)
    assert b2.n == 2 and b2.edge_count() == 0

    b3 = remainder_pattern(5, 1)
    assert b3.n == 11 == remainder_pattern_order(5, 1)
    assert sorted(len(c) for c in component_sets(b3)) == [3, 4, 4]


@pytest.mark.parametrize("r", range(4, 9))
def test_remainder_pattern_class_sizes(r):
    for q in range(1, r - 1):
        b = remainder_pattern(r, q)
        sizes = sorted(b.labels.count(i) for i in set(b.labels))
        s = r - q - 1
        assert sizes == sorted([r - 2] + [r - 1] * (s - 1))
        assert sum(sizes) == (r - q - 1) * (r - 1) - 1
        for n in (r * (r - 2), 3 * r * (r - 2)):
            assert sparse_class_size(r, n) == CanonicalSpec(r, q, n).sparse_size


def test_apex_multipartite_shapes():
    star = apex_multipartite(1, 3)
    assert star.n == 4 and star.edge_count() == 3
    h23 = apex_multipartite(2, 3)
    assert h23.n == 7 and h23.edge_count() == 15
    edge = apex_multipartite(1, 1)
    assert edge.n == 2 and edge.edge_count() == 1


def test_critical_chromatic_of_remainder_pattern():
    # closed form (s (r-1) - 1) / (r - 1) with s = r - q - 1
    for r in (4, 5, 6):
        for q in range(1, r - 2):
            s = r - q - 1
            assert critical_chromatic_number(remainder_pattern(r, q)) == Fraction(
                s * (r - 1) - 1, r - 1
            )
