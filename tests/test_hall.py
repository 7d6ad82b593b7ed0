from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from hfactor.constructions import apex_multipartite
from hfactor.errors import BadParameter, Timeout
from hfactor.generators import (
    hypothesis_deleted_multipartite,
    random_multipartite_deleted,
)
from hfactor.graphs import Graph, Partition, VertexSet, complete_multipartite
from hfactor.hall import (
    HallWitness,
    PackFailure,
    StarPacking,
    contract_stars,
    default_tolerance,
    pack_apex_multipartite,
    star_pack,
)
from hfactor.solver import verify_packing


def _sides(g: Graph, big_size: int) -> tuple[VertexSet, VertexSet]:
    return (
        VertexSet.from_iterable(range(big_size), g.n),
        VertexSet.from_iterable(range(big_size, g.n), g.n),
    )


def test_star_pack_complete_bipartite():
    g = complete_multipartite([12, 4])
    big, small = _sides(g, 12)
    sp = star_pack(g.adj, big, small, 3)
    assert isinstance(sp, StarPacking)
    centers = [c for c, _ in sp.stars]
    leaves = sorted(v for _, ls in sp.stars for v in ls)
    assert sorted(centers) == list(range(12, 16))
    assert leaves == list(range(12))


def test_star_pack_under_light_deletions():
    for seed in range(20):
        g, part = random_multipartite_deleted([15, 5], 0.2, seed)
        sp = star_pack(g.adj, part[0], part[1], 3)
        assert isinstance(sp, StarPacking)
        for c, ls in sp.stars:
            assert all(g.has_edge(c, v) for v in ls)


def test_star_pack_absent_with_hall_witness():
    g = complete_multipartite([6, 2])
    # isolate center 6 from the big side entirely
    g = g.drop_edges([(6, v) for v in range(6)])
    big, small = _sides(g, 6)
    res = star_pack(g.adj, big, small, 3)
    assert isinstance(res, HallWitness)
    demand, supply = res.violation()
    assert demand > supply
    assert 6 in res.centers


def test_every_witness_is_exactly_a_hall_violator():
    # seeded hosts over r, k, q and deletion rates: every witness from
    # star_pack, and every PackFailure witness at the top level (where the
    # host is not yet contracted), has its centres in `small`, its
    # neighbourhood equal to N(centres) & big, and r |centres| above it
    rng = random.Random(14)
    checked = 0
    for seed in range(300):
        r, k, q = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 3)
        g, part = random_multipartite_deleted([k * r] * q + [k], rng.uniform(0.2, 0.7), seed)
        res = pack_apex_multipartite(g.adj, part, q, r)
        cases = [(part[i], star_pack(g.adj, part[i], part[q], r)) for i in range(q)]
        if isinstance(res, PackFailure) and res.level == q:
            cases.append((part[q - 1], res.witness))
        for big, w in cases:
            if not isinstance(w, HallWitness):
                continue
            assert set(w.centers) <= set(part[q])
            reach = 0
            for c in w.centers:
                reach |= g.adj[c]
            assert w.neighborhood == tuple(v for v in big if (reach >> v) & 1)
            assert r * len(w.centers) > len(w.neighborhood)
            checked += 1
    assert checked > 400  # 467 witnesses at these seeds


def test_star_pack_follows_an_augmenting_path_longer_than_the_recursion_limit():
    # centre i reaches leaves m+i and m+i+1, the last centre only leaf m: the
    # last centre's augmenting path shifts every other centre by one leaf
    m = 1200
    edges = [(i, m + i) for i in range(m - 1)] + [(i, m + i + 1) for i in range(m - 1)]
    g = Graph.from_edges(2 * m, edges + [(m - 1, m)])
    leaves = VertexSet.from_iterable(range(m, 2 * m), g.n)
    centres = VertexSet.from_iterable(range(m), g.n)
    sp = star_pack(g.adj, leaves, centres, 1)
    assert isinstance(sp, StarPacking)
    assert sp.stars == tuple((i, (m + i + 1,)) for i in range(m - 1)) + ((m - 1, (m,)),)


@pytest.mark.parametrize("m", [1000, 1200])
def test_star_pack_reads_the_clock_by_leaves_visited(m):
    # the chain host above: m - 1 free-leaf picks, then one augmenting path
    # that visits all m leaves. At m = 1000 only the path's visits take the
    # count past the 1,024 units between two readings of the clock
    edges = [(i, m + i) for i in range(m - 1)] + [(i, m + i + 1) for i in range(m - 1)]
    g = Graph.from_edges(2 * m, edges + [(m - 1, m)])
    leaves = VertexSet.from_iterable(range(m, 2 * m), g.n)
    centres = VertexSet.from_iterable(range(m), g.n)
    with pytest.raises(Timeout):
        star_pack(g.adj, leaves, centres, 1, time.monotonic() - 1.0)
    stars = tuple((i, (m + i + 1,)) for i in range(m - 1)) + ((m - 1, (m,)),)
    assert star_pack(g.adj, leaves, centres, 1, None).stars == stars
    assert star_pack(g.adj, leaves, centres, 1, time.monotonic() + 60.0).stars == stars


def test_star_pack_reads_the_clock_once_per_1024_units_of_work(monkeypatch):
    # the m = 1000 chain host: 999 free-leaf picks, then a path that visits
    # all 1,000 leaves, so the count passes 1,024 once, at the last slot
    m = 1000
    edges = [(i, m + i) for i in range(m - 1)] + [(i, m + i + 1) for i in range(m - 1)]
    g = Graph.from_edges(2 * m, edges + [(m - 1, m)])
    leaves = VertexSet.from_iterable(range(m, 2 * m), g.n)
    centres = VertexSet.from_iterable(range(m), g.n)
    deadline = time.monotonic() + 60.0
    real = time.monotonic
    reads = 0

    def counted_monotonic():
        nonlocal reads
        reads += 1
        return real()

    monkeypatch.setattr(time, "monotonic", counted_monotonic)
    sp = star_pack(g.adj, leaves, centres, 1, deadline)
    monkeypatch.undo()
    assert isinstance(sp, StarPacking)
    assert reads == 1


def test_star_pack_takes_a_free_leaf_before_it_searches():
    # each slot, in order, takes its least leaf that no slot holds yet: no
    # slot moves another, where an augmenting search from each slot would
    # have pushed centre 3 onto leaf 2 and centre 4 onto leaf 1
    g = Graph.from_edges(6, [(3, 0), (3, 2), (4, 0), (4, 1), (5, 0), (5, 1), (5, 2)])
    big, small = _sides(g, 3)
    assert star_pack(g.adj, big, small, 1).stars == ((3, (0,)), (4, (1,)), (5, (2,)))
    # centre 4 has no free leaf, and its path moves centre 3 from leaf 0 onto
    # leaf 1, the leaf at the path's end, which must then count as held:
    # centre 5 takes leaf 2, not leaf 1 a second time
    g = Graph.from_edges(6, [(3, 0), (3, 1), (4, 0), (5, 1), (5, 2)])
    assert star_pack(g.adj, big, small, 1).stars == ((3, (1,)), (4, (0,)), (5, (2,)))


def test_contract_stars_rows_hold_the_common_neighbours_of_each_star():
    # at every level, a vertex of a class still to pack is set in a centre's
    # row iff the host joins it to the centre and to every leaf collected so far
    rng = random.Random(23)
    checked = 0
    for seed in range(40):
        r, k, q = rng.randint(1, 3), rng.randint(1, 5), rng.randint(2, 3)
        g, part = random_multipartite_deleted([k * r] * q + [k], rng.uniform(0.0, 0.3), seed)
        rows = g.adj
        members = {c: [c] for c in part[q]}
        for level in range(q, 1, -1):
            sp = star_pack(rows, part[level - 1], part[q], r)
            if not isinstance(sp, StarPacking):
                break
            rows = contract_stars(rows, sp)
            for c, leaves in sp.stars:
                members[c] += leaves
                for v in (w for i in range(level - 1) for w in part[i]):
                    joined = all(g.has_edge(v, x) for x in members[c])
                    assert bool((rows[c] >> v) & 1) == joined
                    checked += 1
    assert checked > 500


def test_star_pack_size_mismatch():
    g = complete_multipartite([7, 2])
    big, small = _sides(g, 7)
    with pytest.raises(BadParameter):
        star_pack(g.adj, big, small, 3)


def test_contract_stars_complete_host():
    g = complete_multipartite([6, 6, 2])
    part = Partition.from_lists([range(6), range(6, 12), range(12, 14)], 14)
    sp = star_pack(g.adj, part[1], part[2], 3)
    rows = contract_stars(g.adj, sp)
    # each star is merged into its centre's row; the host's order is kept
    assert len(rows) == 14
    assert sorted(c for c, _ in sp.stars) == [12, 13]
    # complete host stays complete from the merged centres to class 0, and
    # a merged centre sees nothing of its own leaves' class
    assert all(rows[j] == part[0].bits for j in (12, 13))
    assert all(rows[v] == g.adj[v] for v in range(12))


def test_contract_stars_misses_propagate():
    g = complete_multipartite([6, 6, 2])
    part = Partition.from_lists([range(6), range(6, 12), range(12, 14)], 14)
    sp = star_pack(g.adj, part[1], part[2], 3)
    center, leaves = sp.stars[0]
    g2 = g.drop_edges([(0, leaves[0])])
    rows = contract_stars(g2.adj, sp)
    assert not rows[center] & 1
    other = 12 if center == 13 else 13
    assert rows[other] & 1


@pytest.mark.parametrize("q,r,k", [(1, 3, 4), (2, 3, 5), (2, 4, 3)])
def test_pack_apex_complete_host(q, r, k):
    sizes = [k * r] * q + [k]
    g = complete_multipartite(sizes)
    part = Partition.from_lists(
        [range(sum(sizes[:i]), sum(sizes[: i + 1])) for i in range(q + 1)], g.n
    )
    res = pack_apex_multipartite(g.adj, part, q, r)
    assert not isinstance(res, PackFailure)
    assert verify_packing(apex_multipartite(q, r), g, res, require_perfect=True)


@pytest.mark.parametrize("q,r,k", [(1, 3, 6), (2, 3, 5), (2, 4, 4), (3, 4, 3)])
def test_pack_apex_within_guarantee_band(q, r, k):
    band = default_tolerance(q, r)
    pattern = apex_multipartite(q, r)
    for seed in range(30):
        g, part = hypothesis_deleted_multipartite([k * r] * q + [k], band / 2, band, seed)
        res = pack_apex_multipartite(g.adj, part, q, r)
        assert not isinstance(res, PackFailure)
        assert verify_packing(pattern, g, res, require_perfect=True)


def test_pack_apex_reports_failing_level():
    g = complete_multipartite([9, 9, 3])
    part = Partition.from_lists([range(9), range(9, 18), range(18, 21)], 21)
    g = g.drop_edges([(0, v) for v in range(9, 18)])  # vertex 0 loses all of class 2
    res = pack_apex_multipartite(g.adj, part, 2, 3)
    assert isinstance(res, PackFailure)
    assert res.witness.violation()[0] > res.witness.violation()[1]


def test_pack_apex_witness_below_level_q_is_in_host_vertices():
    # apex 18 sees all of class 1 but only {7, 8} of class 0, so its star
    # (merged into 18) fails at level 1
    g = complete_multipartite([9, 9, 3]).drop_edges([(18, v) for v in range(7)])
    part = Partition.from_lists([range(9), range(9, 18), range(18, 21)], 21)
    res = pack_apex_multipartite(g.adj, part, 2, 3)
    assert isinstance(res, PackFailure)
    assert res.level == 1
    assert res.witness.centers == (18,)
    assert res.witness.neighborhood == (7, 8)


def test_pack_apex_rejects_q_or_r_below_one():
    g = complete_multipartite([4])
    with pytest.raises(BadParameter):
        pack_apex_multipartite(g.adj, Partition.from_lists([range(4)], 4), 0, 1)
    with pytest.raises(BadParameter):
        pack_apex_multipartite(g.adj, Partition.from_lists([[], [0]], 4), 1, 0)
    with pytest.raises(BadParameter):
        pack_apex_multipartite(g.adj, Partition.from_lists([range(4)], 4), 1, 1)  # one class
    with pytest.raises(BadParameter):
        pack_apex_multipartite(g.adj, Partition.from_lists([[0, 1, 2], [3]], 4), 1, 2)  # 3 != k r


def test_default_tolerance_ladder():
    assert default_tolerance(1, 3) == Fraction(1, 2)
    assert default_tolerance(2, 3) == Fraction(1, 8)
    assert default_tolerance(2, 4) == Fraction(1, 10)


def test_contract_stars_union_bound_on_misses():
    # each contracted vertex a host vertex misses costs at most one of that
    # vertex's r+1 host misses across the two merged classes
    q, r, k = 2, 3, 5
    band = default_tolerance(q, r)
    for seed in range(10):
        g, part = hypothesis_deleted_multipartite([k * r] * q + [k], band / 2, band, seed)
        sp = star_pack(g.adj, part[q - 1], part[q], r)
        assert isinstance(sp, StarPacking)
        rows = contract_stars(g.adj, sp)
        for v in (w for c in part.classes[: q - 1] for w in c):
            host_misses = sum(
                1
                for cls in (part[q - 1], part[q])
                for w in cls
                if not g.has_edge(v, w)
            )
            contracted_misses = sum(1 for c in part[q] if not (rows[c] >> v) & 1)
            assert contracted_misses <= host_misses
