from __future__ import annotations

import time
from fractions import Fraction

import pytest

from hfactor import pipeline
from hfactor.constructions import (
    CanonicalSpec,
    bottle_graph,
    canonical_graph,
    canonical_partition,
    kr_minus,
    kr_minus_extremal,
    remainder_pattern,
)
from hfactor.errors import BadParameter, Timeout
from hfactor.generators import planted_sparse_graph, random_graph
from hfactor.graphs import VertexSet, complete_graph
from hfactor.hall import HallWitness, PackFailure
from hfactor.pipeline import (
    PipelineConfig,
    TauLadder,
    build_auxiliary,
    default_ladder,
    find_sparse_sets,
    pack_remainder_class,
    run_pipeline,
    threshold_table,
)
from hfactor.solver import find_perfect_packing, verify_packing


def test_default_ladder_shape():
    ladder = default_ladder(4)
    assert len(ladder.values) == 3
    assert ladder.values[2] == Fraction(1, 400)
    assert ladder.values[1] == Fraction(1, 400) ** 2
    assert ladder.values[0] == Fraction(1, 400) ** 4
    with pytest.raises(BadParameter):
        TauLadder((Fraction(1, 2), Fraction(1, 3)))  # not increasing


def test_find_sparse_sets_on_canonical_hosts():
    ladder = default_ladder(4)
    g = canonical_graph(CanonicalSpec(4, 2, 16))
    q, sets = find_sparse_sets(g, 4, ladder)
    assert q == 2
    assert {frozenset(s.to_list()) for s in sets} == {
        frozenset(range(6)),
        frozenset(range(6, 12)),
    }


def test_find_sparse_sets_dense_random_is_nonextremal():
    ladder = default_ladder(4)
    for seed in (0, 1, 2):
        g = random_graph(16, 0.75, seed)
        q, _ = find_sparse_sets(g, 4, ladder)
        assert q == 0


def test_find_sparse_sets_on_blocker():
    ladder = default_ladder(4)
    g = kr_minus_extremal(4, 4)  # classes (3, 7, 6): independent sets of size 6 exist
    q, sets = find_sparse_sets(g, 4, ladder)
    assert q >= 1
    for s in sets:
        members = s.to_list()
        assert all(not g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1 :])


def test_pack_remainder_trivial_when_pattern_edgeless():
    g = canonical_graph(CanonicalSpec(4, 2, 16))
    part = canonical_partition(CanonicalSpec(4, 2, 16))
    p = pack_remainder_class(g, part[2], 4, 2)
    assert p is not None and len(p.copies) == 2
    assert {v for c in p.copies for v in c.vertices} == set(range(12, 16))


def test_pack_remainder_via_solver():
    spec = CanonicalSpec(4, 1, 16)
    g = canonical_graph(spec)
    part = canonical_partition(spec)
    p = pack_remainder_class(g, part[1], 4, 1)
    assert p is not None and len(p.copies) == 2
    pattern = remainder_pattern(4, 1)
    assert verify_packing(pattern, g, p)  # host-indexed copies, not perfect overall
    assert pack_remainder_class(complete_graph(16), VertexSet((1 << 5) - 1, 16), 4, 1) is not None
    with pytest.raises(BadParameter):
        pack_remainder_class(g, VertexSet.from_iterable(range(4), 16), 4, 1)


def test_pack_remainder_absent_on_edgeless_subgraph():
    from hfactor.graphs import empty_graph

    g = empty_graph(10)
    assert pack_remainder_class(g, g.vertex_set(), 4, 1) is None


def test_build_auxiliary_edge_semantics():
    spec = CanonicalSpec(4, 1, 16)
    g = canonical_graph(spec)
    part = canonical_partition(spec)
    b1pack = pack_remainder_class(g, part[1], 4, 1)
    aux = build_auxiliary(g, [part[0]], b1pack, 4)
    assert aux.j_graph.n == 6 + 2
    # complete host: every sparse vertex joined to every copy vertex
    for a in range(6):
        for x in range(6, 8):
            assert aux.j_graph.has_edge(a, x)
    # drop one host edge into the first copy: that auxiliary edge must vanish
    target = b1pack.copies[0].vertices[0]
    g2 = g.drop_edges([(0, target)])
    aux2 = build_auxiliary(g2, [part[0]], b1pack, 4)
    first_copy_vertex = 6
    assert not aux2.j_graph.has_edge(0, first_copy_vertex)
    assert aux2.j_graph.has_edge(0, 7)


@pytest.mark.parametrize(
    "make",
    [
        lambda: bottle_graph(kr_minus(4)),
        lambda: canonical_graph(CanonicalSpec(4, 1, 8)),
        lambda: canonical_graph(CanonicalSpec(4, 1, 16)),
        lambda: canonical_graph(CanonicalSpec(4, 2, 16)),
        lambda: canonical_graph(CanonicalSpec(4, 1, 40)),
    ],
)
def test_pipeline_succeeds_on_structured_hosts(make):
    g = make()
    res = run_pipeline(g, 4)
    assert res.decision and res.path == "pipeline"
    assert verify_packing(kr_minus(4), g, res.packing, require_perfect=True)


def test_pipeline_blocker_reaches_absent():
    g = kr_minus_extremal(4, 2)
    res = run_pipeline(g, 4)
    assert not res.decision
    assert res.packing is None


def test_pipeline_nondivisible_order():
    res = run_pipeline(complete_graph(10), 4)
    assert not res.decision and res.path == "direct"


def test_pipeline_timeout_keeps_the_stage_trace():
    g = random_graph(24, 0.5, 99)
    with pytest.raises(Timeout) as info:
        run_pipeline(g, 4, PipelineConfig(budget_secs=0.0))
    stages = info.value.stages
    assert [s["stage"] for s in stages] == ["degree-check", "sparse-sets", "solver"]
    assert stages[-1] == {"stage": "solver", "result": "timeout"}


def test_pipeline_budget_covers_both_solver_calls(monkeypatch):
    budgets = []

    def solver_using_its_whole_budget(h, g, budget_secs=None, stats=None):
        budgets.append(budget_secs)
        time.sleep(budget_secs)
        raise Timeout("budget spent")

    monkeypatch.setattr(pipeline, "find_perfect_packing", solver_using_its_whole_budget)
    g = canonical_graph(CanonicalSpec(5, 1, 30))
    with pytest.raises(Timeout) as info:
        run_pipeline(g, 5, PipelineConfig(budget_secs=0.3))
    # the remainder pack times out, then the fallback gets what is left
    assert len(budgets) == 2 and sum(budgets) <= 0.3
    assert [s["stage"] for s in info.value.stages][-2:] == ["remainder-pack", "solver"]


def test_pipeline_budget_reaches_the_structural_route():
    # q = r - 2: the route makes no solver call, so only its own checks can stop it
    g = canonical_graph(CanonicalSpec(4, 2, 240))
    with pytest.raises(Timeout) as info:
        run_pipeline(g, 4, PipelineConfig(budget_secs=0.0))
    stages = info.value.stages
    assert {"stage": "sparse-sets", "q": 2} in stages
    assert stages[-1] == {"stage": "tidy", "result": "timeout"}


@pytest.mark.parametrize(
    "slow,stage", [("pack_remainder_class", "auxiliary-pack"), ("pack_apex_multipartite", "expand")]
)
def test_pipeline_budget_is_checked_between_route_stages(monkeypatch, slow, stage):
    real = getattr(pipeline, slow)

    def spend_the_budget(*args):
        time.sleep(0.25)
        return real(*args)

    monkeypatch.setattr(pipeline, slow, spend_the_budget)
    with pytest.raises(Timeout) as info:
        run_pipeline(canonical_graph(CanonicalSpec(4, 1, 16)), 4, PipelineConfig(budget_secs=0.2))
    assert info.value.stages[-1] == {"stage": stage, "result": "timeout"}


@pytest.mark.parametrize(
    "stub,attr,entry",
    [
        (lambda *args: None, "pack_remainder_class", {"stage": "remainder-pack", "result": "absent"}),
        (
            lambda *args: PackFailure(1, HallWitness((0,), (), 3)),
            "pack_apex_multipartite",
            {"stage": "auxiliary-pack", "result": "hall failure at level 1"},
        ),
    ],
    ids=["remainder-absent", "hall-failure"],
)
def test_pipeline_falls_back_after_a_route_dead_end(monkeypatch, stub, attr, entry):
    g = canonical_graph(CanonicalSpec(4, 1, 16))
    monkeypatch.setattr(pipeline, attr, stub)
    res = run_pipeline(g, 4)
    assert res.decision and res.path == "fallback"
    assert res.stages[-2:] == [entry, {"stage": "solver", "result": "exists"}]
    assert verify_packing(kr_minus(4), g, res.packing, require_perfect=True)


def test_pipeline_agrees_with_solver_on_mixed_corpus():
    pattern = kr_minus(4)
    for seed in range(30):
        kind = seed % 3
        if kind == 0:
            g = random_graph(12 + 4 * (seed % 4), 0.62, seed)
        elif kind == 1:
            g, _ = planted_sparse_graph([8, 16, 24][seed % 3], 4, 1 + seed % 2, 0.05, seed)
        else:
            g = kr_minus_extremal(4, 2 + seed % 3)
        direct = find_perfect_packing(pattern, g, budget_secs=60)
        res = run_pipeline(g, 4, PipelineConfig(budget_secs=60))
        assert res.decision == (direct is not None)
        if res.packing is not None:
            assert verify_packing(pattern, g, res.packing, require_perfect=True)


def test_threshold_table_values():
    table = threshold_table(4, 24)
    assert table == {4: 3, 8: 5, 12: 8, 16: 10, 20: 13, 24: 15}


def test_auxiliary_misses_bounded_by_host_misses():
    # a sparse vertex loses at most one auxiliary edge per host miss
    # (packed copies are disjoint), and conversely per copy vertex
    spec = CanonicalSpec(4, 1, 40)
    g = canonical_graph(spec)
    part = canonical_partition(spec)
    drops = [(0, 16), (0, 23), (3, 30), (7, 16)]
    g = g.drop_edges(drops)
    b1pack = pack_remainder_class(g, part[1], 4, 1)
    assert b1pack is not None
    aux = build_auxiliary(g, [part[0]], b1pack, 4)
    sparse = part[0].to_list()
    for a, v in enumerate(sparse):
        host_misses = sum(1 for w in part[1] if not g.has_edge(v, w))
        j_misses = sum(
            1 for x in aux.right_class if not aux.j_graph.has_edge(a, x)
        )
        assert j_misses <= host_misses
