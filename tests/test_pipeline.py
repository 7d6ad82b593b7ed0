from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from hfactor import hall, pipeline
from hfactor.constructions import (
    CanonicalSpec,
    bottle_graph,
    canonical_graph,
    canonical_partition,
    kr_minus,
    kr_minus_extremal,
    remainder_pattern,
)
from hfactor.errors import BadParameter, InternalError, Timeout
from hfactor.generators import noisy_canonical, planted_sparse_graph, random_graph
from hfactor.graphs import Graph, Partition, VertexSet, bits_of, complete_graph
from hfactor.hall import HallWitness, PackFailure, pack_apex_multipartite
from hfactor.pipeline import (
    PipelineConfig,
    TauLadder,
    build_auxiliary,
    default_ladder,
    expand_packing,
    find_sparse_sets,
    pack_remainder_class,
    run_pipeline,
    threshold_table,
)
from hfactor.solver import (
    Copy,
    Packing,
    find_perfect_packing,
    max_packing_size,
    verify_packing,
)


def test_default_ladder_shape():
    ladder = default_ladder(4)
    assert len(ladder.values) == 3
    assert ladder.values[2] == Fraction(1, 400)
    assert ladder.values[1] == Fraction(1, 400) ** 2
    assert ladder.values[0] == Fraction(1, 400) ** 4
    with pytest.raises(BadParameter):
        TauLadder((Fraction(1, 2), Fraction(1, 3)))  # not increasing
    with pytest.raises(BadParameter):
        TauLadder(())
    with pytest.raises(BadParameter):
        default_ladder(3)


def test_find_sparse_sets_rejects_a_ladder_shorter_than_r_minus_2():
    g = canonical_graph(CanonicalSpec(5, 2, 30))
    short = TauLadder((Fraction(1, 100),))
    with pytest.raises(BadParameter):
        find_sparse_sets(g, 5, short)
    with pytest.raises(BadParameter):
        run_pipeline(g, 5, PipelineConfig(ladder=short))


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


def test_find_sparse_sets_skips_a_level_whose_sets_do_not_fit():
    # r = 5, n = 5: classes of 2 vertices, so level 3 (6 > 5) is skipped
    q, sets = find_sparse_sets(Graph.from_edges(5, []), 5, default_ladder(5))
    assert q == 2
    assert [len(s) for s in sets] == [2, 2] and not sets[0].bits & sets[1].bits


def test_second_sparse_seed_is_grown_only_when_the_first_fails(monkeypatch):
    drawn = []
    real = pipeline._sparse_seeds

    def counting(*args):
        for seed in real(*args):
            drawn.append(seed)
            yield seed

    monkeypatch.setattr(pipeline, "_sparse_seeds", counting)
    # the least-degree vertices are the canonical classes: one seed per set
    q, _ = find_sparse_sets(canonical_graph(CanonicalSpec(4, 2, 16)), 4, default_ladder(4))
    assert q == 2 and len(drawn) == 2
    # vertex 9, of least degree, joins five vertices of the class 0..5 in the
    # least-degree seed, which swaps cannot repair; the seed grown from 9
    # finds its own class 6..11
    drawn.clear()
    g, _ = planted_sparse_graph(16, 4, 2, 0.04, 10)
    q, sets = find_sparse_sets(g, 4, default_ladder(4))
    assert drawn[:2] == [[9, 1, 0, 2, 4, 5], [9, 6, 7, 8, 10, 11]]
    assert q == 1 and sets[0].to_list() == list(range(6, 12))


def _full_table_swaps(g, bits, pool, max_swaps):
    """Reference: every member/outsider gain recomputed on every step."""
    for _ in range(max_swaps):
        best_gain = 0
        best_swap = None
        indeg = {u: (g.adj[u] & bits).bit_count() for u in bits_of(bits)}
        for u in bits_of(bits):
            without_u = bits & ~(1 << u)
            for v in bits_of(pool & ~bits):
                gain = indeg[u] - (g.adj[v] & without_u).bit_count()
                if gain > best_gain:
                    best_gain = gain
                    best_swap = (u, v)
        if best_swap is None:
            break
        u, v = best_swap
        bits = (bits & ~(1 << u)) | (1 << v)
    return bits


def test_sparse_set_swaps_match_the_full_gain_table():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    # (1, 3) and (2, 3) both gain 1: the first member wins
    assert pipeline._improve_sparse_set(path, 0b0111, 0b1111, 16) == 0b1101
    # for member 0, outsider 1 (one inside neighbour, adjacent to 0)
    # ties with outsider 2 (none inside, not adjacent): the lower wins
    fork = Graph.from_edges(4, [(0, 1), (0, 3)])
    assert pipeline._improve_sparse_set(fork, 0b1001, 0b1111, 16) == 0b1010
    assert pipeline._improve_sparse_set(path, 0b0111, 0b0111, 16) == 0b0111  # no outsider
    assert pipeline._improve_sparse_set(path, 0b0111, 0b0011, 16) == 0b0111
    rng = random.Random(20061)
    for _ in range(600):
        n = rng.randint(2, 40)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        pool = rng.getrandbits(n) | rng.getrandbits(n)
        bits = rng.getrandbits(n) & (pool if rng.random() < 0.8 else (1 << n) - 1)
        cap = rng.randint(0, 4 * n)
        want = _full_table_swaps(g, bits, pool, cap)
        assert pipeline._improve_sparse_set(g, bits, pool, cap) == want


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
    rows, j_classes = build_auxiliary(g, [part[0]], b1pack, 4)
    # each copy is merged into its least vertex's row; the host's order is kept
    assert len(rows) == 16
    heads = [cp.vertices[0] for cp in b1pack.copies]
    assert j_classes == Partition.from_lists([part[0], heads], 16)
    # complete host: every sparse vertex joined to every copy vertex
    for a in range(6):
        for x in heads:
            assert (rows[x] >> a) & 1
    # drop one host edge into the first copy: that auxiliary edge must vanish
    target = b1pack.copies[0].vertices[-1]
    g2 = g.drop_edges([(0, target)])
    rows2, _ = build_auxiliary(g2, [part[0]], b1pack, 4)
    assert not rows2[heads[0]] & 1
    assert rows2[heads[1]] & 1


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


@pytest.mark.parametrize("r,q,n", [(5, 1, 15), (6, 1, 24), (6, 2, 24), (7, 2, 35)])
def test_pipeline_expands_remainder_copies_with_kr_minus_components(r, q, n):
    # q < r - 2: each remainder copy holds r - q - 2 >= 1 clique-minus-an-edge
    # components, so expansion splits blocks with remainder large parts
    g = canonical_graph(CanonicalSpec(r, q, n))
    perm = list(range(n))
    random.Random(n + q).shuffle(perm)
    g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
    res = run_pipeline(g, r)
    assert res.decision and res.path == "pipeline"
    assert verify_packing(kr_minus(r), g, res.packing, require_perfect=True)


@pytest.mark.parametrize("r", [4, 5, 6, 7])
def test_expand_packing_keeps_each_copy_within_one_remainder_component(r):
    # one bottle block whose remainder part carries only the remainder
    # pattern's own edges: every expanded copy must take its remainder
    # vertices from a single component of the pattern
    for q in range(1, r - 1):
        pattern = remainder_pattern(r, q)
        m, n = pattern.n, pattern.n + q * (r - 1)
        sparse = [range(m + i * (r - 1), m + (i + 1) * (r - 1)) for i in range(q)]
        edges = list(pattern.edges())
        edges += [(u, v) for part in sparse for u in part for v in range(n) if v not in part]
        g = Graph.from_edges(n, edges)
        b1pack = Packing((Copy(tuple(range(m)), tuple(range(m))),), n)
        classes = [VertexSet.from_iterable(part, n) for part in sparse]
        rows, j_classes = build_auxiliary(g, classes, b1pack, r)
        jpack = pack_apex_multipartite(rows, j_classes, q, r - 1)
        copies = expand_packing(j_classes, jpack, b1pack, r, q)
        assert verify_packing(kr_minus(r), g, Packing(tuple(copies), n), require_perfect=True)


def test_pipeline_answers_a_thousand_vertex_host_within_budget():
    g, _ = noisy_canonical(CanonicalSpec(4, 2, 1000), 12345, planted_exceptional=1)
    ladder = TauLadder((Fraction(1, 10000), Fraction(1, 100)))
    res = run_pipeline(g, 4, PipelineConfig(ladder=ladder, budget_secs=5.0))
    assert res.path == "pipeline"
    assert res.decision
    assert verify_packing(kr_minus(4), g, res.packing)


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


@pytest.mark.parametrize(
    "entry",
    [
        lambda g: find_perfect_packing(kr_minus(5), g, float("nan")),
        lambda g: max_packing_size(kr_minus(5), g, float("nan")),
        lambda g: run_pipeline(g, 5, PipelineConfig(budget_secs=float("nan"))),
    ],
    ids=["find_perfect_packing", "max_packing_size", "run_pipeline"],
)
@pytest.mark.parametrize("n", [35, 3], ids=["searched", "decided-at-once"])
def test_a_nan_budget_is_a_bad_parameter(entry, n):
    # no deadline passes a NaN one, so the solver read it as no budget;
    # it is refused before any answer, even one that needs no search
    with pytest.raises(BadParameter):
        entry(random_graph(n, 0.8, 5))


def test_negative_and_infinite_budgets_keep_their_meaning():
    g = kr_minus_extremal(4, 3)
    with pytest.raises(Timeout):
        find_perfect_packing(kr_minus(4), g, -1.0)
    assert find_perfect_packing(kr_minus(4), g, float("inf")) is None
    assert run_pipeline(g, 4, PipelineConfig(budget_secs=float("inf"))).decision is False


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


def test_pipeline_budget_bounds_sparse_set_detection():
    g, _ = noisy_canonical(CanonicalSpec(4, 2, 2000), 12345, planted_exceptional=1)
    ladder = TauLadder((Fraction(1, 10000), Fraction(1, 100)))
    t0 = time.monotonic()
    with pytest.raises(Timeout) as info:
        run_pipeline(g, 4, PipelineConfig(ladder=ladder, budget_secs=0.05))
    assert time.monotonic() - t0 < 0.25
    assert info.value.stages[-1] == {"stage": "sparse-sets", "result": "timeout"}


def test_pipeline_budget_reaches_the_hall_packer(monkeypatch):
    # q = r - 2: the route runs the Hall packer, which gets the run's deadline
    # and whose Timeout keeps the stage trace
    deadlines = []

    def star_pack_out_of_time(rows, big, small, r, deadline=None):
        deadlines.append(deadline)
        raise Timeout("budget exhausted packing stars")

    monkeypatch.setattr(hall, "star_pack", star_pack_out_of_time)
    t0 = time.monotonic()
    with pytest.raises(Timeout) as info:
        run_pipeline(canonical_graph(CanonicalSpec(4, 2, 240)), 4, PipelineConfig(budget_secs=60.0))
    assert len(deadlines) == 1 and t0 < deadlines[0] <= time.monotonic() + 60.0
    assert info.value.stages[-1] == {"stage": "auxiliary-pack", "result": "timeout"}


def test_hall_back_end_on_a_two_thousand_vertex_core_is_fast():
    # the route's inputs to build_auxiliary are computed outside the timed part
    g, _ = noisy_canonical(CanonicalSpec(4, 2, 2000), 12345, planted_exceptional=1)
    ladder = TauLadder((Fraction(1, 10000), Fraction(1, 100)))
    q, sparse_sets = find_sparse_sets(g, 4, ladder)
    core = pipeline.tidy(g, sparse_sets, 4, ladder.tau_for(q)).partition_star
    b1pack = pack_remainder_class(g, core[q], 4, q)
    t0 = time.monotonic()
    rows, classes = build_auxiliary(g, [core[i] for i in range(q)], b1pack, 4)
    jpack = pack_apex_multipartite(rows, classes, q, 3)
    assert time.monotonic() - t0 < 0.1
    assert isinstance(jpack, Packing) and len(jpack.copies) == len(b1pack.copies)


def test_pipeline_final_check_catches_an_invalid_expanded_copy(monkeypatch):
    # expansion does not check its copies: a copy on a non-edge is caught by
    # run_pipeline's check of the whole packing
    real = pipeline.split_bottle_block
    g = canonical_graph(CanonicalSpec(4, 2, 16))
    bad: list[Copy] = []

    def rotate_the_first_copy(parts, small):
        first, *rest = real(parts, small)
        if not bad:
            bad.append(Copy(first.vertices, first.embedding[1:] + first.embedding[:1]))
            first = bad[0]
        return [first, *rest]

    monkeypatch.setattr(pipeline, "split_bottle_block", rotate_the_first_copy)
    with pytest.raises(InternalError):
        run_pipeline(g, 4)
    assert bad and not verify_packing(kr_minus(4), g, Packing(tuple(bad), g.n))


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
    with pytest.raises(BadParameter):
        threshold_table(3, 12)


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
    rows, j_classes = build_auxiliary(g, [part[0]], b1pack, 4)
    for v in part[0]:
        host_misses = sum(1 for w in part[1] if not g.has_edge(v, w))
        j_misses = sum(1 for x in j_classes[1] if not (rows[x] >> v) & 1)
        assert j_misses <= host_misses
