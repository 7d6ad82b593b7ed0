"""Acceptance gate: every shipped guarantee, at its stated tolerance.

Each criterion prints one line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from hfactor.constructions import (
    CanonicalSpec,
    apex_multipartite,
    bottle_graph,
    canonical_graph,
    kr_minus,
    kr_minus_extremal,
    multipartite_extremal,
)
from hfactor.generators import (
    hypothesis_deleted_multipartite,
    noisy_canonical,
    planted_sparse_graph,
    random_graph,
)
from hfactor.graphs import Graph, complete_graph, complete_multipartite, min_degree
from hfactor.hall import PackFailure, default_tolerance, pack_apex_multipartite
from hfactor.invariants import critical_chromatic_number, hcf_report, threshold_coefficient
from hfactor.oracles import brute_force_perfect_packing
from hfactor.pipeline import PipelineConfig, run_pipeline
from hfactor.solver import Packing, find_perfect_packing, max_packing_size, verify_packing
from hfactor.tidy import le_power, tidy


def _report(name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {name}: {status} ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok
    assert elapsed < budget, f"criterion {name} exceeded its {budget}s budget"


def test_criterion_1_invariant_formulas():
    t0 = time.monotonic()
    ok = True
    for r in range(4, 9):
        h = kr_minus(r)
        ok &= critical_chromatic_number(h) == Fraction(r * (r - 2), r - 1)
        ok &= threshold_coefficient(h) == 1 - Fraction(r - 1, r * (r - 2))
    _report("1 (threshold formulas)", ok, time.monotonic() - t0, 1.0)


def test_criterion_2_hcf_ledger():
    t0 = time.monotonic()
    ok = all(hcf_report(kr_minus(r)).hcf_is_one for r in range(4, 8))
    ok &= hcf_report(kr_minus(3)).hcf_is_one is False
    ok &= hcf_report(complete_graph(3)).hcf_chi == math.inf
    _report("2 (hcf ledger)", ok, time.monotonic() - t0, 1.0)


def test_criterion_3_blockers_kr_minus():
    t0 = time.monotonic()
    ok = True
    for r, k in [(4, 2), (4, 3), (4, 4), (5, 2)]:
        g = kr_minus_extremal(r, k)
        chi_cr = Fraction(r * (r - 2), r - 1)
        ok &= min_degree(g) == math.ceil((1 - 1 / chi_cr) * g.n) - 1
        ok &= find_perfect_packing(kr_minus(r), g, budget_secs=120) is None
        ok &= max_packing_size(kr_minus(r), g, budget_secs=120) <= k - 1
    _report("3 (tight blockers)", ok, time.monotonic() - t0, 120.0)


def test_criterion_4_blocker_multipartite():
    t0 = time.monotonic()
    h = complete_multipartite([1, 3, 3])
    g = multipartite_extremal(h, 1)
    ok = g.n == 14
    ok &= min_degree(g) == 8
    ok &= (1 - 1 / critical_chromatic_number(h)) * 14 == 8
    ok &= find_perfect_packing(h, g, budget_secs=120) is None
    _report("4 (multipartite blocker)", ok, time.monotonic() - t0, 120.0)


def test_criterion_5_positive_instances():
    t0 = time.monotonic()
    pattern = kr_minus(4)
    hosts = [
        bottle_graph(pattern),
        canonical_graph(CanonicalSpec(4, 1, 8)),
        canonical_graph(CanonicalSpec(4, 1, 16)),
        canonical_graph(CanonicalSpec(4, 2, 16)),
    ]
    ok = True
    for g in hosts:
        direct = find_perfect_packing(pattern, g, budget_secs=60)
        ok &= direct is not None and verify_packing(pattern, g, direct, True)
        res = run_pipeline(g, 4, PipelineConfig(budget_secs=60))
        ok &= res.decision and res.packing is not None
        ok &= verify_packing(pattern, g, res.packing, True)
    _report("5 (positive instances)", ok, time.monotonic() - t0, 60.0)


def test_criterion_6_solver_vs_brute_force():
    t0 = time.monotonic()
    patterns = [complete_graph(3), kr_minus(3), kr_minus(4)]
    checked = 0
    ok = True
    for pi, h in enumerate(patterns):
        for seed in range(170):
            n = 4 + seed % 7
            p = 0.2 + 0.6 * ((seed * 13) % 8) / 7
            g = random_graph(n, p, 10_000 * pi + seed)
            fast = find_perfect_packing(h, g, budget_secs=60) is not None
            ok &= fast == brute_force_perfect_packing(h, g)
            checked += 1
    assert checked >= 500
    _report("6 (solver vs brute force)", ok, time.monotonic() - t0, 600.0)


def test_criterion_7_hall_packer():
    t0 = time.monotonic()
    ok = True
    for q, r, k in [(1, 3, 6), (2, 3, 5), (2, 4, 4)]:
        band = default_tolerance(q, r)
        pattern = apex_multipartite(q, r)
        for seed in range(100):
            g, part = hypothesis_deleted_multipartite(
                [k * r] * q + [k], band / 2, band, seed
            )
            res = pack_apex_multipartite(g.adj, part, q, r)
            ok &= not isinstance(res, PackFailure)
            ok &= verify_packing(pattern, g, res, require_perfect=True)
    _report("7 (hall packer)", ok, time.monotonic() - t0, 120.0)


def test_criterion_8_tidy_postconditions():
    t0 = time.monotonic()
    tau = Fraction(1, 100)
    r = 4
    pattern = kr_minus(r)
    ok = True
    cases = [(CanonicalSpec(4, 1, 80), 1), (CanonicalSpec(4, 2, 96), 2)]
    count = 0
    for spec, q in cases:
        for seed in range(25):
            planted = seed % 3  # up to 2 planted deviants per instance
            g, part = noisy_canonical(spec, seed, planted_exceptional=planted, tau=tau)
            res = tidy(g, list(part.classes[:q]), r, tau)
            n = g.n
            # (i) block divisibility, removed copies partition the complement,
            #     within the tau^(1/3) n removal bound
            ok &= res.n_star % (r * (r - 2)) == 0
            ok &= n - res.n_star == r * len(res.removed)
            ok &= le_power(n - res.n_star, tau, n, 3)
            ok &= verify_packing(pattern, g, Packing(tuple(res.removed), n))
            covered = set()
            for c in res.removed:
                covered.update(c.vertices)
            kept = {v for cl in res.partition_star.classes for v in cl}
            ok &= covered | kept == set(range(n)) and not covered & kept
            # (ii) equal sparse classes at the canonical ratio
            target = (r - 1) * res.n_star // (r * (r - 2))
            ok &= all(len(res.partition_star[i]) == target for i in range(q))
            # (iii) cross adjacency at the tau^(1/5) level
            sizes = [len(c) for c in res.partition_star.classes]
            for i in range(q + 1):
                for j in range(q + 1):
                    if i == j:
                        continue
                    for v in res.partition_star[i]:
                        have = (g.adj[v] & res.partition_star[j].bits).bit_count()
                        ok &= le_power(sizes[j] - have, tau, sizes[j], 5)
            count += 1
    assert count == 50
    _report("8 (tidy postconditions)", ok, time.monotonic() - t0, 300.0)


def test_criterion_9_pipeline_oracle_agreement():
    t0 = time.monotonic()
    pattern = kr_minus(4)
    cases: list[Graph] = []
    for k in (2, 3, 4, 5, 6):
        cases.append(kr_minus_extremal(4, k))
    for n in (8, 16, 24):
        for q in (1, 2):
            cases.append(canonical_graph(CanonicalSpec(4, q, n)))
    cases.append(bottle_graph(pattern))
    for seed in range(70):
        n = [8, 12, 16, 20, 24][seed % 5]
        cases.append(random_graph(n, 0.55 + 0.35 * (seed % 4) / 3, 1000 + seed))
    for seed in range(60):
        n = [8, 16, 24][seed % 3]
        g, _ = planted_sparse_graph(n, 4, 1 + seed % 2, 0.04, 2000 + seed)
        cases.append(g)
    for seed in range(40):
        n = [8, 12, 16, 20][seed % 4]
        cases.append(random_graph(n, 0.3, 3000 + seed))
    for seed in range(24):
        g = kr_minus_extremal(4, 2 + seed % 4)
        extra = random_graph(g.n, 0.08, 4000 + seed)
        cases.append(g.add_edges(list(extra.edges())))
    assert len(cases) >= 200
    ok = True
    for g in cases:
        direct = find_perfect_packing(pattern, g, budget_secs=60)
        res = run_pipeline(g, 4, PipelineConfig(budget_secs=60))
        ok &= res.decision == (direct is not None)
        if direct is not None:
            ok &= verify_packing(pattern, g, direct, require_perfect=True)
        if res.packing is not None:
            ok &= verify_packing(pattern, g, res.packing, require_perfect=True)
    _report(
        f"9 (pipeline/oracle agreement, {len(cases)} instances)",
        ok,
        time.monotonic() - t0,
        1200.0,
    )
