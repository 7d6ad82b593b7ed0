"""Seeded corpora for the benchmark's workloads, with their answer checks.

Each builder takes the program's modules and a seed and returns a
shuffled list of Instances. An instance calls hfactor's public API
through its module attribute at call time, so the tracer's wrappers
are seen, and checks the answer it gets back. The same seed gives the
same corpus. Every instance is sized well inside its budget and inside
memory, because budgets are not honoured during copy enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

BUDGET_S = 20.0


@dataclass
class Instance:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right


def packing_error(hf: SimpleNamespace, h, g, packing) -> str | None:
    """Why a returned packing is not a perfect H-packing of g, or None.

    Runs the program's own verify_packing and an independent check that
    reads only the copies' embeddings and the two adjacency lists.
    """
    if packing is None:
        return "no packing returned"
    if not hf.solver.verify_packing(h, g, packing, require_perfect=True):
        return "verify_packing rejects the packing"
    covered: set[int] = set()
    for copy in packing.copies:
        emb = copy.embedding
        if len(emb) != h.n or len(set(emb)) != h.n or covered.intersection(emb):
            return "copies overlap or have the wrong arity"
        covered.update(emb)
        if any(not g.has_edge(emb[u], emb[v]) for u, v in h.edges()):
            return "a pattern edge lands on a non-edge"
    if covered != set(range(g.n)):
        return "the packing does not cover the host"
    return None


def relabel(hf: SimpleNamespace, g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return hf.graphs.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# ---------------------------------------------------------------------------
# direct-dense: a planted H-factor topped up with random edges to density
# exactly 1/2, so a packing exists. A fixed edge count, unlike G(n, p),
# keeps the number of candidate copies, and so the time, steady across seeds.

DENSE_DENSITY = 0.5
# Weights put the median inside the group of K4- n=32 and the equally fast
# K5- n=25 (25-58% of the mix) and the 90th percentile inside the K5- n=30
# group (75-100%), never on a boundary between two groups.
DENSE_MIX = [
    ("K4-", 24), ("K4-", 28), ("K122", 15), ("K5-", 25),
    ("K4-", 32), ("K4-", 32), ("K4-", 32),
    ("K4-", 36), ("K122", 20),
    ("K5-", 30), ("K5-", 30), ("K5-", 30),
]
DENSE_REPEATS = 10


def _dense_pattern(hf: SimpleNamespace, name: str):
    if name == "K122":  # not dense, so the general embedding path runs
        return hf.graphs.complete_multipartite([1, 2, 2])
    return hf.constructions.kr_minus(int(name[1]))


def planted_factor_graph(hf: SimpleNamespace, h, n: int, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    planted = {
        tuple(sorted((perm[b + u], perm[b + v]))) for b in range(0, n, h.n) for u, v in h.edges()
    }
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in planted]
    m = round(DENSE_DENSITY * n * (n - 1) / 2)
    return hf.graphs.Graph.from_edges(n, sorted(planted) + rng.sample(others, m - len(planted)))


def direct_dense(hf: SimpleNamespace, rng: random.Random) -> list[Instance]:
    out = []
    for name, n in DENSE_MIX * DENSE_REPEATS:
        h = _dense_pattern(hf, name)
        g = planted_factor_graph(hf, h, n, rng)
        out.append(
            Instance(
                f"{name} n={n}",
                lambda h=h, g=g: hf.solver.find_perfect_packing(h, g, BUDGET_S),
                lambda p, h=h, g=g: packing_error(hf, h, g, p),
            )
        )
    return out


# ---------------------------------------------------------------------------
# maxpack-blockers: relabelled K_r^- blockers, whose maximum is k - 1.

# Mostly r = 4, k = 6..8, where search dominates. Weights put the median
# in the middle of the r = 4, k = 6 group (25-75% of the mix) and the 90th
# percentile in the middle of the r = 5, k = 5 group (83-96%), whose node
# counts vary least under relabelling; never on a boundary between groups.
BLOCKER_MIX = (
    [(4, 5)] * 3 + [(6, 3)] + [(5, 4)] * 2 + [(4, 6)] * 12 + [(4, 7)] * 2 + [(5, 5)] * 3 + [(4, 8)]
)
BLOCKER_REPEATS = 4


def maxpack_blockers(hf: SimpleNamespace, rng: random.Random) -> list[Instance]:
    out = []
    for r, k in BLOCKER_MIX * BLOCKER_REPEATS:
        h = hf.constructions.kr_minus(r)
        g = relabel(hf, hf.constructions.kr_minus_extremal(r, k), rng)
        out.append(
            Instance(
                f"r={r} k={k}",
                lambda h=h, g=g: hf.solver.max_packing_size(h, g, BUDGET_S),
                lambda size, k=k: None if size == k - 1 else f"maximum {size}, expected {k - 1}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# pipeline-structured: noisy canonical hosts with q = r - 2 on a calibrated
# ladder, so every instance takes the structural route.

# (r, n, weight): each weight counts hosts with 0, 1 and 2 planted
# exceptional vertices. Weights put the median among the r = 5, n = 195
# and r = 4, n = 192 groups, which take about the same time (15-65% of
# the mix), and the 90th percentile in the middle of the r = 4, n = 288
# group (80-100%).
# Every sparse class holds at least 6 noise edges. Tidy finds the edges
# that two exceptional vertices aimed at one class need by a greedy
# matching; with the 3 noise edges of r = 4, n = 96 or r = 5, n = 150 it
# misses a matching that exists on about 1 host in 200 and 1 in 1000,
# and the direct solver it falls back to cannot finish at those sizes.
STRUCTURED_MIX = [(4, 144, 3), (5, 195, 4), (4, 192, 6), (6, 240, 2), (5, 300, 1), (4, 288, 4)]
STRUCTURED_PLANTED = (0, 1, 2)


def calibrated_ladder(hf: SimpleNamespace, r: int):
    """tau_q = 10^(2(q - r + 1)): 1/100 at the top, as the noise generator assumes."""
    return hf.pipeline.TauLadder(
        tuple(Fraction(1, 100 ** (r - 1 - q)) for q in range(1, r - 1))
    )


def _pipeline_instance(hf: SimpleNamespace, label: str, g, r: int, config, expected) -> Instance:
    """`expected` is the known decision, or None to ask the direct solver."""
    h = hf.constructions.kr_minus(r)
    oracle: list[bool] = []

    def check(res) -> str | None:
        if res.packing is not None:
            if not res.decision:
                return "a packing returned with decision False"
            return packing_error(hf, h, g, res.packing)
        if res.decision:
            return "decision True without a packing"
        if expected is not None:
            truth = expected
        else:
            if not oracle:
                oracle.append(hf.solver.find_perfect_packing(h, g, BUDGET_S) is not None)
            truth = oracle[0]
        return None if res.decision == truth else f"decision {res.decision}, expected {truth}"

    return Instance(label, lambda: hf.pipeline.run_pipeline(g, r, config), check)


def pipeline_structured(hf: SimpleNamespace, rng: random.Random) -> list[Instance]:
    out = []
    for r, n, weight in STRUCTURED_MIX:
        config = hf.pipeline.PipelineConfig(ladder=calibrated_ladder(hf, r), budget_secs=BUDGET_S)
        spec = hf.constructions.CanonicalSpec(r, r - 2, n)
        for _ in range(weight):
            for planted in STRUCTURED_PLANTED:
                g, _ = hf.generators.noisy_canonical(spec, _seed(rng), planted_exceptional=planted)
                label = f"r={r} n={n} planted={planted}"
                out.append(_pipeline_instance(hf, label, g, r, config, True))
    return out


# ---------------------------------------------------------------------------
# pipeline-mixed: the families of acceptance criterion 9 (n <= 24) on the
# default ladder, so most instances go direct or fall back. One draw of the
# families puts the median among few instances, so a corpus holds several.

MIXED_DRAWS = 3


def pipeline_mixed(hf: SimpleNamespace, rng: random.Random) -> list[Instance]:
    config = hf.pipeline.PipelineConfig(budget_secs=BUDGET_S)
    cases = [case for _ in range(MIXED_DRAWS) for case in criterion_9_families(hf, rng)]
    return [_pipeline_instance(hf, label, g, 4, config, truth) for label, g, truth in cases]


def criterion_9_families(hf: SimpleNamespace, rng: random.Random) -> list[tuple]:
    """206 (label, graph, known decision or None) cases, as criterion 9 draws them."""
    c, gen = hf.constructions, hf.generators
    cases = []
    for k in (2, 3, 4, 5, 6):
        cases.append((f"blocker k={k}", relabel(hf, c.kr_minus_extremal(4, k), rng), False))
    for n in (8, 16, 24):
        for q in (1, 2):
            g = relabel(hf, c.canonical_graph(c.CanonicalSpec(4, q, n)), rng)
            cases.append((f"canonical q={q} n={n}", g, True))
    cases.append(("bottle", relabel(hf, c.bottle_graph(c.kr_minus(4)), rng), True))
    for i in range(70):
        n = (8, 12, 16, 20, 24)[i % 5]
        g = gen.random_graph(n, 0.55 + 0.35 * (i % 4) / 3, _seed(rng))
        cases.append((f"dense n={n}", g, None))
    for i in range(60):
        n = (8, 16, 24)[i % 3]
        g, _ = gen.planted_sparse_graph(n, 4, 1 + i % 2, 0.04, _seed(rng))
        cases.append((f"planted-sparse n={n}", g, None))
    for i in range(40):
        n = (8, 12, 16, 20)[i % 4]
        cases.append((f"sparse n={n}", gen.random_graph(n, 0.3, _seed(rng)), None))
    for i in range(24):
        g = relabel(hf, c.kr_minus_extremal(4, 2 + i % 4), rng)
        extra = gen.random_graph(g.n, 0.08, _seed(rng))
        cases.append((f"perturbed blocker n={g.n}", g.add_edges(list(extra.edges())), None))
    return cases


BUILDERS: dict[str, Callable[[SimpleNamespace, random.Random], list[Instance]]] = {
    "direct-dense": direct_dense,
    "maxpack-blockers": maxpack_blockers,
    "pipeline-structured": pipeline_structured,
    "pipeline-mixed": pipeline_mixed,
}


def build(workload: str, hf: SimpleNamespace, seed: int) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    corpus = BUILDERS[workload](hf, rng)
    rng.shuffle(corpus)
    return corpus
