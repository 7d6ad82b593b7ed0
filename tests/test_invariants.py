from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfactor.constructions import (
    CanonicalSpec,
    canonical_graph,
    kr_minus,
    kr_minus_extremal,
    kr_minus_threshold,
    remainder_pattern,
)
from hfactor.errors import PatternTooLarge
from hfactor.generators import random_graph
from hfactor.graphs import Graph, complete_graph, complete_multipartite, empty_graph
from hfactor.invariants import (
    chromatic_number,
    colouring_profile,
    critical_chromatic_number,
    hcf_report,
    is_complete_multipartite,
    threshold_coefficient,
)
from hfactor.oracles import brute_force_profile


def test_chromatic_number_basics():
    assert chromatic_number(kr_minus(4)) == 3
    assert chromatic_number(empty_graph(5)) == 1
    assert chromatic_number(complete_graph(6)) == 6


def test_chromatic_number_beyond_the_profile_cap():
    assert chromatic_number(kr_minus_extremal(6, 10)) == 5  # n = 60
    assert chromatic_number(canonical_graph(CanonicalSpec(5, 3, 60))) == 15


@pytest.mark.parametrize("n", [1001, 5001])
def test_chromatic_number_of_long_odd_cycles(n):
    # the colouring search runs on an explicit stack, so depth n is fine
    cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    assert chromatic_number(cycle) == 3


def test_colouring_profile_forced_classes():
    prof = colouring_profile(kr_minus(4))
    assert (prof.chi, prof.sigma) == (3, 1)
    assert prof.size_multisets == frozenset({(1, 1, 2)})

    prof_p3 = colouring_profile(kr_minus(3))
    assert (prof_p3.chi, prof_p3.sigma) == (2, 1)
    assert prof_p3.size_multisets == frozenset({(1, 2)})

    prof_k3 = colouring_profile(complete_graph(3))
    assert prof_k3.size_multisets == frozenset({(1, 1, 1)})


def test_profile_cap():
    with pytest.raises(PatternTooLarge):
        colouring_profile(empty_graph(21))


def test_critical_chromatic_number_values():
    assert critical_chromatic_number(kr_minus(4)) == Fraction(8, 3)
    assert critical_chromatic_number(kr_minus(5)) == Fraction(15, 4)
    assert critical_chromatic_number(complete_graph(3)) == 3


@pytest.mark.parametrize("r", range(4, 9))
def test_critical_chromatic_closed_form(r):
    assert critical_chromatic_number(kr_minus(r)) == Fraction(r * (r - 2), r - 1)
    assert kr_minus_threshold(r) == threshold_coefficient(kr_minus(r))


def test_hcf_report_cases():
    rep = hcf_report(kr_minus(4))
    assert rep.d_set == frozenset({0, 1})
    assert rep.hcf_chi == 1
    assert rep.hcf_is_one is True

    rep_p3 = hcf_report(kr_minus(3))
    assert rep_p3.d_set == frozenset({1})
    assert (rep_p3.hcf_chi, rep_p3.hcf_c) == (1, 3)
    assert rep_p3.hcf_is_one is False  # connected bipartite: component gcd 3

    rep_k3 = hcf_report(complete_graph(3))
    assert rep_k3.d_set == frozenset({0})
    assert rep_k3.hcf_chi == math.inf
    assert rep_k3.hcf_is_one is False


def test_threshold_coefficient_values():
    assert threshold_coefficient(kr_minus(4)) == Fraction(5, 8)
    assert threshold_coefficient(kr_minus(5)) == Fraction(11, 15)
    assert threshold_coefficient(complete_graph(4)) == Fraction(3, 4)


def test_remainder_patterns_have_hcf_one():
    # matters only below q = r-2, where the pattern still has edges;
    # larger (r, q) cross the enumeration cap and are out of toolkit scope
    for r in range(4, 9):
        for q in range(1, r - 2):
            pattern = remainder_pattern(r, q)
            if pattern.n <= 20:
                assert hcf_report(pattern).hcf_is_one


def _relabel(g: Graph, perm: list[int]) -> Graph:
    adj = [0] * g.n
    for u in range(g.n):
        for v in range(g.n):
            if g.has_edge(u, v):
                adj[perm[u]] |= 1 << perm[v]
    return Graph(g.n, adj)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_hcf_report_invariant_under_relabelling(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(2, 9), 0.5, seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert hcf_report(g) == hcf_report(_relabel(g, perm))


@given(st.integers(0, 10**6), st.integers(2, 9))
@settings(max_examples=40, deadline=None)
def test_profile_invariants(seed, n):
    g = random_graph(n, 0.45, seed)
    prof = colouring_profile(g)
    assert prof.sigma * prof.chi <= g.n
    for ms in prof.size_multisets:
        assert sum(ms) == g.n and len(ms) == prof.chi
    if prof.chi >= 2:
        chi_cr = critical_chromatic_number(g)
        assert prof.chi - 1 < chi_cr <= prof.chi
        balanced = prof.sigma * prof.chi == g.n
        assert (chi_cr == prof.chi) == balanced


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_profile_matches_brute_force(seed):
    g = random_graph(2 + seed % 6, 0.5, seed)
    fast = colouring_profile(g)
    slow = brute_force_profile(g)
    assert chromatic_number(g) == slow.chi
    assert (fast.chi, fast.sigma, fast.size_multisets) == (
        slow.chi,
        slow.sigma,
        slow.size_multisets,
    )


def test_is_complete_multipartite():
    assert is_complete_multipartite(complete_multipartite([1, 3, 3])) == [1, 3, 3]
    assert is_complete_multipartite(complete_graph(4)) == [1, 1, 1, 1]
    assert is_complete_multipartite(kr_minus(4)) == [2, 1, 1]
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert is_complete_multipartite(path4) is None
