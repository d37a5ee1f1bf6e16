"""Blossom matching and the maximum-matching decomposition."""

import random

import pytest
from helpers import (
    all_connected_graphs,
    brute_factor_critical,
    brute_inessential,
    brute_matching_number,
    matching_number,
    maximum_matching,
    random_connected_graph,
)

from deltadisp import Graph, edmonds_gallai

K2 = Graph(2, ((0, 1),))
P3 = Graph(3, ((0, 1), (1, 2)))
C3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
C5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
K4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
STAR = Graph(4, ((0, 1), (0, 2), (0, 3)))


class TestMaximumMatching:
    @pytest.mark.parametrize(
        "g,size",
        [(C5, 2), (K2, 1), (STAR, 1), (P3, 1), (K4, 2)],
    )
    def test_known_sizes(self, g, size):
        m = maximum_matching(g)
        assert len(m) == size
        assert matching_number(g) == size

    def test_edges_are_disjoint(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 8))
            covered = set()
            for e in maximum_matching(g).edges:
                u, v = g.edges[e]
                assert u not in covered and v not in covered
                covered.update((u, v))

    def test_exhaustive_up_to_5_vertices(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                assert matching_number(g) == brute_matching_number(g)

    def test_random_against_brute(self):
        rng = random.Random(2)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 10))
            assert matching_number(g) == brute_matching_number(g)

    def test_random_against_brute_larger(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(10, 15), rng.randint(0, 30))
            assert matching_number(g) == brute_matching_number(g)


class TestEdmondsGallai:
    def test_path(self):
        dec = edmonds_gallai(P3)
        assert dec.inessential == {0, 2}
        assert dec.separator == {1}
        assert dec.remainder == frozenset()
        assert dec.singletons == {0, 2}

    def test_k2(self):
        dec = edmonds_gallai(K2)
        assert dec.inessential == frozenset()
        assert dec.separator == frozenset()
        assert dec.remainder == {0, 1}

    def test_triangle(self):
        dec = edmonds_gallai(C3)
        assert dec.inessential == {0, 1, 2}
        assert dec.odd_components == (frozenset({0, 1, 2}),)
        assert dec.separator == frozenset() and dec.remainder == frozenset()

    def test_partner_points_into_distinct_components(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 6))
            dec = edmonds_gallai(g)
            comps = dec.odd_components + tuple(frozenset({s}) for s in dec.singletons)
            owners = []
            for y, x in dec.partner.items():
                assert y in dec.separator and x in dec.inessential
                owner = next(i for i, c in enumerate(comps) if x in c)
                owners.append(owner)
            assert len(owners) == len(set(owners))

    def test_exhaustive_inessential_up_to_5(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                dec = edmonds_gallai(g)
                assert dec.inessential == brute_inessential(g)

    def test_random_inessential_against_brute(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(7, 12)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            assert edmonds_gallai(g).inessential == brute_inessential(g)

    def test_base_matching_structure(self):
        rng = random.Random(4)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 6))
            dec = edmonds_gallai(g)
            cover = dec.base_matching.cover_map(g)
            for v in dec.remainder:
                assert cover.get(v) in dec.remainder
            for comp in dec.odd_components:
                inside = sum(1 for v in comp if cover.get(v) in comp)
                assert inside == len(comp) - 1


class TestNearPerfectMatching:
    def test_factor_critical_components(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 7))
            dec = edmonds_gallai(g)
            for comp in dec.odd_components:
                assert brute_factor_critical(g, comp)
