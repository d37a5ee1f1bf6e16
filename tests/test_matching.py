"""Blossom matching and the maximum-matching decomposition."""

import random
from time import perf_counter

import pytest
from helpers import (
    all_connected_graphs,
    brute_factor_critical,
    brute_inessential,
    brute_matching_number,
    matching_and_inessential,
    matching_number,
    maximum_matching,
    random_cactus,
    random_connected_graph,
    random_sparse_graph,
    random_tree,
    reference_edmonds_gallai,
    reference_matching_and_inessential,
    triangle_chain,
)

from deltadisp import Graph, disp, edmonds_gallai, matching

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
            for e in maximum_matching(g):
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


class TestForest:
    def test_matches_reference_engine(self):
        rng = random.Random(8)
        families = (
            lambda n: random_tree(rng, n),
            lambda n: random_sparse_graph(rng, n, n // 3),
            lambda n: random_cactus(rng, n),
            triangle_chain,
        )
        graphs = [families[case % 4](rng.randint(2, 120)) for case in range(1600)]
        # a few large blossom-heavy graphs, where contractions nest deeply
        graphs += [random_cactus(rng, n) for n in (1_000, 2_000, 3_000)]
        graphs += [triangle_chain(n) for n in (1_001, 2_000, 3_001)]
        mismatches = []
        for g in graphs:
            mate, inessential = matching_and_inessential(g.adjacency)
            ref_mate, ref_inessential = reference_matching_and_inessential(g.adjacency)
            for v, u in enumerate(mate):
                assert u == -1 or (mate[u] == v and g.edge_index(v, u) is not None)
            size = sum(1 for v, u in enumerate(mate) if v < u)
            ref_size = sum(1 for v, u in enumerate(ref_mate) if v < u)
            if size != ref_size or inessential != ref_inessential:
                mismatches.append(g)
        assert mismatches == []

    @pytest.mark.parametrize(
        "edges",
        [
            ((0, 11), (0, 12), (1, 4), (1, 5), (1, 6), (2, 6), (2, 8), (3, 10), (3, 11), (4, 9),
             (4, 11), (5, 10), (6, 7), (6, 8), (7, 11), (8, 9)),
            ((0, 3), (0, 7), (1, 2), (1, 3), (1, 11), (2, 4), (3, 11), (3, 12), (5, 7), (5, 9),
             (6, 8), (6, 9), (7, 10), (8, 10), (10, 12)),
            ((0, 5), (0, 10), (1, 2), (1, 11), (2, 10), (3, 4), (3, 12), (4, 6), (4, 10), (5, 12),
             (6, 8), (7, 8), (7, 9), (8, 9), (8, 11)),
        ],
    )
    def test_blossom_merged_into_a_larger_one_takes_its_base(self, edges):
        # a blossom hangs below a single-vertex base and is larger than it,
        # so the merged blossom keeps the larger one's id with a new base
        # vertex; a later climb through it must leave by that base
        g = Graph(13, edges)
        mate, inessential = matching_and_inessential(g.adjacency)
        assert inessential == reference_matching_and_inessential(g.adjacency)[1]
        assert sum(u > v for v, u in enumerate(mate)) == brute_matching_number(g)

    @pytest.mark.parametrize("kind", ["tree", "sparse", "cactus"])
    def test_phases_stay_few(self, monkeypatch, kind):
        rng = random.Random(9)
        n = 10_000
        if kind == "tree":
            g = random_tree(rng, n)
        elif kind == "sparse":
            g = random_sparse_graph(rng, n, n // 3)
        else:
            g = random_cactus(rng, n)
        calls = []
        search = matching._search

        def counted(*args):
            calls.append(1)
            return search(*args)

        monkeypatch.setattr(matching, "_search", counted)
        matching_and_inessential(g.adjacency)
        assert len(calls) <= 20

    def test_blossom_chain_scales(self):
        # 20,000 triangles in a row: every contraction used to relabel and
        # scan all n vertices, which took half a minute here
        g = triangle_chain(40_001)
        start = perf_counter()
        value, _ = disp(g, 2)
        assert value == 20_000
        assert perf_counter() - start < 10


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
            for v in dec.remainder:
                assert dec.mate[v] in dec.remainder
            for comp in dec.odd_components:
                inside = sum(1 for v in comp if dec.mate[v] in comp)
                assert inside == len(comp) - 1


    def test_views_match_eager_reference(self):
        rng = random.Random(13)
        families = (
            lambda n: random_tree(rng, n),
            lambda n: random_sparse_graph(rng, n, n // 3),
            lambda n: random_cactus(rng, n),
            triangle_chain,
        )
        fields = ("inessential", "separator", "remainder", "singletons", "odd_components",
                  "partner", "mate")
        seen = dict.fromkeys(fields, 0)
        mismatches = []
        for case in range(320):
            g = families[case % 4](rng.randint(1, 90))
            dec, ref = edmonds_gallai(g), reference_edmonds_gallai(g)
            for name in fields:
                seen[name] += bool(getattr(ref, name))
                if getattr(dec, name) != getattr(ref, name):
                    mismatches.append((g, name))
        assert mismatches == []
        # every field is non-empty on some graph, odd components included
        assert min(seen.values()) > 0, seen


class TestNearPerfectMatching:
    def test_factor_critical_components(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 7))
            dec = edmonds_gallai(g)
            for comp in dec.odd_components:
                assert brute_factor_critical(g, comp)
