"""Coefficient equations, gadget construction, and the realized witnesses."""

import math
import random
from fractions import Fraction

import pytest
from helpers import (
    brute_independent_sets,
    cubic_catalogue,
    gadget_chains,
    reference_is_dispersed,
    witness_points,
)

from deltadisp import (
    Graph,
    SizeGuardExceededError,
    bezout_coeffs,
    brute_disp,
    build_gadget,
    format_gadget_map,
    parse_graph,
    predicted_bound,
    witness_from_independent_set,
)
from deltadisp import core

K4 = cubic_catalogue()["k4"]
K33 = cubic_catalogue()["k33"]
CUBE = cubic_catalogue()["cube"]


class TestBezoutCoefficients:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (3, 1, (4, 1, 4, 1)),
            (4, 1, (5, 1, 6, 1)),
            (3, 7, (1, 2, 4, 9)),
        ],
    )
    def test_known_solutions(self, a, b, expected):
        c = bezout_coeffs(a, b)
        assert (c.x1, c.y1, c.x2, c.y2) == expected
        assert c.parity == ("odd" if a % 2 else "even")

    def test_equations_hold_for_random_coprime_pairs(self):
        # every coprime pair with 3 <= a <= 40 and b <= 40, both parities:
        # each x solves k*b*x - k*a*y = r with y >= 1 (k = 2 for x1, 1 for
        # x2), and no smaller x at or above its floor (1 for x1, 3 for x2)
        # has such a y
        checked = 0
        for a in range(3, 41):
            for b in range(1, 41):
                if math.gcd(a, b) != 1:
                    continue
                c = bezout_coeffs(a, b)
                assert c.parity == ("odd" if a % 2 else "even")
                assert c.x1 >= 1 and c.y1 >= 1 and c.x2 >= 3 and c.y2 >= 1
                r1, r2 = (a - 1, 1) if a % 2 else (a - 2, 2)
                assert 2 * b * c.x1 - 2 * a * c.y1 == r1
                assert b * c.x2 - a * c.y2 == r2
                for k, x, r, floor in ((2, c.x1, r1, 1), (1, c.x2, r2, 3)):
                    smaller = [
                        s for s in range(floor, x)
                        if (k * b * s - r) % (k * a) == 0 and k * b * s - r >= k * a
                    ]
                    assert smaller == [], (a, b, k, x, smaller)
                checked += 1
        assert checked == 919

    def test_rejects_small_or_non_coprime(self):
        with pytest.raises(ValueError):
            bezout_coeffs(2, 1)
        with pytest.raises(ValueError):
            bezout_coeffs(6, 3)


class TestBuildGadget:
    def test_k4_sizes(self):
        inst = build_gadget(K4, Fraction(3))
        assert inst.g.vertex_count == 64
        assert inst.g.edge_count == 72

    def test_k4_maps_injective_and_disjoint(self):
        inst = build_gadget(K4, Fraction(3))
        hubs = {left[-1] for left, _, _ in gadget_chains(inst)}
        assert len(hubs) == 6
        assert not hubs & set(range(4))

    def test_k33_edge_count(self):
        inst = build_gadget(K33, Fraction(3))
        assert inst.g.edge_count == 108

    def test_per_edge_structure(self):
        # the chains found by walking the graph are the ones the layout
        # puts in each source edge's block, edge by edge in chain order
        for h in (K4, K33):
            for delta in (Fraction(3), Fraction(5, 2), Fraction(4), Fraction(7, 3)):
                inst = build_gadget(h, delta)
                c = inst.coeffs
                block = 2 * c.x1 + c.x2
                for e, ((u, v), chains) in enumerate(zip(h.edges, gadget_chains(inst))):
                    left, right, cyc = chains
                    assert len(left) == c.x1 + 1 and len(right) == c.x1 + 1
                    assert left[0] == u and right[0] == v
                    assert left[-1] == right[-1] == h.vertex_count + e
                    assert len(cyc) == c.x2 + 1
                    assert cyc[0] == cyc[-1] == h.vertex_count + e
                    walked = [pair for chain in chains for pair in zip(chain, chain[1:])]
                    assert walked == list(inst.g.edges[e * block:(e + 1) * block])

    def test_graph_equals_the_validated_one(self):
        # the gadget's graph is built unchecked: validation must agree with it
        for h in cubic_catalogue().values():
            for delta in (Fraction(3), Fraction(5, 2), Fraction(4, 3), Fraction(5), Fraction(7, 3)):
                g = build_gadget(h, delta).g
                checked = Graph(g.vertex_count, g.edges)
                assert g == checked and g.adjacency == checked.adjacency

    def test_size_guard_before_building(self, monkeypatch):
        # nh + mh*(2*x1 + x2 - 2) vertices, read against the limit at call time
        for delta, size in (("3", 64), ("5/2", 82), ("4", 88), ("9/2", 154)):
            assert build_gadget(K4, Fraction(delta)).g.vertex_count == size
        monkeypatch.setattr(core, "GRID_LIMIT", 63)
        with pytest.raises(SizeGuardExceededError, match="64 points, over the limit of 63"):
            build_gadget(K4, Fraction(3))
        monkeypatch.setattr(core, "GRID_LIMIT", 64)
        assert build_gadget(K4, Fraction(3)).g.vertex_count == 64

    def test_rejects_non_cubic(self):
        path = parse_graph("3 2\n0 1\n1 2")
        with pytest.raises(ValueError):
            build_gadget(path, Fraction(3))

    def test_rejects_small_numerator(self):
        with pytest.raises(ValueError):
            build_gadget(K4, Fraction(2))

    def test_even_numerator_builds(self):
        inst = build_gadget(K4, Fraction(4))
        c = inst.coeffs
        assert c.parity == "even"
        assert inst.g.edge_count == (2 * c.x1 + c.x2) * 6


class TestPredictedBound:
    def test_k4(self):
        inst = build_gadget(K4, Fraction(3))
        assert predicted_bound(inst, 1) == 19
        assert predicted_bound(inst, 0) == 18

    def test_k33(self):
        inst = build_gadget(K33, Fraction(3))
        assert predicted_bound(inst, 3) == 30

    def test_rejects_negative(self):
        inst = build_gadget(K4, Fraction(3))
        with pytest.raises(ValueError):
            predicted_bound(inst, -1)


class TestWitness:
    def test_k4_singleton(self):
        inst = build_gadget(K4, Fraction(3))
        w = witness_from_independent_set(inst, {0})
        assert len(w) == 19
        assert reference_is_dispersed(inst.g, witness_points(w), Fraction(3))

    def test_k4_empty(self):
        inst = build_gadget(K4, Fraction(3))
        assert len(witness_from_independent_set(inst, set())) == 18

    def test_rejects_dependent_set(self):
        inst = build_gadget(K4, Fraction(3))
        with pytest.raises(ValueError):
            witness_from_independent_set(inst, {0, 1})

    def test_rejects_even_numerator(self):
        inst = build_gadget(K4, Fraction(4))
        with pytest.raises(ValueError):
            witness_from_independent_set(inst, {0})

    def test_all_independent_sets_k4(self):
        inst = build_gadget(K4, Fraction(3))
        for ind in brute_independent_sets(K4):
            w = witness_from_independent_set(inst, ind)
            assert len(w) == predicted_bound(inst, len(ind))

    def test_all_independent_sets_k33_fractional_delta(self):
        inst = build_gadget(K33, Fraction(3, 2))
        for ind in brute_independent_sets(K33):
            w = witness_from_independent_set(inst, ind)
            assert len(w) == predicted_bound(inst, len(ind))

    def test_sampled_independent_sets_cube(self):
        inst = build_gadget(CUBE, Fraction(3))
        rng = random.Random(51)
        all_sets = list(brute_independent_sets(CUBE))
        for ind in rng.sample(all_sets, 12):
            w = witness_from_independent_set(inst, ind)
            assert len(w) == predicted_bound(inst, len(ind))


def test_k4_gadget_optimum_matches_predicted_bound():
    # the hard direction, confirmed exhaustively at desk scale
    inst = build_gadget(K4, Fraction(3))
    value, _ = brute_disp(inst.g, Fraction(3), timeout=900)
    assert value == predicted_bound(inst, 1)  # independence number of K4 is 1


def test_k4_even_numerator_gadget_optimum():
    # no constructive witness for even numerators; the optimum is checked
    # purely by exhaustive search
    inst = build_gadget(K4, Fraction(4))
    value, witness = brute_disp(inst.g, Fraction(4), timeout=900)
    assert value == predicted_bound(inst, 1)
    assert reference_is_dispersed(inst.g, witness_points(witness), Fraction(4))


@pytest.mark.parametrize("name,alpha", [("k4", 1), ("k33", 3), ("cube", 4)])
@pytest.mark.parametrize(
    "delta", [Fraction(3), Fraction(4), Fraction(5), Fraction(5, 2), Fraction(7, 2)]
)
def test_gadget_optimum_matches_predicted_bound(name, alpha, delta):
    # the paper's reduction: the gadget's dispersion number is the bound
    # its source graph's independence number alpha predicts
    inst = build_gadget(cubic_catalogue()[name], delta)
    value, witness = brute_disp(inst.g, delta, cap=1000)
    assert value == predicted_bound(inst, alpha)
    assert reference_is_dispersed(inst.g, witness_points(witness), delta)


class TestMapFile:
    def test_format(self):
        inst = build_gadget(K4, Fraction(3))
        lines = format_gadget_map(inst).splitlines()
        assert lines[0] == "v 0 0"
        assert sum(1 for ln in lines if ln.startswith("v ")) == 4
        assert sum(1 for ln in lines if ln.startswith("e ")) == 6
        hubs = [left[-1] for left, _, _ in gadget_chains(inst)]
        for ln in lines:
            kind, src, img = ln.split()
            if kind == "v":
                assert int(src) == int(img) and inst.g.degree(int(img)) == 3
            else:
                assert hubs[int(src)] == int(img)
