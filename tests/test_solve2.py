"""The polynomial 2-dispersion algorithm and its minimum-surplus subproblem."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_connected_graphs,
    brute_is_dispersed,
    CutInstance,
    brute_min_surplus,
    canonical_witness,
    decomposition_views,
    matching_number,
    min_surplus,
    midpoint,
    random_connected_graph,
    surplus,
    validate_canonical,
    vertex_point,
    witness_of,
    witness_points,
)

from deltadisp import (
    Graph,
    InternalConsistencyError,
    brute_disp,
    disp,
    edmonds_gallai,
)
from deltadisp import solve2

TWO = Fraction(2)

K2 = Graph(2, ((0, 1),))
P3 = Graph(3, ((0, 1), (1, 2)))
C5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
STAR = Graph(4, ((0, 1), (0, 2), (0, 3)))


def random_cut_instance(rng, max_side=6):
    left = frozenset(range(rng.randint(0, max_side)))
    right = frozenset(range(100, 100 + rng.randint(0, max_side)))
    arcs = frozenset(
        (x, y) for x in left for y in right if rng.random() < rng.uniform(0.1, 0.9)
    )
    return CutInstance(left, right, arcs)


class TestMinSurplus:
    def test_empty_left(self):
        assert min_surplus(CutInstance(frozenset(), frozenset({9}), frozenset())) == (
            0,
            frozenset(),
        )

    def test_star_data(self):
        inst = CutInstance(
            frozenset({1, 2, 3}),
            frozenset({0}),
            frozenset({(1, 0), (2, 0), (3, 0)}),
        )
        assert min_surplus(inst) == (-2, frozenset({1, 2, 3}))

    def test_path_data(self):
        inst = CutInstance(
            frozenset({0, 2}), frozenset({1}), frozenset({(0, 1), (2, 1)})
        )
        assert min_surplus(inst) == (-1, frozenset({0, 2}))

    def test_never_positive_and_matches_brute(self):
        rng = random.Random(6)
        small = [random_cut_instance(rng) for _ in range(150)]
        larger = [random_cut_instance(rng, max_side=10) for _ in range(150)]
        for inst in small + larger:
            value, chosen = min_surplus(inst)
            assert value <= 0
            assert value == surplus(inst, chosen)
            assert value == brute_min_surplus(inst)

    def test_recheck_catches_a_wrong_matching(self, monkeypatch):
        # B is one left node joined to one right node: an engine answer
        # with no matched edge puts the deficiency at -1, while the empty
        # set of missed left nodes has surplus 0
        assert solve2._min_surplus([[1], [0]], 1) == (0, [])
        unmatched = ([-1, -1], [False, False])
        monkeypatch.setattr(solve2, "maximum_matching", lambda adjacency: unmatched)
        with pytest.raises(InternalConsistencyError, match="does not match its minimizer"):
            solve2._min_surplus([[1], [0]], 1)


@st.composite
def cut_instances(draw):
    nl = draw(st.integers(0, 5))
    nr = draw(st.integers(0, 5))
    left = frozenset(range(nl))
    right = frozenset(range(100, 100 + nr))
    arcs = []
    for x in sorted(left):
        for y in sorted(right):
            if draw(st.booleans()):
                arcs.append((x, y))
    return CutInstance(left, right, frozenset(arcs))


@settings(max_examples=100, derandomize=True)
@given(data=st.data(), inst=cut_instances())
def test_surplus_is_submodular(data, inst):
    members = sorted(inst.left)
    a = frozenset(data.draw(st.sets(st.sampled_from(members)))) if members else frozenset()
    b = frozenset(data.draw(st.sets(st.sampled_from(members)))) if members else frozenset()
    assert surplus(inst, a) + surplus(inst, b) >= surplus(inst, a | b) + surplus(
        inst, a & b
    )


class TestDisp2:
    @pytest.mark.parametrize(
        "g,value",
        [(K2, 1), (STAR, 3), (C5, 2), (P3, 2)],
    )
    def test_known_values(self, g, value):
        assert disp(g, TWO)[0] == value

    def test_single_vertex(self):
        assert solve2.disp2(Graph(1, ()), 1) == (1, (2, [0], []))

    def test_matches_oracle_small_exhaustive(self):
        for n in range(1, 5):
            for g in all_connected_graphs(n):
                assert disp(g, TWO)[0] == brute_disp(g, Fraction(2))[0]

    def test_matches_oracle_random(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 8))
            assert disp(g, TWO)[0] == brute_disp(g, Fraction(2))[0]

    def test_lower_bound_matching_number(self):
        rng = random.Random(8)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(2, 11), rng.randint(0, 10))
            assert disp(g, TWO)[0] >= matching_number(g)

    def test_perfect_matching_graphs_hit_matching_number(self):
        rng = random.Random(9)
        seen = 0
        for _ in range(200):
            g = random_connected_graph(rng, rng.choice([2, 4, 6, 8]), rng.randint(0, 8))
            dec = decomposition_views(edmonds_gallai(g))
            if dec.remainder == frozenset(range(g.vertex_count)):
                assert disp(g, TWO)[0] == matching_number(g)
                seen += 1
        assert seen > 10

    def test_factor_critical_graphs_hit_matching_number(self):
        rng = random.Random(10)
        seen = 0
        for _ in range(200):
            g = random_connected_graph(rng, rng.choice([3, 5, 7, 9]), rng.randint(1, 9))
            dec = decomposition_views(edmonds_gallai(g))
            if (
                dec.inessential == frozenset(range(g.vertex_count))
                and len(dec.odd_components) == 1
                and g.vertex_count >= 3
            ):
                assert disp(g, TWO)[0] == matching_number(g)
                seen += 1
        assert seen > 10

    def test_witness_is_dispersed_and_canonical(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 8))
            value, ws = disp(g, TWO)
            assert len(ws) == value
            assert brute_is_dispersed(g, witness_points(ws), Fraction(2))
            _, vertices, mids = canonical_witness(g)
            assert validate_canonical(g, vertices, mids, edmonds_gallai(g))

    def test_disp_witness_is_the_canonical_witness(self):
        # disp(g, 2) places exactly disp2's vertex points and midpoints
        rng = random.Random(12)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(1, 10), rng.randint(0, 8))
            value, vertices, mids = canonical_witness(g)
            canonical = {vertex_point(g, v) for v in vertices} | {midpoint(g, e) for e in mids}
            assert disp(g, TWO) == (value, witness_of(g, canonical, TWO))
            assert len(canonical) == value


class TestValidateCanonical:
    def test_star_witness_valid(self):
        _, vertices, mids = canonical_witness(STAR)
        assert validate_canonical(STAR, vertices, mids, edmonds_gallai(STAR))

    def test_extra_separator_vertex_point_rejected(self):
        _, vertices, mids = canonical_witness(STAR)
        assert not validate_canonical(STAR, vertices | {0}, mids, edmonds_gallai(STAR))

    def test_k2_witness_valid(self):
        _, vertices, mids = canonical_witness(K2)
        assert validate_canonical(K2, vertices, mids, edmonds_gallai(K2))
