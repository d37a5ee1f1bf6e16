"""Graph parsing, the point metric, subdivision, and dispersion checking."""

import importlib
import pkgutil
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from helpers import (
    brute_is_dispersed,
    connected_graphs_max_edges,
    hop_table,
    midpoint,
    point_distance,
    random_cactus,
    random_connected_graph,
    random_tree,
    reference_is_dispersed,
    vicinity,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import deltadisp
from deltadisp import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    Graph,
    MalformedLineError,
    Point,
    SelfLoopError,
    VertexRangeError,
    WitnessSet,
    format_graph,
    format_witness,
    is_dispersed,
    normalize_point,
    parse_graph,
    parse_witness,
    point_as_vertex,
    subdivide,
    vertex_point,
)
from deltadisp.core import grid_adjacency, hop_ball, integer_tokens

K2 = Graph(2, ((0, 1),))
P3 = Graph(3, ((0, 1), (1, 2)))
C3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
C5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
STAR = Graph(4, ((0, 1), (0, 2), (0, 3)))


class TestParseGraph:
    def test_k2(self):
        g = parse_graph("2 1\n0 1")
        assert g.vertex_count == 2 and g.edges == ((0, 1),)

    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2")
        assert g.edges == ((0, 1), (1, 2), (0, 2))

    def test_star(self):
        g = parse_graph("4 3\n0 1\n0 2\n0 3")
        assert g.vertex_count == 4 and g.edge_count == 3

    def test_malformed_header(self):
        with pytest.raises(MalformedLineError) as err:
            parse_graph("2\n0 1")
        assert err.value.line == 1

    def test_malformed_edge_line(self):
        with pytest.raises(MalformedLineError) as err:
            parse_graph("2 1\n0 1 9")
        assert err.value.line == 2

    def test_missing_edge_line(self):
        with pytest.raises(MalformedLineError):
            parse_graph("3 2\n0 1")

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError) as err:
            parse_graph("2 1\n0 2")
        assert err.value.line == 2

    def test_self_loop(self):
        with pytest.raises(SelfLoopError) as err:
            parse_graph("2 2\n0 1\n1 1")
        assert err.value.line == 3

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError) as err:
            parse_graph("2 2\n0 1\n1 0")
        assert err.value.line == 3

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            parse_graph("4 2\n0 1\n2 3")

    def test_single_vertex(self):
        g = parse_graph("1 0\n")
        assert g.vertex_count == 1 and g.edge_count == 0

    def test_roundtrip(self):
        text = format_graph(C5)
        assert parse_graph(text) == C5

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "+1", "1.0", "0x1", "--1", "-"])
    def test_only_plain_integer_tokens(self, token):
        # int() alone reads "1_0" as 10 and the Arabic-Indic digit one as 1
        star = "11 10\n" + "".join(f"0 {v}\n" for v in range(1, 10))
        with pytest.raises(MalformedLineError) as err:
            parse_graph(star + f"0 {token}\n")
        assert err.value.line == 11
        with pytest.raises(MalformedLineError) as err:
            parse_graph(f"{token} 0\n")
        assert err.value.line == 1
        # a faulty line after plain ones
        with pytest.raises(MalformedLineError) as err:
            parse_graph(f"3 2\n0 1\n1 {token}\n")
        assert err.value.line == 3

    def test_plain_tokens_read_as_before(self):
        assert parse_graph("3 2\n 0\t1 \n1   002\n").edges == ((0, 1), (1, 2))
        # non-ASCII whitespace still separates tokens
        assert parse_graph("3 2\n0\u00a01\n1 2\n").edges == ((0, 1), (1, 2))
        # an edge line after a faulty trailing line still parses in order
        with pytest.raises(MalformedLineError) as err:
            parse_graph("3 2\n0 1\n1 2\n1_0\n")
        assert err.value.line == 4

    def test_negative_ids_reach_the_range_check(self):
        with pytest.raises(VertexRangeError) as err:
            parse_graph("2 1\n0 -1")
        assert err.value.line == 2
        with pytest.raises(VertexRangeError) as err:
            parse_graph("3 2\n0 1\n-2 1\n")
        assert err.value.line == 3


_TOKEN = re.compile("-?[0-9]+")


@given(st.text(alphabet="0123456789-+_ \t.e\u0661\u00b2\u00a0", max_size=12))
def test_integer_tokens_take_exactly_plain_integers(text):
    tokens = text.split()
    if all(_TOKEN.fullmatch(t) for t in tokens):
        assert integer_tokens(text, 1, "integers") == [int(t) for t in tokens]
    else:
        with pytest.raises(MalformedLineError):
            integer_tokens(text, 1, "integers")


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(1, 8))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and draw(st.booleans()):
                edges.append((u, v))
    return Graph(n, tuple(edges))


@settings(max_examples=60, derandomize=True)
@given(g=connected_graphs())
def test_graph_format_roundtrip_property(g):
    assert parse_graph(format_graph(g)) == g


def test_package_has_no_all_pairs_table():
    # the O(n^2) hop table and the point metric over it are test references
    # (tests/helpers.py); no code of the package can build one
    assert not hasattr(Graph, "hop_table")
    modules = [deltadisp] + [
        importlib.import_module(f"deltadisp.{info.name}")
        for info in pkgutil.iter_modules(deltadisp.__path__)
    ]
    assert len(modules) > 5
    assert not [m.__name__ for m in modules if hasattr(m, "point_distance")]


class TestHopDistances:
    def test_k2(self):
        assert hop_table(K2)[0][1] == 1

    def test_path(self):
        assert hop_table(P3)[0][2] == 2

    def test_cycle_shorter_arc(self):
        assert hop_table(C5)[0][2] == 2

    def test_symmetric_with_zero_diagonal(self):
        table = hop_table(C5)
        for u in range(5):
            assert table[u][u] == 0
            for v in range(5):
                assert table[u][v] == table[v][u]

    def test_hop_ball_rings_in_search_order(self):
        # ring k holds the vertices k hops out, in the order a
        # breadth-first search finds them; rings stop at the radius or at
        # the first empty one
        rng = random.Random(19)
        for g in [Graph(1, ()), K2, P3, C5] + [random_cactus(rng, n) for n in (6, 9, 14)]:
            table = hop_table(g)
            for source in range(g.vertex_count):
                for radius in range(5):
                    rings = [(0, [source])]
                    while rings[-1][0] < radius:
                        hops = rings[-1][0] + 1
                        ring = [y for w in rings[-1][1] for y in g.adjacency[w]
                                if table[source][y] == hops]
                        ring = list(dict.fromkeys(ring))
                        if not ring:
                            break
                        rings.append((hops, ring))
                    got = [(hops, list(ring)) for hops, ring in hop_ball(g, source, radius)]
                    assert got == rings, (g, source, radius)


class TestPointDistance:
    def test_identity(self):
        p = Point(0, Fraction(1, 3))
        assert point_distance(C3, p, p) == 0

    def test_two_half_edges_meet_at_vertex(self):
        p = midpoint(P3, 0)
        q = midpoint(P3, 1)
        assert point_distance(P3, p, q) == 1

    def test_triangle_route_through_shared_vertex(self):
        p = Point(0, Fraction(1, 4))   # on (0,1), quarter from 0
        q = Point(2, Fraction(1, 4))   # on (0,2), quarter from 0
        assert point_distance(C3, p, q) == Fraction(1, 2)

    def test_same_edge_direct_beats_wraparound(self):
        p = Point(0, Fraction(0))
        q = Point(0, Fraction(3, 4))
        assert point_distance(C3, p, q) == Fraction(3, 4)

    def test_invalid_edge_index(self):
        with pytest.raises(ValueError):
            point_distance(K2, Point(5, Fraction(0)), Point(0, Fraction(0)))

    def test_vertex_pairs_match_hop_table(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 4))
            table = hop_table(g)
            for u in range(g.vertex_count):
                for v in range(g.vertex_count):
                    d = point_distance(g, vertex_point(g, u), vertex_point(g, v))
                    assert d == table[u][v]


def _quarter_points(g):
    pts = set()
    for e in range(g.edge_count):
        for i in range(5):
            pts.add(normalize_point(g, Point(e, Fraction(i, 4))))
    return sorted(pts)


def _check_metric_axioms(max_edges):
    for g in connected_graphs_max_edges(max_edges):
        pts = _quarter_points(g) if g.edge_count else [vertex_point(g, 0)]
        dist = {}
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                d = point_distance(g, p, q)
                dist[i, j] = d
                assert (d == 0) == (p == q)
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                assert dist[i, j] == dist[j, i]
                for k in range(len(pts)):
                    assert dist[i, j] <= dist[i, k] + dist[k, j]


def test_metric_axioms_exhaustive_small():
    _check_metric_axioms(3)


@pytest.mark.slow
def test_metric_axioms_exhaustive_4_edges():
    _check_metric_axioms(4)


class TestSubdivide:
    def test_triangle_doubles_to_hexagon(self):
        g2, _ = subdivide(C3, 2)
        assert g2.vertex_count == 6 and g2.edge_count == 6
        assert all(g2.degree(v) == 2 for v in range(6))

    def test_k2_triples_to_path(self):
        g3, _ = subdivide(K2, 3)
        assert g3.vertex_count == 4 and g3.edge_count == 3
        assert g3.is_tree

    def test_midpoint_becomes_middle_vertex(self):
        g2, pmap = subdivide(K2, 2)
        image = pmap.forward(midpoint(K2, 0))
        assert point_as_vertex(g2, image) == 2

    def test_factor_one_is_identity(self):
        g1, pmap = subdivide(C3, 1)
        assert g1 == C3
        p = Point(1, Fraction(2, 5))
        assert pmap.forward(p) == p
        assert pmap.inverse(p) == p

    def test_grid_adjacency_matches_subdivision(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(1, 6), rng.randint(0, 4))
            for c in (1, 2, 3, 5):
                built = [tuple(sorted(x)) for x in grid_adjacency(g, c)]
                assert built == list(subdivide(g, c)[0].adjacency)

    def test_counts(self):
        for c in (2, 3, 4):
            g2, _ = subdivide(C5, c)
            assert g2.edge_count == c * C5.edge_count
            assert g2.vertex_count == C5.vertex_count + (c - 1) * C5.edge_count

    def test_map_roundtrip(self):
        rng = random.Random(5)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(2, 5), rng.randint(0, 3))
            for c in (2, 3):
                g2, pmap = subdivide(g, c)
                for e in range(g.edge_count):
                    for num in range(0, 7):
                        p = normalize_point(g, Point(e, Fraction(num, 6)))
                        fwd = pmap.forward(p)
                        assert normalize_point(g2, fwd) == fwd
                        assert pmap.inverse(fwd) == p

    def test_matches_validated_graph(self):
        # subdivide skips validation; the fully validated graph is the same
        rng = random.Random(17)
        for r in range(30):
            n = rng.randint(1, 12)
            if r % 3 == 0:
                g = random_tree(rng, n)
            elif r % 3 == 1:
                chords = rng.randint(0, min(4, n * (n - 1) // 2 - n + 1))
                g = random_connected_graph(rng, n, chords)
            else:
                g = random_cactus(rng, n)
            for c in range(1, 5):
                g2, _ = subdivide(g, c)
                assert g2 == Graph(g2.vertex_count, g2.edges)

    def test_distances_scale(self):
        g2, pmap = subdivide(C5, 3)
        p = Point(0, Fraction(1, 2))
        q = Point(2, Fraction(1, 4))
        d = point_distance(C5, p, q)
        assert point_distance(g2, pmap.forward(p), pmap.forward(q)) == 3 * d


def _check_oracle_scaling(max_edges):
    from deltadisp import brute_disp

    for g in connected_graphs_max_edges(max_edges):
        for c in (2, 3):
            bigger, _ = subdivide(g, c)
            for delta in (Fraction(1), Fraction(3, 2), Fraction(2)):
                assert brute_disp(g, delta)[0] == brute_disp(bigger, c * delta)[0], (
                    g,
                    c,
                    delta,
                )


def test_oracle_scaling_small():
    _check_oracle_scaling(3)


@pytest.mark.slow
def test_oracle_scaling_5_edges():
    _check_oracle_scaling(5)


def _random_offset(rng):
    q = rng.randint(1, 6)
    return Fraction(rng.randint(0, q), q)


def _as_other_edge(g, p, rng):
    """p written on a random edge through it if it is a vertex, else p."""
    v = point_as_vertex(g, p)
    if v is None:
        return p
    e = rng.choice(g.incident_edges[v])
    return Point(e, Fraction(0) if g.edges[e][0] == v else Fraction(1))


def _differential_cases(rng, rounds):
    """(graph, points, delta) triples around the dispersion boundary."""
    for r in range(rounds):
        n = rng.randint(2, 10)
        kind = r % 4
        if kind == 0:
            g = random_tree(rng, n)
        elif kind == 1:
            g = random_connected_graph(rng, n, rng.randint(1, 4))
        elif kind == 2:
            g = random_cactus(rng, n)
        else:
            g = Graph(n + 1, tuple((i, (i + 1) % (n + 1)) for i in range(n + 1)))
        delta = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        # a greedy dispersed set over random candidates: every point the
        # reference accepts next to the ones already kept
        kept = []
        for _ in range(12):
            p = Point(rng.randrange(g.edge_count), _random_offset(rng))
            if brute_is_dispersed(g, kept + [p], delta):
                kept.append(p)
        yield g, kept, delta
        yield g, [_as_other_edge(g, p, rng) for p in kept] + kept[:1], delta
        extra = Point(rng.randrange(g.edge_count), _random_offset(rng))
        yield g, kept + [extra], delta
        interior = [p for p in kept if point_as_vertex(g, normalize_point(g, p)) is None]
        if interior:
            p = rng.choice(interior)
            yield g, kept + [Point(p.edge_index, _random_offset(rng))], delta
        yield g, kept, delta * rng.choice((Fraction(1, 2), Fraction(3, 2), 2))


class TestIsDispersed:
    def test_star_leaves(self):
        leaves = [vertex_point(STAR, v) for v in (1, 2, 3)]
        assert is_dispersed(STAR, leaves, Fraction(2))

    def test_k2_endpoints_too_close(self):
        pts = [vertex_point(K2, 0), vertex_point(K2, 1)]
        assert not is_dispersed(K2, pts, Fraction(2))

    def test_single_point_any_delta(self):
        assert is_dispersed(C3, [midpoint(C3, 0)], Fraction(100))

    def test_nearest_two_ends_kept_whatever_their_order(self):
        # at the centre the far end (1/2 away) is seen before the two near
        # ones (1/4 away), which are 1/2 apart
        star = Graph(4, ((1, 0), (2, 0), (3, 0)))
        points = [Point(0, Fraction(1, 2)), Point(1, Fraction(3, 4)), Point(2, Fraction(3, 4))]
        assert not is_dispersed(star, points, Fraction(3, 4))
        assert is_dispersed(star, points, Fraction(1, 2))
        # the same at vertex 1, whose far end is a first offset
        tree = Graph(4, ((1, 0), (2, 1), (3, 1)))
        points = [Point(e, Fraction(2, 3)) for e in range(3)]
        assert not is_dispersed(tree, points, Fraction(1))
        assert is_dispersed(tree, points, Fraction(2, 3))

    def test_matches_local_reference_at_every_scale(self):
        # greedy sets on the 1/scale grid and one random point more, so
        # both verdicts come up at every scale; one-hop spacings (1 < delta
        # <= 2) read neighbour lists, longer ones walk search balls
        rng = random.Random(42)
        verdicts = {True: 0, False: 0}
        mismatches = []
        for case in range(1500):
            n = rng.randint(2, 16)
            kind = case % 4
            if kind == 0:
                g = random_tree(rng, n)
            elif kind == 1:
                g = random_connected_graph(rng, n, rng.randint(1, 5))
            elif kind == 2:
                g = random_cactus(rng, n)
            else:
                g = Graph(n + 1, tuple((i, (i + 1) % (n + 1)) for i in range(n + 1)))
            scale = rng.choice((1, 2, 3, 4, 6))
            delta = Fraction(rng.randint(1, 7), rng.choice((1, 2, 3, 4, 6)))
            grid = [vertex_point(g, v) for v in range(g.vertex_count)]
            grid += [Point(e, Fraction(k, scale)) for e in range(g.edge_count) for k in range(1, scale)]
            kept = []
            for p in rng.sample(grid, min(len(grid), 8)):
                if reference_is_dispersed(g, kept + [p], delta):
                    kept.append(p)
            for pts in (kept, kept + [rng.choice(grid)]):
                want = reference_is_dispersed(g, pts, delta)
                verdicts[want] += 1
                if is_dispersed(g, pts, delta) != want:
                    mismatches.append((g, pts, delta))
        assert mismatches == []
        assert min(verdicts.values()) >= 800, verdicts

    def test_same_edge_pairs_compare_directly(self):
        pts = [Point(0, Fraction(1, 5)), Point(0, Fraction(4, 5))]
        assert is_dispersed(C3, pts, Fraction(3, 5))
        assert not is_dispersed(C3, pts, Fraction(2, 3))

    def test_vertex_written_on_two_edges_is_one_point(self):
        pts = [Point(0, Fraction(1)), Point(1, Fraction(0)), vertex_point(P3, 0)]
        assert is_dispersed(P3, pts, Fraction(1))
        assert not is_dispersed(P3, pts, Fraction(3, 2))

    def test_ends_beyond_delta_hops_never_conflict(self):
        # on a 7-cycle, 1/4 past vertex 0 and 1/4 past vertex 3: 3/4 to
        # vertex 1, two hops to vertex 3, then 1/4, so 3 apart
        c7 = Graph(7, tuple((i, (i + 1) % 7) for i in range(7)))
        pts = [Point(0, Fraction(1, 4)), Point(3, Fraction(1, 4))]
        assert brute_is_dispersed(c7, pts, Fraction(3))
        assert is_dispersed(c7, pts, Fraction(3))
        assert not is_dispersed(c7, pts, Fraction(13, 4))

    def test_single_vertex_graph(self):
        g = Graph(1, ())
        assert is_dispersed(g, [], Fraction(3))
        assert is_dispersed(g, [vertex_point(g, 0)], Fraction(3))
        assert brute_is_dispersed(g, [vertex_point(g, 0)], Fraction(3))

    def test_edge_midpoints_of_sparse_graph(self):
        g = random_connected_graph(random.Random(40), 30, 10)
        pts = [midpoint(g, e) for e in range(g.edge_count)]
        assert is_dispersed(g, pts, Fraction(1))
        assert not is_dispersed(g, pts, Fraction(3))

    def test_matches_all_pairs_reference(self):
        rng = random.Random(41)
        outcomes = {True: 0, False: 0}
        mismatches = []
        for g, pts, delta in _differential_cases(rng, 400):
            want = brute_is_dispersed(g, pts, delta)
            outcomes[want] += 1
            if is_dispersed(g, pts, delta) != want:
                mismatches.append((g, pts, delta))
            uniq = tuple(sorted(set(normalize_point(g, p) for p in pts)))
            try:
                built = WitnessSet.build(g, pts, delta).points
            except ValueError:
                built = None
            if built != (uniq if len(uniq) == len(pts) else None):
                mismatches.append((g, pts, delta, built))
        assert mismatches == []
        assert min(outcomes.values()) >= 300, outcomes


@st.composite
def point_sets(draw):
    g = draw(connected_graphs())
    if g.edge_count == 0:
        points = draw(st.lists(st.just(Point(-1, Fraction(0))), max_size=1))
    else:
        offsets = st.integers(1, 6).flatmap(
            lambda q: st.integers(0, q).map(lambda i: Fraction(i, q))
        )
        points = draw(
            st.lists(st.builds(Point, st.integers(0, g.edge_count - 1), offsets), max_size=8)
        )
    delta = Fraction(draw(st.integers(1, 7)), draw(st.integers(1, 5)))
    return g, points, delta


@settings(max_examples=300, derandomize=True)
@given(case=point_sets())
def test_is_dispersed_matches_reference_property(case):
    g, points, delta = case
    assert is_dispersed(g, points, delta) == brute_is_dispersed(g, points, delta)


class TestVicinity:
    def test_k2(self):
        assert vicinity(K2, 0) == frozenset({vertex_point(K2, 0), midpoint(K2, 0)})

    def test_star_center(self):
        vic = vicinity(STAR, 0)
        assert len(vic) == 4 and vertex_point(STAR, 0) in vic

    def test_path_leaf(self):
        assert len(vicinity(P3, 0)) == 2


class TestNormalization:
    def test_offset_zero_is_first_endpoint(self):
        p = normalize_point(C3, Point(1, Fraction(0)))
        assert point_as_vertex(C3, p) == 1

    def test_offset_one_is_second_endpoint(self):
        p = normalize_point(C3, Point(1, Fraction(1)))
        assert point_as_vertex(C3, p) == 2

    def test_same_vertex_same_point(self):
        # vertex 2 seen from edge (1,2) and edge (0,2) of the triangle
        a = normalize_point(C3, Point(1, Fraction(1)))
        b = normalize_point(C3, Point(2, Fraction(1)))
        assert a == b == vertex_point(C3, 2)

    def test_single_vertex_graph(self):
        g = Graph(1, ())
        p = vertex_point(g, 0)
        assert p.edge_index == -1
        assert point_distance(g, p, p) == 0
        assert is_dispersed(g, [p], Fraction(10))


class TestWitnessIO:
    def test_roundtrip(self):
        ws = WitnessSet.build(
            STAR,
            [vertex_point(STAR, 1), vertex_point(STAR, 2), midpoint(STAR, 2)],
            Fraction(1),
        )
        text = format_witness(STAR, ws)
        assert parse_witness(STAR, text, Fraction(1)) == ws

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            WitnessSet.build(C3, [Point(1, Fraction(1)), Point(2, Fraction(1))], Fraction(1))

    def test_orientation_mismatch_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_witness(K2, "0 1 0 1/2\n", Fraction(1))

    @pytest.mark.parametrize(
        "line",
        ["0 0 1 1_0/20", "0 0 1 1/+2", "0 0 \u0661 1/2", "0 0 1 1/0", "0 0 1 1//2", "0 0 1 1",
         "0 0 1 -1/-2"],
    )
    def test_only_plain_integer_tokens(self, line):
        assert parse_witness(K2, "0 0 1 1/2\n", Fraction(1)).interior == ((0, 1),)
        with pytest.raises(MalformedLineError) as err:
            parse_witness(K2, "0 0 1 1/2\n" + line + "\n", Fraction(1))
        assert err.value.line == 2

    def test_bad_offset_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_witness(K2, "0 0 1 3/2\n", Fraction(1))


class TestExactnessBoundary:
    def test_float_offsets_rejected(self):
        with pytest.raises(TypeError):
            Point(0, 0.5)

    def test_float_delta_rejected(self):
        with pytest.raises(TypeError):
            is_dispersed(K2, [midpoint(K2, 0)], 0.5)

    def test_string_fraction_accepted(self):
        from deltadisp import as_rational

        assert as_rational("2/3") == Fraction(2, 3)


class TestGraphValidation:
    @pytest.mark.parametrize("bad", [1.9, 1.0, Fraction(1), "1"])
    def test_refuses_non_integral_ids(self, bad):
        # int() would truncate 1.9 to 1 and read the edge (0, 1)
        with pytest.raises(TypeError):
            Graph(2, ((0, bad),))
        with pytest.raises(TypeError):
            Graph(3, ((bad, 2), (0, 1)))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            Graph(4, ((0, 1), (2, 3)))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 1), (1, 0)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    def test_typed_errors_without_line(self):
        for edges, error in (
            (((0, 2),), VertexRangeError),
            (((0, 0),), SelfLoopError),
            (((0, 1), (1, 0)), DuplicateEdgeError),
        ):
            with pytest.raises(error) as err:
                Graph(2, edges)
            assert err.value.line is None
        with pytest.raises(DisconnectedGraphError):
            Graph(4, ((0, 1), (2, 3)))

    def test_impossible_vertex_count_allocates_nothing(self):
        tracemalloc.start()
        try:
            for build in (lambda: parse_graph("1000000 0\n"), lambda: Graph(10**6, ())):
                tracemalloc.reset_peak()
                with pytest.raises(DisconnectedGraphError):
                    build()
                assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_parse_reports_the_first_faulty_line(self):
        with pytest.raises(DuplicateEdgeError) as err:
            parse_graph("3 3\n0 1\n1 0\n1 2 7")
        assert err.value.line == 3
        with pytest.raises(MalformedLineError) as err:
            parse_graph("3 2\n0 1\n1 x\n2 2")
        assert err.value.line == 3
        with pytest.raises(MalformedLineError) as err:
            parse_graph("4 2\n0 1\n2 3\n9 9")
        assert err.value.line == 4

    def test_disconnected_past_the_edge_count_guard(self):
        # enough edges for n vertices, so only the breadth-first pass can
        # find the second component
        with pytest.raises(DisconnectedGraphError):
            parse_graph("4 3\n0 1\n1 2\n0 2")
        c4 = ((0, 1), (1, 2), (2, 3), (3, 0))
        c3 = ((4, 5), (5, 6), (6, 4))
        with pytest.raises(DisconnectedGraphError):
            Graph(7, c4 + c3)

    def test_missing_edge_line_named_after_earlier_faults(self):
        with pytest.raises(MalformedLineError, match="missing edge line") as err:
            parse_graph("3 3\n0 1\n1 2\n")
        assert err.value.line == 4
        with pytest.raises(SelfLoopError) as err:
            parse_graph("3 3\n0 1\n1 1\n")
        assert err.value.line == 3

    def test_adjacency_matches_the_edges(self):
        rng = random.Random(40)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(1, 12), rng.randint(0, 6))
            expected = tuple(
                tuple(sorted([v for u, v in g.edges if u == x] + [u for u, v in g.edges if v == x]))
                for x in range(g.vertex_count)
            )
            assert g.adjacency == expected
            assert Graph._unchecked(g.vertex_count, g.edges).adjacency == expected
