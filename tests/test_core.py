"""Graph parsing, the point metric, subdivision, and dispersion checking."""

import dataclasses
import importlib
import inspect
import pkgutil
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from helpers import (
    Point,
    _point_key,
    brute_is_dispersed,
    connected_graphs_max_edges,
    hop_table,
    incident_edges,
    midpoint,
    normalize_point,
    point_distance,
    random_cactus,
    random_connected_graph,
    random_sparse_graph,
    random_tree,
    reference_format_witness,
    reference_is_dispersed,
    reference_parse_graph,
    source_point,
    triangle_chain,
    vertex_point,
    vicinity,
    witness_of,
    witness_points,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import deltadisp
from deltadisp import (
    ConflictGraph,
    DisconnectedGraphError,
    DuplicateEdgeError,
    GadgetInstance,
    Graph,
    GraphFormatError,
    InternalConsistencyError,
    MalformedLineError,
    SelfLoopError,
    SizeGuardExceededError,
    VertexRangeError,
    WitnessSet,
    build_conflict_graph,
    disp,
    format_graph,
    format_witness,
    parse_graph,
    parse_witness,
    subdivide,
)
from deltadisp import core
from deltadisp.core import grid_adjacency, grid_form, hop_ball, integer_tokens

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


def _read(parser, text):
    """A reader's graph as (n, edges, adjacency), or its error's type and line."""
    try:
        g = parser(text)
    except GraphFormatError as exc:
        return type(exc), exc.line
    return g.vertex_count, g.edges, g.adjacency


def _graph_lines(rng, n):
    """A seeded tree, sparse graph, cactus or triangle chain on about n
    vertices as its header and edge lines, edges shuffled and turned."""
    g = rng.choice(
        (
            lambda: random_tree(rng, n),
            lambda: random_sparse_graph(rng, n, n // 3),
            lambda: random_cactus(rng, n),
            lambda: triangle_chain(n),
        )
    )()
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(edges)
    return [f"{g.vertex_count} {len(edges)}"] + [f"{u} {v}" for u, v in edges]


# the faults one edge line can carry: a bad token, a wrong count of tokens,
# an id out of range or negative, a self-loop, and a repeat of an earlier
# line in either orientation
_LINE_FAULTS = {
    "1_0": (MalformedLineError, "{u} 1_0"),
    "+1": (MalformedLineError, "+1 {v}"),
    "arabic": (MalformedLineError, "{u} \u0661"),
    "1.0": (MalformedLineError, "1.0 {v}"),
    "-": (MalformedLineError, "{u} -"),
    "three": (MalformedLineError, "{u} {v} {u}"),
    "one": (MalformedLineError, "{u}"),
    "range": (VertexRangeError, "{u} {n}"),
    "negative": (VertexRangeError, "-1 {v}"),
    "loop": (SelfLoopError, "{u} {u}"),
    "repeat": (DuplicateEdgeError, "{a} {b}"),
    "turned": (DuplicateEdgeError, "{b} {a}"),
}


def _with_fault(lines, kind, at, rng):
    """`lines` with edge line `at` (0-based, at least 1) replaced by fault
    `kind`; a repeat copies a random earlier line."""
    n = lines[0].split()[0]
    u, v = lines[at + 1].split()
    a, b, *_ = lines[rng.randrange(1, at + 1)].split() + ["", ""]
    faulty = _LINE_FAULTS[kind][1].format(u=u, v=v, n=n, a=a, b=b)
    return lines[: at + 1] + [faulty] + lines[at + 2 :]


class TestReaderMatchesReference:
    """parse_graph against the line-by-line reader of tests/helpers.py: an
    equal graph, or the same error type and line."""

    def test_valid_texts(self):
        rng = random.Random(20)
        for case in range(160):
            lines = _graph_lines(rng, rng.randint(1, 200))
            text = rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n", "\n\n  \n"))
            got = _read(parse_graph, text)
            assert got == _read(reference_parse_graph, text), case
            assert not isinstance(got[0], type), (case, got)

    @pytest.mark.parametrize("kind", sorted(_LINE_FAULTS))
    def test_one_faulty_line(self, kind):
        rng = random.Random(kind)
        error = _LINE_FAULTS[kind][0]
        for _ in range(12):
            lines = _graph_lines(rng, rng.randint(4, 200))
            at = rng.randrange(1, len(lines) - 1)
            text = "\n".join(_with_fault(lines, kind, at, rng)) + "\n"
            assert _read(parse_graph, text) == _read(reference_parse_graph, text) == (error, at + 2)

    def test_bad_structure(self):
        rng = random.Random(21)
        for _ in range(30):
            lines = _graph_lines(rng, rng.randint(4, 200))
            n, m = map(int, lines[0].split())
            cases = (
                # a missing edge line, named after the last one given
                (lines[:-1], (MalformedLineError, m + 1)),
                # an extra non-blank line after blank ones
                (lines + ["", " 0 1"], (MalformedLineError, m + 3)),
                # an isolated vertex more
                ([f"{n + 1} {m}"] + lines[1:], (DisconnectedGraphError, None)),
            )
            for faulty, want in cases:
                text = "\n".join(faulty) + "\n"
                assert _read(parse_graph, text) == _read(reference_parse_graph, text) == want

    def test_two_faults_in_either_order(self):
        rng = random.Random(22)
        kinds = sorted(_LINE_FAULTS)
        for _ in range(150):
            lines = _graph_lines(rng, rng.randint(5, 200))
            first, second = sorted(rng.sample(range(1, len(lines) - 1), 2))
            a, b = rng.sample(kinds, 2)
            for x, y in ((a, b), (b, a)):
                faulty = _with_fault(_with_fault(lines, x, first, rng), y, second, rng)
                text = "\n".join(faulty) + "\n"
                want = (_LINE_FAULTS[x][0], first + 2)
                assert _read(parse_graph, text) == _read(reference_parse_graph, text) == want
            # a faulty edge line wins over a missing or an extra line too
            for tail in (faulty[:-1], faulty + ["7 7"]):
                text = "\n".join(tail) + "\n"
                assert _read(parse_graph, text) == _read(reference_parse_graph, text) == want


_TOKENS = st.sampled_from(["0", "1", "2", "-1", "01", "1_0", "+1", "\u0661", ";", "x", "-"])
_GAPS = st.sampled_from([" ", "  ", "\t", "\u00a0", " ; "])


@st.composite
def short_graph_texts(draw):
    """A small connected graph's text with, now and then, an edge line
    rewritten as a few drawn tokens or as two drawn ids, the edge count
    moved by one, or a line more."""
    g = draw(connected_graphs())
    n = g.vertex_count
    lines = [f"{n} {g.edge_count + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))}"]
    for u, v in g.edges:
        rewrite = draw(st.sampled_from(["no"] * 8 + ["tokens", "ids"]))
        if rewrite == "tokens":
            lines.append(draw(_GAPS).join(draw(st.lists(_TOKENS, max_size=3))))
        elif rewrite == "ids":
            lines.append(f"{draw(st.integers(-1, n))} {draw(st.integers(-1, n))}")
        else:
            lines.append(f"{u} {v}")
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["", " ", "0 1", ";"])))
    return draw(st.sampled_from(["\n", "\r\n", "\x1c"])).join(lines)


@settings(max_examples=400, derandomize=True)
@given(text=short_graph_texts() | st.text(alphabet="0123 \t\n-;_+.\u00a0", max_size=24))
def test_reader_matches_reference_property(text):
    assert _read(parse_graph, text) == _read(reference_parse_graph, text)


def dispersed(g, points, delta) -> bool:
    """The package's one check, on points read by the test helper."""
    return witness_of(g, points, delta).is_dispersed()


def _package_modules():
    modules = [deltadisp] + [
        importlib.import_module(f"deltadisp.{info.name}")
        for info in pkgutil.iter_modules(deltadisp.__path__)
    ]
    assert len(modules) > 5
    return modules


def test_package_has_no_all_pairs_table():
    # the O(n^2) hop table and the point metric over it are test references
    # (tests/helpers.py); no code of the package can build one
    assert not hasattr(Graph, "hop_table")
    assert not [m.__name__ for m in _package_modules() if hasattr(m, "point_distance")]


def test_package_has_one_witness_form():
    # points with Fraction offsets, and the map between them and the grid,
    # are test references (tests/helpers.py); a witness is a WitnessSet and
    # WitnessSet.is_dispersed is the one check
    gone = ("Point", "SubdivisionMap", "normalize_point", "vertex_point", "point_as_vertex",
            "is_dispersed")
    assert not [
        (m.__name__, name)
        for m in _package_modules()
        for name in gone
        if hasattr(m, name) or name in getattr(m, "__all__", ())
    ]
    assert not hasattr(ConflictGraph, "candidates")
    assert not hasattr(build_conflict_graph(K2, Fraction(1)), "candidates")
    assert not hasattr(WitnessSet, "points") and hasattr(WitnessSet, "is_dispersed")


def test_package_keeps_no_test_only_names():
    # the cut instance, its surplus and adapter, the cubic catalogue and the
    # decomposition are test references (tests/helpers.py), the last one
    # checked by certify.check_barrier; one grid limit, core.GRID_LIMIT,
    # guards every polynomial route
    gone = (
        "CutInstance",
        "surplus",
        "min_surplus",
        "cubic_catalogue",
        "MAX_TREE_GRID",
        "EGDecomposition",
        "edmonds_gallai",
    )
    assert not [
        (m.__name__, name)
        for m in _package_modules()
        for name in gone
        if hasattr(m, name) or name in getattr(m, "__all__", ())
    ]
    assert [f.name for f in dataclasses.fields(ConflictGraph)] == ["conflicts", "far"]
    # the gadget's layout lives in its graph's edge list alone, and no
    # code of the package looks an edge up by its ends
    assert [f.name for f in dataclasses.fields(GadgetInstance)] == ["g", "h", "delta", "coeffs"]
    assert not hasattr(Graph, "edge_index") and not hasattr(Graph, "_edge_ids")
    assert "grid_denominator" not in inspect.signature(build_conflict_graph).parameters


def test_one_grid_limit_guards_routes_and_subdivide(monkeypatch):
    # K2's grid of step 1/c has c + 1 points; at a limit of 10, c = 9 is
    # the largest subdivide builds.  The tree route builds no grid: its
    # guard counts its answer's bound, 2 + ceil(5/3) = 4 points at 3/5.
    # Numerators 1 and 2 build neither: they answer at any b, and only a
    # witness of more points than the limit is refused, when written out
    monkeypatch.setattr(core, "GRID_LIMIT", 10)
    assert subdivide(K2, 9).vertex_count == 10
    assert disp(K2, Fraction(1, 4))[0] == 5
    assert disp(K2, Fraction(3, 4))[0] == 2
    assert disp(K2, Fraction(3, 5))[0] == 2
    assert disp(K2, Fraction(1, 5))[0] == 6
    assert format_witness(K2, disp(K2, Fraction(1, 9))[1]).count("\n") == 10
    one, two = disp(K2, Fraction(1, 10)), disp(K2, Fraction(2, 21))
    assert one[0] == two[0] == 11
    for refused in (
        lambda: subdivide(K2, 10),
        lambda: format_witness(K2, one[1]),
        lambda: format_witness(K2, two[1]),
    ):
        with pytest.raises(SizeGuardExceededError, match="11 points, over the limit of 10"):
            refused()


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
        g2 = subdivide(C3, 2)
        assert g2.vertex_count == 6 and g2.edge_count == 6
        assert all(g2.degree(v) == 2 for v in range(6))

    def test_k2_triples_to_path(self):
        g3 = subdivide(K2, 3)
        assert g3.vertex_count == 4 and g3.edge_count == 3
        assert g3.is_tree

    def test_midpoint_becomes_middle_vertex(self):
        assert subdivide(K2, 2).adjacency[2] == (0, 1)
        assert source_point(K2, 2, 2) == midpoint(K2, 0)

    def test_factor_one_is_identity(self):
        assert subdivide(C3, 1) == C3
        assert [source_point(C3, 1, v) for v in range(3)] == [vertex_point(C3, v) for v in range(3)]

    def test_grid_adjacency_matches_subdivision(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(1, 6), rng.randint(0, 4))
            for c in (1, 2, 3, 5):
                built = [tuple(sorted(x)) for x in grid_adjacency(g, c)]
                assert built == list(subdivide(g, c).adjacency)

    def test_counts(self):
        for c in (2, 3, 4):
            g2 = subdivide(C5, c)
            assert g2.edge_count == c * C5.edge_count
            assert g2.vertex_count == C5.vertex_count + (c - 1) * C5.edge_count

    def test_map_roundtrip(self):
        # grid_form reads vertex i of the c-subdivision as the point of g
        # that source_point names, and the vertices name each point of
        # offset denominator c once
        rng = random.Random(5)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(2, 5), rng.randint(0, 3))
            for c in (1, 2, 3, 6):
                grid = [source_point(g, c, i) for i in range(subdivide(g, c).vertex_count)]
                for i, p in enumerate(grid):
                    ws = WitnessSet._from_runs(g, *grid_form(g.vertex_count, c, [i]), Fraction(1))
                    assert witness_points(ws) == (p,) == (normalize_point(g, p),)
                assert sorted(grid) == sorted({
                    normalize_point(g, Point(e, Fraction(k, c)))
                    for e in range(g.edge_count) for k in range(c + 1)
                })

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
                g2 = subdivide(g, c)
                assert g2 == Graph(g2.vertex_count, g2.edges)

    def test_distances_scale(self):
        # points of offset denominator 4, 1/2 and 1/4 among them, are the
        # vertices of the 4-subdivision, at 4 times their distance in C5
        g4 = subdivide(C5, 4)
        for i in range(g4.vertex_count):
            for j in range(g4.vertex_count):
                d = point_distance(C5, source_point(C5, 4, i), source_point(C5, 4, j))
                assert point_distance(g4, vertex_point(g4, i), vertex_point(g4, j)) == 4 * d


def _check_oracle_scaling(max_edges):
    from deltadisp import brute_disp

    for g in connected_graphs_max_edges(max_edges):
        for c in (2, 3):
            bigger = subdivide(g, c)
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
    v = _point_key(g, p)
    if isinstance(v, tuple):
        return p
    e = rng.choice(incident_edges(g, v))
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
        interior = [p for p in kept if isinstance(_point_key(g, p), tuple)]
        if interior:
            p = rng.choice(interior)
            yield g, kept + [Point(p.edge_index, _random_offset(rng))], delta
        yield g, kept, delta * rng.choice((Fraction(1, 2), Fraction(3, 2), 2))


class TestIsDispersed:
    def test_star_leaves(self):
        leaves = [vertex_point(STAR, v) for v in (1, 2, 3)]
        assert dispersed(STAR, leaves, Fraction(2))

    def test_k2_endpoints_too_close(self):
        pts = [vertex_point(K2, 0), vertex_point(K2, 1)]
        assert not dispersed(K2, pts, Fraction(2))

    def test_single_point_any_delta(self):
        assert dispersed(C3, [midpoint(C3, 0)], Fraction(100))

    def test_nearest_two_ends_kept_whatever_their_order(self):
        # at the centre the far end (1/2 away) is seen before the two near
        # ones (1/4 away), which are 1/2 apart
        star = Graph(4, ((1, 0), (2, 0), (3, 0)))
        points = [Point(0, Fraction(1, 2)), Point(1, Fraction(3, 4)), Point(2, Fraction(3, 4))]
        assert not dispersed(star, points, Fraction(3, 4))
        assert dispersed(star, points, Fraction(1, 2))
        # the same at vertex 1, whose far end is a first offset
        tree = Graph(4, ((1, 0), (2, 1), (3, 1)))
        points = [Point(e, Fraction(2, 3)) for e in range(3)]
        assert not dispersed(tree, points, Fraction(1))
        assert dispersed(tree, points, Fraction(2, 3))

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
                if dispersed(g, pts, delta) != want:
                    mismatches.append((g, pts, delta))
        assert mismatches == []
        assert min(verdicts.values()) >= 800, verdicts

    @pytest.mark.parametrize("delta", ["3/2", "2", "5/2", "3", "7/3"])
    def test_one_sided_balls_on_solver_witnesses(self, delta):
        # a search ball walks only 2 d0 + hL < limit: on optimal sets with
        # one point fewer, one more, or one moved (which leaves a lone
        # conflict, found from the nearer side only), the verdict is the
        # reference's, whose balls reach limit - d0 from every side
        delta = Fraction(delta)
        rng = random.Random(str(delta))
        verdicts = {True: 0, False: 0}
        for case in range(60):
            n = rng.randint(3, 12)
            if case % 3 == 0:
                g = random_tree(rng, n)
            elif case % 3 == 1:
                g = random_sparse_graph(rng, n, n // 3)
            else:
                g = random_cactus(rng, n)
            _, ws = disp(g, delta, allow_bruteforce=True)
            points = list(witness_points(ws))
            changed = [points[:-1], points[1:]]
            for q in (2, 3, 4, 5, 6, 8):
                extra = Point(rng.randrange(g.edge_count), Fraction(rng.randint(0, q), q))
                moved = points[:]
                moved[rng.randrange(len(moved))] = extra
                changed += [points + [extra], moved]
            for pts in changed:
                want = reference_is_dispersed(g, pts, delta)
                verdicts[want] += 1
                assert dispersed(g, pts, delta) == want, (g, pts, delta)
        assert min(verdicts.values()) >= 100, verdicts

    def test_same_edge_pairs_compare_directly(self):
        pts = [Point(0, Fraction(1, 5)), Point(0, Fraction(4, 5))]
        assert dispersed(C3, pts, Fraction(3, 5))
        assert not dispersed(C3, pts, Fraction(2, 3))

    def test_vertex_written_on_two_edges_is_one_point(self):
        pts = [Point(0, Fraction(1)), Point(1, Fraction(0)), vertex_point(P3, 0)]
        assert dispersed(P3, pts, Fraction(1))
        assert not dispersed(P3, pts, Fraction(3, 2))

    def test_ends_beyond_delta_hops_never_conflict(self):
        # on a 7-cycle, 1/4 past vertex 0 and 1/4 past vertex 3: 3/4 to
        # vertex 1, two hops to vertex 3, then 1/4, so 3 apart
        c7 = Graph(7, tuple((i, (i + 1) % 7) for i in range(7)))
        pts = [Point(0, Fraction(1, 4)), Point(3, Fraction(1, 4))]
        assert brute_is_dispersed(c7, pts, Fraction(3))
        assert dispersed(c7, pts, Fraction(3))
        assert not dispersed(c7, pts, Fraction(13, 4))

    def test_single_vertex_graph(self):
        g = Graph(1, ())
        assert dispersed(g, [], Fraction(3))
        assert dispersed(g, [vertex_point(g, 0)], Fraction(3))
        assert brute_is_dispersed(g, [vertex_point(g, 0)], Fraction(3))

    def test_edge_midpoints_of_sparse_graph(self):
        g = random_connected_graph(random.Random(40), 30, 10)
        pts = [midpoint(g, e) for e in range(g.edge_count)]
        assert dispersed(g, pts, Fraction(1))
        assert not dispersed(g, pts, Fraction(3))

    def test_matches_all_pairs_reference(self):
        rng = random.Random(41)
        outcomes = {True: 0, False: 0}
        mismatches = []
        for g, pts, delta in _differential_cases(rng, 400):
            want = brute_is_dispersed(g, pts, delta)
            outcomes[want] += 1
            if dispersed(g, pts, delta) != want:
                mismatches.append((g, pts, delta))
            # the helper reads the points, repeats dropped, and the package
            # reads them back from text, which must not repeat a point
            uniq = tuple(sorted(set(normalize_point(g, p) for p in pts)))
            ws = witness_of(g, pts, delta)
            try:
                parsed = parse_witness(g, reference_format_witness(g, pts), delta)
            except MalformedLineError:
                parsed = None
            if witness_points(ws) != uniq or parsed != (ws if len(uniq) == len(pts) else None):
                mismatches.append((g, pts, delta, parsed))
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
    assert dispersed(g, points, delta) == brute_is_dispersed(g, points, delta)


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
        assert _point_key(C3, p) == 1 and p == vertex_point(C3, 1)

    def test_offset_one_is_second_endpoint(self):
        p = normalize_point(C3, Point(1, Fraction(1)))
        assert _point_key(C3, p) == 2 and p == vertex_point(C3, 2)

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
        assert dispersed(g, [p], Fraction(10))


class TestWitnessIO:
    def test_roundtrip(self):
        ws = witness_of(
            STAR,
            [vertex_point(STAR, 1), vertex_point(STAR, 2), midpoint(STAR, 2)],
            Fraction(1),
        )
        text = format_witness(STAR, ws)
        assert parse_witness(STAR, text, Fraction(1)) == ws

    def test_duplicate_points_rejected(self):
        # vertex 2 of the triangle, written on edge (1,2) and edge (0,2)
        with pytest.raises(ValueError):
            WitnessSet._from_runs(C3, 1, [2, 2], [], Fraction(1))
        with pytest.raises(MalformedLineError) as err:
            parse_witness(C3, "1 1 2 1/1\n2 0 2 1/1\n", Fraction(1))
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "g, text",
        [
            (Graph(1, ()), "-1 5 7 0/1"),
            (Graph(1, ()), "-1 0 0 1/2"),
            (K2, "0 0 1 1/2\n0 0 1 2/4"),
            (P3, "0 0 1 1/1\n1 1 2 0/1"),
            (P3, "0 0 1 1/3\n\n1 1 2 0/1\n0 0 1 2/6"),
        ],
        ids=["edgeless-anchor", "edgeless-offset", "repeat", "vertex-twice", "repeat-later"],
    )
    def test_rejections_name_their_line(self, g, text):
        with pytest.raises(MalformedLineError) as err:
            parse_witness(g, "\n" + text + "\n", Fraction(1))
        assert err.value.line == text.count("\n") + 2

    def test_roundtrip_of_solver_witnesses(self):
        deltas = (Fraction(1, 2), Fraction(2, 3), Fraction(2), Fraction(5, 2))
        graphs = 0
        for g in connected_graphs_max_edges(4):
            graphs += 1
            for delta in deltas:
                ws = disp(g, delta, allow_bruteforce=True)[1]
                assert parse_witness(g, format_witness(g, ws), delta) == ws, (g, delta)
        assert graphs > 100

    def test_orientation_mismatch_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_witness(K2, "0 1 0 1/2\n", Fraction(1))

    @pytest.mark.parametrize(
        "line",
        ["0 0 1 1_0/20", "0 0 1 1/+2", "0 0 \u0661 1/2", "0 0 1 1/0", "0 0 1 1//2", "0 0 1 1",
         "0 0 1 -1/-2", "0/ 0 1 1/3"],
    )
    def test_only_plain_integer_tokens(self, line):
        assert parse_witness(K2, "0 0 1 1/2\n", Fraction(1)).runs == ((0, 1, 1, 1),)
        with pytest.raises(MalformedLineError) as err:
            parse_witness(K2, "0 0 1 1/2\n" + line + "\n", Fraction(1))
        assert err.value.line == 2

    def test_bad_offset_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_witness(K2, "0 0 1 3/2\n", Fraction(1))

    @pytest.mark.parametrize("delta", [0, -1, Fraction(-3, 2)])
    def test_spacing_must_be_positive(self, delta):
        # at delta <= 0 any distinct points pass the dispersion check
        with pytest.raises(ValueError, match="^delta must be positive$"):
            parse_witness(P3, "0 0 1 0/1\n0 0 1 1/2\n0 0 1 1/1\n", delta)
        with pytest.raises(InternalConsistencyError, match="delta must be positive"):
            WitnessSet.verified(P3, 2, [0, 1, 2], [(0, 1, 1, 1)], delta, 4)


class TestExactnessBoundary:
    def test_float_offsets_rejected(self):
        with pytest.raises(TypeError):
            Point(0, 0.5)

    def test_float_delta_rejected(self):
        with pytest.raises(TypeError):
            witness_of(K2, [midpoint(K2, 0)], 0.5)
        with pytest.raises(TypeError):
            WitnessSet.verified(K2, 2, [], [(0, 1, 1, 1)], 0.5, 1)

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

    def test_vertex_count_is_an_integer(self):
        for bad, edges in ((1.5, ()), (2.5, ((0, 1),)), (Fraction(2), ((0, 1),))):
            with pytest.raises(TypeError):
                Graph(bad, edges)
        g = Graph(True, ())
        assert type(g.vertex_count) is int and g == Graph(1, ())

    def test_faults_come_in_edge_order(self):
        # the whole-array checks fail together; the first faulty edge names
        # the error, a non-integral id or a non-pair included
        for edges, error in (
            (((0, 3), (0, 1.5)), VertexRangeError),
            (((0, 1.5), (0, 3)), TypeError),
            (((0, 1), (1, 0), (0, 1, 2)), DuplicateEdgeError),
            (((1, 1), (0,)), SelfLoopError),
            (((0, 1), (0, 1, 2)), ValueError),
        ):
            with pytest.raises(error) as err:
                Graph(3, edges)
            assert type(err.value) is error

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
