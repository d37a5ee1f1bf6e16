"""The trusted checker: certificate extraction, exact LP feasibility, the
text format, the tree route's cover check, the numerator-two route's
barrier check, and the module's imports."""

import ast
import random
import signal
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    all_connected_graphs,
    dense_certificate_system,
    fourier_motzkin_feasible,
    grid_check_cover,
    grid_feasible,
    midpoint,
    random_cactus,
    random_connected_graph,
    random_sparse_graph,
    random_tree,
    reference_edmonds_gallai,
    reference_negative_cycle,
    reference_parse_certificate,
    reference_verify_certificate,
    vertex_point,
    witness_of,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadisp import (
    Certificate,
    Graph,
    InternalConsistencyError,
    MalformedLineError,
    SizeGuardExceededError,
    brute_disp,
    certify,
    cli,
    core,
    disp,
    dispatch,
    extract_certificate,
    format_certificate,
    gadget,
    matching,
    oracle,
    parse_certificate,
    solve2,
    trees,
    verify_certificate,
)
from deltadisp.core import grid_adjacency, hop_ball

K2 = Graph(2, ((0, 1),))
P3 = Graph(3, ((0, 1), (1, 2)))
C3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
STAR = Graph(4, ((0, 1), (0, 2), (0, 3)))


class TestExtract:
    def test_k2_midpoint(self):
        _, witness = disp(K2, Fraction(2))
        cert = extract_certificate(K2, witness)
        assert cert.vertices == frozenset()
        assert cert.interior_counts == {0: 1}

    def test_star_leaves(self):
        _, witness = disp(STAR, Fraction(2))
        cert = extract_certificate(STAR, witness)
        assert cert.vertices == {1, 2, 3}
        assert cert.interior_counts == {}

    def test_k2_fine_grid(self):
        _, witness = disp(K2, Fraction(1, 2))
        cert = extract_certificate(K2, witness)
        assert cert.vertices == {0, 1}
        assert cert.interior_counts == {0: 1}

    def test_total(self):
        cert = Certificate(frozenset({0, 1}), {0: 2, 1: 1})
        assert cert.total == 5


class TestCertificateValidation:
    @pytest.mark.parametrize("bad", [1.9, 1.0, Fraction(1), "1"])
    def test_refuses_non_integral_ids(self, bad):
        # int() would truncate 1.9 to 1: edge 1 on P3, accepted at 1/2
        with pytest.raises(TypeError):
            Certificate(frozenset(), {bad: 1})
        with pytest.raises(TypeError):
            Certificate(frozenset(), {0: bad})
        with pytest.raises(TypeError):
            Certificate(frozenset({bad}), {})
        # a zero count is dropped only after its edge id is converted
        with pytest.raises(TypeError):
            Certificate(frozenset(), {bad: 0})
        assert Certificate(frozenset(), {99: 0}).interior_counts == {}


class TestVerify:
    def test_star_accept(self):
        cert = Certificate(frozenset({1, 2, 3}), {})
        assert verify_certificate(STAR, Fraction(2), cert, 3).accepted

    def test_star_reject_cardinality(self):
        cert = Certificate(frozenset({1, 2, 3}), {})
        verdict = verify_certificate(STAR, Fraction(2), cert, 4)
        assert not verdict.accepted
        assert "cardinality" in verdict.reason

    def test_k2_reject_vertex_pair(self):
        cert = Certificate(frozenset({0, 1}), {})
        verdict = verify_certificate(K2, Fraction(2), cert, 2)
        assert not verdict.accepted
        assert "vertex pair" in verdict.reason

    def test_reject_overfull_edge(self):
        cert = Certificate(frozenset(), {0: 5})
        verdict = verify_certificate(K2, Fraction(2), cert, 1)
        assert not verdict.accepted
        assert "infeasible" in verdict.reason

    def test_infeasible_reports_stage(self):
        # a vertex facility at 0 pushes the interior point past the far end
        cert = Certificate(frozenset({0}), {0: 1})
        verdict = verify_certificate(K2, Fraction(3, 2), cert, 2)
        assert not verdict.accepted
        assert verdict.reason.startswith("infeasible system: ")
        assert "x(0,0) >= 3/2" in verdict.reason
        assert "x(0,0) + x(1,0) <= 1" in verdict.reason

    def test_vertex_next_to_occupied_edge(self):
        # vertex 1 plus one interior point on edge (0,2) at delta=1: feasible
        p3 = Graph(3, ((0, 1), (0, 2)))
        cert = Certificate(frozenset({1}), {1: 1})
        assert verify_certificate(p3, Fraction(1), cert, 2).accepted

    def test_single_interior_point_large_delta(self):
        # one facility on the lone edge is fine at any spacing
        cert = Certificate(frozenset(), {0: 1})
        assert verify_certificate(K2, Fraction(3), cert, 1).accepted


class TestRoundTrip:
    def test_solver_witnesses(self):
        rng = random.Random(40)
        deltas = [Fraction(2), Fraction(1), Fraction(1, 2), Fraction(2, 3)]
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 6), rng.randint(0, 4))
            for delta in deltas:
                value, witness = disp(g, delta)
                cert = extract_certificate(g, witness)
                assert verify_certificate(g, delta, cert, value).accepted
                assert not verify_certificate(g, delta, cert, value + 1).accepted

    def test_oracle_witnesses_hard_regime(self):
        rng = random.Random(41)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 5), rng.randint(0, 3))
            delta = Fraction(rng.choice([3, 4]), rng.choice([1, 3]))
            value, witness = brute_disp(g, delta)
            cert = extract_certificate(g, witness)
            assert verify_certificate(g, delta, cert, value).accepted


def _random_certificates(rng, rounds):
    """(graph, delta, certificate) triples with at most four occupied edges,
    so the dense reference system has at most eight variables."""
    for r in range(rounds):
        n = rng.randint(2, 7)
        kind = r % 4
        if kind == 0:
            g = random_tree(rng, n)
        elif kind == 1:
            g = random_connected_graph(rng, n, rng.randint(1, 3))
        elif kind == 2:
            g = random_cactus(rng, n)
        else:
            g = Graph(n + 1, tuple((i, (i + 1) % (n + 1)) for i in range(n + 1)))
        delta = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        if delta.numerator <= 2 and rng.random() < 0.5:
            # a solver certificate with one point or one vertex too many
            _, witness = disp(g, delta)
            cert = extract_certificate(g, witness)
            counts, vertices = dict(cert.interior_counts), set(cert.vertices)
            if rng.random() < 0.5:
                e = rng.randrange(g.edge_count)
                counts[e] = counts.get(e, 0) + 1
            else:
                vertices.add(rng.randrange(g.vertex_count))
        else:
            vertices = set(rng.sample(range(g.vertex_count), rng.randint(0, min(2, n))))
            cap = int(1 / delta) + 1
            edges = rng.sample(range(g.edge_count), rng.randint(0, min(4, g.edge_count)))
            counts = {e: rng.randint(1, cap) for e in edges}
        if len(counts) <= 4:
            yield g, delta, Certificate(frozenset(vertices), counts)


def _reference_verdict(g, delta, cert):
    """True/False from Fourier-Motzkin on the dense system, or None when two
    certificate vertices are closer than delta."""
    system = dense_certificate_system(g, delta, cert)
    return None if system is None else fourier_motzkin_feasible(*system)[0]


class TestFourierMotzkin:
    def test_matches_grid_oracle_on_extracted_systems(self):
        # tamper with real certificates to exercise both outcomes
        rng = random.Random(42)
        checked = 0
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 4), rng.randint(0, 2))
            delta = Fraction(rng.choice([1, 2]), rng.choice([1, 3]))
            value, witness = disp(g, delta)
            cert = extract_certificate(g, witness)
            occupied = dict(cert.interior_counts)
            if rng.random() < 0.5 and occupied:
                bump = rng.choice(sorted(occupied))
                occupied[bump] += rng.choice([1, 2])
            tampered = Certificate(cert.vertices, occupied)
            if 2 * len(tampered.interior_counts) > 4:
                continue
            verdict = verify_certificate(g, delta, tampered, 0)
            system = dense_certificate_system(g, delta, tampered)
            if system is None:
                continue
            nvars, rows, _ = system
            expected = grid_feasible(nvars, rows, 4 * delta.denominator)
            assert verdict.accepted == expected, (g, delta, tampered)
            checked += 1
        assert checked >= 20

    def test_matches_reference_on_random_certificates(self):
        rng = random.Random(43)
        outcomes = {True: 0, False: 0, None: 0}
        mismatches = []
        for g, delta, cert in _random_certificates(rng, 600):
            want = _reference_verdict(g, delta, cert)
            outcomes[want] += 1
            verdict = verify_certificate(g, delta, cert, 0)
            if verdict.accepted != bool(want):
                mismatches.append((g, delta, cert, verdict))
            elif want is None:
                assert verdict.reason.startswith("vertex pair"), verdict
            elif not want:
                assert verdict.reason.startswith("infeasible system: "), verdict
        assert mismatches == []
        assert sum(outcomes.values()) >= 400
        assert min(outcomes[True], outcomes[False]) >= 100, outcomes

    def test_trivial_contradiction(self):
        rows = [((Fraction(0),), Fraction(-1))]
        feasible, stage = fourier_motzkin_feasible(1, rows)
        assert not feasible and "initial" in stage

    def test_stage_reported(self):
        rows = [
            ((Fraction(1),), Fraction(1, 2)),    # x <= 1/2
            ((Fraction(-1),), Fraction(-1)),     # x >= 1
        ]
        feasible, stage = fourier_motzkin_feasible(1, rows, labels=["x(0,0)"])
        assert not feasible and "x(0,0)" in stage


@st.composite
def small_certificates(draw):
    n = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        if u != v and (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    g = Graph(n, tuple(edges))
    delta = Fraction(draw(st.integers(1, 7)), draw(st.integers(1, 5)))
    vertices = draw(st.frozensets(st.integers(0, n - 1), max_size=2))
    counts = draw(
        st.dictionaries(
            st.integers(0, g.edge_count - 1), st.integers(1, int(1 / delta) + 1), max_size=3
        )
    )
    return g, delta, Certificate(vertices, counts)


@settings(max_examples=300, derandomize=True)
@given(case=small_certificates())
def test_verify_matches_reference_property(case):
    g, delta, cert = case
    want = _reference_verdict(g, delta, cert)
    assert verify_certificate(g, delta, cert, 0).accepted == bool(want)


def _benchmark_certificates(rng):
    """(graph, delta, certificate) triples from the certify benchmark's
    families: sparse graphs with m = 6 to 8 at four spacings, each with an
    optimal certificate and every certificate with one point more."""
    for n, chords in ((5, 2), (6, 1), (6, 2), (7, 2)):
        for delta in (Fraction(2, 3), Fraction(2, 5), Fraction(2), Fraction(3, 2)):
            g = random_sparse_graph(rng, n, chords)
            _, witness = disp(g, delta, allow_bruteforce=True)
            cert = extract_certificate(g, witness)
            yield g, delta, cert
            for e in range(g.edge_count):
                counts = dict(cert.interior_counts)
                counts[e] = counts.get(e, 0) + 1
                yield g, delta, Certificate(cert.vertices, counts)


class TestAgainstReference:
    """The one-pass stages against the row-by-row reference in helpers."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail a search that never ends instead of hanging: a walk mark
        kept too long stops the rounds from finding a cycle, and one kept
        too short sends the cycle walk round forever."""

        def expire(signum, frame):
            raise AssertionError("the check did not end within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def paired_cycle_search(self, monkeypatch):
        """Run both cycle searches on every arc list the check builds,
        require the same arcs in the same order, and return the list of the
        cycles found."""
        search = certify._negative_cycle
        cycles = []

        def both(arcs):
            cycle = search(arcs)
            assert cycle == reference_negative_cycle(arcs)
            if cycle is not None:
                cycles.append(cycle)
            return cycle

        monkeypatch.setattr(certify, "_negative_cycle", both)
        return cycles

    def test_verdicts_match(self, paired_cycle_search):
        rng = random.Random(46)
        cases = list(_random_certificates(rng, 2400))
        for _ in range(3):
            cases.extend(_benchmark_certificates(rng))
        outcomes = {True: 0, False: 0}
        radii = set()
        worded = {"<=": 0, ">= pair": 0, "lower bound": 0}
        for g, delta, cert in cases:
            verdict = verify_certificate(g, delta, cert, 0)
            assert verdict == reference_verify_certificate(g, delta, cert, 0), (g, delta, cert)
            k = cert.total + 1
            assert verify_certificate(g, delta, cert, k) == reference_verify_certificate(g, delta, cert, k)
            outcomes[verdict.accepted] += 1
            radii.add(min((delta.numerator - 1) // delta.denominator, 1))
            if not verdict.accepted and verdict.reason.startswith("infeasible system: x("):
                for row in verdict.reason.removeprefix("infeasible system: ").split("; "):
                    kind = "<=" if "<=" in row else ">= pair" if " + " in row else "lower bound"
                    worded[kind] += 1
        assert len(cases) >= 2000
        assert min(outcomes.values()) >= 500, outcomes
        assert radii == {0, 1}
        # every way an arc reads back its row is taken, and some cycle uses
        # both arcs of one row, which the rejection must name once
        assert min(worded.values()) >= 1, worded
        assert any(
            (h ^ 1, t ^ 1) in on_cycle
            for on_cycle in ({(t, h) for t, h, _ in cycle} for cycle in paired_cycle_search)
            for t, h in on_cycle
            if t >> 1 != h >> 1
        )

    def test_id_errors_match(self):
        g = Graph(3, ((0, 1), (1, 2)))
        for cert in (
            Certificate(frozenset({0}), {1: 1, 5: 1, -1: 2}),
            Certificate(frozenset({2, 3, -4}), {0: 1}),
            Certificate(frozenset({-1}), {}),
        ):
            with pytest.raises(ValueError) as want:
                reference_verify_certificate(g, Fraction(2), cert, 0)
            with pytest.raises(ValueError) as got:
                verify_certificate(g, Fraction(2), cert, 0)
            assert str(got.value) == str(want.value)

    def test_reader_matches(self):
        rng = random.Random(47)
        lines = ["", "  ", "0 1", "1 1", "1 2", "2 3", "0 0", "3 -1", "4 1 1", "5", "x 1",
                 "1_0 1", "2 ;", "; 2", "-1 1", "7 1"]
        for _ in range(3000):
            head = rng.choice(["3"] * 8 + ["0", "k", "1 2"])
            w = rng.choice(["W: 0 2"] * 4 + ["W:"] * 4 + ["W: 1 1", "W: 5 3 x", "0 1", ""])
            body = [rng.choice(lines) for _ in range(rng.randint(0, 8))]
            text = "\n".join([head, w] + body)
            if rng.random() < 0.2:
                text = text[: rng.randint(0, len(text))]
            try:
                want = reference_parse_certificate(text)
            except MalformedLineError as err:
                with pytest.raises(MalformedLineError) as got:
                    parse_certificate(text)
                assert (str(got.value), got.value.line) == (str(err), err.line), text
            else:
                assert parse_certificate(text) == want, text


def _large_graph(kind):
    """A 2,000-vertex random tree, or the same tree with 200 chords."""
    rng = random.Random(44)
    edges = set(random_tree(rng, 2000).edges)
    while kind == "sparse" and len(edges) < 2199:
        u, v = rng.sample(range(2000), 2)
        if (v, u) not in edges:
            edges.add((u, v))
    return Graph(2000, tuple(sorted(edges)))


def _one_more(g, delta, cert):
    """The certificate with one more interior point: on the lowest occupied
    edge with room for it, else on the lowest empty edge at a certificate
    vertex."""
    counts = dict(cert.interior_counts)
    room = [e for e, c in sorted(counts.items()) if c < int(1 / delta) + 1]
    e = room[0] if room else min(
        e for e, (u, v) in enumerate(g.edges)
        if e not in counts and (u in cert.vertices or v in cert.vertices)
    )
    counts[e] = counts.get(e, 0) + 1
    return Certificate(cert.vertices, counts)


class TestUntrustedCertificates:
    @pytest.mark.parametrize("kind", ["tree", "sparse"])
    def test_large_certificates_stay_local(self, kind):
        g = _large_graph(kind)
        delta = Fraction(2, 3)
        value, witness = disp(g, delta)
        cert = extract_certificate(g, witness)
        assert len(cert.interior_counts) == g.edge_count  # every edge occupied
        assert verify_certificate(g, delta, cert, value).accepted
        verdict = verify_certificate(g, delta, _one_more(g, delta, cert), 0)
        assert not verdict.accepted
        assert verdict.reason.startswith("infeasible system: x(")

    @pytest.mark.parametrize("delta", [Fraction(2), Fraction(3, 2)], ids=["2", "3/2"])
    @pytest.mark.parametrize("kind", ["tree", "sparse"])
    def test_large_certificates_at_radius_one(self, kind, delta):
        # numerator 3 has no polynomial route on a graph with cycles, but a
        # 2-dispersed set is 3/2-dispersed; there the one more point sits
        # inside an edge at a certificate vertex, closer than 1 to it
        g = _large_graph(kind)
        _, witness = disp(g, delta if g.is_tree else Fraction(2))
        cert = extract_certificate(g, witness)
        assert verify_certificate(g, delta, cert, cert.total).accepted
        verdict = verify_certificate(g, delta, _one_more(g, delta, cert), 0)
        assert not verdict.accepted
        assert verdict.reason.startswith("infeasible system: x(")

    def test_no_hop_ball_below_spacing_one(self, monkeypatch):
        # at delta <= 1 only hop 0 gives rows, so no search is started
        calls = []

        def counted(g, source, radius):
            calls.append(radius)
            return hop_ball(g, source, radius)

        monkeypatch.setattr(certify, "hop_ball", counted)
        g = random_sparse_graph(random.Random(45), 40, 8)
        for delta in (Fraction(2, 3), Fraction(2, 5)):
            value, witness = disp(g, delta)
            cert = extract_certificate(g, witness)
            assert verify_certificate(g, delta, cert, value).accepted
            assert not verify_certificate(g, delta, _one_more(g, delta, cert), 0).accepted
        assert calls == []
        _, witness = disp(g, Fraction(2))
        verify_certificate(g, Fraction(2), extract_certificate(g, witness), 0)
        assert calls and set(calls) == {1}


    def test_rows_over_the_grid_limit_raise(self, monkeypatch):
        # disp's own witness on K1,3 at delta = 1/3: three <= rows, one per
        # edge, and three >= rows for the pairs of edge ends at the centre
        g = Graph(4, ((0, 1), (0, 2), (0, 3)))
        value, witness = disp(g, Fraction(1, 3))
        cert = extract_certificate(g, witness)
        monkeypatch.setattr(core, "GRID_LIMIT", 5)
        with pytest.raises(
            SizeGuardExceededError,
            match="this certificate's system has 6 rows, over the limit of 5",
        ):
            verify_certificate(g, Fraction(1, 3), cert, value)
        monkeypatch.setattr(core, "GRID_LIMIT", 6)
        assert verify_certificate(g, Fraction(1, 3), cert, value).accepted

    def test_memory_per_row(self):
        """Each row is kept once, as its arcs, which share one tuple per end
        and weight, so the system stays well under the guard's budget at
        GRID_LIMIT rows: the peak traced while checking disp's own witness
        on K1,300 at delta = 1/3 is under 64 bytes a row.  It is about 24;
        a fresh tuple per arc puts it near 185."""
        g = Graph(301, tuple((0, v) for v in range(1, 301)))
        value, witness = disp(g, Fraction(1, 3))
        cert = extract_certificate(g, witness)
        assert sorted(cert.interior_counts) == list(range(300))
        # a <= row and two lower bounds per edge, and a >= row per pair of
        # edge ends at the centre
        rows = 3 * 300 + 300 * 299 // 2
        tracemalloc.start()
        try:
            assert verify_certificate(g, Fraction(1, 3), cert, value).accepted
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rows < 64, (peak, rows)

    def test_spider_checks_read_neighbour_lists_linearly(self):
        """On a spider of 500 legs of 10 edges at delta = 39/2, whose
        diameter is 20, disp (its route and its witness check) reads at
        most 4n neighbour lists, and the certificate of the 500 tips is
        accepted within 2n: a walk of radius 19 from every tip reads
        about 240n."""

        class Counted(tuple):
            reads = 0

            def __getitem__(self, i):
                self.reads += 1
                return super().__getitem__(i)

        legs, length = 500, 10
        n = 1 + legs * length
        g = Graph(n, tuple((v, 0 if v % length == 1 else v - 1) for v in range(1, n)))
        adjacency = Counted(g.adjacency)
        object.__setattr__(g, "adjacency", adjacency)
        delta = Fraction(39, 2)
        value, _ = disp(g, delta)
        reads, adjacency.reads = adjacency.reads, 0
        assert value == legs
        assert reads <= 4 * n, reads / n
        tips = Certificate(frozenset(range(length, n, length)), {})
        assert verify_certificate(g, delta, tips, legs).accepted
        reads = adjacency.reads
        assert reads <= 2 * n, reads / n


class TestFormat:
    def test_roundtrip(self):
        cert = Certificate(frozenset({0, 2}), {1: 2})
        text = format_certificate(5, cert)
        k, parsed = parse_certificate(text)
        assert k == 5 and parsed == cert

    def test_empty_vertex_set(self):
        cert = Certificate(frozenset(), {0: 1})
        k, parsed = parse_certificate(format_certificate(1, cert))
        assert k == 1 and parsed.vertices == frozenset()

    def test_rejects_garbage(self):
        from deltadisp import MalformedLineError

        with pytest.raises(MalformedLineError):
            parse_certificate("not a number\nW: 1\n")
        with pytest.raises(MalformedLineError):
            parse_certificate("3\nno w line\n")
        with pytest.raises(MalformedLineError):
            parse_certificate("3\nW: 1\n0 1 2\n")

    @pytest.mark.parametrize(
        "text,line",
        [
            ("1_0\nW: 0 1_1\n", 1),  # int() alone reads k = 10 and vertex 11
            ("1\nW: 0 1_1\n", 2),
            ("1\nW: \u0661\n", 2),
            ("1\nW: 0\n0 +1\n", 3),
            ("1\nW: 0\n1_0 1\n", 3),
        ],
    )
    def test_only_plain_integer_tokens(self, text, line):
        from deltadisp import MalformedLineError

        with pytest.raises(MalformedLineError) as err:
            parse_certificate(text)
        assert err.value.line == line

    def test_repeated_vertex_rejected(self):
        # a repeated id must not merge into one vertex: "1\nW: 0 0" would
        # otherwise be accepted on P3 at delta = 2
        from deltadisp import MalformedLineError

        for text, repeated in (("1\nW: 0 0\n", 0), ("2\nW: 3 1 2 1 3\n0 1\n", 1)):
            with pytest.raises(MalformedLineError, match=f"vertex {repeated} listed twice") as err:
                parse_certificate(text)
            assert err.value.line == 2

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_rejected(self, count):
        # a zero count would be dropped, hiding edge 99, which P3 lacks
        with pytest.raises(MalformedLineError, match="interior count must be positive") as err:
            parse_certificate(f"1\nW: 0\n\n99 {count}\n")
        assert err.value.line == 4
        assert Certificate(frozenset({0}), {99: 0}).interior_counts == {}  # the library's no-op

    def test_negative_tokens_reach_the_checks(self):
        k, cert = parse_certificate("-1\nW: -2\n")
        assert k == -1 and cert.vertices == {-2}


class TestWitnessSetInterface:
    def test_extract_counts_interior_points(self):
        ws = witness_of(
            STAR,
            [vertex_point(STAR, 1), midpoint(STAR, 1), midpoint(STAR, 2)],
            Fraction(1, 2),
        )
        cert = extract_certificate(STAR, ws)
        assert cert.vertices == {1}
        assert cert.interior_counts == {1: 1, 2: 1}


def test_checker_reads_only_core_and_errors():
    # the one trusted checker leans on no solver it checks
    tree = ast.parse(Path(certify.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {name for name in imported if name.startswith(".") or "deltadisp" in name}
    assert package == {".core", ".errors"}
    assert not hasattr(core, "WitnessSet") and not hasattr(core, "_dispersed")
    assert not hasattr(trees, "_check_cover")


def test_solvers_raise_no_consistency_error():
    # a solver's answer is judged in certify alone: no route module, nor
    # the gadget factory or the command line, raises InternalConsistencyError
    raisers = []
    for module in (dispatch, solve2, matching, trees, oracle, gadget, cli):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "InternalConsistencyError":
                    raisers.append((module.__name__, node.lineno))
    assert raisers == []


def _rejection(check, *args) -> str | None:
    """The message of the InternalConsistencyError `check` raises on
    `args`, or None if it accepts them."""
    try:
        check(*args)
    except InternalConsistencyError as exc:
        return str(exc)
    return None


class TestCoverCheck:
    """``certify.check_cover`` on the tree route's cover of a path's grid."""

    PATH = Graph(10, tuple((i, i + 1) for i in range(9)))

    @pytest.fixture
    def cover(self, monkeypatch):
        # delta = 3: the 2-subdivision, a 19-point path, and balls of radius 2
        handed = []
        monkeypatch.setattr(trees, "check_cover", lambda *args: handed.append(args))
        trees.tree_disp(self.PATH, 3, 1)
        ((g, q, balls, value, radius),) = handed
        assert (g, q, value, radius) == (self.PATH, 2, 4, 2)
        certify.check_cover(g, q, balls, value, radius)
        assert len(balls) == disp(self.PATH, Fraction(3))[0] == 4
        return balls

    def test_dropped_ball(self, cover):
        balls = cover
        with pytest.raises(InternalConsistencyError, match="3 distinct cover balls for 4"):
            certify.check_cover(self.PATH, 2, balls[1:], 4, 2)
        with pytest.raises(InternalConsistencyError, match="cover balls reach"):
            certify.check_cover(self.PATH, 2, balls[1:], 3, 2)

    @pytest.mark.parametrize("pair", [(0, 2), (2, 0), (5, 18), (-1, 0), (19, 18)])
    def test_ball_not_a_grid_edge(self, cover, pair):
        balls = cover
        with pytest.raises(InternalConsistencyError, match=r"is not a grid edge"):
            certify.check_cover(self.PATH, 2, [pair] + balls[1:], 4, 2)

    def test_repeated_ball(self, cover):
        balls = cover
        (c, p), rest = balls[0], balls[1:]
        for repeat in ((c, p), (p, c)):  # an edge is one ball however it is written
            with pytest.raises(InternalConsistencyError, match="3 distinct cover balls for 4"):
                certify.check_cover(self.PATH, 2, [(c, p), repeat] + rest[1:], 4, 2)

    def test_vertex_ball(self):
        # the lone vertex of an edgeless graph is its own ball
        certify.check_cover(Graph(1, ()), 2, [(0, 0)], 1, 4)
        with pytest.raises(InternalConsistencyError, match="cover balls reach 1 of 2"):
            certify.check_cover(K2, 1, [(0, 0)], 1, 0)

    @pytest.mark.parametrize("q", [1, 2, 4, 6])
    def test_matches_grid_reference(self, q):
        """The check and the one over the materialized grid accept and
        reject alike, with the same message, on random ball sets over
        seeded trees and general graphs: grid edges, vertex balls, pairs
        that are not grid edges, an edge written both ways, and covers
        with a ball dropped or moved one hop."""
        rng = random.Random(640 + q)
        verdicts = set()
        for case in range(600):
            n = rng.randint(1, 12)
            if case % 2:
                g = random_tree(rng, n)
            else:
                g = random_connected_graph(rng, n, rng.randint(1, 5))
            adjacency = grid_adjacency(g, q)
            size = len(adjacency)
            edges = [(x, y) for x in range(size) for y in adjacency[x]]
            balls = (
                [rng.choice(edges) for _ in range(rng.randint(0, 1 + size // 4))] if edges else []
            )
            balls += [(x, x) for x in rng.sample(range(size), rng.randint(0, min(2, size)))]
            rng.shuffle(balls)
            fault = rng.randrange(6)
            if balls and fault == 1:
                balls.pop(rng.randrange(len(balls)))
            elif balls and fault == 2:
                c, p = balls.pop(rng.randrange(len(balls)))
                balls.append((p, rng.choice(adjacency[p])) if adjacency[p] else (c, c))
            elif balls and fault == 3:
                balls.append(balls[rng.randrange(len(balls))][::-1])
            elif fault == 4:
                balls.append((rng.randrange(-1, size + 1), rng.randrange(-1, size + 1)))
            value = len({(min(ball), max(ball)) for ball in balls}) + (fault == 5)
            radius = rng.randint(0, 3 * q)
            got = _rejection(certify.check_cover, g, q, balls, value, radius)
            want = _rejection(grid_check_cover, adjacency, balls, value, radius)
            assert got == want, (g, q, balls, value, radius)
            verdicts.add(want if want is None else want.split()[1])
        assert verdicts == {None, "ball", "distinct", "cover"}


def _barrier_verdict(check, *args) -> bool:
    """Whether `check` accepts `args`: False iff it raises
    InternalConsistencyError."""
    return _rejection(check, *args) is None


def _barrier_disagreements(graphs):
    """The ``(graph, outer)`` pairs, over every labelling `outer` of each
    graph's vertices with the engine's matching, on which ``check_barrier``
    and the reference decomposition's checks disagree, and the count of
    cases tried."""
    disagreements, cases = [], 0
    for g in graphs:
        n = g.vertex_count
        mate, _ = matching.maximum_matching(g.adjacency)
        for bits in range(1 << n):
            outer = [bool(bits >> v & 1) for v in range(n)]
            ours = _barrier_verdict(certify.check_barrier, g.adjacency, mate, outer)
            theirs = _barrier_verdict(reference_edmonds_gallai, g, (mate, outer))
            cases += 1
            if ours != theirs:
                disagreements.append((g, outer))
    return disagreements, cases


class TestBarrierCheck:
    """``certify.check_barrier`` on the matching engine's answer: a
    matching and the outer vertices, whose Tutte-Berge bound it must meet."""

    @pytest.mark.parametrize(
        "g,mate,outer,message",
        [
            (K2, [1, 0], [True, True], "even-sized inessential component"),
            (P3, [-1, -1, -1], [True, False, True], r"0 matched edges fall short of .* 2/2"),
            # triangle 0-1-2 with pendants 3 at 0 and 4 at 1: both
            # separator vertices matched into the one odd component
            (
                Graph(5, ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4))),
                [3, 4, -1, 0, 1],
                [True, True, True, False, False],
                r"2 matched edges fall short of .* 6/2",
            ),
            (P3, [1, 0, -1], [False, False, False], "remainder vertex 2 is not matched inside"),
            (C3, [-1, -1, -1], [True, True, True], r"0 matched edges fall short of .* 2/2"),
            # path 0-1-2-3: vertex 0 alone outer, its partner 2 partnered with 3
            (
                Graph(4, ((0, 1), (1, 2), (2, 3))),
                [2, 0, 3, 2],
                [True, False, False, False],
                "is not a matching",
            ),
        ],
        ids=["even", "separator-unmatched", "shared-component", "remainder", "odd-unmatched",
             "non-matching"],
    )
    def test_crafted_engine_answer_rejected(self, monkeypatch, g, mate, outer, message):
        certify.check_barrier(g.adjacency, *matching.maximum_matching(g.adjacency))
        with pytest.raises(InternalConsistencyError, match=message):
            certify.check_barrier(g.adjacency, mate, outer)
        # disp2 reads the engine through its own name, and checks it first
        monkeypatch.setattr(solve2, "maximum_matching", lambda adjacency: (mate, outer))
        with pytest.raises(InternalConsistencyError, match=message):
            disp(g, Fraction(2))

    def test_agrees_with_reference_up_to_5_vertices(self):
        graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
        disagreements, cases = _barrier_disagreements(graphs)
        assert disagreements == []
        assert cases == 23_942

    @pytest.mark.slow
    def test_agrees_with_reference_on_6_vertices(self):
        disagreements, cases = _barrier_disagreements(all_connected_graphs(6))
        assert disagreements == []
        assert cases == 26_704 * 64

    def test_rejects_seeded_non_matchings(self):
        rng = random.Random(46)
        rejected = 0
        for _ in range(200):
            n = rng.randint(3, 12)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            mate, outer = matching.maximum_matching(g.adjacency)
            v = rng.randrange(n)
            u = rng.choice([w for w in range(n) if w not in (v, mate[v])])
            for bad in (
                [u if w == v else x for w, x in enumerate(mate)],  # one-sided
                [-2 if w == v else x for w, x in enumerate(mate)],  # not a vertex
                [n if w == v else x for w, x in enumerate(mate)],
                mate[:-1],  # an entry short
            ):
                with pytest.raises(InternalConsistencyError, match="is not a matching"):
                    certify.check_barrier(g.adjacency, bad, outer)
                rejected += 1
            if u not in g.adjacency[v]:  # a symmetric pair along a non-edge
                bad = list(mate)
                for w in (v, u, mate[v], mate[u]):
                    if w != -1:
                        bad[w] = -1
                bad[v], bad[u] = u, v
                with pytest.raises(InternalConsistencyError, match="is not a matching"):
                    certify.check_barrier(g.adjacency, bad, outer)
                rejected += 1
        assert rejected > 850
