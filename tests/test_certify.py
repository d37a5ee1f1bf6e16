"""Certificate extraction, exact LP feasibility, and the text format."""

import random
from fractions import Fraction

import pytest
from helpers import (
    dense_certificate_system,
    fourier_motzkin_feasible,
    grid_feasible,
    midpoint,
    random_cactus,
    random_connected_graph,
    random_tree,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadisp import (
    Certificate,
    Graph,
    WitnessSet,
    brute_disp,
    disp,
    extract_certificate,
    format_certificate,
    parse_certificate,
    verify_certificate,
    vertex_point,
)

K2 = Graph(2, ((0, 1),))
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


class TestUntrustedCertificates:
    @pytest.mark.parametrize("kind", ["tree", "sparse"])
    def test_large_certificates_stay_local(self, kind):
        rng = random.Random(44)
        edges = set(random_tree(rng, 2000).edges)
        while kind == "sparse" and len(edges) < 2199:
            u, v = rng.sample(range(2000), 2)
            if (v, u) not in edges:
                edges.add((u, v))
        g = Graph(2000, tuple(sorted(edges)))
        delta = Fraction(2, 3)
        value, witness = disp(g, delta)
        cert = extract_certificate(g, witness)
        assert len(cert.interior_counts) == g.edge_count  # every edge occupied
        assert verify_certificate(g, delta, cert, value).accepted
        counts = dict(cert.interior_counts)
        counts[min(e for e, c in counts.items() if c < int(1 / delta) + 1)] += 1
        verdict = verify_certificate(g, delta, Certificate(cert.vertices, counts), 0)
        assert not verdict.accepted
        assert verdict.reason.startswith("infeasible system: x(")


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

    def test_negative_tokens_reach_the_checks(self):
        k, cert = parse_certificate("-1\nW: -2\n")
        assert k == -1 and cert.vertices == {-2}


class TestWitnessSetInterface:
    def test_extract_counts_interior_points(self):
        ws = WitnessSet.build(
            STAR,
            [vertex_point(STAR, 1), midpoint(STAR, 1), midpoint(STAR, 2)],
            Fraction(1, 2),
        )
        cert = extract_certificate(STAR, ws)
        assert cert.vertices == {1}
        assert cert.interior_counts == {1: 1, 2: 1}
