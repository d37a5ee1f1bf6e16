"""Routing of spacings to the closed forms, the numerator-two route, or the oracle."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from helpers import (
    PairWitness,
    connected_graphs_max_edges,
    cubic_catalogue,
    random_cactus,
    random_connected_graph,
    random_tree,
    reference_build,
    reference_format_witness,
    reference_gadget_points,
    reference_is_dispersed,
    reference_numerator_two_points,
    reference_oracle_points,
    reference_unit_numerator_points,
    vertex_point,
    witness_of,
    witness_points,
)

from deltadisp import (
    Graph,
    InternalConsistencyError,
    NPHardRegimeError,
    OracleTimeoutError,
    SizeGuardExceededError,
    WitnessSet,
    brute_disp,
    build_conflict_graph,
    build_gadget,
    disp,
    format_witness,
    subdivide,
    witness_from_independent_set,
)
from deltadisp.solve2 import disp2

K2 = Graph(2, ((0, 1),))
C3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
STAR = Graph(4, ((0, 1), (0, 2), (0, 3)))
P3 = Graph(3, ((0, 1), (1, 2)))
P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))


class TestClosedForms:
    def test_k2_half(self):
        value, witness = disp(K2, Fraction(1, 2))
        assert value == 3
        offsets = sorted(p.offset for p in witness_points(witness))
        assert offsets == [0, Fraction(1, 2), 1]

    def test_triangle_unit(self):
        value, witness = disp(C3, Fraction(1))
        assert value == 3
        assert all(p.offset == Fraction(1, 2) for p in witness_points(witness))

    def test_tree_formula(self):
        rng = random.Random(20)
        for b in (1, 2, 3):
            for _ in range(5):
                t = random_tree(rng, rng.randint(1, 8))
                assert disp(t, Fraction(1, b))[0] == b * t.edge_count + 1

    def test_non_tree_formula(self):
        rng = random.Random(21)
        for b in (1, 2, 3):
            for _ in range(5):
                n = rng.randint(3, 6)
                g = random_connected_graph(rng, n, rng.randint(1, 3))
                assert not g.is_tree
                assert disp(g, Fraction(1, b))[0] == b * g.edge_count

    def test_tree_detection_matches_edge_count(self):
        rng = random.Random(22)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(1, 8), rng.randint(0, 4))
            assert g.is_tree == (g.edge_count == g.vertex_count - 1)


class TestNumeratorTwo:
    def test_k2_two_thirds(self):
        assert disp(K2, Fraction(2, 3))[0] == 2

    def test_delta_two_delegates(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 6))
            assert disp(g, Fraction(2))[0] == disp2(g, 1)[0]

    def test_surcharge_identity(self):
        rng = random.Random(24)
        for b in (3, 5, 7):
            z = (b - 1) // 2
            for _ in range(8):
                g = random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 5))
                assert disp(g, Fraction(2, b))[0] == disp2(g, 1)[0] + z * g.edge_count


class TestBruteforceGate:
    def test_hard_regime_raises_without_optin(self):
        with pytest.raises(NPHardRegimeError):
            disp(C3, Fraction(3))
        with pytest.raises(NPHardRegimeError):
            disp(C3, Fraction(5, 2))

    def test_trees_need_no_optin(self):
        assert disp(K2, Fraction(3))[0] == 1
        assert disp(K2, Fraction(5, 2))[0] == 1

    def test_hard_regime_with_optin(self):
        value, _ = disp(C3, Fraction(3), allow_bruteforce=True)
        assert value == brute_disp(C3, Fraction(3))[0]

    def test_reduction_happens_before_gate(self):
        # 4/2 reduces to numerator 2: polynomial, no opt-in needed
        assert disp(K2, Fraction(4, 2))[0] == disp2(K2, 1)[0]


class TestAgainstOracle:
    DELTAS = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2),
        Fraction(2, 3),
        Fraction(2, 5),
    ]

    def _check(self, max_edges):
        for g in connected_graphs_max_edges(max_edges):
            for delta in self.DELTAS:
                value, witness = disp(g, delta)
                assert len(witness) == value
                assert reference_is_dispersed(g, witness_points(witness), delta)
                assert value == brute_disp(g, delta)[0], (g, delta)

    def test_all_graphs_up_to_3_edges(self):
        self._check(3)

    @pytest.mark.slow
    def test_all_graphs_up_to_5_edges(self):
        self._check(5)


class TestScalingConsistency:
    def test_subdivision_matches(self):
        rng = random.Random(25)
        for _ in range(10):
            n = rng.randint(2, 5)
            g = random_connected_graph(rng, n, rng.randint(0, min(3, n * (n - 1) // 2 - n + 1)))
            for c in (2, 3):
                bigger = subdivide(g, c)
                for delta in (Fraction(1), Fraction(2), Fraction(2, 3)):
                    v1 = disp(g, delta, allow_bruteforce=True)[0]
                    v2 = disp(bigger, c * delta, allow_bruteforce=True)[0]
                    assert v1 == v2


class TestEdgeCases:
    def test_single_vertex(self):
        g = Graph(1, ())
        for delta in (Fraction(1), Fraction(2), Fraction(7, 3)):
            value, witness = disp(g, delta, allow_bruteforce=True)
            assert value == 1
            assert witness_points(witness) == (vertex_point(g, 0),)

    def test_value_at_least_one_even_for_huge_delta(self):
        assert disp(K2, Fraction(2))[0] >= 1
        assert brute_disp(K2, Fraction(99))[0] == 1

    def test_tree_route_ends_at_huge_delta(self):
        # a 3-point grid, but a search radius of 10^12 hops
        assert disp(K2, Fraction(10**12))[0] == 1
        assert disp(K2, Fraction(10**12 + 1, 3))[0] == 1

    @pytest.mark.parametrize("delta", [Fraction(1, 10**9), Fraction(2, 10**9 + 1)])
    def test_grid_guard_of_numerators_one_and_two_allocates_nothing(self, delta):
        # K2's grid of step 1/(2b) has 2b + 1 points, far over the limit, but
        # its witness is one run: answered and checked in under 1 MiB.  The
        # guard sits where the witness is expanded, in its text, and refuses
        # before any text is built
        value = delta.denominator + 1 if delta.numerator == 1 else 1 + delta.denominator // 2
        tracemalloc.start()
        try:
            answer, witness = disp(K2, delta)
            with pytest.raises(SizeGuardExceededError, match=f"this witness has {value} points"):
                format_witness(K2, witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer == len(witness) == value and len(witness.runs) == 1
        assert peak < 1 << 20

    def test_polynomial_routes_on_2000_vertex_trees(self):
        rng = random.Random(38)
        for delta in (Fraction(1, 3), Fraction(2), Fraction(2, 5)):
            g = random_tree(rng, 2000)
            value, witness = disp(g, delta)
            assert len(witness) == value

    @pytest.mark.parametrize(
        "g, delta",
        [(C3, Fraction(1, 2)), (C3, Fraction(2, 3)), (P3, Fraction(3)), (C3, Fraction(3, 2))],
        ids=["closed-form", "numerator-two", "tree", "oracle"],
    )
    def test_nan_timeout_refused_on_every_route(self, g, delta):
        with pytest.raises(ValueError, match="not NaN"):
            disp(g, delta, allow_bruteforce=True, timeout=float("nan"))

    @pytest.mark.parametrize(
        "cap, timeout", [(0, None), (-5, None), (1, -1.0), (1, float("inf"))],
        ids=["cap-0", "cap-negative", "timeout-negative", "timeout-inf"],
    )
    @pytest.mark.parametrize(
        "g, delta",
        [(C3, Fraction(1, 2)), (C3, Fraction(2, 3)), (P3, Fraction(3)), (C3, Fraction(3, 2))],
        ids=["closed-form", "numerator-two", "tree", "oracle"],
    )
    def test_limits_refused_on_every_route(self, g, delta, cap, timeout):
        with pytest.raises(ValueError, match="cap must be at least 1|finite number of seconds"):
            disp(g, delta, allow_bruteforce=True, cap=cap, timeout=timeout)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            disp(K2, Fraction(0))
        with pytest.raises(ValueError):
            disp(K2, Fraction(-1))


class TestOneBuildOneCheck:
    """Every public solve builds its witness once and checks it once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"build": 0, "check": 0}
        check = WitnessSet.is_dispersed

        def checking(*args, **kwargs):
            counts["check"] += 1
            return check(*args, **kwargs)

        monkeypatch.setattr(WitnessSet, "is_dispersed", checking)
        build = WitnessSet._from_runs.__func__

        def building(cls, *args, **kwargs):
            counts["build"] += 1
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(WitnessSet, "_from_runs", classmethod(building))
        return counts

    def _once(self, counts, solve):
        counts.update(build=0, check=0)
        solve()
        assert counts == {"build": 1, "check": 1}

    def test_disp(self, counts):
        rng = random.Random(71)
        tree = random_tree(rng, 12)
        sparse = random_connected_graph(rng, 12, 4)
        cactus = random_cactus(rng, 12)
        self._once(counts, lambda: disp(tree, Fraction(1, 3)))
        self._once(counts, lambda: disp(tree, Fraction(5, 2)))
        self._once(counts, lambda: disp(sparse, Fraction(1, 3)))
        for delta in (Fraction(2), Fraction(2, 3), Fraction(2, 5)):
            self._once(counts, lambda: disp(cactus, delta))
        small = random_connected_graph(rng, 5, 1)
        self._once(counts, lambda: disp(small, Fraction(5, 2), allow_bruteforce=True))
        self._once(counts, lambda: disp(Graph(1, ()), Fraction(2)))

    def test_gadget_witness_and_brute_disp(self, counts):
        inst = build_gadget(cubic_catalogue()["k4"], Fraction(3))
        self._once(counts, lambda: witness_from_independent_set(inst, {0}))
        g = random_connected_graph(random.Random(72), 6, 2)
        self._once(counts, lambda: brute_disp(g, Fraction(5, 2)))

        def timed_out():
            with pytest.raises(OracleTimeoutError):
                brute_disp(g, Fraction(5, 2), timeout=0.0)

        self._once(counts, timed_out)

    def test_solve2_builds_and_checks_nothing(self, counts):
        counts.update(build=0, check=0)
        g = random_cactus(random.Random(73), 12)
        for b in (1, 3):
            disp2(g, b)
        assert counts == {"build": 0, "check": 0}


class TestCheckedExit:
    """A corrupted answer from any solver raises at the one checked exit."""

    def test_route_value_one_too_high(self, monkeypatch):
        from deltadisp import dispatch

        route = dispatch._unit_numerator

        def corrupted(g, b):
            value, form = route(g, b)
            return value + 1, form

        monkeypatch.setattr(dispatch, "_unit_numerator", corrupted)
        for g in (STAR, C3):
            with pytest.raises(InternalConsistencyError, match="fails verification"):
                disp(g, Fraction(1, 2))

    @pytest.mark.parametrize("delta", [Fraction(2), Fraction(2, 3)], ids=["2", "2/3"])
    def test_corrupted_delta_two_witness(self, monkeypatch, delta):
        # crafted engine answers, on g and on the surplus graph B: both ends
        # of K2 outer (an even component); end 0 alone matched (code 5, an
        # asymmetric mate); both midpoints of P3, 1 apart (a mate that is
        # not a matching); and on the star, B's engine claiming no matched
        # edge, or its true matching with only one leaf missed.  The first
        # three are caught by the barrier check, the last two reach the
        # witness check
        from deltadisp import solve2

        engine = solve2.maximum_matching
        cases = (
            (K2, ([1, 0], [True, True]), None, "even-sized inessential component"),
            (K2, ([1, -1], [True, False]), None, "is not a matching"),
            (P3, ([1, 2, -1], [False] * 3), None, "is not a matching"),
            (STAR, None, ([-1] * 4, [True, True, True, False]), "fails verification"),
            (STAR, None, ([3, -1, -1, 0], [False, True, False, False]), "fails verification"),
        )
        for g, on_g, on_b, message in cases:

            def crafted(adjacency, g=g, on_g=on_g, on_b=on_b):
                answer = on_g if adjacency is g.adjacency else on_b
                return engine(adjacency) if answer is None else answer

            monkeypatch.setattr(solve2, "maximum_matching", crafted)
            with pytest.raises(InternalConsistencyError, match=message):
                disp(g, delta)

    @pytest.mark.parametrize("delta", [Fraction(2), Fraction(2, 3)], ids=["2", "2/3"])
    @pytest.mark.parametrize("code", [3, 5, 6, 7])
    def test_faulty_edge_code_fails_the_exit(self, monkeypatch, code, delta):
        # disp2's refill of K2's one edge with `code`: bit 1 chooses end 0,
        # bit 2 end 1, bit 4 makes it a midpoint edge.  The value claimed is
        # the witness's own size, so the dispersion check alone rejects it
        from deltadisp import dispatch, solve2

        def form(code):
            held = bytearray([code & 1, code >> 1 & 1])
            mate = [1 if code & 4 else -1, -1]
            vertices = [v for v in (0, 1) if held[v]]
            runs = solve2._refill(K2, held, mate, delta.denominator)
            size = len(vertices) + sum(count for _, _, _, count in runs)
            return size, (2 * delta.denominator, vertices, runs)

        for valid in (0, 1, 2, 4):  # the sound codes pass the same exit
            monkeypatch.setattr(dispatch, "disp2", lambda g, b, valid=valid: form(valid))
            assert disp(K2, delta)[0] == form(valid)[0]
        monkeypatch.setattr(dispatch, "disp2", lambda g, b: form(code))
        with pytest.raises(InternalConsistencyError, match="fails verification"):
            disp(K2, delta)

    def test_min_surplus_value_one_low(self, monkeypatch):
        # the surplus is subtracted, so the value comes out one too high
        from deltadisp import solve2

        route = solve2._min_surplus

        def one_low(nodes, left):
            value, chosen = route(nodes, left)
            return value - 1, chosen

        monkeypatch.setattr(solve2, "_min_surplus", one_low)
        for g in (STAR, P4, K2):
            for delta in (Fraction(2), Fraction(2, 5)):
                with pytest.raises(InternalConsistencyError, match="fails verification"):
                    disp(g, delta)

    def test_predicted_bound_off_by_one(self, monkeypatch):
        from deltadisp import gadget

        inst = build_gadget(cubic_catalogue()["k4"], Fraction(3))
        bound = gadget.predicted_bound
        monkeypatch.setattr(gadget, "predicted_bound", lambda inst, k: bound(inst, k) + 1)
        with pytest.raises(InternalConsistencyError, match="fails verification"):
            witness_from_independent_set(inst, {0})

    def test_timed_out_search_with_conflicting_incumbent(self, monkeypatch):
        # both ends of K2 are candidates 0 and 1, fewer than 3 apart
        from deltadisp import oracle

        def timed_out(conflicts, deadline, far):
            raise oracle._SearchTimeout(0b11)

        monkeypatch.setattr(oracle, "_max_independent_set", timed_out)
        with pytest.raises(InternalConsistencyError, match="fails verification"):
            brute_disp(K2, Fraction(3))


class TestIntegerWitness:
    """Every route's integer witness against the point pipeline it replaced."""

    def _cases(self, monkeypatch):
        """``(graph, delta, witness, reference points)`` over every route."""
        from deltadisp import oracle

        rng = random.Random(81)
        trees = [random_tree(rng, n) for n in (1, 2, 3, 6, 9, 11, 14, 17, 20, 25)]
        sparse = [random_connected_graph(rng, n, n // 3) for n in (4, 6, 8, 10, 13, 16, 20, 25)]
        cacti = [random_cactus(rng, n) for n in (5, 7, 9, 12, 15, 18, 22, 26)]
        small = [
            random_connected_graph(rng, n, extra)
            for n, extra in ((3, 1), (4, 1), (5, 0), (5, 2), (6, 1))
        ]
        cases = []
        for g in trees + sparse + cacti + small:
            for b in (1, 2, 3, 4):
                delta = Fraction(1, b)
                cases.append((g, delta, disp(g, delta)[1], reference_unit_numerator_points(g, b)))
            for b in (1, 3, 5):
                delta = Fraction(2, b)
                cases.append((g, delta, disp(g, delta)[1], reference_numerator_two_points(g, b)))
        search = oracle._max_independent_set
        for g in small:
            for delta in (Fraction(1, 2), Fraction(2), Fraction(5, 2), Fraction(4, 3)):
                cg = build_conflict_graph(g, delta)
                reference = reference_oracle_points(g, delta, search(cg.conflicts, None, cg.far)[1])
                cases.append((g, delta, brute_disp(g, delta)[1], reference))

        # a timed-out search's incumbent: the optimum less its first candidate
        def timed_out(conflicts, deadline, far):
            mask = search(conflicts, None, far)[1]
            raise oracle._SearchTimeout(mask & (mask - 1))

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_max_independent_set", timed_out)
            for g in small:
                delta = Fraction(5, 2)
                cg = build_conflict_graph(g, delta)
                mask = search(cg.conflicts, None, cg.far)[1]
                with pytest.raises(OracleTimeoutError) as err:
                    brute_disp(g, delta)
                incumbent = reference_oracle_points(g, delta, mask & (mask - 1))
                cases.append((g, delta, err.value.witness, incumbent))

        for delta in (Fraction(3), Fraction(5, 2)):
            inst = build_gadget(cubic_catalogue()["k4"], delta)
            for chosen in ((), (0,), (2,)):
                cases.append((
                    inst.g, delta, witness_from_independent_set(inst, chosen),
                    reference_gadget_points(inst, chosen),
                ))
        return cases

    def test_matches_point_pipeline(self, monkeypatch):
        cases = self._cases(monkeypatch)
        mismatches = []
        verdicts = {True: 0, False: 0}
        for g, delta, witness, reference in cases:
            points = reference_build(g, reference)
            if witness_points(witness) != points or witness != witness_of(g, reference, delta):
                mismatches.append(("points", g, delta))
            if format_witness(g, witness) != reference_format_witness(g, points):
                mismatches.append(("text", g, delta))
            pairs = PairWitness.of(witness)
            form = (witness.scale, witness.vertices, witness.runs)
            for spacing in (delta, delta * Fraction(9, 8), delta * Fraction(3, 2)):
                want = reference_is_dispersed(g, reference, spacing)
                verdicts[want] += 1
                got = (
                    WitnessSet(g, *form, spacing).is_dispersed(),
                    witness_of(g, points, spacing).is_dispersed(),
                    PairWitness(g, pairs.scale, pairs.vertices, pairs.interior, spacing).is_dispersed(),
                )
                if got != (want, want, want):
                    mismatches.append(("verdict", g, spacing))
        # two witnesses on one graph are equal exactly when their reference
        # points and spacings are
        keyed = [(g, delta, w, reference_build(g, r)) for g, delta, w, r in cases]
        for (g1, d1, w1, p1), (g2, d2, w2, p2) in itertools.combinations(keyed, 2):
            if g1 is g2 and (w1 == w2) != (d1 == d2 and p1 == p2):
                mismatches.append(("equality", g1, d1, d2))
        assert mismatches == []
        assert len(cases) > 200 and min(verdicts.values()) > 200, (len(cases), verdicts)
