"""Conflict-graph construction and the exact brute-force search."""

import random
from fractions import Fraction

import pytest
from helpers import (
    all_pairs_conflicts,
    conflict_pairs,
    connected_graphs_max_edges,
    cubic_catalogue,
    hop_table,
    induced_conflicts,
    brute_is_dispersed,
    point_distance,
    random_cactus,
    random_connected_graph,
    random_sparse_graph,
    random_tree,
    reference_max_independent_set,
    reference_reduce,
    source_point,
    witness_points,
)
from helpers import _clique_cover_size as first_fit_cover_size
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadisp import (
    Graph,
    OracleTimeoutError,
    SizeGuardExceededError,
    brute_disp,
    build_conflict_graph,
    build_gadget,
    format_witness,
    subdivide,
)
from deltadisp.oracle import _clique_cover_size, _max_independent_set, _reduce

K2 = Graph(2, ((0, 1),))
C3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
STAR = Graph(4, ((0, 1), (0, 2), (0, 3)))


def candidates(g, cg, delta):
    """The grid candidates of a conflict graph on g at spacing delta = a/b,
    as points of g: the grid step is 1/(2b)."""
    return [source_point(g, 2 * delta.denominator, i) for i in range(len(cg.conflicts))]


class TestConflictGraph:
    def test_k2_delta_2_all_conflict(self):
        cg = build_conflict_graph(K2, Fraction(2))
        assert len(candidates(K2, cg, Fraction(2))) == 3
        assert len(conflict_pairs(cg)) == 3

    def test_k2_delta_half_quarter_grid(self):
        # grid 1/(2b) = 1/4: five candidates, adjacent ones conflict
        cg = build_conflict_graph(K2, Fraction(1, 2))
        cand = candidates(K2, cg, Fraction(1, 2))
        assert len(cand) == 5
        pairs = conflict_pairs(cg)
        assert len(pairs) == 4
        for i, j in pairs:
            d = point_distance(K2, cand[i], cand[j])
            assert d == Fraction(1, 4)

    def test_triangle_delta_1_midpoint_conflicts(self):
        cg = build_conflict_graph(C3, Fraction(1))
        cand = candidates(C3, cg, Fraction(1))
        assert len(cand) == 6
        pairs = set(conflict_pairs(cg))
        assert len(pairs) == 6  # each midpoint vs its two endpoints
        mids = [i for i, p in enumerate(cand) if p.offset == Fraction(1, 2)]
        for i in mids:
            assert sum(1 for a, b in pairs if i in (a, b)) == 2

    def test_candidate_count_invariant(self):
        rng = random.Random(30)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 6), rng.randint(0, 5))
            for delta in (Fraction(1), Fraction(2, 3), Fraction(3, 4)):
                q = 2 * delta.denominator
                cg = build_conflict_graph(g, delta)
                assert len(candidates(g, cg, delta)) == g.vertex_count + g.edge_count * (q - 1)

    def test_conflicts_match_point_distance(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 5), rng.randint(0, 4))
            delta = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 3]))
            cg = build_conflict_graph(g, delta)
            cand = candidates(g, cg, delta)
            expected = {
                (i, j)
                for i in range(len(cand))
                for j in range(i + 1, len(cand))
                if point_distance(g, cand[i], cand[j]) < delta
            }
            assert set(conflict_pairs(cg)) == expected

    def test_symmetric_irreflexive(self):
        cg = build_conflict_graph(C3, Fraction(3, 2))
        for i, mask in enumerate(cg.conflicts):
            assert not mask >> i & 1
            for j in range(len(cg.conflicts)):
                assert (mask >> j & 1) == (cg.conflicts[j] >> i & 1)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceededError):
            build_conflict_graph(C3, Fraction(1, 100), cap=50)

    def test_matches_all_pairs_reference(self):
        mismatches = []
        for g, delta in _differential_cases(random.Random(60), 300):
            if build_conflict_graph(g, delta).conflicts != all_pairs_conflicts(g, delta):
                mismatches.append((g, delta))
        assert mismatches == []

    def test_far_is_the_last_growing_ring(self):
        # far[i] is what the last round that grew added to candidate i's
        # ball: the reference conflicts at spacing s less those at s - 1/q,
        # for the largest s <= delta where the two differ (s = delta unless
        # the rounds stopped early)
        rng = random.Random(66)
        early = 0
        for case in range(60):
            n = rng.randint(1, 8)
            g = (random_tree, random_cactus)[case % 2](rng, n)
            delta = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            cg = build_conflict_graph(g, delta)
            q = 2 * delta.denominator
            assert all(f & ~c == 0 for f, c in zip(cg.far, cg.conflicts))
            spacing = delta
            outer = all_pairs_conflicts(g, spacing, q)
            while spacing > 0:
                inner = all_pairs_conflicts(g, spacing - Fraction(1, q), q)
                if inner != outer:
                    break
                spacing -= Fraction(1, q)
            early += spacing < delta
            assert cg.far == tuple(a ^ b for a, b in zip(outer, inner)), (g, delta)
        assert 0 < early < 60

    def test_brute_disp_on_200_vertex_tree(self):
        g = random_tree(random.Random(61), 200)
        value, witness = brute_disp(g, Fraction(5, 2))
        assert len(witness) == value


def _differential_cases(rng, rounds):
    """(graph, delta) pairs on trees, sparse graphs and cacti with delta
    numerators 1-9 over denominators 1-4, at most 200 grid candidates."""
    cases = 0
    while cases < rounds:
        n = rng.randint(2, 12)
        kind = cases % 3
        if kind == 0:
            g = random_tree(rng, n)
        elif kind == 1:
            g = random_connected_graph(rng, n, rng.randint(1, n // 2 + 1))
        else:
            g = random_cactus(rng, n)
        delta = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        if g.vertex_count + g.edge_count * (2 * delta.denominator - 1) <= 200:
            cases += 1
            yield g, delta


def _is_independent(conflicts, mask):
    return all(not conflicts[i] & mask for i in range(len(conflicts)) if mask >> i & 1)


class TestSearch:
    def test_matches_reference(self):
        mismatches = []
        for g, delta in _differential_cases(random.Random(62), 400):
            conflicts = build_conflict_graph(g, delta).conflicts
            value, mask = _max_independent_set(conflicts, None, (0,) * len(conflicts))
            if value != reference_max_independent_set(conflicts)[0]:
                mismatches.append((g, delta))
            assert mask.bit_count() == value
            assert _is_independent(conflicts, mask)
        assert mismatches == []

    def test_reductions_solve_tree_conflict_graphs(self):
        # a tree's conflict graph is chordal: domination and isolation
        # alone empty it, so the search never branches
        rng = random.Random(63)
        for _ in range(40):
            g = random_tree(rng, rng.randint(2, 30))
            delta = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            conflicts = build_conflict_graph(g, delta).conflicts
            full = (1 << len(conflicts)) - 1
            taken, rem = _reduce(conflicts, full, full, lambda: None, (0,) * len(conflicts))
            assert rem == 0
            assert taken.bit_count() == reference_max_independent_set(conflicts)[0]

    def test_deadline_covers_reductions(self, monkeypatch):
        # the clock passes the deadline right after the root node's check;
        # the root's reductions solve a tree outright, so only a check
        # inside them can stop the search
        from deltadisp import oracle

        conflicts = build_conflict_graph(random_tree(random.Random(64), 30), Fraction(3)).conflicts
        readings = iter([0.0])
        monkeypatch.setattr(oracle, "monotonic", lambda: next(readings, 1e9))
        with pytest.raises(OracleTimeoutError, match="independent-set search"):
            _max_independent_set(conflicts, 1.0, (0,) * len(conflicts))


def _grid_graph(width, height):
    edges = []
    for v in range(width * height):
        if v % width + 1 < width:
            edges.append((v, v + 1))
        if v + width < width * height:
            edges.append((v, v + width))
    return Graph(width * height, tuple(edges))


def _reduction_cases():
    """(graph, delta) on seeded trees, sparse graphs and cacti, a 4x4 grid,
    and the K4 and K3,3 gadgets at spacings whose plain reference search
    ends in under a second."""
    rng = random.Random(65)
    makers = (
        lambda n: random_tree(rng, n),
        lambda n: random_sparse_graph(rng, n, rng.randint(1, n // 2 + 1)),
        lambda n: random_cactus(rng, n),
    )
    cases = []
    while len(cases) < 150:
        g = makers[len(cases) % 3](rng.randint(2, 12))
        delta = Fraction(rng.randint(2, 9), rng.randint(1, 3))
        if g.vertex_count + g.edge_count * (2 * delta.denominator - 1) <= 160:
            cases.append((g, delta))
    grid = _grid_graph(4, 4)
    cases += [(grid, Fraction(d)) for d in ("1", "3/2", "2", "5/2", "3", "7/3")]
    catalogue = cubic_catalogue()
    k4, k33 = (build_gadget(catalogue[name], Fraction(3)).g for name in ("k4", "k33"))
    cases += [(k4, Fraction(d)) for d in (3, 4, 5, 6)]
    cases += [(k33, Fraction(d)) for d in (4, 6)]
    return cases


def _fixpoint_faults(conflicts, rem):
    """Candidates v of `rem` that are isolated, or whose closed
    neighbourhood lies within a remaining neighbour u's (N[v] within N[u],
    so u could still be dropped), both within `rem`."""
    faults = []
    for v in range(len(conflicts)):
        if not rem >> v & 1:
            continue
        nv = conflicts[v] & rem
        closed = nv | 1 << v
        if not nv or any(
            nv >> u & 1 and closed & ~(conflicts[u] | 1 << u) == 0 for u in range(len(conflicts))
        ):
            faults.append(v)
    return faults


def _check_reduction(conflicts):
    full = (1 << len(conflicts)) - 1
    taken, rem = _reduce(conflicts, full, full, lambda: None, (0,) * len(conflicts))
    assert _fixpoint_faults(conflicts, rem) == []
    assert taken & rem == 0 and _is_independent(conflicts, taken)
    assert not any(conflicts[i] & rem for i in range(len(conflicts)) if taken >> i & 1)
    rest = reference_max_independent_set(induced_conflicts(conflicts, rem))[0]
    assert taken.bit_count() + rest == reference_max_independent_set(conflicts)[0]
    assert (taken, rem) == reference_reduce(conflicts, full, full, lambda: None)


class TestReduceAgainstReference:
    """The running-intersection domination against the per-neighbour test
    it replaced (``helpers.reference_reduce``)."""

    def test_fixpoint_and_optimum(self):
        for g, delta in _reduction_cases():
            _check_reduction(build_conflict_graph(g, delta).conflicts)

    def test_brute_disp_matches_reference(self, monkeypatch):
        from deltadisp import oracle

        cases = _reduction_cases()
        ours = [brute_disp(g, delta) for g, delta in cases]
        monkeypatch.setattr(oracle, "_reduce", reference_reduce)
        theirs = [brute_disp(g, delta) for g, delta in cases]
        assert [v for v, _ in ours] == [v for v, _ in theirs]
        for (g, _), (_, a), (_, b) in zip(cases, ours, theirs):
            assert format_witness(g, a) == format_witness(g, b)


@st.composite
def conflict_masks(draw):
    """A symmetric, irreflexive conflict relation on up to 16 candidates."""
    n = draw(st.integers(0, 16))
    conflicts = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return tuple(conflicts)


@settings(max_examples=300, derandomize=True)
@given(conflicts=conflict_masks())
def test_search_matches_reference_property(conflicts):
    value, mask = _max_independent_set(conflicts, None, (0,) * len(conflicts))
    assert value == reference_max_independent_set(conflicts)[0]
    assert mask.bit_count() == value
    assert _is_independent(conflicts, mask)


@settings(max_examples=300, derandomize=True)
@given(conflicts=conflict_masks())
def test_reduce_matches_reference_property(conflicts):
    _check_reduction(conflicts)


@settings(max_examples=300, derandomize=True)
@given(data=st.data())
def test_reduce_with_any_hint_matches_reference_property(data):
    # the order hint never changes the result: any subset of each
    # candidate's conflicts, the empty one included
    conflicts = data.draw(conflict_masks())
    far = tuple(data.draw(st.integers(0, c)) & c for c in conflicts)
    rem = data.draw(st.integers(0, (1 << len(conflicts)) - 1))
    check = lambda: None  # noqa: E731
    assert _reduce(conflicts, rem, rem, check, far) == reference_reduce(conflicts, rem, rem, check)


@settings(max_examples=300, derandomize=True)
@given(data=st.data())
def test_cover_matches_first_fit_property(data):
    conflicts = data.draw(conflict_masks())
    remaining = data.draw(st.integers(0, (1 << len(conflicts)) - 1))
    assert _clique_cover_size(conflicts, remaining) == first_fit_cover_size(conflicts, remaining)


class TestCliqueCover:
    """The one-pass clique cover against first-fit (``helpers._clique_cover_size``)."""

    def test_matches_first_fit_on_conflict_graphs(self):
        rng = random.Random(67)
        for g, delta in _reduction_cases():
            conflicts = build_conflict_graph(g, delta).conflicts
            full = (1 << len(conflicts)) - 1
            for remaining in (full, *(rng.getrandbits(len(conflicts)) for _ in range(5))):
                assert _clique_cover_size(conflicts, remaining) == first_fit_cover_size(
                    conflicts, remaining
                ), (g, delta)

    def test_search_calls_the_bound_alike(self, monkeypatch):
        from deltadisp import oracle

        def searched(cover):
            calls = []

            def counted(conflicts, remaining):
                calls.append(remaining)
                return cover(conflicts, remaining)

            monkeypatch.setattr(oracle, "_clique_cover_size", counted)
            results = []
            for g, delta in _reduction_cases():
                cg = build_conflict_graph(g, delta)
                results.append(_max_independent_set(cg.conflicts, None, cg.far))
            return calls, results

        # the same bound calls, on the same remaining sets, and results
        ours = searched(_clique_cover_size)
        assert len(ours[0]) > 100
        assert ours == searched(first_fit_cover_size)


def _expire(monkeypatch, stop):
    """Patch the oracle's clock so a deadline one second after the call
    passes at `stop`: "build" reads 0 when brute_disp takes its deadline
    and far past it afterwards, so the first row of the conflict build
    stops; "search" stands still through the deadline and the build, then
    passes the deadline at the search's first node."""
    from deltadisp import oracle

    if stop == "build":
        readings = iter([0.0])
        monkeypatch.setattr(oracle, "monotonic", lambda: next(readings, 1e9))
        return
    clock = [0.0]
    build = oracle.build_conflict_graph

    def build_then_expire(*args, **kwargs):
        cg = build(*args, **kwargs)
        clock[0] = 1e9
        return cg

    monkeypatch.setattr(oracle, "monotonic", lambda: clock[0])
    monkeypatch.setattr(oracle, "build_conflict_graph", build_then_expire)


class TestBruteDisp:
    def test_5x5_grid_at_5_3(self):
        g = _grid_graph(5, 5)
        value, witness = brute_disp(g, Fraction(5, 3))
        assert value == 15
        assert brute_is_dispersed(g, witness_points(witness), Fraction(5, 3))

    @pytest.mark.parametrize(
        "g,delta,value",
        [
            (K2, Fraction(2), 1),
            (C3, Fraction(1), 3),
            (STAR, Fraction(2), 3),
        ],
    )
    def test_known_values(self, g, delta, value):
        got, witness = brute_disp(g, delta)
        assert got == value
        assert len(witness) == value
        assert brute_is_dispersed(g, witness_points(witness), delta)

    def test_single_vertex(self):
        assert brute_disp(Graph(1, ()), Fraction(5))[0] == 1

    @pytest.mark.parametrize("delta", ["1", "2", "7/3", "3"])
    def test_single_vertex_witness(self, delta):
        g = Graph(1, ())
        value, witness = brute_disp(g, Fraction(delta))
        assert value == 1
        assert (witness.vertices, witness.interior) == ((0,), ())
        assert format_witness(g, witness) == "-1 0 0 0/1\n"

    def test_value_at_least_one(self):
        rng = random.Random(32)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 5), rng.randint(0, 3))
            assert brute_disp(g, Fraction(rng.randint(1, 9)))[0] >= 1

    def test_monotone_in_delta(self):
        rng = random.Random(33)
        chain = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 5), rng.randint(0, 4))
            values = [brute_disp(g, d)[0] for d in chain]
            assert values == sorted(values, reverse=True)

    def test_deterministic(self):
        g = random_connected_graph(random.Random(34), 6, 4)
        first = brute_disp(g, Fraction(3, 2))
        second = brute_disp(g, Fraction(3, 2))
        assert first == second

    def test_timeout_is_distinct(self):
        g = random_connected_graph(random.Random(35), 8, 10)
        with pytest.raises(OracleTimeoutError):
            brute_disp(g, Fraction(3, 2), timeout=0.0)

    def test_nan_timeout_is_refused(self):
        # a NaN deadline would never pass: the guard would be off
        with pytest.raises(ValueError, match="NaN"):
            brute_disp(K2, Fraction(3, 2), timeout=float("nan"))

    @pytest.mark.parametrize(
        "cap, timeout, message",
        [
            (0, None, "cap must be at least 1, not 0"),
            (-5, None, "cap must be at least 1, not -5"),
            (2000, -1.0, "finite number of seconds >= 0, not -1.0"),
            (2000, float("inf"), "finite number of seconds >= 0, not inf"),
        ],
    )
    def test_limits_are_refused(self, cap, timeout, message):
        with pytest.raises(ValueError, match=message):
            brute_disp(K2, Fraction(3, 2), cap=cap, timeout=timeout)

    def test_timeout_carries_verified_incumbent(self):
        g = random_connected_graph(random.Random(35), 8, 10)
        with pytest.raises(OracleTimeoutError) as err:
            brute_disp(g, Fraction(3, 2), timeout=0.0)
        assert err.value.best == len(err.value.witness) >= 1
        assert brute_is_dispersed(g, witness_points(err.value.witness), Fraction(3, 2))

    def test_search_timeout_keeps_greedy_incumbent(self, monkeypatch):
        g = random_connected_graph(random.Random(39), 9, 6)
        delta = Fraction(7, 2)
        optimum = brute_disp(g, delta)[0]
        _expire(monkeypatch, "search")
        with pytest.raises(OracleTimeoutError, match="independent-set search") as err:
            brute_disp(g, delta, timeout=1.0)
        best, witness = err.value.best, err.value.witness
        assert 1 <= best == len(witness) <= optimum
        assert brute_is_dispersed(g, witness_points(witness), delta)

    def test_deadline_covers_conflict_build(self, monkeypatch):
        _expire(monkeypatch, "build")
        g = random_connected_graph(random.Random(36), 8, 10)
        with pytest.raises(OracleTimeoutError, match="conflict-graph build"):
            brute_disp(g, Fraction(3, 2), timeout=1.0)

    @pytest.mark.parametrize("stop", [None, "build", "search"])
    def test_one_verified_exit(self, monkeypatch, stop):
        # the answer, a build timeout's vertex 0 and a search timeout's
        # incumbent each pass WitnessSet.verified once, at the one exit
        from deltadisp import oracle

        g = random_connected_graph(random.Random(39), 9, 6)
        delta = Fraction(7, 2)
        calls = []
        verified = oracle.WitnessSet.verified

        def counted(*args):
            calls.append(args)
            return verified(*args)

        if stop is not None:
            _expire(monkeypatch, stop)
        monkeypatch.setattr(oracle.WitnessSet, "verified", counted)
        if stop is None:
            brute_disp(g, delta, timeout=1.0)
        else:
            with pytest.raises(OracleTimeoutError, match=stop) as err:
                brute_disp(g, delta, timeout=1.0)
        assert len(calls) == 1
        if stop == "build":
            assert err.value.best == 1
            assert err.value.witness == verified(g, 1, [0], [], delta, 1)

    def test_expired_deadline_stops_build_at_first_row(self, monkeypatch):
        # the build reads the clock once before each round of ball growth:
        # an expired deadline stops it at its first read, and a finished
        # build reads it at most once per hop of the radius delta*q - 1 = 9
        # (exactly 9 here: the subdivision is wider than 9 hops)
        from deltadisp import oracle

        g = random_tree(random.Random(37), 250)  # 997 candidates at delta 5/2
        reads = []
        monkeypatch.setattr(oracle, "monotonic", lambda: reads.append(1) or 1.0)
        with pytest.raises(OracleTimeoutError):
            build_conflict_graph(g, Fraction(5, 2), deadline=0.0)
        assert len(reads) == 1
        reads.clear()
        cg = build_conflict_graph(g, Fraction(5, 2), deadline=2.0)
        assert len(cg.conflicts) == 997 and len(reads) == 9

    def test_saturation_bounds_rounds_by_the_graph(self, monkeypatch):
        # an untrusted huge delta must not drive the work: the balls stop
        # growing after diameter(subdivision) rounds, and one more round
        # that changes nothing ends the build
        from deltadisp import oracle

        p4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
        diameter = max(map(max, hop_table(subdivide(p4, 2))))
        reads = []
        monkeypatch.setattr(oracle, "monotonic", lambda: reads.append(1) or 0.0)
        cg = build_conflict_graph(p4, Fraction(10**6), deadline=1.0)
        full = (1 << 7) - 1  # 4 vertices and one midpoint per edge
        assert cg.conflicts == tuple(full ^ (1 << i) for i in range(7))
        assert len(reads) <= diameter + 2

    def test_finer_grid_same_optimum(self):
        # completeness of the half-step grid: quarter-step search agrees
        deltas = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
        for g in connected_graphs_max_edges(3):
            for delta in deltas:
                coarse = brute_disp(g, delta)[0]
                fine = _brute_with_grid(g, delta, 4 * delta.denominator)
                assert coarse == fine, (g, delta)

    @pytest.mark.slow
    def test_finer_grid_same_optimum_4_edges(self):
        deltas = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
        for g in connected_graphs_max_edges(4):
            for delta in deltas:
                coarse = brute_disp(g, delta)[0]
                fine = _brute_with_grid(g, delta, 4 * delta.denominator)
                assert coarse == fine, (g, delta)


def _brute_with_grid(g, delta, grid_denominator):
    # the search over the conflicts of the grid of step 1/grid_denominator
    conflicts = all_pairs_conflicts(g, delta, grid_denominator)
    return _max_independent_set(conflicts, None, (0,) * len(conflicts))[0]
