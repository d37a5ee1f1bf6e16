"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All criteria run in the default tier.  All comparisons are exact.
"""

import random
from fractions import Fraction

import pytest
from helpers import (
    all_connected_graphs,
    brute_factor_critical,
    brute_independent_sets,
    brute_inessential,
    CutInstance,
    brute_min_surplus,
    connected_graphs_max_edges,
    cubic_catalogue,
    matching_number,
    min_surplus,
    random_connected_graph,
    random_tree,
    reference_edmonds_gallai,
    reference_is_dispersed,
    witness_points,
)

from deltadisp import (
    brute_disp,
    build_gadget,
    certify,
    disp,
    extract_certificate,
    matching,
    predicted_bound,
    subdivide,
    verify_certificate,
    witness_from_independent_set,
)

TWO = Fraction(2)


def _report(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"[criterion {number}] {status} - {description}")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# Shared witness families (computed once; criterion 7 re-consumes them)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def family_delta2():
    """(graph, delta, value, witness, brute_value) at delta=2."""
    entries = []
    for n in range(1, 6):
        for g in all_connected_graphs(n):
            value, witness = disp(g, TWO)
            entries.append((g, TWO, value, witness, brute_disp(g, TWO)[0]))
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(6, 9)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        value, witness = disp(g, TWO)
        entries.append((g, TWO, value, witness, brute_disp(g, TWO)[0]))
    return entries


@pytest.fixture(scope="session")
def family_numerator2():
    """(graph, delta, value, witness, brute_value) at delta in {2/3, 2/5}."""
    entries = []
    for g in connected_graphs_max_edges(5):
        for b in (3, 5):
            delta = Fraction(2, b)
            value, witness = disp(g, delta)
            entries.append((g, delta, value, witness, brute_disp(g, delta)[0]))
    return entries


@pytest.fixture(scope="session")
def family_unit_numerator():
    """(graph, delta, value, witness, brute_value or None) at delta=1/b."""
    rng = random.Random(103)
    graphs = []
    for _ in range(20):
        graphs.append(random_tree(rng, rng.randint(2, 9)))
    while sum(1 for g in graphs if not g.is_tree) < 20:
        n = rng.randint(3, 7)
        extra = rng.randint(1, max(1, 8 - (n - 1)))
        g = random_connected_graph(rng, n, extra)
        if not g.is_tree and g.edge_count <= 8:
            graphs.append(g)
    entries = []
    for g in graphs:
        for b in (1, 2, 3):
            delta = Fraction(1, b)
            value, witness = disp(g, delta)
            confirmed = brute_disp(g, delta)[0] if g.edge_count <= 5 else None
            entries.append((g, delta, value, witness, confirmed))
    return entries


@pytest.fixture(scope="session")
def family_scaling():
    """Pairs of (base entry, subdivided entry) for c in {2,3}."""
    rng = random.Random(104)
    pairs = []
    for _ in range(30):
        n = rng.randint(2, 6)
        max_extra = min(5, n * (n - 1) // 2) - (n - 1)
        g = random_connected_graph(rng, n, rng.randint(0, max(0, max_extra)))
        for c in (2, 3):
            bigger = subdivide(g, c)
            for delta in (Fraction(1), Fraction(2), Fraction(2, 3)):
                v1, w1 = disp(g, delta, allow_bruteforce=True)
                v2, w2 = disp(bigger, c * delta, allow_bruteforce=True)
                pairs.append(
                    (
                        (g, delta, v1, w1, brute_disp(g, delta)[0]),
                        (bigger, c * delta, v2, w2, brute_disp(bigger, c * delta)[0]),
                    )
                )
    return pairs


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence_delta2(family_delta2):
    failures = []
    for g, _, value, witness, brute_value in family_delta2:
        if value != brute_value:
            failures.append((g, value, brute_value))
        if len(witness) != value or not reference_is_dispersed(g, witness_points(witness), TWO):
            failures.append((g, "bad witness"))
    _report(
        1,
        f"disp(g, 2) == brute_disp on {len(family_delta2)} graphs "
        f"(all connected <=5 vertices + 200 random 6-9)",
        failures,
    )


def test_criterion_2_numerator2_identity(family_numerator2):
    failures = []
    for g, delta, value, witness, brute_value in family_numerator2:
        z = (delta.denominator - 1) // 2
        expected = disp(g, TWO)[0] + z * g.edge_count
        if value != expected or value != brute_value:
            failures.append((g, delta, value, expected, brute_value))
        if len(witness) != value or not reference_is_dispersed(g, witness_points(witness), delta):
            failures.append((g, delta, "bad witness"))
    _report(
        2,
        f"dispatch == disp(g, 2) + z|E| == brute_disp for delta in {{2/3, 2/5}} "
        f"on {len(family_numerator2) // 2} graphs (<=5 edges)",
        failures,
    )


def test_criterion_3_unit_numerator_closed_forms(family_unit_numerator):
    failures = []
    confirmed = 0
    for g, delta, value, witness, brute_value in family_unit_numerator:
        b = delta.denominator
        expected = b * g.edge_count + (1 if g.is_tree else 0)
        if value != expected:
            failures.append((g, delta, value, expected))
        if brute_value is not None:
            confirmed += 1
            if value != brute_value:
                failures.append((g, delta, value, brute_value, "brute mismatch"))
        if len(witness) != value or not reference_is_dispersed(g, witness_points(witness), delta):
            failures.append((g, delta, "bad witness"))
    _report(
        3,
        f"closed forms b|E|+1 / b|E| for b in {{1,2,3}} on "
        f"{len(family_unit_numerator)} runs ({confirmed} brute-confirmed)",
        failures,
    )


def test_criterion_4_subdivision_scaling(family_scaling):
    failures = []
    for (g, delta, v1, _, _), (bigger, scaled, v2, _, _) in family_scaling:
        if v1 != v2:
            failures.append((g, delta, v1, bigger.vertex_count, scaled, v2))
    _report(
        4,
        f"disp(g, d) == disp(subdivide(g, c), c*d) for c in {{2,3}}, "
        f"d in {{1, 2, 2/3}} on {len(family_scaling) // 6} graphs",
        failures,
    )


def test_criterion_5_matching_lower_bound():
    rng = random.Random(105)
    failures = []
    for _ in range(1000):
        n = rng.randint(1, 12)
        g = random_connected_graph(rng, n, rng.randint(0, n)) if n > 1 else random_tree(rng, 1)
        value, _ = disp(g, TWO)
        nu = matching_number(g)
        if value < nu:
            failures.append((g, value, nu))
    _report(5, "disp(g, 2) >= matching number on 1000 random graphs (<=12 vertices)", failures)


def test_criterion_6_gadget_end_to_end():
    failures = []
    # source graph, its independence number, the predicted bound at delta=3
    for name, alpha, bound in (("k4", 1, 19), ("k33", 3, 30), ("cube", 4, 40)):
        h = cubic_catalogue()[name]
        inst = build_gadget(h, Fraction(3))
        largest = max(brute_independent_sets(h), key=len)
        if len(largest) != alpha:
            failures.append((name, "independence number", len(largest)))
        witness = witness_from_independent_set(inst, largest)
        if len(witness) != bound:
            failures.append((name, "witness size", len(witness)))
        if not reference_is_dispersed(inst.g, witness_points(witness), Fraction(3)):
            failures.append((name, "witness not dispersed"))
        if predicted_bound(inst, alpha) != bound:
            failures.append((name, "predicted bound", predicted_bound(inst, alpha)))
        value, _ = brute_disp(inst.g, Fraction(3), timeout=900)
        if value != bound:
            failures.append((name, "brute optimum", value))
    _report(
        6,
        "K4, K3,3 and cube gadgets at delta=3: witnesses of 19, 30 and 40 "
        "are dispersed and optimal",
        failures,
    )


def test_criterion_7_certificate_roundtrip(
    family_delta2, family_numerator2, family_unit_numerator, family_scaling
):
    entries = list(family_delta2) + list(family_numerator2) + list(family_unit_numerator)
    for base, scaled in family_scaling:
        entries.append(base)
        entries.append(scaled)
    failures = []
    rejectable = 0
    for g, delta, value, witness, brute_value in entries:
        cert = extract_certificate(g, witness)
        verdict = verify_certificate(g, delta, cert, len(witness))
        if not verdict.accepted:
            failures.append((g, delta, "accept failed", verdict.reason))
        if brute_value is not None and brute_value == len(witness):
            rejectable += 1
            over = verify_certificate(g, delta, cert, len(witness) + 1)
            if over.accepted:
                failures.append((g, delta, "k+1 accepted"))
    _report(
        7,
        f"certificates of {len(entries)} emitted witnesses accepted at k, "
        f"{rejectable} optimal ones rejected at k+1",
        failures,
    )


def test_criterion_8_min_cut_equals_exhaustive():
    rng = random.Random(108)
    failures = []
    for _ in range(100):
        nl = rng.randint(0, 12)
        nr = rng.randint(0, 8)
        left = frozenset(range(nl))
        right = frozenset(range(100, 100 + nr))
        density = rng.uniform(0.1, 0.9)
        arcs = frozenset(
            (x, y) for x in left for y in right if rng.random() < density
        )
        inst = CutInstance(left, right, arcs)
        value, chosen = min_surplus(inst)
        expected = brute_min_surplus(inst)
        if value != expected or not chosen <= left:
            failures.append((inst, value, expected))
    _report(8, "minimum surplus equals exhaustive minimum on 100 instances (|left| <= 12)", failures)


def test_criterion_9_decomposition_structure():
    failures = []
    count = 0
    for n in range(1, 7):
        for g in all_connected_graphs(n):
            count += 1
            # the engine's answer must meet its barrier's bound, and the
            # reference build raises on any other structure violation
            certify.check_barrier(g.adjacency, *matching.maximum_matching(g.adjacency))
            dec = reference_edmonds_gallai(g)
            expected = brute_inessential(g)
            if dec.inessential != expected:
                failures.append((g, dec.inessential, expected))
                continue
            nbrs = {
                u
                for v in dec.inessential
                for u in g.adjacency[v]
                if u not in dec.inessential
            }
            if dec.separator != nbrs:
                failures.append((g, "separator"))
            if dec.remainder != frozenset(range(n)) - dec.inessential - dec.separator:
                failures.append((g, "remainder"))
            for comp in dec.odd_components:
                if len(comp) % 2 == 0:
                    failures.append((g, "even odd-component"))
                if not brute_factor_critical(g, comp):
                    failures.append((g, "odd component not factor-critical"))
            for v in dec.remainder:
                if dec.mate[v] not in dec.remainder:
                    failures.append((g, "remainder not perfectly matched"))
                    break
    _report(
        9,
        f"decomposition matches the definitional brute force on all {count} "
        f"connected graphs with <=6 vertices",
        failures,
    )
