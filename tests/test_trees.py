"""The exact tree route at numerators >= 3 and its edge-ball cover."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from helpers import grid_tree_disp, random_tree
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadisp import (
    Graph,
    InternalConsistencyError,
    SizeGuardExceededError,
    brute_disp,
    disp,
    trees,
)

K2 = Graph(2, ((0, 1),))
PATH = Graph(10, tuple((i, i + 1) for i in range(9)))


def test_matches_brute_disp_on_seeded_trees():
    rng = random.Random(111)
    cases = mismatches = 0
    while cases < 420:
        a, b = rng.randint(3, 7), rng.randint(1, 4)
        if gcd(a, b) != 1:
            continue
        g = random_tree(rng, rng.randint(1, 12))
        delta = Fraction(a, b)
        value, witness = disp(g, delta)
        assert len(witness) == value
        cases += 1
        mismatches += value != brute_disp(g, delta)[0]
    assert mismatches == 0


@st.composite
def trees_and_spacings(draw):
    n = draw(st.integers(1, 9))
    g = Graph(n, tuple((i, draw(st.integers(0, i - 1))) for i in range(1, n)))
    b = draw(st.integers(1, 4))
    a = draw(st.integers(3, 7).filter(lambda a: gcd(a, b) == 1))
    return g, Fraction(a, b)


@settings(max_examples=150, derandomize=True)
@given(case=trees_and_spacings())
def test_tree_route_matches_brute_disp_property(case):
    g, delta = case
    assert disp(g, delta)[0] == brute_disp(g, delta)[0]


@pytest.mark.parametrize("delta", [Fraction(5, 2), Fraction(4, 3)])
def test_large_tree_builds_no_conflict_graph(monkeypatch, delta):
    def forbidden(*args, **kwargs):
        raise AssertionError("the tree route must not reach the oracle")

    monkeypatch.setattr("deltadisp.oracle.build_conflict_graph", forbidden)
    monkeypatch.setattr("deltadisp.dispatch.brute_disp", forbidden)
    g = random_tree(random.Random(112), 20_000)
    value, witness = disp(g, delta)
    assert len(witness) == value > 0


def _ball_dropped(monkeypatch):
    # the last kept point's ball is handed to the check as the first one's
    check = trees.check_cover
    monkeypatch.setattr(
        trees, "check_cover", lambda g, q, balls, *rest: check(g, q, balls[:-1] + balls[:1], *rest)
    )


def _vertex_too_many(monkeypatch):
    # the chain point one hop above the first kept vertex is kept too
    greedy = trees._greedy
    monkeypatch.setattr(
        trees, "_greedy", lambda *args: (lambda k: k + [(k[0][0], 1)])(greedy(*args))
    )


def _search_one_hop_short(monkeypatch):
    check = trees.check_cover
    monkeypatch.setattr(trees, "check_cover", lambda *args: check(*args[:-1], args[-1] - 1))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_ball_dropped, "distinct cover balls"),
        (_vertex_too_many, "fails verification"),
        (_search_one_hop_short, "cover balls reach"),
    ],
)
def test_corrupted_route_raises(monkeypatch, corrupt, message):
    corrupt(monkeypatch)
    with pytest.raises(InternalConsistencyError, match=message):
        disp(PATH, Fraction(3))


def test_grid_guard_allocates_nothing(monkeypatch):
    # the guard counts the answer's bound, n + m*ceil(b/a) = 2 + 333,333,334
    def forbidden(*args):
        raise AssertionError("the route ran before the answer's size was checked")

    monkeypatch.setattr("deltadisp.dispatch.tree_disp", forbidden)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardExceededError, match="333333336 points at most"):
            disp(K2, Fraction(3, 10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


SPACINGS = [(a, b) for a in range(3, 8) for b in range(1, 7) if gcd(a, b) == 1]


@pytest.mark.parametrize("a, b", SPACINGS)
def test_matches_grid_reference(a, b):
    # the value of the route over the materialized grid, on seeded trees
    rng = random.Random(113 + 10 * a + b)
    for n in [1, 2, 3] + [rng.randint(4, 60) for _ in range(120)]:
        g = random_tree(rng, n)
        assert trees.tree_disp(g, a, b)[0] == grid_tree_disp(g, a, b)[0], (g, a, b)


def test_long_path_allocates_no_grid():
    # 2,000 edges at 999/500: 1,999,001 grid points, 1,002 of them kept;
    # 5,000 edges: 5,000,001 grid points, over the limit, but at most
    # 5,001 + 5,000 points in an answer, so the size guard lets it through
    for m, kept in ((2000, 1002), (5000, 2503)):
        g = Graph(m + 1, tuple((i, i + 1) for i in range(m)))
        tracemalloc.start()
        try:
            value, witness = disp(g, Fraction(999, 500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == len(witness) == kept
        assert peak < 16 << 20, peak
