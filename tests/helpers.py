"""Shared generators and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the production code paths: matching
numbers come from exhaustive enumeration over vertex masks, subset minima
from iterating all subsets, and linear feasibility from grid search.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from deltadisp import Graph
from deltadisp.solve2 import CutInstance


def _connected_mask(n: int, edges: list[tuple[int, int]]) -> bool:
    if n == 1:
        return True
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    reach = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~reach
        reach |= frontier
    return reach == (1 << n) - 1


def all_connected_graphs(n: int):
    """Every labeled connected graph on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _connected_mask(n, edges):
            yield Graph(n, tuple(edges))


def connected_graphs_max_edges(max_edges: int):
    """Every labeled connected graph with at most `max_edges` edges."""
    for n in range(1, max_edges + 2):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(n - 1, max_edges + 1):
            if m > len(pairs):
                break
            for combo in itertools.combinations(range(len(pairs)), m):
                edges = [pairs[i] for i in combo]
                if _connected_mask(n, edges):
                    yield Graph(n, tuple(edges))


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = tuple((i, rng.randrange(i)) for i in range(1, n))
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra_edges: int) -> Graph:
    """A random spanning tree plus up to `extra_edges` random chords."""
    tree = [(i, rng.randrange(i)) for i in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v in tree}
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in present
    ]
    rng.shuffle(pool)
    return Graph(n, tuple(tree + pool[:extra_edges]))


def brute_matching_number(g: Graph, vertices=None) -> int:
    """Exhaustive maximum matching size of the subgraph induced by `vertices`
    (all of g by default)."""
    n = g.vertex_count
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        if avail == 0:
            return 0
        got = memo.get(avail)
        if got is not None:
            return got
        low = avail & -avail
        v = low.bit_length() - 1
        rest = avail ^ low
        best = rec(rest)
        nb = adj[v] & rest
        while nb:
            lu = nb & -nb
            best = max(best, 1 + rec(rest ^ lu))
            nb ^= lu
        memo[avail] = best
        return best

    if vertices is None:
        vertices = range(n)
    return rec(sum(1 << v for v in set(vertices)))


def brute_inessential(g: Graph) -> frozenset[int]:
    """Definitional test: vertices missed by some maximum matching."""
    everything = frozenset(range(g.vertex_count))
    size = brute_matching_number(g)
    return frozenset(
        v for v in everything if brute_matching_number(g, everything - {v}) == size
    )


def brute_factor_critical(g: Graph, component) -> bool:
    """Does the subgraph induced by `component` have a perfect matching
    after deleting any one of its vertices?"""
    comp = frozenset(component)
    return all(
        2 * brute_matching_number(g, comp - {x}) == len(comp) - 1 for x in comp
    )


def brute_min_surplus(inst: CutInstance) -> int:
    """Exhaustive minimum of |neighbourhood(T)| - |T| over subsets."""
    left = sorted(inst.left)
    nbrs = {x: set() for x in left}
    for x, y in inst.arcs:
        nbrs[x].add(y)
    best = 0
    for size in range(1, len(left) + 1):
        for combo in itertools.combinations(left, size):
            hit = set().union(*(nbrs[x] for x in combo)) if combo else set()
            best = min(best, len(hit) - len(combo))
    return best


def brute_independent_sets(g: Graph):
    """All independent vertex subsets of a small graph."""
    n = g.vertex_count
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            low = m & -m
            m ^= low
            if adj[low.bit_length() - 1] & mask:
                ok = False
                break
        if ok:
            yield frozenset(i for i in range(n) if mask >> i & 1)


def grid_feasible(nvars: int, rows, grid_denominator: int) -> bool:
    """Feasibility of coeff.x <= rhs over the [0,1] grid of the given step."""
    q = grid_denominator
    for assign in itertools.product(range(q + 1), repeat=nvars):
        x = [Fraction(v, q) for v in assign]
        if all(
            sum(c * xi for c, xi in zip(coeffs, x)) <= rhs for coeffs, rhs in rows
        ):
            return True
    return False
