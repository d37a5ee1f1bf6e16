"""Polynomial computation of the 2-dispersion number.

An optimal 2-dispersed set can always be brought into canonical form
(vertices plus edge midpoints) whose shape follows the maximum-matching
decomposition: even components contribute perfect matchings, odd components
near-perfect matchings, and the only real decision is which singleton
inessential vertices to keep as vertex points.  That decision minimizes
``|neighbourhood(T)| - |T|``, whose minimum is the matching deficiency of
the bipartite singleton/separator graph; the same matching engine that
builds the decomposition solves it.

:func:`disp2` returns the value and the canonical witness as vertex ids and
midpoint edge indices, unchecked: its caller, ``dispatch.disp``, places
points from them and verifies the witness it returns.
"""

from __future__ import annotations

from itertools import compress

from .core import Graph
from .errors import InternalConsistencyError
from .matching import edmonds_gallai, maximum_matching

__all__ = ["disp2"]


def _min_surplus(adjacency: list[list[int]], left: int) -> tuple[int, list[int]]:
    """Minimum of ``|neighbourhood(T)| - |T|`` over subsets T of the left
    side of the bipartite graph B given by its node adjacency, nodes below
    `left` forming its left side, and a minimizing T.

    By the deficiency form of Hall's theorem the minimum is ``nu(B) - left``,
    where nu(B) is the matching number of B.  The minimizing T is the set of
    left nodes some maximum matching of B misses: those reachable by
    alternating paths from the exposed left nodes, whose neighbourhood is
    matched into T.  The empty set gives 0, so the value is never positive.
    It is rechecked as the surplus of the nodes returned.
    """
    match, outer = maximum_matching(adjacency)
    value = (len(match) - match.count(-1)) // 2 - left
    chosen = list(compress(range(left), outer))
    if value != len({y for i in chosen for y in adjacency[i]}) - len(chosen):
        raise InternalConsistencyError("matching deficiency does not match its minimizer")
    return value, chosen


def disp2(g: Graph) -> tuple[int, frozenset[int], frozenset[int]]:
    """The 2-dispersion number and an optimal canonical witness: the chosen
    vertices and the edges whose midpoints it holds.  Unchecked; the caller
    verifies the points it places from them.  The value is the matching
    number (the remainder's, odd components' and separator's matched
    edges) minus the minimum surplus of B, whose node adjacency is built
    from the decomposition's arrays."""
    n = g.vertex_count
    dec = edmonds_gallai(g)
    kind, adjacency = dec.kind, g.adjacency
    singletons = [c[0] for c in dec.components if len(c) == 1]
    # singleton i is node i of B, and a separator vertex the next node when first met
    node = dict(zip(singletons, range(len(singletons))))
    nodes: list[list[int]] = [[] for _ in singletons]
    for i, x in enumerate(singletons):
        for y in adjacency[x]:
            if kind[y] != 1:
                raise InternalConsistencyError(
                    f"neighbour {y} of singleton {x} is outside the separator"
                )
            j = node.setdefault(y, len(nodes))
            if j == len(nodes):
                nodes.append([])
            nodes[i].append(j)
            nodes[j].append(i)
    best_surplus, chosen = _min_surplus(nodes, len(singletons))
    chosen = [singletons[i] for i in chosen]

    # The matching ``mate`` is perfect on the remainder, near-perfect inside
    # each odd component and matches every separator vertex into the
    # inessential set; all of its edges become midpoints except at separator
    # vertices next to a chosen singleton.
    mate = list(dec.mate)
    for x in chosen:
        for y in adjacency[x]:
            mate[y] = mate[dec.mate[y]] = -1
    midpoints = frozenset([e for e, (u, v) in enumerate(g.edges) if mate[u] == v])
    value = (n - dec.mate.count(-1)) // 2 - best_surplus
    return value, frozenset(chosen), midpoints
