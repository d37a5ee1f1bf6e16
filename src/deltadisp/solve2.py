"""Polynomial computation of the 2-dispersion number.

An optimal 2-dispersed set can always be brought into canonical form
(vertices plus edge midpoints) whose shape follows the maximum-matching
decomposition: even components contribute perfect matchings, odd components
near-perfect matchings, and the only real decision is which singleton
inessential vertices to keep as vertex points.  That decision minimizes
``|neighbourhood(T)| - |T|``, whose minimum is the matching deficiency of
the bipartite singleton/separator graph; the same matching engine that
builds the decomposition solves it.

At delta = 2/b, b = 2z+1 odd, the same set plus z points per edge is
optimal.  :func:`disp2` returns the value and that witness in the integer
form of :meth:`~deltadisp.core.WitnessSet.verified`, unchecked: its
caller, ``dispatch.disp``, verifies it.
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


def disp2(g: Graph, b: int) -> tuple[int, tuple[int, list[int], list[tuple[int, int]]]]:
    """The 2/b-dispersion number, b = 2z+1 odd, and an optimal witness as
    ``(2b, vertex ids, (edge, k) pairs)``, unchecked.

    The delta = 2 value is the matching number (the remainder's, odd
    components' and separator's matched edges) minus the minimum surplus
    of B, whose node adjacency is built from the decomposition's arrays;
    every edge adds z.  The canonical delta = 2 witness splits the edges
    into those touching one of its vertices, those holding one of its
    midpoints, and the rest, and each class gets its own evenly spaced
    refill: i*delta from the chosen vertex, (i - 3/4)*delta and
    (i - 1/4)*delta from the first end.  At b = 1 the refill is the
    canonical witness itself.
    """
    if b % 2 == 0:
        raise InternalConsistencyError("numerator 2 with even denominator cannot occur")
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
    held = bytearray(n)
    for x in chosen:
        held[x] = 1
        for y in adjacency[x]:
            mate[y] = mate[dec.mate[y]] = -1
    z, q = (b - 1) // 2, 2 * b
    # offsets in units of 1/(2b) per edge code held[u] + 2 held[v] + 4
    # (midpoint edge); codes 3, 5, 6 and 7 are witness faults
    patterns = (
        range(3, 4 * z, 4),  # neither end chosen: 4i - 1
        range(4, 4 * z + 1, 4),  # first end chosen: 4i
        range(q - 4 * z, q, 4),  # second end chosen: q - 4i
        (),
        range(1, 4 * z + 2, 4),  # midpoint edge: 4i - 3
    )
    codes = [held[u] + 2 * held[v] + (4 if mate[u] == v else 0) for u, v in g.edges]
    if 3 in codes or 7 in codes:
        raise InternalConsistencyError("adjacent vertices in a 2-dispersed set")
    if 5 in codes or 6 in codes:
        raise InternalConsistencyError("midpoint edge touches a chosen vertex")
    interior = [(e, k) for e, code in enumerate(codes) for k in patterns[code]]
    value = (n - dec.mate.count(-1)) // 2 - best_surplus + z * g.edge_count
    return value, (q, chosen, interior)
