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
form of :meth:`~deltadisp.certify.WitnessSet.verified`, unchecked: its
caller, ``dispatch.disp``, verifies it there, in :mod:`deltadisp.certify`,
the one place an answer is checked.
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
    every edge adds z, by its class in the canonical delta = 2 witness
    (see :func:`_refill`).  At b = 1 the refill is that witness itself.
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
    value = (n - dec.mate.count(-1)) // 2 - best_surplus + (b - 1) // 2 * g.edge_count
    return value, (2 * b, chosen, _refill(g, held, mate, b))


def _refill(g: Graph, held: bytearray, mate: list[int], b: int) -> list[tuple[int, int]]:
    """The z = (b-1)/2 points per edge of the 2/b witness, as ``(edge, k)``
    pairs at offset k/(2b): i*delta from a chosen end (``held``), else from
    the first end (i - 3/4)*delta on a midpoint edge (``mate[u] == v``) and
    (i - 1/4)*delta on the rest.  A midpoint edge at a chosen end, or both
    ends chosen, is a fault: its pattern puts a point closer than 2/b to a
    chosen end (at b = 1 the ends are 1 apart), so the exit rejects it."""
    z, q = (b - 1) // 2, 2 * b
    # offsets in units of 1/(2b), by held[u] + 2 held[v] mod 3, or 3 on a
    # midpoint edge whatever its ends
    patterns = (
        range(3, 4 * z, 4),  # neither end chosen: 4i - 1
        range(4, 4 * z + 1, 4),  # first end chosen: 4i
        range(q - 4 * z, q, 4),  # second end chosen: q - 4i
        range(1, 4 * z + 2, 4),  # midpoint edge: 4i - 3
    )
    codes = [3 if mate[u] == v else (held[u] + 2 * held[v]) % 3 for u, v in g.edges]
    return [(e, k) for e, code in enumerate(codes) for k in patterns[code]]
