"""Polynomial computation of the 2-dispersion number.

An optimal 2-dispersed set can always be brought into canonical form
(vertices plus edge midpoints) whose shape follows the maximum-matching
decomposition: even components contribute perfect matchings, odd components
near-perfect matchings, and the only real decision is which singleton
inessential vertices to keep as vertex points.  That decision minimizes
``|neighbourhood(T)| - |T|``, whose minimum is the matching deficiency of
the bipartite singleton/separator graph; the same matching engine whose
maximum matching and outer vertices give the decomposition solves it.

At delta = 2/b, b = 2z+1 odd, the same set plus z points per edge is
optimal.  Both checks live in :mod:`deltadisp.certify`, the one place an
answer is checked: :func:`disp2` has the decomposition's matching checked
there against its Tutte-Berge barrier, and returns the value and the
witness in the integer form of
:meth:`~deltadisp.certify.WitnessSet.verified`, unchecked, for its caller,
``dispatch.disp``, to verify.
"""

from __future__ import annotations

from itertools import compress

from .certify import check_barrier
from .core import Graph
from .matching import maximum_matching

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
    The value is not rechecked against T here: the witness built on T has
    nu(G) - |N(T)| + |T| + z m points, so the exit, which compares its size
    with the value, rejects a value that is not T's surplus.
    """
    match, outer = maximum_matching(adjacency)
    return (len(match) - match.count(-1)) // 2 - left, list(compress(range(left), outer))


def disp2(g: Graph, b: int) -> tuple[int, tuple[int, list[int], list[tuple[int, int, int, int]]]]:
    """The 2/b-dispersion number, b = 2z+1 odd, and an optimal witness as
    ``(2b, vertex ids, (edge, first, step, count) runs)``, unchecked.

    The maximum matching of g and its outer vertices D, the vertices some
    maximum matching misses, come from one call of the matching engine,
    and :func:`~deltadisp.certify.check_barrier` checks the matching
    against the Tutte-Berge barrier D names before anything is read off
    them.  The singletons are the outer vertices with no outer neighbour,
    so each of their neighbours lies in the separator N(D) \\ D.  The
    delta = 2 value is the matching number minus the minimum surplus of B,
    the singleton/separator bipartite graph; every edge adds z, by its
    class in the canonical delta = 2 witness (see :func:`_refill`).  At
    b = 1 the refill is that witness itself.
    """
    n, adjacency = g.vertex_count, g.adjacency
    mate, outer = maximum_matching(adjacency)
    check_barrier(adjacency, mate, outer)
    singletons = [
        x for x in compress(range(n), outer) if not any(map(outer.__getitem__, adjacency[x]))
    ]
    # singleton i is node i of B, and a separator vertex the next node when first met
    node = dict(zip(singletons, range(len(singletons))))
    nodes: list[list[int]] = [[] for _ in singletons]
    for i, x in enumerate(singletons):
        for y in adjacency[x]:
            j = node.setdefault(y, len(nodes))
            if j == len(nodes):
                nodes.append([])
            nodes[i].append(j)
            nodes[j].append(i)
    best_surplus, chosen = _min_surplus(nodes, len(singletons))
    chosen = [singletons[i] for i in chosen]

    # The matching is perfect on the remainder, near-perfect inside each
    # odd component and matches every separator vertex into the
    # inessential set (check_barrier); all of its edges become midpoints
    # except at separator vertices next to a chosen singleton.
    midpoints = list(mate)
    held = bytearray(n)
    for x in chosen:
        held[x] = 1
        for y in adjacency[x]:
            midpoints[y] = midpoints[mate[y]] = -1
    value = (n - mate.count(-1)) // 2 - best_surplus + (b - 1) // 2 * g.edge_count
    return value, (2 * b, chosen, _refill(g, held, midpoints, b))


def _refill(
    g: Graph, held: bytearray, mate: list[int], b: int
) -> list[tuple[int, int, int, int]]:
    """The z = (b-1)/2 points per edge of the 2/b witness, as one run
    ``(edge, first, step, count)`` per occupied edge, at offsets k/(2b):
    i*delta from a chosen end (``held``), else from the first end
    (i - 3/4)*delta on a midpoint edge (``mate[u] == v``) and
    (i - 1/4)*delta on the rest.  A midpoint edge at a chosen end, or both
    ends chosen, is a fault: its pattern puts a point closer than 2/b to a
    chosen end (at b = 1 the ends are 1 apart), so the exit rejects it."""
    z, q = (b - 1) // 2, 2 * b
    # runs (first, step, count) in units of 1/(2b), by held[u] + 2 held[v]
    # mod 3, or 3 on a midpoint edge whatever its ends
    patterns = (
        (3, 4, z),  # neither end chosen: 4i - 1
        (4, 4, z),  # first end chosen: 4i
        (q - 4 * z, 4, z),  # second end chosen: q - 4i
        (1, 4, z + 1),  # midpoint edge: 4i - 3
    )
    codes = [3 if mate[u] == v else (held[u] + 2 * held[v]) % 3 for u, v in g.edges]
    return [(e, *patterns[code]) for e, code in enumerate(codes) if z or code == 3]
