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

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .core import Graph
from .errors import InternalConsistencyError
from .matching import edmonds_gallai, maximum_matching

__all__ = [
    "CutInstance",
    "surplus",
    "min_surplus",
    "disp2",
]


@dataclass(frozen=True)
class CutInstance:
    """Bipartite adjacency data for the vertex-selection subproblem."""

    left: frozenset[int]
    right: frozenset[int]
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for x, y in self.arcs:
            if x not in self.left or y not in self.right:
                raise ValueError(f"arc ({x}, {y}) does not run left to right")


def surplus(inst: CutInstance, subset: Iterable[int]) -> int:
    """``|neighbourhood(subset)| - |subset|`` for a subset of the left side."""
    chosen = frozenset(subset)
    if not chosen <= inst.left:
        raise ValueError("subset must lie within the left side")
    hit = {y for x, y in inst.arcs if x in chosen}
    return len(hit) - len(chosen)


def min_surplus(inst: CutInstance) -> tuple[int, frozenset[int]]:
    """Minimum of ``|neighbourhood(T)| - |T|`` over subsets T of the left side.

    By the deficiency form of Hall's theorem the minimum is ``nu(B) - |left|``,
    where nu(B) is the matching number of the bipartite graph B of the
    arcs.  The minimizing T is the set of left vertices some maximum
    matching of B misses: those reachable by alternating paths from the
    exposed left vertices, whose neighbourhood is matched into T.  The empty
    set gives 0, so the result is never positive.  The arcs are read into
    B's node adjacency for :func:`_min_surplus`, which solves it.
    """
    left = sorted(inst.left)
    right = sorted(inst.right)
    # left vertex i is node i of B, right vertex j node len(left) + j
    at_left = dict(zip(left, range(len(left))))
    at_right = dict(zip(right, range(len(left), len(left) + len(right))))
    adjacency: list[list[int]] = [[] for _ in range(len(left) + len(right))]
    for x, y in inst.arcs:  # nu(B) and the missed set do not depend on the order
        i, j = at_left[x], at_right[y]
        adjacency[i].append(j)
        adjacency[j].append(i)
    value, chosen = _min_surplus(adjacency, len(left))
    return value, frozenset(left[i] for i in chosen)


def _min_surplus(adjacency: list[list[int]], left: int) -> tuple[int, list[int]]:
    """The value and minimizing nodes of :func:`min_surplus` for B given by
    its node adjacency, nodes below `left` forming its left side; the value
    is rechecked as the surplus of those nodes."""
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
    if n == 1:
        return 1, frozenset({0}), frozenset()

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
