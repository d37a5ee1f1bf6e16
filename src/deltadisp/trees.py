"""Exact dispersion on trees at every spacing, proven optimal by a cover.

For spacing a/b in lowest terms, the oracle's half-step grid is the vertex
set of the 2b-subdivision, and two grid points are closer than a/b exactly
when they are fewer than 2a hops apart there (see :mod:`deltadisp.oracle`).
On a tree that subdivision is itself a tree, where a maximum set of vertices
pairwise at least 2a hops apart has a greedy solution, and a cover by edge
balls of the same size proves it maximum: the odd-distance form of Meir &
Moon's packing = covering equality for trees (*Relations between packing
and covering numbers of a tree*, Pacific J. Math. 1975).  The route runs in
time linear in the grid times a, with no conflict graph and no search.
"""

from __future__ import annotations

from .certify import check_cover
from .core import Graph, grid_adjacency, grid_form

__all__ = ["tree_disp"]


def tree_disp(g: Graph, a: int, b: int) -> tuple[int, tuple]:
    """The a/b-dispersion number of the tree g, with a witness in the
    integer form of :meth:`~deltadisp.certify.WitnessSet.verified`.

    The grid is numbered as by ``subdivide(g, 2b)``: vertex v is v, and
    step t of edge e is n + e(2b-1) + t-1.  Rooted at vertex 0 by one
    breadth-first search, it is scanned deepest first, and a vertex is
    taken unless it is fewer than 2a hops from one already taken.  Each
    taken vertex v names one ball: for c, v's ancestor a-1 hops up (or the
    root, if that is nearer), the edge ball of (c, parent(c)), the grid
    vertices at most a-1 hops from c or from parent(c), or the vertex ball
    of radius a-1 at the root.

    Why the answer is optimal:

    - *At most one point per ball.*  Any two vertices of a ball are at
      most (a-1) + 1 + (a-1) = 2a-1 hops apart, so a ball holds at most one
      point of a set whose points are at least 2a hops apart, and a cover
      of the grid by k balls bounds every such set by k.
    - *Grid completeness.*  Some optimal a/b-dispersed set lies on the
      1/(2b) grid (the source paper), so a bound on the grid bounds the
      dispersion number.
    - *The balls cover the grid.*  A vertex x not taken was blocked by a
      taken v fewer than 2a hops away and scanned earlier, so no shallower
      than x.  Let L = lca(x, v); then d(x, L) <= d(v, L) and d(x, L) +
      d(v, L) <= 2a-1.  If d(v, L) <= a-1, L lies between v and c, so x is
      d(x, L) + d(L, c) <= d(v, L) + (a-1 - d(v, L)) = a-1 hops from c.
      Otherwise d(v, L) >= a, parent(c) lies between c and L, and x is
      d(x, L) + d(v, L) - a <= a-1 hops from parent(c).  A taken vertex is
      a-1 hops from its own c.
    - *Sizes match.*  The taken vertices are pairwise at least 2a hops
      apart, so no two name the same ball.

    Neither property is taken on trust: the balls go with the grid to
    :func:`~deltadisp.certify.check_cover`, and the witness is checked by
    the caller, both in :mod:`deltadisp.certify`, the one place an answer
    is checked; the caller also bounds the grid's size at
    :data:`~deltadisp.core.GRID_LIMIT`.
    """
    n, q = g.vertex_count, 2 * b
    adjacency = grid_adjacency(g, q)
    order, parent = _breadth_first(adjacency)
    taken = _greedy(adjacency, order, 2 * a)
    check_cover(adjacency, _balls(parent, taken, a), len(taken), a - 1)
    return len(taken), grid_form(n, q, taken)


def _breadth_first(adjacency: list) -> tuple[list[int], list[int]]:
    """The vertices in breadth-first order from vertex 0, which is its own
    parent, and each vertex's parent."""
    parent = [-1] * len(adjacency)
    parent[0] = 0
    order = [0]
    for x in order:
        for y in adjacency[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return order, parent


def _greedy(adjacency: list, order: list[int], spacing: int) -> list[int]:
    """Scan `order` backwards, deepest first, and take each vertex that is
    at least `spacing` hops from every vertex taken before it.

    ``near[x]`` is x's hop distance to the nearest taken vertex, capped at
    `spacing`.  Taking v lowers it by a search from v that only walks into
    vertices whose value drops: beyond a vertex it does not lower, another
    taken vertex is already as near, so each vertex is lowered at most
    `spacing` times.
    """
    near = [spacing] * len(adjacency)
    taken = []
    for v in reversed(order):
        if near[v] < spacing:
            continue
        taken.append(v)
        near[v] = 0
        ring = [v]
        for hops in range(1, spacing):
            grown = []
            for x in ring:
                for y in adjacency[x]:
                    if near[y] > hops:
                        near[y] = hops
                        grown.append(y)
            if not grown:
                break
            ring = grown
    return taken


def _balls(parent: list[int], taken: list[int], a: int) -> list[tuple[int, int]]:
    """Per taken vertex, its ball (c, parent(c)), c being its ancestor a-1
    hops up: the edge ball of (c, parent(c)), or, if the root is nearer,
    the vertex ball (0, 0) at the root, its own parent."""
    balls = []
    for c in taken:
        for _ in range(a - 1):
            if c == 0:
                break
            c = parent[c]
        balls.append((c, parent[c]))
    return balls
