"""Exact dispersion on trees at every spacing, proven optimal by a cover.

For spacing a/b in lowest terms, the oracle's half-step grid is the vertex
set of the 2b-subdivision, and two grid points are closer than a/b exactly
when they are fewer than 2a hops apart there (see :mod:`deltadisp.oracle`).
On a tree that subdivision is itself a tree, where a maximum set of vertices
pairwise at least 2a hops apart has a greedy solution, and a cover by edge
balls of the same size proves it maximum: the odd-distance form of Meir &
Moon's packing = covering equality for trees (*Relations between packing
and covering numbers of a tree*, Pacific J. Math. 1975).

The grid is never built.  Each edge of the tree is a chain of 2b grid
edges that the greedy crosses at a fixed spacing, so one bottom-up pass
over the tree's own vertices carries a single distance across each chain
by arithmetic (cf. Tamir, *Obnoxious facility location on graphs*, SIAM J.
Discrete Math. 1991, for the continuous problem on trees), and the cover
is checked chain by chain in the same way.  The route takes time linear
in the tree plus its answer, up to one sort of the cover's ball ends, with
no conflict graph and no search.
"""

from __future__ import annotations

from .certify import check_cover
from .core import Graph, grid_form

__all__ = ["tree_disp"]


def tree_disp(g: Graph, a: int, b: int) -> tuple[int, tuple]:
    """The a/b-dispersion number of the tree g, with a witness in the
    integer form of :meth:`~deltadisp.certify.WitnessSet.verified`.

    Let q = 2b and S = 2a: the answer is a largest set of points of the
    1/q grid pairwise at least S grid hops apart.  Rooted at vertex 0, the
    tree's vertices are visited children first, and each holds h, the hop
    distance to the nearest kept point below it (S when none is nearer),
    and that point.  A vertex with h = S takes a point itself (h = 0).
    The chain of q hops up to its parent then takes k = (h + q - 1) // S
    points, spaced S apart from S - h hops up, the top one x = h + q - kS
    hops below the parent (the nearest kept point x = h + q below it if k
    = 0).  If x and the parent's nearest kept point so far are fewer than
    S apart, the one nearer the parent (this chain's, on a tie) is
    dropped, so the kept points stay pairwise at least S apart.

    Each kept point p names one ball: for c, p's grid ancestor a-1 hops
    up (or the root, if that is nearer), the edge ball of (c, parent(c)),
    the grid points at most a-1 hops from c or from parent(c), or the
    vertex ball of radius a-1 at the root.  Balls are written in the
    numbering of ``subdivide(g, q)``: vertex v is v, and step t of edge e
    is n + e(q-1) + t-1.

    Why the answer is optimal:

    - *At most one point per ball.*  Any two grid points of a ball are at
      most (a-1) + 1 + (a-1) = S-1 hops apart, so a ball holds at most one
      point of a set whose points are at least S hops apart, and a cover
      of the grid by k balls bounds every such set by k.
    - *Grid completeness.*  Some optimal a/b-dispersed set lies on the
      1/q grid (the source paper), so a bound on the grid bounds the
      dispersion number.
    - *Each point x not kept has a kept point y no shallower than x fewer
      than S hops away.*  When x is passed over or dropped, the pass holds
      a kept y with d(x, L) <= d(y, L) < S - d(x, L), L = lca(x, y): for
      a vertex its nearest kept point below, h < S hops down; for a chain
      point the next kept point below it, on the chain or, below the
      chain's first, the vertex's; for a point dropped at vertex L the one
      kept in its place, no nearer L.  If y is dropped in turn, it is at L
      or an ancestor P of L, in favour of a z in another branch there with
      d(y, P) <= d(z, P) < S - d(y, P); then d(x, P) <= d(y, P), so z
      serves x as y did.
    - *The balls cover the grid.*  Let x not be kept, and v be such a kept
      point: no shallower than x, fewer than S hops away.  Let L =
      lca(x, v); then d(x, L) <= d(v, L) and d(x, L) + d(v, L) <= S-1.
      If d(v, L) <= a-1, L lies between v and c, so x is d(x, L) + d(L,
      c) <= d(v, L) + (a-1 - d(v, L)) = a-1 hops from c.  Otherwise d(v,
      L) >= a, parent(c) lies between c and L, and x is d(x, L) + d(v, L)
      - a <= a-1 hops from parent(c).  A kept point is a-1 hops from its
      own c.
    - *Sizes match.*  The kept points are pairwise at least S hops apart,
      so no two name the same ball.

    Neither property is taken on trust: the balls go to
    :func:`~deltadisp.certify.check_cover`, and the witness is checked by
    the caller, both in :mod:`deltadisp.certify`, the one place an answer
    is checked.
    """
    n, q = g.vertex_count, 2 * b
    s = q - 1
    parent = [-1] * n  # rooted at vertex 0, which keeps -1
    order = [0]  # breadth-first
    adjacency = g.adjacency
    for x in order:
        for y in adjacency[x]:
            if y and parent[y] < 0:
                parent[y] = x
                order.append(y)
    kept = _greedy(order, parent, q, 2 * a)

    # the point t hops up from vertex v, 0 < t < q, is grid point base[v] +
    # step[v] t (step -1: v is the far end of the edge up to its parent)
    base = [0] * n
    step = [1] * n
    for e, (u, w) in enumerate(g.edges):
        if parent[w] == u:
            base[w], step[w] = n + e * s + s, -1
        else:
            base[u] = n + e * s - 1
    points: list[int] = []
    balls: list[tuple[int, int]] = []
    climb = a - 1
    for v, t in kept:
        points.append(base[v] + step[v] * t if t else v)
        t += climb  # to c, the grid point a-1 hops up
        while t >= q and v:
            t -= q
            v = parent[v]
        if not v:
            balls.append((0, 0))
            continue
        c = base[v] + step[v] * t if t else v
        balls.append((c, parent[v] if t == s else base[v] + step[v] * (t + 1)))
    check_cover(g, q, balls, len(points), climb)
    return len(points), grid_form(n, q, points)


def _greedy(order: list[int], parent: list[int], q: int, spacing: int) -> list[tuple[int, int]]:
    """The points the bottom-up pass keeps, as ``(v, t)``: t hops up from
    vertex v towards its parent, 0 <= t < q, for the tree of `parent`
    links, visited in reverse breadth-first `order` from the root, with
    chains of q hops and points at least `spacing` hops apart."""
    near = [spacing] * len(order)  # hops to the nearest kept point below, capped
    top = [-1] * len(order)  # that point's position in `kept`
    kept: list = []  # None once dropped
    for v in reversed(order):
        h = near[v]
        if h == spacing:
            h, point = 0, len(kept)
            kept.append((v, 0))
        else:
            point = top[v]
        p = parent[v]
        if p < 0:
            break
        count = (h + q - 1) // spacing
        if count:
            kept.extend([(v, t) for t in range(spacing - h, q, spacing)])
            point = len(kept) - 1
            x = h + q - spacing * count
        else:
            x = h + q
        y = near[p]
        if x + y < spacing:  # drop the point nearer p, this chain's on a tie
            if x <= y:
                kept[point] = None
            else:
                kept[top[p]] = None
                near[p], top[p] = x, point
        elif x < y:
            near[p], top[p] = x, point
    return [point for point in kept if point is not None]
