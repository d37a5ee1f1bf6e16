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
in the tree plus its answer, up to sorting the cover's balls on each edge,
with no conflict graph and no search.
"""

from __future__ import annotations

from .certify import check_cover
from .core import Graph

__all__ = ["tree_disp"]


def tree_disp(g: Graph, a: int, b: int) -> tuple[int, tuple]:
    """The a/b-dispersion number of the tree g, with a witness in the
    integer form of :meth:`~deltadisp.certify.WitnessSet.verified`, each
    chain's points one run, spaced S apart.

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
    up, the edge ball of (c, parent(c)), the grid points at most a-1 hops
    from c or from parent(c).  When the root is nearer than that, c is the
    root and its ball the edge ball of the grid edge down its first chain,
    which holds every grid point a-1 hops from the root.  A ball is
    written ``(e, k)``: the grid edge from step k to step k+1 of edge e =
    (u, w), step 0 being u and step q being w.  A tree with no edge has
    one grid point and no ball.

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
    parent = [-1] * n  # rooted at vertex 0, which keeps -1
    order = [0]  # breadth-first
    adjacency = g.adjacency
    for x in order:
        for y in adjacency[x]:
            if y and parent[y] < 0:
                parent[y] = x
                order.append(y)
    spacing = 2 * a
    kept = _greedy(order, parent, q, spacing)

    # the point t hops up from vertex v, 0 <= t <= q, lies on edge up[v], t
    # steps along it, or q - t when v is that edge's second end (far[v]),
    # so the grid edge from t to t + 1 hops up is ball (up[v], t or q-1-t)
    up = [0] * n
    far = [False] * n
    for e, (u, w) in enumerate(g.edges):
        if parent[w] == u:
            up[w], far[w] = e, True
        else:
            up[u] = e
    vertices: list[int] = []
    runs: list[tuple[int, int, int, int]] = []
    balls: list[tuple[int, int]] = []
    climb, s = a - 1, q - 1
    for v, first, count in kept:
        if not first:
            vertices.append(v)
        elif far[v]:
            runs.append((up[v], q - first - (count - 1) * spacing, spacing, count))
        else:
            runs.append((up[v], first, spacing, count))
        for t in range(first + climb, first + climb + count * spacing, spacing):
            x = v  # to c, the grid point a-1 hops above the point t - climb up from v
            while t >= q and x:
                t -= q
                x = parent[x]
            if not x:  # the root, or past it: the root's grid edge towards its
                # first child, order[1], is the last of that child's chain
                if n == 1:
                    continue
                x, t = order[1], s
            balls.append((up[x], s - t if far[x] else t))
    value = sum(count for _, _, count in kept)
    check_cover(g, q, balls, value, climb)
    return value, (q, vertices, runs)


def _greedy(order: list[int], parent: list[int], q: int, spacing: int) -> list[list[int]]:
    """The points the bottom-up pass keeps, as runs ``[v, t, count]``: the
    count points t, t + spacing, ... hops up from vertex v towards its
    parent, 0 <= t < q (t = 0 is v's own point, alone), for the tree of
    `parent` links, visited in reverse breadth-first `order` from the
    root, with chains of q hops and points at least `spacing` hops apart.

    A point is only ever dropped while it is the nearest kept point below
    a vertex, so it is the last of its run, and each run loses at most
    that one point: the runs stay arithmetic."""
    near = [spacing] * len(order)  # hops to the nearest kept point below, capped
    top = [-1] * len(order)  # the run in `kept` whose last point that is
    kept: list[list[int]] = []
    for v in reversed(order):
        h = near[v]
        if h == spacing:
            h, point = 0, len(kept)
            kept.append([v, 0, 1])
        else:
            point = top[v]
        p = parent[v]
        if p < 0:
            break
        count = (h + q - 1) // spacing
        if count:
            point = len(kept)
            kept.append([v, spacing - h, count])
            x = h + q - spacing * count
        else:
            x = h + q
        y = near[p]
        if x + y < spacing:  # drop the point nearer p, this chain's on a tie
            if x <= y:
                kept[point][2] -= 1
            else:
                kept[top[p]][2] -= 1
                near[p], top[p] = x, point
        elif x < y:
            near[p], top[p] = x, point
    return [run for run in kept if run[2]]
