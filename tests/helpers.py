"""Shared generators and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the production code paths: matching
numbers come from exhaustive enumeration over vertex masks, subset minima
from iterating all subsets, linear feasibility from grid search or
Fourier-Motzkin elimination over the dense all-pairs certificate system,
dispersion from comparing every pair of points with the point metric,
grid conflicts from every pair of candidates over the all-pairs hop table,
and maximum independent sets from a plain branch-and-bound.  The oracle's
reductions keep their per-neighbour domination test as a reference.  The point
pipeline the integer witness form replaced (Fraction points per route, their
normalization, sort, local check and printing) is kept as the differential
reference for that form.  The all-pairs hop table, the point metric over
it, edge midpoints, vertex vicinities, the matching shorthands, the split
of a vertex set into components and the conflict-pair listing live here
too, since only tests use them, and so does the earlier matching engine
(one blossom search per exposed vertex), the differential reference for
the alternating forest, and the earlier eager decomposition build, which
keeps every structural check the decomposition once made, the reference
for ``certify.check_barrier``.  So does the point form of a
witness: a :class:`Point` per point, with an exact `Fraction` offset, and
the readers between points and the integer form of ``WitnessSet``, and so
do the bipartite cut instance with its surplus and its adapter to the
minimum-surplus solver, the catalogue of small cubic graphs, the edges at
a vertex and the lookup of an edge by its ends, and the gadget's chains,
walked off its graph independently of the block layout the gadget
computes them from.  The certificate check as it was first written (rows
built as tuples before any arc, a hop ball walked at every radius, a
negative-cycle search keeping a dict per walk) and the line-by-line
certificate reader are the differential references for ``certify``, and
the tree route over the built grid and the cover check over it, with a
converter from that check's balls to grid edges, are those for
``trees.tree_disp`` and ``certify.check_cover``.  The witness form the
runs replaced, ``(edge, k)`` pairs with its constructor and its
point-by-point dispersion check (:class:`PairWitness`), and the expander
from runs to those pairs are the references for ``WitnessSet``.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import eq, sub
from typing import Iterable, Sequence

from deltadisp import Certificate, Graph, Verdict, WitnessSet, as_rational, matching
from deltadisp.core import grid_adjacency, grid_form, hop_ball, integer_tokens
from deltadisp.errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    InternalConsistencyError,
    MalformedLineError,
    SelfLoopError,
    VertexRangeError,
)
from deltadisp.solve2 import _min_surplus, disp2


@dataclass(frozen=True, order=True)
class Point:
    """A location on a graph: an edge plus an offset from its first endpoint.

    Offset 0 is the stored first endpoint, offset 1 the second.  The
    canonical form of a vertex is anchored to the lowest-indexed incident
    edge (see :func:`normalize_point`), so normalized points compare by
    value.  The lone vertex of an edgeless single-vertex graph is encoded
    as ``Point(-1, 0)``.
    """

    edge_index: int
    offset: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.offset, Fraction):
            object.__setattr__(self, "offset", as_rational(self.offset))


@lru_cache(maxsize=64)
def _incidence(g: Graph) -> tuple[tuple[int, ...], ...]:
    inc: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for i, (u, v) in enumerate(g.edges):
        inc[u].append(i)
        inc[v].append(i)
    return tuple(map(tuple, inc))


def incident_edges(g: Graph, v: int) -> tuple[int, ...]:
    """Indices of the edges at vertex v, ascending."""
    return _incidence(g)[v]


def vertex_point(g: Graph, v: int) -> Point:
    """The canonical point sitting at vertex v."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    incident = incident_edges(g, v)
    if not incident:
        return Point(-1, Fraction(0))  # only the single-vertex graph
    e = incident[0]
    return Point(e, Fraction(0 if g.edges[e][0] == v else 1))


def _point_key(g: Graph, p: Point) -> int | tuple[int, int, int]:
    """Validate p and name it in integers: its vertex id if it sits at a
    vertex, else ``(edge, numerator, denominator)`` of its offset."""
    e = p.edge_index
    num, den = p.offset.numerator, p.offset.denominator
    if e == -1:
        if g.edges or num:
            raise ValueError("edgeless point form is only valid for a single-vertex graph")
        return 0
    if not 0 <= e < len(g.edges):
        raise ValueError(f"invalid edge index {e}")
    if 0 < num < den:
        return e, num, den
    if num == 0:
        return g.edges[e][0]
    if num == den:
        return g.edges[e][1]
    raise ValueError(f"offset {p.offset} outside [0, 1]")


def normalize_point(g: Graph, p: Point) -> Point:
    """Canonical form of p: endpoint offsets become vertex points."""
    key = _point_key(g, p)
    return p if isinstance(key, tuple) else vertex_point(g, key)


def witness_of(g: Graph, points, delta) -> WitnessSet:
    """`points`, validated and repeats dropped, as a WitnessSet at spacing
    `delta`, each interior point given as a run of one:
    ``witness_of(g, points, delta).is_dispersed()`` decides them."""
    keys = {_point_key(g, p) for p in points}
    interior = [key for key in keys if isinstance(key, tuple)]
    scale = lcm(*(den for _, _, den in interior))
    return WitnessSet._from_runs(
        g,
        scale,
        [key for key in keys if not isinstance(key, tuple)],
        [(e, num * (scale // den), 1, 1) for e, num, den in interior],
        delta,
    )


def expand_runs(runs) -> list[tuple[int, int]]:
    """The ``(edge, k)`` pairs of the points of ``(edge, first, step,
    count)`` runs, run by run: the form the runs replaced."""
    return [(e, first + i * step) for e, first, step, count in runs for i in range(count)]


def reference_runs(interior) -> list[tuple[int, int, int, int]]:
    """The canonical runs of ascending ``(edge, k)`` pairs, point by point:
    each point extends the last run when it is on the same edge and is
    that run's second point or its next step, else starts a run of one
    point, step 1."""
    runs: list[tuple[int, int, int, int]] = []
    for e, k in interior:
        if runs and runs[-1][0] == e:
            _, first, step, count = runs[-1]
            if count == 1:
                runs[-1] = (e, first, k - first, 2)
                continue
            if k == first + count * step:
                runs[-1] = (e, first, step, count + 1)
                continue
        runs.append((e, k, 1, 1))
    return runs


def witness_points(ws: WitnessSet) -> tuple[Point, ...]:
    """The points of a witness, normalized and sorted by edge and offset."""
    g, s = ws.graph, ws.scale
    points = [vertex_point(g, v) for v in ws.vertices]
    return tuple(sorted(points + [Point(e, Fraction(k, s)) for e, k in expand_runs(ws.runs)]))


def source_point(g: Graph, c: int, v: int) -> Point:
    """The point of g at vertex v of ``subdivide(g, c)``."""
    n = g.vertex_count
    if v < n:
        return vertex_point(g, v)
    e, r = divmod(v - n, c - 1)
    return Point(e, Fraction(r + 1, c))


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


def random_sparse_graph(rng: random.Random, n: int, chords: int) -> Graph:
    """A random spanning tree plus `chords` distinct random chords, sampled
    one pair at a time, so large sparse graphs cost time linear in n."""
    present = {(rng.randrange(i), i) for i in range(1, n)}
    chords = min(chords, n * (n - 1) // 2 - (n - 1))
    target = len(present) + chords
    while len(present) < target:
        u, v = sorted(rng.sample(range(n), 2))
        present.add((u, v))
    return Graph(n, tuple(sorted(present)))


def triangle_chain(n: int) -> Graph:
    """Triangles (2i, 2i+1, 2i+2) chained at shared vertices, with one
    pendant edge at the end when n is even."""
    edges = []
    for a in range(0, n - 2, 2):
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    if n % 2 == 0:
        edges.append((n - 2, n - 1))
    return Graph(n, tuple(edges))


def random_cactus(rng: random.Random, n: int) -> Graph:
    """A random connected cactus: cycles of length 3 to 7 and pendant edges
    hung off existing vertices until there are n."""
    edges: list[tuple[int, int]] = []
    count = 1
    while count < n:
        anchor = rng.randrange(count)
        length = rng.randint(3, 7)
        if length > n - count + 1 or rng.random() < 0.3:
            edges.append((anchor, count))
            count += 1
            continue
        cycle = [anchor] + list(range(count, count + length - 1))
        edges.extend(zip(cycle, cycle[1:] + cycle[:1]))
        count += length - 1
    return Graph(n, tuple(edges))


def cubic_catalogue() -> dict[str, Graph]:
    """Small cubic graphs, the sources of gadget instances: K4, K3,3 and
    the cube."""
    k4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    k33 = Graph(6, tuple((u, v + 3) for u in range(3) for v in range(3)))
    cube = Graph(
        8,
        (
            (0, 1), (1, 2), (2, 3), (3, 0),
            (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (1, 5), (2, 6), (3, 7),
        ),
    )
    return {"k4": k4, "k33": k33, "cube": cube}


@lru_cache(maxsize=64)
def hop_table(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs vertex distances, one breadth-first search per vertex;
    cached, since `point_distance` reads it for every pair of points."""
    n = g.vertex_count
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            w = queue.popleft()
            for x in g.adjacency[w]:
                if dist[x] < 0:
                    dist[x] = dist[w] + 1
                    queue.append(x)
        rows.append(tuple(dist))
    return tuple(rows)


def point_distance(g: Graph, p: Point, q: Point) -> Fraction:
    """Shortest-path distance between two points of the graph.

    The minimum is taken over the four endpoint routes (leave p's edge at
    either end, enter q's edge at either end, with the vertex hop metric in
    between) and, when both points lie on the same edge, the direct
    along-edge distance.
    """
    p = normalize_point(g, p)
    q = normalize_point(g, q)
    if p == q:
        return Fraction(0)
    hops = hop_table(g)
    pa, pb = g.edges[p.edge_index]
    qa, qb = g.edges[q.edge_index]
    dpa, dpb = p.offset, 1 - p.offset
    dqa, dqb = q.offset, 1 - q.offset
    best = min(
        dpa + hops[pa][qa] + dqa,
        dpa + hops[pa][qb] + dqb,
        dpb + hops[pb][qa] + dqa,
        dpb + hops[pb][qb] + dqb,
    )
    if p.edge_index == q.edge_index:
        best = min(best, abs(p.offset - q.offset))
    return best


def midpoint(g: Graph, e: int) -> Point:
    """The midpoint of edge e (already canonical)."""
    if not 0 <= e < g.edge_count:
        raise ValueError(f"invalid edge index {e}")
    return Point(e, Fraction(1, 2))


def vicinity(g: Graph, v: int) -> frozenset[Point]:
    """Vertex v together with the midpoints of all its incident edges."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    return frozenset([vertex_point(g, v)] + [midpoint(g, e) for e in incident_edges(g, v)])


def matching_and_inessential(adjacency) -> tuple[tuple[int, ...], frozenset[int]]:
    """The engine's maximum matching (partner per vertex, -1 free) and the
    set D of vertices some maximum matching misses."""
    match, outer = matching.maximum_matching(adjacency)
    return tuple(match), frozenset(v for v, is_outer in enumerate(outer) if is_outer)


def edge_index(g: Graph, u: int, v: int) -> int | None:
    """Index of the edge joining u and v, or None if absent."""
    return next((e for e in incident_edges(g, u) if v in g.edges[e]), None)


def maximum_matching(g: Graph) -> frozenset[int]:
    """A maximum matching of g from the blossom engine, as edge indices."""
    mate, _ = matching_and_inessential(g.adjacency)
    return frozenset(edge_index(g, v, u) for v, u in enumerate(mate) if u > v)


def _reference_search(
    adj: Sequence[Sequence[int]], match: Sequence[int], roots: Sequence[int]
) -> tuple[int, list[int], list[bool]]:
    """One alternating search grown from the exposed vertices `roots`.

    Returns ``(end, parent, outer)``: ``end`` is an exposed non-root vertex
    that closes an augmenting path (-1 if the search finds none),
    ``parent`` holds the tree links to flip along that path, and ``outer``
    marks the even-labelled vertices, contracted blossoms included.  An
    edge between the outer vertices of two different trees also closes an
    augmenting path; the search cannot follow it, so it raises instead
    (with a single root it cannot occur).
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    tree = [-1] * n
    for r in roots:
        outer[r] = True
        tree[r] = r
    queue = deque(roots)

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        u = a
        while True:
            u = base[u]
            seen[u] = True
            if match[u] == -1:
                break
            u = parent[match[u]]
        v = b
        while True:
            v = base[v]
            if seen[v]:
                return v
            v = parent[match[v]]

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[child]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if outer[to]:
                if tree[to] != tree[v]:
                    raise InternalConsistencyError(
                        f"outer vertices {v} and {to} lie in different alternating trees"
                    )
                # odd cycle: contract the blossom down to its base
                stem = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_path(v, stem, to, in_blossom)
                mark_path(to, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    return to, parent, outer
                tree[to] = tree[match[to]] = tree[v]
                outer[match[to]] = True
                queue.append(match[to])
    return -1, parent, outer


def reference_matching_and_inessential(adjacency) -> tuple[list[int], frozenset[int]]:
    """The earlier matching engine: one single-root blossom search per
    vertex the greedy seed leaves exposed, then one final search from all
    exposed vertices for D, which raises if it can still augment."""
    n = len(adjacency)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adjacency[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            exposed, parent, _ = _reference_search(adjacency, match, [v])
            while exposed != -1:
                prev = parent[exposed]
                nxt = match[prev]
                match[exposed] = prev
                match[prev] = exposed
                exposed = nxt
    exposed = [v for v, partner in enumerate(match) if partner == -1]
    end, _, outer = _reference_search(adjacency, match, exposed)
    if end != -1:
        raise InternalConsistencyError(
            f"augmenting path to {end} remains after the matching search"
        )
    return match, frozenset(v for v, is_outer in enumerate(outer) if is_outer)


@dataclass(frozen=True)
class ReferenceDecomposition:
    """The decomposition's sets, built eagerly by
    :func:`reference_edmonds_gallai`."""

    inessential: frozenset[int]
    separator: frozenset[int]
    remainder: frozenset[int]
    singletons: frozenset[int]
    odd_components: tuple[frozenset[int], ...]
    partner: dict[int, int]
    mate: tuple[int, ...]


def reference_edmonds_gallai(g: Graph, answer=None) -> ReferenceDecomposition:
    """The earlier decomposition build: the engine's matching and missed
    set (or `answer`, a ``(mate, outer)`` pair in the engine's form), both
    component kinds labelled by breadth-first search, every set and the
    partner map built at once, and every structural guarantee checked,
    each raising InternalConsistencyError.  It assumes `mate` is a
    matching."""
    n = g.vertex_count
    adjacency = g.adjacency
    mate, outer = matching.maximum_matching(adjacency) if answer is None else answer
    kind = [0 if is_outer else 2 for is_outer in outer] + [3]
    for v in itertools.compress(range(n), outer):
        for u in adjacency[v]:
            if not outer[u]:
                kind[u] = 1
    comp = [-1] * (n + 1)
    inessential_comps: list[list[int]] = []
    remainder_comps: list[list[int]] = []
    for start in range(n):
        k = kind[start]
        if comp[start] != -1 or k == 1:
            continue
        comp[start] = start
        group = [start]
        for w in group:
            for x in adjacency[w]:
                if comp[x] == -1 and kind[x] == k:
                    comp[x] = start
                    group.append(x)
        (inessential_comps if k == 0 else remainder_comps).append(group)
    if any(len(group) % 2 == 0 for group in inessential_comps):
        raise InternalConsistencyError("even-sized inessential component")
    partner = {}
    for y in range(n):
        if kind[y] == 1:
            if kind[mate[y]] != 0:
                raise InternalConsistencyError(f"separator vertex {y} matched outside")
            partner[y] = mate[y]
    if len({comp[x] for x in partner.values()}) != len(partner):
        raise InternalConsistencyError("separator vertices share a component")
    for group in remainder_comps:
        if len(group) % 2 or any(comp[mate[v]] != group[0] for v in group):
            raise InternalConsistencyError("remainder component not perfectly matched")
    for group in inessential_comps:
        missed = [v for v in group if comp[mate[v]] != group[0]]
        if len(missed) != 1 or kind[mate[missed[0]]] not in (1, 3):
            raise InternalConsistencyError("inessential component not near-perfectly matched")
    return ReferenceDecomposition(
        inessential=frozenset(itertools.compress(range(n), outer)),
        separator=frozenset(partner),
        remainder=frozenset(itertools.chain.from_iterable(remainder_comps)),
        singletons=frozenset(group[0] for group in inessential_comps if len(group) == 1),
        odd_components=tuple(frozenset(group) for group in inessential_comps if len(group) > 1),
        partner=partner,
        mate=tuple(mate),
    )


def matching_number(g: Graph) -> int:
    return len(maximum_matching(g))


def conflict_pairs(cg) -> list[tuple[int, int]]:
    """The conflicting candidate pairs (i, j), i < j, of a conflict graph."""
    return [
        (i, j)
        for i, mask in enumerate(cg.conflicts)
        for j in range(i + 1, mask.bit_length())
        if mask >> j & 1
    ]


def brute_is_dispersed(g: Graph, points, delta) -> bool:
    """All-pairs reference: every two distinct points at least delta apart
    under `point_distance` (which reads the all-pairs hop table)."""
    norm = sorted({normalize_point(g, p) for p in points})
    for i in range(len(norm)):
        for j in range(i + 1, len(norm)):
            if point_distance(g, norm[i], norm[j]) < delta:
                return False
    return True


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


def surplus(inst: CutInstance, subset) -> int:
    """``|neighbourhood(subset)| - |subset|`` for a subset of the left side."""
    chosen = frozenset(subset)
    if not chosen <= inst.left:
        raise ValueError("subset must lie within the left side")
    hit = {y for x, y in inst.arcs if x in chosen}
    return len(hit) - len(chosen)


def min_surplus(inst: CutInstance) -> tuple[int, frozenset[int]]:
    """Minimum of ``|neighbourhood(T)| - |T|`` over subsets T of the left
    side, and a minimizing T: the arcs read into the node adjacency of the
    bipartite graph they form, for ``solve2._min_surplus`` to solve."""
    left = sorted(inst.left)
    right = sorted(inst.right)
    # left vertex i is node i, right vertex j node len(left) + j
    at_left = dict(zip(left, range(len(left))))
    at_right = dict(zip(right, range(len(left), len(left) + len(right))))
    adjacency: list[list[int]] = [[] for _ in range(len(left) + len(right))]
    for x, y in inst.arcs:
        i, j = at_left[x], at_right[y]
        adjacency[i].append(j)
        adjacency[j].append(i)
    value, chosen = _min_surplus(adjacency, len(left))
    return value, frozenset(left[i] for i in chosen)


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


def dense_certificate_system(g: Graph, delta: Fraction, cert):
    """The certificate's linear system with a row for every endpoint pair.

    Variables are ``x(u,e)`` for each end u of each occupied edge e, the
    distance from u to e's nearest interior point; rows are
    ``coeffs . x <= rhs`` over the all-pairs hop table, including the rows
    that ``x >= 0`` implies.  Returns ``(nvars, rows, labels)``, or None
    when two certificate vertices are closer than delta (no system then).
    """
    hops = hop_table(g)
    vs = sorted(cert.vertices)
    for i, u in enumerate(vs):
        for w in vs[i + 1 :]:
            if hops[u][w] < delta:
                return None
    occupied = sorted(cert.interior_counts)
    variables = [(u, e) for e in occupied for u in g.edges[e]]
    var_id = {uv: i for i, uv in enumerate(variables)}
    nvars = len(variables)
    one = Fraction(1)
    rows = []

    def add(coeffs, rhs):
        dense = [Fraction(0)] * nvars
        for idx, c in coeffs.items():
            dense[idx] = c
        rows.append((tuple(dense), Fraction(rhs)))

    for e in occupied:
        u, v = g.edges[e]
        count = cert.interior_counts[e]
        add({var_id[(u, e)]: -one}, 0)
        add({var_id[(v, e)]: -one}, 0)
        add({var_id[(u, e)]: one, var_id[(v, e)]: one}, 1 - (count - 1) * delta)
    for w in cert.vertices:
        for e in occupied:
            for u in g.edges[e]:
                add({var_id[(u, e)]: -one}, hops[u][w] - delta)
    for pos, e in enumerate(occupied):
        for f in occupied[pos:]:
            if e == f:
                # wrap-around between the two extreme interior points
                if cert.interior_counts[e] >= 2:
                    u, v = g.edges[e]
                    add({var_id[(u, e)]: -one, var_id[(v, e)]: -one}, hops[u][v] - delta)
                continue
            for u in g.edges[e]:
                for w in g.edges[f]:
                    add({var_id[(u, e)]: -one, var_id[(w, f)]: -one}, hops[u][w] - delta)
    return nvars, rows, [f"x({u},{e})" for u, e in variables]


def fourier_motzkin_feasible(
    nvars: int,
    rows: list[tuple[tuple[Fraction, ...], Fraction]],
    labels: list[str] | None = None,
) -> tuple[bool, str | None]:
    """Exact feasibility of ``coeffs . x <= rhs`` rows over the rationals.

    Eliminates variables in index order; on infeasibility the second
    element names the stage that exposed the contradiction.  Dominated rows
    (same normalized coefficients, larger bound) are pruned at every stage.
    The cost can grow exponentially with the number of variables.
    """
    labels = labels or [f"x{i}" for i in range(nvars)]

    def normalize(batch):
        kept: dict[tuple[Fraction, ...], Fraction] = {}
        for coeffs, rhs in batch:
            scale = next((abs(c) for c in coeffs if c != 0), None)
            if scale is None:
                if rhs < 0:
                    return None
                continue
            key = tuple(c / scale for c in coeffs)
            rhs = rhs / scale
            if key not in kept or rhs < kept[key]:
                kept[key] = rhs
        return [(k, v) for k, v in kept.items()]

    current = normalize(rows)
    if current is None:
        return False, "contradiction in the initial constraints"
    for j in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs in current:
            c = coeffs[j]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        combined = rest
        for pc, pr in pos:
            pj = pc[j]
            for nc, nr in neg:
                nj = -nc[j]
                coeffs = tuple(a / pj + b / nj for a, b in zip(pc, nc))
                combined.append((coeffs, pr / pj + nr / nj))
        current = normalize(combined)
        if current is None:
            return False, f"contradiction after eliminating {labels[j]}"
    return True, None


def component_split(adjacency: Sequence[Sequence[int]], inside: frozenset[int]) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by `inside`."""
    seen: set[int] = set()
    comps = []
    for start in sorted(inside):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque(comp)
        while queue:
            w = queue.popleft()
            for x in adjacency[w]:
                if x in inside and x not in seen:
                    seen.add(x)
                    comp.append(x)
                    queue.append(x)
        comps.append(frozenset(comp))
    return comps


def validate_canonical(
    g: Graph,
    vertices: frozenset[int],
    midpoint_edges: frozenset[int],
    dec: ReferenceDecomposition,
) -> bool:
    """Check the structural properties an optimal canonical witness satisfies.

    The witness is the points at `vertices` plus the midpoints of
    `midpoint_edges`, as :func:`canonical_witness` reads them.

    P1: the midpoint edges induce a near-perfect matching in every odd
    inessential component of size >= 3.  P2: each separator vertex sees the
    witness only through the midpoint of a single edge into the inessential
    set, if at all.  P3: the midpoint edges induce a perfect matching in
    every remainder component.
    """
    points = frozenset(
        [vertex_point(g, v) for v in vertices] + [midpoint(g, e) for e in midpoint_edges]
    )
    remainder_components = tuple(component_split(g.adjacency, dec.remainder))

    for comp in dec.odd_components:
        if not _induces_matching(g, midpoint_edges, comp, len(comp) - 1):
            return False

    for y in dec.separator:
        hits = vicinity(g, y) & points
        if not hits:
            continue
        if len(hits) != 1:
            return False
        (hit,) = hits
        if hit.offset != Fraction(1, 2):
            return False
        u, v = g.edges[hit.edge_index]
        if y not in (u, v):
            return False
        other = u if v == y else v
        if other not in dec.inessential:
            return False

    for comp in remainder_components:
        if not _induces_matching(g, midpoint_edges, comp, len(comp)):
            return False
    return True


def _induces_matching(
    g: Graph, midpoint_edges: frozenset[int], comp: frozenset[int], want_covered: int
) -> bool:
    """Do the midpoint edges inside `comp` form a matching covering
    exactly `want_covered` of its vertices?"""
    covered: set[int] = set()
    for e in midpoint_edges:
        u, v = g.edges[e]
        if u in comp and v in comp:
            if u in covered or v in covered:
                return False
            covered.update((u, v))
    return len(covered) == want_covered


def all_pairs_conflicts(g: Graph, delta, grid_denominator: int | None = None) -> tuple[int, ...]:
    """Conflict bitmasks of the oracle's grid from every pair of candidates.

    Candidates are numbered as in ``build_conflict_graph``: the vertices,
    then the q-1 interior steps of each edge in edge order.  Each pair's
    distance is the minimum over its four end routes through the all-pairs
    hop table, and its direct distance when both lie on one edge.
    """
    delta = as_rational(delta)
    q = 2 * delta.denominator if grid_denominator is None else grid_denominator
    n = g.vertex_count
    # (end a, end b, steps to a, steps to b, edge or -1) per candidate
    ends = [(v, v, 0, 0, -1) for v in range(n)]
    for e, (u, v) in enumerate(g.edges):
        ends.extend((u, v, i, q - i, e) for i in range(1, q))
    hops = hop_table(g)
    threshold = delta * q
    conflicts = [0] * len(ends)
    for i, (ia, ib, da, db, ie) in enumerate(ends):
        for j in range(i + 1, len(ends)):
            ja, jb, ea, eb, je = ends[j]
            d = min(
                da + q * hops[ia][ja] + ea,
                da + q * hops[ia][jb] + eb,
                db + q * hops[ib][ja] + ea,
                db + q * hops[ib][jb] + eb,
            )
            if ie == je != -1:
                d = min(d, abs(da - ea))
            if d < threshold:
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return tuple(conflicts)


def _clique_cover_size(conflicts, remaining: int) -> int:
    cliques: list[int] = []
    r = remaining
    while r:
        low = r & -r
        r ^= low
        cv = conflicts[low.bit_length() - 1]
        for idx, members in enumerate(cliques):
            if members & ~cv == 0:
                cliques[idx] = members | low
                break
        else:
            cliques.append(low)
    return len(cliques)


def reference_max_independent_set(conflicts) -> tuple[int, int]:
    """Plain branch-and-bound MIS without reductions: (size, bitmask).

    A greedy pass seeds the incumbent; at each node conflict-free
    candidates are taken, a greedy clique cover bounds the rest, and the
    search branches on the candidate with the most remaining conflicts.
    """
    n = len(conflicts)
    full = (1 << n) - 1
    best_mask = 0  # greedy seed, ascending index
    rem = full
    while rem:
        low = rem & -rem
        best_mask |= low
        rem &= ~(conflicts[low.bit_length() - 1] | low)
    best = best_mask.bit_count()
    stack = [(0, 0, full)]
    while stack:
        count, chosen, rem = stack.pop()
        free = 0
        pick = -1
        pick_degree = -1
        r = rem
        while r:
            low = r & -r
            r ^= low
            v = low.bit_length() - 1
            degree = (conflicts[v] & rem).bit_count()
            if degree == 0:
                free |= low
            elif degree > pick_degree:
                pick_degree = degree
                pick = v
        chosen |= free
        count += free.bit_count()
        rem &= ~free
        if rem == 0:
            if count > best:
                best, best_mask = count, chosen
            continue
        if count + _clique_cover_size(conflicts, rem) <= best:
            continue
        bit = 1 << pick
        stack.append((count, chosen, rem & ~bit))
        stack.append((count + 1, chosen | bit, rem & ~(conflicts[pick] | bit)))
    return best, best_mask


def reference_reduce(conflicts, rem: int, dirty: int, check, far=None) -> tuple[int, int]:
    """Isolation and domination to a fixpoint, one neighbour at a time.

    The per-neighbour form of ``oracle._reduce``: for each examined
    candidate v it tests every remaining neighbour u on its own for
    N[v] within N[u] and drops each dominated one as it is found.  Same
    signature and result ``(taken, rem)``; it takes the order hint `far`
    and ignores it, as the result does not depend on it.
    """
    taken = 0
    while dirty:
        check()
        dirty &= rem
        shrunk = 0
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            if not rem & low:
                continue
            nv = conflicts[low.bit_length() - 1] & rem
            r = nv
            while r:
                ub = r & -r
                r ^= ub
                u = conflicts[ub.bit_length() - 1]
                if nv & ~u == ub:  # N[v] within N[u]: drop u
                    rem ^= ub
                    nv ^= ub
                    shrunk |= u
            if not nv:
                taken |= low
                rem ^= low
        dirty = shrunk
    return taken, rem


def induced_conflicts(conflicts, mask: int) -> tuple[int, ...]:
    """The conflict relation restricted to the candidates in `mask`,
    renumbered 0, 1, ... in ascending order of their old index."""
    members = [i for i in range(len(conflicts)) if mask >> i & 1]
    index = {old: new for new, old in enumerate(members)}
    out = []
    for i in members:
        c = conflicts[i] & mask
        out.append(sum(1 << index[j] for j in members if c >> j & 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# The point pipeline the integer witness form replaced: each route built a
# Fraction point per witness point, the witness normalized and sorted them,
# the dispersion check read each back into integers through `_point_key`,
# and the witness printer walked the points.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairWitness:
    """The witness form the runs of ``WitnessSet`` replaced, kept with its
    constructor and its point-by-point dispersion check as their
    differential reference.

    ``vertices`` are the vertex ids holding a point, ascending, and
    ``interior`` the ``(edge, k)`` pairs, ascending, of the points strictly
    inside an edge, at offset k/scale from its first endpoint (0 < k <
    scale).  ``scale`` is the smallest common denominator of those offsets
    (1 when there are none), so equal sets compare equal.
    """

    graph: Graph = field(compare=False, repr=False)
    scale: int
    vertices: tuple[int, ...]
    interior: tuple[tuple[int, int], ...]
    delta: Fraction

    def __len__(self) -> int:
        return len(self.vertices) + len(self.interior)

    def is_dispersed(self) -> bool:
        """True iff every two of the points are at least delta apart, by
        the check over sorted pairs that the run check replaced.

        Offsets and delta are scaled by L = lcm(scale, delta's denominator),
        so an edge is L long.  Two points on one edge are exactly their offset
        difference apart (a route around the edge is at least L long), so only
        neighbours in offset order are compared.
        Every other route leaves one point's edge at an end x and enters the
        other's at an end y, and costs at least L hops(x, y); a pair closer
        than delta therefore has ends fewer than delta hops apart.  Along such
        a route a nearer point on the same edge, or the vertex itself, is
        closer still, so each vertex keeps only its nearest point and the
        distance to the next (an occupied vertex only its own point: the
        offset check has put every other point at least delta away from it).
        Hop 0 compares those two.  Ends x and y at least one hop apart
        compare their nearest points only, unless that is one point of edge
        xy seen from both ends: then every pair is farther apart than one that
        hop 0 at x or y compares.

        The search from x is one-sided: it walks h hops only while
        2 d0(x) + hL < limit.  A violating pair at h >= 1 hops has
        d0(x) + d0(y) + hL < limit, so the end with the smaller d0, say x,
        has 2 d0(x) + hL < limit and reaches the other; the pair is found
        from that side.

        The cost is a pass over the sorted points, one over the edge ends, and
        per vertex that keeps a point its neighbour list when delta allows one
        hop, or a search ball of radius below delta walked ring by ring when
        it allows more: near-linear in the witness times the ball size, with
        no all-pairs table and nothing sized by the graph.
        """
        g, scale, delta = self.graph, self.scale, self.delta
        vertices, interior = self.vertices, self.interior
        if len(vertices) + len(interior) < 2:
            return True
        length = lcm(scale, delta.denominator)
        step = length // scale
        limit = delta.numerator * (length // delta.denominator)

        # Offsets on one edge closer than delta differ by less than `gap`
        # units of 1/scale.  Laying edge e's offsets out from e * (scale + gap)
        # puts points of different edges at least `gap` apart, so one scan of
        # the sorted pairs compares every edge's neighbours in offset order.
        gap = -(-limit // step)
        stride = scale + gap
        laid = [e * stride + k for e, k in interior]
        if len(laid) > 1 and min(map(sub, laid[1:], laid)) < gap:
            return False

        # Per vertex, ``(d0, p0, d1)``: the distance and name of its nearest
        # point and the distance of the next (`limit` if none): an occupied
        # vertex's own point, named by its id, or the two nearest ends of
        # edges (one per edge) at a vacant one, named (edge, k).  An end at an
        # occupied vertex must be delta away from it instead.
        occupied = set(vertices)
        near = {v: (0, v, limit) for v in occupied}
        edges = g.edges
        ends = [(edges[e][0], k * step, (e, k)) for e, k in dict(reversed(interior)).items()]
        ends += [(edges[e][1], (scale - k) * step, (e, k)) for e, k in dict(interior).items()]
        for x, distance, point in ends:
            kept = near.get(x)
            if kept is None:
                near[x] = (distance, point, limit)
            elif x in occupied:
                if distance < limit:
                    return False
            elif distance < kept[0]:
                near[x] = (distance, point, kept[0])
            elif distance < kept[2]:
                near[x] = (kept[0], kept[1], distance)

        adjacency = g.adjacency
        for x, (d0, p0, d1) in near.items():
            if d0 + d1 < limit:
                return False  # hop 0: the two points nearest x
            radius = (limit - 2 * d0 - 1) // length  # one-sided: see above
            if radius < 1:
                continue
            # one hop reads x's neighbour list; more walk a ball from ring 1 on
            rings = [(1, adjacency[x])] if radius == 1 else itertools.islice(hop_ball(g, x, radius), 1, None)
            for hops, ring in rings:
                reach = limit - hops * length
                for y in ring:
                    there = near.get(y)
                    if there is not None and d0 + there[0] < reach and p0 != there[1]:
                        return False
        return True

    @classmethod
    def from_form(
        cls,
        g: Graph,
        scale: int,
        vertices: Iterable[int],
        interior: Iterable[tuple[int, int]],
        delta: Fraction,
    ) -> "PairWitness":
        """Sort the integer form, check it names distinct points of g, and
        reduce it to the smallest scale.  Raises ValueError otherwise."""
        delta = as_rational(delta)
        if delta <= 0:
            raise ValueError("delta must be positive")
        vertices = sorted(vertices)
        interior = sorted(interior)
        if any(map(eq, vertices, vertices[1:])) or any(map(eq, interior, interior[1:])):
            raise ValueError("witness points are not pairwise distinct")
        if vertices and not (vertices[0] >= 0 and vertices[-1] < g.vertex_count):
            raise ValueError("witness vertex outside the graph")
        if interior:
            ks = [k for _, k in interior]
            if not (interior[0][0] >= 0 and interior[-1][0] < g.edge_count):
                raise ValueError("witness edge outside the graph")
            if min(ks) < 1 or max(ks) >= scale:
                raise ValueError("witness offset outside its edge")
            common = gcd(scale, *ks)
            if common > 1:
                scale //= common
                interior = [(e, k // common) for e, k in interior]
        else:
            scale = 1
        return cls(g, scale, tuple(vertices), tuple(interior), delta)

    @classmethod
    def of(cls, ws: WitnessSet) -> "PairWitness":
        """The points of `ws`, its runs expanded."""
        return cls.from_form(ws.graph, ws.scale, ws.vertices, expand_runs(ws.runs), ws.delta)


def reference_build(g: Graph, points) -> tuple[Point, ...]:
    """Normalized points sorted by edge and offset; ValueError on a repeat."""
    norm = [normalize_point(g, p) for p in points]
    keys = {(p.edge_index, p.offset.numerator, p.offset.denominator) for p in norm}
    if len(keys) != len(norm):
        raise ValueError("witness points are not pairwise distinct")
    norm.sort(key=lambda p: (p.edge_index, p.offset))
    return tuple(norm)


def reference_is_dispersed(g: Graph, points, delta) -> bool:
    """The local dispersion check over points: offsets and delta scaled by
    the lcm of their denominators, neighbours in offset order compared per
    edge, and the two nearest points of each vertex paired up in a hop ball
    of radius below delta."""
    vertices: set[int] = set()
    interior: set[tuple[int, int, int]] = set()
    for p in points:
        key = _point_key(g, p)
        if isinstance(key, tuple):
            interior.add(key)
        else:
            vertices.add(key)
    delta = as_rational(delta)
    if len(vertices) + len(interior) < 2:
        return True
    scale = lcm(delta.denominator, *{den for _, _, den in interior})
    limit = delta.numerator * (scale // delta.denominator)

    on_edge: dict[int, list[int]] = {}
    for e, num, den in interior:
        on_edge.setdefault(e, []).append(num * (scale // den))

    near: dict[int, list[tuple[int, object]]] = {v: [(0, v)] for v in vertices}

    def attach(v: int, distance: int, point: object) -> None:
        kept = near.setdefault(v, [])
        kept.append((distance, point))
        if len(kept) > 2:
            kept.sort(key=lambda item: item[0])
            kept.pop()

    for e, offsets in on_edge.items():
        u, v = g.edges[e]
        offsets.sort()
        line = ([0] if u in vertices else []) + offsets + ([scale] if v in vertices else [])
        if any(b - a < limit for a, b in zip(line, line[1:])):
            return False
        attach(u, offsets[0], (e, offsets[0]))
        attach(v, scale - offsets[-1], (e, offsets[-1]))

    for x, here in near.items():
        nearest = min(d for d, _ in here)
        radius = (limit - nearest - 1) // scale
        for hops, ring in hop_ball(g, x, radius):
            reach = limit - hops * scale
            for y in ring:
                there = near.get(y)
                if there is not None and any(
                    a + b < reach and p != q for a, p in here for b, q in there
                ):
                    return False
    return True


def reference_format_witness(g: Graph, points) -> str:
    """One ``e u v num/den`` line per point, in the given order."""
    out = []
    for p in points:
        u, v = (0, 0) if p.edge_index == -1 else g.edges[p.edge_index]
        out.append(f"{p.edge_index} {u} {v} {p.offset.numerator}/{p.offset.denominator}")
    return "\n".join(out) + ("\n" if out else "")


def reference_unit_numerator_points(g: Graph, b: int) -> list[Point]:
    """The closed-form witness at delta = 1/b as points."""
    if g.is_tree:
        points = [vertex_point(g, v) for v in range(g.vertex_count)]
        for e in range(g.edge_count):
            points.extend(Point(e, Fraction(i, b)) for i in range(1, b))
        return points
    return [
        Point(e, Fraction(2 * i - 1, 2 * b))
        for e in range(g.edge_count)
        for i in range(1, b + 1)
    ]


def canonical_witness(g: Graph) -> tuple[int, frozenset[int], frozenset[int]]:
    """The delta = 2 value of ``solve2.disp2(g, 1)``, and its canonical
    witness as the chosen vertices and the edges holding a midpoint."""
    value, (_, vertices, runs) = disp2(g, 1)
    return value, frozenset(vertices), frozenset(e for e, *_ in runs)


def reference_numerator_two_points(g: Graph, b: int) -> list[Point]:
    """The witness at delta = 2/b (b odd) as points: the canonical delta =
    2 witness's vertices, and each edge's refill pattern by its class."""
    z = (b - 1) // 2
    _, vertices, mids = canonical_witness(g)
    points = [vertex_point(g, v) for v in vertices]
    for e, (u, v) in enumerate(g.edges):
        if u in vertices:
            points.extend(Point(e, Fraction(2 * i, b)) for i in range(1, z + 1))
        elif v in vertices:
            points.extend(Point(e, Fraction(b - 2 * i, b)) for i in range(1, z + 1))
        elif e in mids:
            points.extend(Point(e, Fraction(4 * i - 3, 2 * b)) for i in range(1, z + 2))
        else:
            points.extend(Point(e, Fraction(4 * i - 1, 2 * b)) for i in range(1, z + 1))
    return points


def reference_oracle_points(g: Graph, delta: Fraction, mask: int) -> list[Point]:
    """The candidates of the grid of step 1/(2b), delta = a/b, chosen by
    `mask`, as points of g."""
    q = 2 * delta.denominator
    return [source_point(g, q, i) for i in range(mask.bit_length()) if mask >> i & 1]


def gadget_chains(inst) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Per source edge (u, v), in order, its chains in the gadget graph as
    vertex tuples: the path from source vertex u to the hub, the path from
    v to it, and the hub's cycle from the hub back to it, walked toward
    the hub's lower-numbered cycle neighbour.

    Found by walking the gadget graph from each source vertex through
    degree-2 vertices; the hub of (u, v) is the one vertex that walks from
    both u and v reach.  Reads nothing of the gadget's block layout."""
    g = inst.g

    def walk(first: int, second: int) -> tuple[int, ...]:
        verts = [first, second]
        while g.degree(verts[-1]) == 2:
            x, y = g.adjacency[verts[-1]]
            verts.append(y if x == verts[-2] else x)
        return tuple(verts)

    # per source vertex, the path to each hub it reaches
    paths = [{p[-1]: p for p in (walk(u, x) for x in g.adjacency[u])}
             for u in range(inst.h.vertex_count)]
    chains = []
    for u, v in inst.h.edges:
        (hub,) = set(paths[u]) & set(paths[v])
        left, right = paths[u][hub], paths[v][hub]
        on_cycle = [x for x in g.adjacency[hub] if x not in (left[-2], right[-2])]
        chains.append((left, right, walk(hub, min(on_cycle))))
    return chains


def reference_gadget_points(inst, independent) -> list[Point]:
    """The gadget witness of an independent set (odd numerators) as points,
    each placed at its Fraction distance along its chain, the chains
    found by :func:`gadget_chains`."""

    def along(verts, t: Fraction) -> Point:
        step = t.numerator // t.denominator
        off = t - step
        if off == 0:
            return vertex_point(g, verts[step])
        e = edge_index(g, verts[step], verts[step + 1])
        u, _ = g.edges[e]
        return normalize_point(g, Point(e, off if u == verts[step] else 1 - off))

    g, delta, c = inst.g, inst.delta, inst.coeffs
    chosen = frozenset(independent)
    points = [vertex_point(g, u) for u in sorted(chosen)]
    for (u, v), (left, right, cycle) in zip(inst.h.edges, gadget_chains(inst)):
        for path, endpoint in ((left, u), (right, v)):
            start = delta if endpoint in chosen else delta / 2
            points.extend(along(path, start + j * delta) for j in range(c.y1))
        first = Fraction(delta.numerator + 1, 2 * delta.denominator)
        points.extend(along(cycle, first + j * delta) for j in range(c.y2))
    return points


_PLAIN_INTEGER = re.compile("-?[0-9]+")


def _reference_line(text: str, line: int, expected: str) -> list[int]:
    """The two tokens of one line as ints, each matching ``-?[0-9]+``."""
    tokens = text.split()
    if len(tokens) == 2 and all(map(_PLAIN_INTEGER.fullmatch, tokens)):
        try:
            return [int(t) for t in tokens]
        except ValueError:  # past int()'s digit limit
            pass
    raise MalformedLineError(f"expected {expected}", line=line)


def reference_parse_graph(text: str) -> Graph:
    """The graph reader line by line and edge by edge: each edge line is
    tokenized, converted and checked (range, self-loop, duplicate) before
    the next is read, then missing and extra lines, then connectivity by a
    breadth-first search.  The result's neighbour lists are built here
    too, so comparing ``adjacency`` checks the package's."""
    lines = text.splitlines()
    n, m = _reference_line(lines[0] if lines else "", 1, "header 'n m'")
    if n < 1:
        raise MalformedLineError("vertex count must be positive", line=1)
    if m < 0:
        raise MalformedLineError("edge count must be non-negative", line=1)
    edges: list[tuple[int, int]] = []
    seen: set[int] = set()
    body = lines[1 : m + 1]
    for lineno, raw in enumerate(body, start=2):
        u, v = _reference_line(raw, lineno, "'u v'")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside [0, {n})", line=lineno)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}", line=lineno)
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})", line=lineno)
        seen.add(key)
        edges.append((u, v))
    if len(body) < m:
        raise MalformedLineError("missing edge line", line=len(body) + 2)
    for extra, content in enumerate(lines[m + 1 :], start=m + 2):
        if content.split():
            raise MalformedLineError("unexpected extra line", line=extra)
    if n > len(edges) + 1:
        raise DisconnectedGraphError("graph is not connected")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    reached = {0}
    queue = deque([0])
    while queue:
        for y in nbrs[queue.popleft()]:
            if y not in reached:
                reached.add(y)
                queue.append(y)
    if len(reached) != n:
        raise DisconnectedGraphError("graph is not connected")
    g = Graph._unchecked(n, tuple(edges))
    object.__setattr__(g, "adjacency", tuple(tuple(sorted(x)) for x in nbrs))
    return g


def reference_verify_certificate(g: Graph, delta: Fraction, cert, k: int):
    """The certificate check row by row, the reference for
    ``certify.verify_certificate``: every row of the placement system is
    built as an ``(i, j, relation, b)`` tuple first, the hop ball is walked
    at every radius, and the doubled graph's arcs ``(head, weight)`` are
    built from the rows after, for :func:`reference_negative_cycle`.  Each
    arc's ends map back to the row that made it, and a rejection words the
    cycle's rows from the rows themselves, each once."""
    delta = as_rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    for e in cert.interior_counts:
        if not 0 <= e < g.edge_count:
            raise ValueError(f"invalid edge index {e} in certificate")
    for v in cert.vertices:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"invalid vertex id {v} in certificate")

    if cert.total < k:
        return Verdict(False, f"cardinality shortfall: certificate claims {cert.total} < k={k}")

    p, q = delta.numerator, delta.denominator
    radius = (p - 1) // q
    for u in sorted(cert.vertices):
        for hops, ring in hop_ball(g, u, radius):
            for w in ring:
                if w > u and w in cert.vertices:
                    return Verdict(False, f"vertex pair ({u}, {w}) at distance {hops} < {delta}")

    occupied = sorted(cert.interior_counts)
    cap = int(1 / delta) + 1
    for e in occupied:
        if cert.interior_counts[e] > cap:
            return Verdict(
                False,
                f"infeasible system: edge {e} cannot hold {cert.interior_counts[e]} "
                f"points at spacing {delta}",
            )

    variables = [(u, e) for e in occupied for u in g.edges[e]]
    ends: dict[int, list[tuple[int, int]]] = {}
    for i, (u, e) in enumerate(variables):
        ends.setdefault(u, []).append((e, i))
    lower = [0] * len(variables)
    rows: list[tuple[int, int | None, str, int]] = []
    for i in range(0, len(variables), 2):
        count = cert.interior_counts[variables[i][1]]
        rows.append((i, i + 1, "<=", q - (count - 1) * p))
    for u, here in ends.items():
        for hops, ring in hop_ball(g, u, radius):
            need = p - hops * q
            for w in ring:
                for e, i in here:
                    if w in cert.vertices:
                        lower[i] = max(lower[i], need)
                    rows.extend((i, j, ">=", need) for f, j in ends.get(w, ()) if f != e and i < j)
    rows.extend((i, None, ">=", b) for i, b in enumerate(lower))

    arcs: list[list[tuple[int, int]]] = [[] for _ in range(2 * len(variables))]
    made: dict[tuple[int, int], int] = {}  # (tail, head) -> the row of that arc
    for r, (i, j, relation, b) in enumerate(rows):
        if j is None:
            row_arcs = [(2 * i, 2 * i + 1, -2 * b)]
        elif relation == "<=":
            row_arcs = [(2 * i + 1, 2 * j, b), (2 * j + 1, 2 * i, b)]
        else:
            row_arcs = [(2 * i, 2 * j + 1, -b), (2 * j, 2 * i + 1, -b)]
        for t, h, w in row_arcs:
            assert made.setdefault((t, h), r) == r, "two rows make one arc"
            arcs[t].append((h, w))
    cycle = reference_negative_cycle(arcs)
    if cycle is None:
        return Verdict(True)

    def name(i: int) -> str:
        return "x({},{})".format(*variables[i])

    said = []
    for i, j, relation, b in (rows[r] for r in dict.fromkeys(made[t, h] for t, h, _ in cycle)):
        pair = name(i) if j is None else f"{name(i)} + {name(j)}"
        said.append(f"{pair} {relation} {Fraction(b, q)}")
    return Verdict(False, "infeasible system: " + "; ".join(said))


def reference_negative_cycle(arcs: list[list[tuple[int, int]]]) -> list[tuple[int, int, int]] | None:
    """The arcs ``(tail, head, weight)`` of a negative cycle, in the order
    it runs, the reference for ``certify._negative_cycle``: the same rounds
    and walks to the root, with each parent a tuple, each round's lowered
    nodes a dict and each walk a dict of its own."""
    dist = [0] * len(arcs)
    parent: list[tuple[int, int, int] | None] = [None] * len(arcs)
    lowered = list(range(len(arcs)))
    while lowered:
        changed: dict[int, None] = {}
        for t in lowered:
            for h, w in arcs[t]:
                if dist[t] + w < dist[h]:
                    dist[h] = dist[t] + w
                    parent[h] = (t, h, w)
                    changed[h] = None
        lowered = list(changed)
        done: set[int] = set()
        for v in lowered:
            path: dict[int, tuple[int, int, int]] = {}
            while v not in done and v not in path and parent[v] is not None:
                path[v] = parent[v]
                v = parent[v][0]
            if v in path:
                nodes = list(path)
                cycle = [path[x] for x in reversed(nodes[nodes.index(v) :])]
                if sum(w for _, _, w in cycle) >= 0:
                    raise InternalConsistencyError("parent cycle of non-negative weight")
                return cycle
            done.update(path)
    return None


def reference_parse_certificate(text: str):
    """The certificate reader line by line, the reference for
    ``certify.parse_certificate``: each ``e n_e`` line is tokenized,
    converted and checked (edge listed twice, count below 1) before the
    next is read."""
    lines = text.splitlines()
    (k,) = integer_tokens(lines[0] if lines else "", 1, "an integer bound 'k'", 1)
    if len(lines) < 2 or not lines[1].strip().startswith("W:"):
        raise MalformedLineError("expected a 'W: ...' line", line=2)
    ids = integer_tokens(lines[1].strip()[2:], 2, "integer vertex ids")
    vertices = frozenset(ids)
    if len(vertices) != len(ids):
        seen: set[int] = set()
        for v in ids:
            if v in seen:
                raise MalformedLineError(f"vertex {v} listed twice", line=2)
            seen.add(v)
    counts: dict[int, int] = {}
    for lineno, raw in enumerate(lines[2:], start=3):
        if not raw.split():
            continue
        e, c = integer_tokens(raw, lineno, "integers 'e n_e'", 2)
        if e in counts:
            raise MalformedLineError(f"edge {e} listed twice", line=lineno)
        if c < 1:
            raise MalformedLineError("interior count must be positive", line=lineno)
        counts[e] = c
    return k, Certificate(vertices, counts)


def grid_tree_disp(g: Graph, a: int, b: int) -> tuple[int, tuple, list[tuple[int, int]]]:
    """The tree route over the materialized 1/(2b) grid, the reference for
    ``trees.tree_disp``: the grid's neighbour lists, one breadth-first
    order of the whole grid from vertex 0, the deepest-first greedy over
    it, each taken point's ball found by walking a-1 grid parents up, and
    the cover checked by :func:`grid_check_cover`.  Returns the value, the
    witness in the integer form of ``WitnessSet.verified`` and the balls."""
    adjacency = grid_adjacency(g, 2 * b)
    order, parent = grid_breadth_first(adjacency)
    taken = grid_greedy(adjacency, order, 2 * a)
    balls = grid_balls(parent, taken, a)
    grid_check_cover(adjacency, balls, len(taken), a - 1)
    return len(taken), grid_form(g.vertex_count, 2 * b, taken), balls


def grid_breadth_first(adjacency: list) -> tuple[list[int], list[int]]:
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


def grid_greedy(adjacency: list, order: list[int], spacing: int) -> list[int]:
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


def grid_balls(parent: list[int], taken: list[int], a: int) -> list[tuple[int, int]]:
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


def grid_check_cover(
    adjacency: Sequence[Sequence[int]], balls, value: int, radius: int
) -> None:
    """The cover check over the materialized grid, the reference for
    ``certify.check_cover`` (its balls through :func:`grid_edges`): `value`
    distinct balls, each an edge ``(c, p)`` of the graph of neighbour lists
    `adjacency` (or c == p), that cover it by one breadth-first search from
    all ends, stopped once a round adds nothing, or, on a grid of one point,
    value 1; else InternalConsistencyError, worded as that check words it."""
    distinct = set()
    for c, p in balls:
        if not (0 <= c < len(adjacency) and (c == p or p in adjacency[c])):
            raise InternalConsistencyError(f"cover ball ({c}, {p}) is not a grid edge")
        distinct.add((c, p) if c <= p else (p, c))
    if len(adjacency) == 1:
        if value != 1:
            raise InternalConsistencyError(f"a graph with no edge holds 1 point, not {value}")
        return
    if len(distinct) != value:
        raise InternalConsistencyError(
            f"{len(distinct)} distinct cover balls for {value} taken points"
        )
    seen = bytearray(len(adjacency))
    ring = list({x for ball in distinct for x in ball})
    for x in ring:
        seen[x] = 1
    reached = len(ring)
    for _ in range(radius):
        grown = []
        for x in ring:
            for y in adjacency[x]:
                if not seen[y]:
                    seen[y] = 1
                    grown.append(y)
        if not grown:
            break
        reached += len(grown)
        ring = grown
    if reached != len(adjacency):
        raise InternalConsistencyError(
            f"{value} cover balls reach {reached} of {len(adjacency)} grid points"
        )


def grid_edges(g: Graph, q: int, balls):
    """The cover balls ``(e, k)`` of ``certify.check_cover`` as the grid
    edges of ``subdivide(g, q)`` that :func:`grid_check_cover` takes, one
    by one: step k of edge e = (u, w) is u at k = 0, w at k = q and vertex
    n + e(q-1) + k-1 between.  A ball with no grid edge raises
    InternalConsistencyError when its turn comes, worded as that check
    words it."""
    n = g.vertex_count
    for e, k in balls:
        if not (0 <= e < g.edge_count and 0 <= k < q):
            raise InternalConsistencyError(f"cover ball ({e}, {k}) is not a grid edge")
        u, w = g.edges[e]
        chain = [u, *range(n + e * (q - 1), n + (e + 1) * (q - 1)), w]
        yield chain[k], chain[k + 1]
