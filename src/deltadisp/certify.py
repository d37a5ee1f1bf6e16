"""The one place an answer is checked: witnesses, tree covers, matchings
and certificates.

Every route's answer leaves through this module, which reads only ``core``
and ``errors``, so no check leans on a solver it checks:
:meth:`WitnessSet.verified` is the exit every solver's witness passes,
:func:`format_witness` and :func:`parse_witness` are the witness's text
format, :func:`check_cover` checks the cover proving a tree's value, and
:func:`check_barrier` the Tutte-Berge barrier proving the numerator-two
route's matching maximum.

A certificate names the vertices that carry facilities plus, per edge, how
many facilities sit strictly inside it.  Whether some placement with those
counts is delta-dispersed is a linear feasibility question over the
distances from each occupied edge's endpoints to the nearest interior
facility.  Every constraint has at most two variables, each with
coefficient +-1 (a UTVPI system), so it is feasible over the rationals iff
its doubled constraint graph has no negative cycle (Mine, *The Octagon
Abstract Domain*, 2006; Lahiri & Musuvathi, FroCoS 2005).  Weights are
integers once scaled by delta's denominator, only endpoints fewer than
delta hops apart give constraints, and a rejection names the cycle.

Each stage is one pass.  The reader reads the lines once, in order.  Two
certificate vertices fewer than delta hops apart are found by the
dispersion check's linear sweep.  The check adds each row's arcs to the
doubled graph as it finds the row, walking from every occupied end a ball
of radius floor((p-1)/q) for delta = p/q, and nothing past hop 0 when
delta <= 1, so its cost is the occupied ends times that ball.  The cycle
search keeps its state in flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import eq, index
from typing import Iterable, Mapping, Sequence

from .core import (
    Graph,
    _plain_integers,
    as_rational,
    check_size,
    hop_ball,
    integer_tokens,
)
from .errors import InternalConsistencyError, MalformedLineError

__all__ = [
    "WitnessSet",
    "format_witness",
    "parse_witness",
    "Certificate",
    "Verdict",
    "extract_certificate",
    "verify_certificate",
    "format_certificate",
    "parse_certificate",
]


@dataclass(frozen=True)
class WitnessSet:
    """A finite set of points claimed to be delta-dispersed, in integers.

    ``vertices`` are the vertex ids holding a point, ascending.  ``runs``
    holds the points strictly inside edges as arithmetic runs ``(edge,
    first, step, count)``: the points at offset (first + i step)/scale from
    the edge's first endpoint, for i < count, each strictly between 0 and
    1.  Runs are sorted by edge and first point, and canonical, so equal
    sets compare equal: each edge's points are cut into maximal runs
    greedily from the left, a run of one point has step 1, and ``scale``
    is the smallest common denominator of the offsets (1 when there are
    none).  A witness so takes room in proportion to its runs, however
    many points they hold; ``len`` counts the points.
    """

    graph: Graph = field(compare=False, repr=False)
    scale: int
    vertices: tuple[int, ...]
    runs: tuple[tuple[int, int, int, int], ...]
    delta: Fraction

    def __len__(self) -> int:
        return len(self.vertices) + sum(run[3] for run in self.runs)

    def is_dispersed(self) -> bool:
        """True iff every two of the points are at least delta apart: the one
        dispersion check.

        Offsets and delta are scaled by L = lcm(scale, delta's denominator),
        so an edge is L long.  Two points on one edge are exactly their offset
        difference apart (a route around the edge is at least L long), so only
        neighbours in offset order are compared: within a run its step, and
        between two runs of one edge their facing ends.
        Every other route leaves one point's edge at an end x and enters the
        other's at an end y, and costs at least L hops(x, y); a pair closer
        than delta therefore has ends fewer than delta hops apart.  Along such
        a route a nearer point on the same edge, or the vertex itself, is
        closer still, so each edge gives each end only its point nearest that
        end, and only if it is nearer than delta (one farther meets nothing
        through that end), and each vertex keeps only its nearest point (an
        occupied vertex its own point).  Hop 0 compares each point that
        reaches a vertex with the nearest one there so far, so the two
        nearest are compared when the later of them arrives.  When delta
        <= 1 no two ends are fewer than delta hops apart, and hop 0 is all.

        Past hop 0 one sweep labels the vertices with their nearest points,
        as Mehlhorn's Voronoi regions do (*A faster approximation algorithm
        for the Steiner problem in graphs*, IPL 27, 1988).  Labels ``(d,
        point)`` start from hop 0's, each nearer than L, and go out one hop
        a round, so they are taken in order of d, and a vertex keeps the
        first that reaches it: a nearest point.  A vertex at distance d

        - compares its point with each labelled neighbour's while
          2d + L < delta: a different point d' from that neighbour, with
          d + L + d' < delta, is a pair closer than delta, joined by a walk
          of that length;
        - hands ``(d + L, point)`` to each unlabelled neighbour while
          d + 2L < delta, and that neighbour takes its turn only if it can
          hand on in turn (one that cannot compares nothing either).

        No pair closer than delta is missed.  Take a closest pair P, Q,
        closer than delta, that the checks before the sweep pass, and a
        shortest route from P's edge's end x to Q's edge's end y: x != y,
        or hop 0 at x would have compared two points as close.  x is
        labelled P, since a point R != P as near x is at most 2 d(x, P) <
        d(x, P) + L <= |PQ| from P; likewise y is labelled Q.  Each vertex
        of the route lies within delta - L of P or of Q, the other being at
        least a hop further on, and so is labelled.  The labels therefore
        change across some edge (u, v) of the route with d_u + L + d_v <=
        |PQ| < delta, and its nearer end, say u, has 2 d_u + L < delta and
        scans v.  v is labelled by then: a label given after u's turn is at
        least d_u + L, which makes d_u + 2L < delta, and then u hands v its
        own point at its turn.

        The cost is a pass over the runs, whatever they hold, one sort of
        the hop-0 labels, and a sweep that labels each vertex once and reads
        each neighbour list at most once: O(n + m + runs) whatever delta
        is, with no all-pairs table, and nothing sized by the count of
        points.  At delta = 2 only the vertices within L/2 of a point read
        their neighbour lists.
        """
        g, scale, delta = self.graph, self.scale, self.delta
        if len(self) < 2:
            return True
        length = lcm(scale, delta.denominator)
        unit = length // scale
        limit = delta.numerator * (length // delta.denominator)
        gap = -(-limit // unit)  # offsets closer than delta differ by less

        # Per vertex, ``(d0, p0)``: the distance and name of its nearest
        # point: an occupied vertex's own point, named by its id, or the
        # nearest end of an edge at a vacant one, named (edge, k)
        near = {v: (0, v) for v in self.vertices}
        edges = g.edges
        ends = []  # (vertex, distance, point): an edge's outermost points nearer than delta
        edge = last = -1
        for e, first, step, count in self.runs:
            if count > 1 and step < gap:
                return False
            if e == edge:
                if first - last < gap:
                    return False
            else:
                if edge >= 0 and (scale - last) * unit < limit:
                    ends.append((edges[edge][1], (scale - last) * unit, (edge, last)))
                if first * unit < limit:
                    ends.append((edges[e][0], first * unit, (e, first)))
                edge = e
            last = first + (count - 1) * step
        if edge >= 0 and (scale - last) * unit < limit:
            ends.append((edges[edge][1], (scale - last) * unit, (edge, last)))

        for x, distance, point in ends:
            kept = near.get(x)
            if kept is not None:
                if distance + kept[0] < limit:
                    return False  # hop 0: this point and x's nearest so far
                if distance >= kept[0]:
                    continue
            near[x] = (distance, point)
        if limit <= length:
            return True  # delta <= 1: no two ends fewer than delta hops apart
        return not _close_pair(g.adjacency, near, limit, length)

    @classmethod
    def _from_runs(
        cls,
        g: Graph,
        scale: int,
        vertices: Iterable[int],
        runs: Iterable[tuple[int, int, int, int]],
        delta: Fraction,
    ) -> "WitnessSet":
        """Sort the integer form, check it names distinct points of g, and
        bring it to the canonical form.  Raises ValueError otherwise.

        A run must hold a point, have a positive step if it holds two, and
        lie inside its edge; runs of one edge must not overlap or
        interleave, so each run's points come after the last of the run
        before it.  The runs are then merged greedily from the left, in one
        pass over them, and the scale divided by the gcd of scale, every
        first point and every step of a run of two points or more.
        """
        delta = as_rational(delta)
        if delta <= 0:
            raise ValueError("delta must be positive")
        vertices = sorted(vertices)
        if any(map(eq, vertices, vertices[1:])):
            raise ValueError("witness points are not pairwise distinct")
        if vertices and not (vertices[0] >= 0 and vertices[-1] < g.vertex_count):
            raise ValueError("witness vertex outside the graph")
        runs = sorted(runs)
        if not runs:
            return cls(g, 1, tuple(vertices), (), delta)
        if not (runs[0][0] >= 0 and runs[-1][0] < g.edge_count):
            raise ValueError("witness edge outside the graph")
        merged = []
        # the run being grown, (first, step, count) on `edge`, and its last point
        edge, first, step, count, last = -1, 0, 1, 0, 0
        for e, f, s, c in runs:
            if c < 1 or (c > 1 and s < 1):
                raise ValueError("witness run holds no point, or repeats one")
            end = f + (c - 1) * s
            if f < 1 or end >= scale:
                raise ValueError("witness offset outside its edge")
            if e == edge and f <= last:
                raise ValueError("witness runs overlap or interleave on one edge")
            if e == edge and (count == 1 or f == last + step):
                # f extends the run being grown, and the rest of its run
                # extends it further or starts the next
                if count == 1:
                    step = f - first
                count += 1
                if c > 1 and s == step:
                    count += c - 1
                elif c > 1:
                    merged.append((edge, first, step, count))
                    first, step, count = f + s, s, c - 1
            else:
                if count:
                    merged.append((edge, first, step if count > 1 else 1, count))
                edge, first, step, count = e, f, s, c
            last = end
        merged.append((edge, first, step if count > 1 else 1, count))
        common = gcd(scale, *(f for _, f, _, _ in merged), *(s for _, _, s, c in merged if c > 1))
        if common > 1:
            scale //= common
            merged = [
                (e, f // common, s // common if c > 1 else 1, c) for e, f, s, c in merged
            ]
        return cls(g, scale, tuple(vertices), tuple(merged), delta)

    @classmethod
    def verified(
        cls,
        g: Graph,
        scale: int,
        vertices: Iterable[int],
        runs: Iterable[tuple[int, int, int, int]],
        delta: Fraction,
        size: int,
    ) -> "WitnessSet":
        """The one exit every solver's witness passes, given in the integer
        form (vertex ids and ``(edge, first, step, count)`` runs, in any
        order, at any scale, split into runs in any way): it must name
        `size` distinct points of g, pairwise at least delta apart, checked
        by :meth:`is_dispersed`.  Raises InternalConsistencyError otherwise,
        so a construction bug cannot surface as a wrong answer."""
        try:
            witness = cls._from_runs(g, scale, vertices, runs, delta)
        except ValueError as exc:
            raise InternalConsistencyError(f"solver witness rejected: {exc}") from None
        if len(witness) != size or not witness.is_dispersed():
            raise InternalConsistencyError(
                f"witness of {len(witness)} points fails verification for value {size}"
            )
        return witness


def _close_pair(
    adjacency: Sequence[Sequence[int]], label: dict[int, tuple[int, object]], limit: int, length: int
) -> bool:
    """Whether two points are joined by a walk shorter than `limit`, by the
    nearest-point sweep that :meth:`WitnessSet.is_dispersed` sets out, with
    why it misses no such pair.

    ``label`` maps each vertex that has a point nearer than `length`, the
    length of every edge, to ``(distance, point)`` for its nearest one;
    the sweep adds the labels it hands on.  When any is handed on, the
    first round is sorted by distance, and every later one comes out in
    that order; when none is (limit <= 2 length), order does not matter.
    """
    reach = limit - length  # a pair across an edge, d + L + d' < limit, has d + d' < reach
    queue = list(label.items())
    if reach > length:
        queue.sort(key=lambda item: item[1][0])
    for x, (d, point) in queue:  # `queue` grows by one round after another
        compare, hand = 2 * d < reach, d + length < reach
        if not (compare or hand):
            continue
        given = (d + length, point)
        onward = hand and d + 2 * length < reach  # whether a neighbour given `given` hands on
        for y in adjacency[x]:
            there = label.get(y)
            if there is None:
                if hand:
                    label[y] = given
                    if onward:
                        queue.append((y, given))
            elif compare and there[1] != point and d + there[0] < reach:
                return True
    return False


def format_witness(g: Graph, ws: WitnessSet) -> str:
    """One line per point, ``e u v num/den`` with the offset taken from u,
    in lowest terms, by edge and offset: a vertex is written on its
    lowest-indexed edge, the lone vertex of an edgeless graph as
    ``-1 0 0 0/1``.

    This is the one place a witness is expanded point by point, so it
    first checks the count of points against
    :data:`~deltadisp.core.GRID_LIMIT` and raises SizeGuardExceededError
    over it, before any text is built.  The text is written in one pass
    over the edges, each run's lines by one join.
    """
    check_size(len(ws), "this witness", "points")
    edges, s = g.edges, ws.scale
    if not edges:
        return "-1 0 0 0/1\n" if ws.vertices else ""
    wanted = bytearray(g.vertex_count)  # a vertex of the witness not yet written
    for v in ws.vertices:
        wanted[v] = 1
    texts: dict[tuple[int, int, int], list[str]] = {}  # a run's offsets, by (first, step, count)
    runs = ws.runs
    i = 0
    on = runs[0][0] if runs else -1  # the edge of runs[i]
    out = []
    for e, (u, v) in enumerate(edges):
        if e != on and not wanted[u] and not wanted[v]:
            continue
        prefix = f"{e} {u} {v} "
        if wanted[u]:
            wanted[u] = 0
            out.append(prefix + "0/1")
        while e == on:
            shape = runs[i][1:]
            text = texts.get(shape)
            if text is None:
                first, step, count = shape
                text = texts[shape] = []
                for x in range(first, first + count * step, step):
                    d = gcd(x, s)
                    text.append(f"{x // d}/{s // d}")
            out.append(prefix + ("\n" + prefix).join(text))
            i += 1
            on = runs[i][0] if i < len(runs) else -1
        if wanted[v]:
            wanted[v] = 0
            out.append(prefix + "1/1")
    return "\n".join(out) + ("\n" if out else "")


def parse_witness(g: Graph, text: str, delta: Fraction) -> WitnessSet:
    """Read the text :func:`format_witness` writes, blank lines skipped.

    Each ``e u v num/den`` line names the point num/den along stored edge
    e = (u, v), 0 <= num/den <= 1; an end is that vertex, however written,
    and ``-1 0 0 0/1`` is the lone vertex of an edgeless graph.  A line
    that is malformed, names an edge not in g, or repeats a point raises
    MalformedLineError naming the line.  Each interior point is read as a
    run of one point, in any order, and the witness's constructor merges
    them into its canonical runs.
    """
    seen: dict[int | tuple[int, int, int], int] = {}  # point -> line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        offset = parts[3].split("/") if len(parts) == 4 else ()
        ids = _plain_integers(parts[:3] + offset) if len(offset) == 2 else None
        if ids is None or ids[4] < 1:
            raise MalformedLineError("expected 'e u v num/den'", line=lineno)
        e, u, v, num, den = ids
        if e == -1:
            if g.edges or (u, v, num) != (0, 0, 0):
                raise MalformedLineError(
                    "'-1 0 0 0/1' is the lone vertex of an edgeless graph only", line=lineno
                )
        elif not 0 <= e < g.edge_count:
            raise MalformedLineError(f"invalid edge index {e}", line=lineno)
        elif g.edges[e] != (u, v):
            raise MalformedLineError(
                f"edge {e} is stored as {g.edges[e]}, not ({u}, {v})", line=lineno
            )
        if not 0 <= num <= den:
            raise MalformedLineError(f"offset {num}/{den} outside [0, 1]", line=lineno)
        d = gcd(num, den)
        point = u if num == 0 else v if num == den else (e, num // d, den // d)
        if seen.setdefault(point, lineno) != lineno:
            raise MalformedLineError(f"repeats the point of line {seen[point]}", line=lineno)
    interior = [p for p in seen if isinstance(p, tuple)]
    scale = lcm(*(den for _, _, den in interior))
    return WitnessSet._from_runs(
        g,
        scale,
        [p for p in seen if not isinstance(p, tuple)],
        [(e, num * (scale // den), 1, 1) for e, num, den in interior],
        delta,
    )


def check_cover(
    g: Graph, q: int, balls: Iterable[tuple[int, int]], value: int, radius: int
) -> None:
    """Require `value` distinct balls that cover the 1/q grid of g, else
    raise InternalConsistencyError.

    A ball ``(e, k)``, 0 <= k < q, is the grid edge from step k to step
    k+1 of edge e = (u, w), step 0 being u and step q being w, and holds
    the grid points at most `radius` hops from either end, so it holds at
    most one point of a set spaced 2 radius + 2 apart, and the cover
    bounds such a set by `value`.  A graph with no edge has one grid point
    and no grid edge: it is accepted at value 1, with no balls.

    The grid is not built.  A grid path from a ball end to a vertex of g
    leaves the end's chain at one of the chain's ends and then crosses
    whole chains of q hops, so the vertices' hop distances to the nearest
    end come from one search over g in rounds, round j holding the
    vertices j chains from an end: a bucket queue whose buckets are q
    wide.  Each chain is then covered from its two ends, and a chain
    holding balls is swept in step order.  The cost is linear in g and the
    balls, plus sorting the balls on each edge, whatever q is.
    """
    n, edges, adjacency = g.vertex_count, g.edges, g.adjacency
    m, s = len(edges), q - 1
    distinct = set()
    for e, k in balls:
        if not (0 <= e < m and 0 <= k < q):
            raise InternalConsistencyError(f"cover ball ({e}, {k}) is not a grid edge")
        distinct.add((e, k))
    if not edges:
        if value != 1:
            raise InternalConsistencyError(f"a graph with no edge holds 1 point, not {value}")
        return
    if len(distinct) != value:
        raise InternalConsistencyError(
            f"{len(distinct)} distinct cover balls for {value} taken points"
        )

    # the search from the ends, in rounds one chain apart: ball (e, k) on
    # e = (u, w) starts u at k hops and w at q - k - 1, and `reach` is
    # radius - hops, -1 if over.  A round only reaches vertices no earlier
    # round did, each at fewer hops than the next round reaches any.
    reach = [-1] * n
    steps: dict[int, list[int]] = {}  # edge -> the steps k of its balls
    for e, k in distinct:
        steps.setdefault(e, []).append(k)
        u, w = edges[e]
        if radius - k > reach[u]:
            reach[u] = radius - k
        if radius - s + k > reach[w]:
            reach[w] = radius - s + k
    ring = [x for x in range(n) if reach[x] >= 0]
    while ring:
        grown = []
        for x in ring:
            r = reach[x] - q
            if r >= 0:
                for y in adjacency[x]:
                    if r > reach[y]:
                        if reach[y] < 0:
                            grown.append(y)
                        reach[y] = r
        ring = grown

    # a vertex covers `reach` inner steps of each of its chains, and ball k
    # the steps k - radius..k + 1 + radius: the steps a chain misses are
    # the gaps between those intervals, taken in step order, so a chain
    # with no balls on it misses s - reach(u) - reach(w) if that is positive
    missing = reach.count(-1)
    if missing:
        reach = [r if r > 0 else 0 for r in reach]
    short = [s - reach[u] - reach[w] for u, w in edges]
    width = 2 * radius + 2
    for e, ks in steps.items():
        u, w = edges[e]
        ks.sort()
        ks.append(q + radius - reach[w])  # where a ball would cover what w does
        gaps, last = 0, reach[u] - radius - 1  # and the same for u
        for k in ks:
            if k - last > width:
                gaps += k - last - width
            last = k
        short[e] = gaps
    missing += sum(filter((0).__lt__, short))
    if missing:
        size = n + m * s
        raise InternalConsistencyError(
            f"{value} cover balls reach {size - missing} of {size} grid points"
        )


def check_barrier(
    adjacency: Sequence[Sequence[int]], mate: Sequence[int], outer: Sequence[bool]
) -> None:
    """Require `mate` (partner per vertex, -1 free) to be a maximum matching
    M of the graph of neighbour lists `adjacency`, proven by the barrier
    that `outer` names, else raise an InternalConsistencyError.

    Let D be the outer vertices, A = N(D) \\ D their outside neighbours,
    and C the rest.  `mate` must be a matching (symmetric, and along
    edges), every component of G[D] odd, every vertex of C matched inside
    C, and 2|M| = n + |A| - c, c the number of components of G[D].  Each
    of them is a component of G - A, so by the Tutte-Berge formula no
    matching is larger than (n + |A| - c)/2, and M is maximum.  Given the
    first three, the count holds exactly when A is matched into D, into
    distinct components, and each component has one vertex matched
    outside it: the Gallai-Edmonds structure a route reads off D and M.
    The check takes time linear in the graph.
    """
    n = len(adjacency)
    if len(mate) != n or len(outer) != n or any(
        u != -1 and not (0 <= u < n and mate[u] == v and u in adjacency[v])
        for v, u in enumerate(mate)
    ):
        raise InternalConsistencyError("the claimed maximum matching is not a matching")
    kind = [0 if is_outer else 2 for is_outer in outer]  # 0 in D, 1 in A, 2 in C
    reached = bytearray(n)
    components = 0
    for start in compress(range(n), outer):
        if reached[start]:
            continue
        reached[start] = 1
        group = [start]
        for w in group:  # breadth-first: `group` grows as vertices are reached
            for x in adjacency[w]:
                if not outer[x]:
                    kind[x] = 1
                elif not reached[x]:
                    reached[x] = 1
                    group.append(x)
        if len(group) % 2 == 0:
            raise InternalConsistencyError(f"even-sized inessential component {sorted(group)}")
        components += 1
    kind.append(3)  # the kind of partner -1, an exposed vertex's
    for v in compress(range(n), map((2).__eq__, kind)):
        if kind[mate[v]] != 2:
            raise InternalConsistencyError(
                f"remainder vertex {v} is not matched inside the remainder"
            )
    size, bound = n - mate.count(-1), n + kind.count(1) - components
    if size != bound:
        raise InternalConsistencyError(
            f"{size // 2} matched edges fall short of the barrier's Tutte-Berge bound {bound}/2"
        )


@dataclass(frozen=True)
class Certificate:
    """Vertex facilities plus per-edge interior facility counts.

    Construction is the one way in, the reader's included: every id and
    count goes through ``operator.index``, which refuses floats and
    Fractions (int() would truncate them), before zero counts are dropped
    and a negative one raises ValueError.
    """

    vertices: frozenset[int]
    interior_counts: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", frozenset(map(index, self.vertices)))
        counts = {index(e): index(c) for e, c in self.interior_counts.items()}
        if min(counts.values(), default=0) < 0:
            raise ValueError("interior counts must be non-negative")
        object.__setattr__(self, "interior_counts", {e: c for e, c in counts.items() if c})

    @property
    def total(self) -> int:
        return len(self.vertices) + sum(self.interior_counts.values())


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str | None = None


def extract_certificate(g: Graph, ws: WitnessSet) -> Certificate:
    """Forget exact offsets: keep vertex hits and per-edge interior counts,
    the witness's run counts summed per edge."""
    counts: dict[int, int] = {}
    for e, _, _, count in ws.runs:
        counts[e] = counts.get(e, 0) + count
    return Certificate(frozenset(ws.vertices), counts)


def verify_certificate(g: Graph, delta: Fraction, cert: Certificate, k: int) -> Verdict:
    """Accept iff the certificate claims >= k facilities and is realizable.

    Rejection reasons fall into three classes: cardinality shortfall, a
    vertex pair ``(u, w)`` of the certificate fewer than delta hops apart,
    or an infeasible system.  An infeasible system is an edge holding more
    points than fit at spacing delta, or a negative cycle, reported as the
    constraints along it, e.g. ``infeasible system: x(1,0) >= 1/2;
    x(0,0) + x(1,0) <= 1; x(0,0) >= 3/2``.

    Each row is kept once, as its arcs, and a rejection is worded from the
    cycle's arcs.  There is a row per pair of occupied edge ends fewer than
    delta hops apart, so d of them at one vertex give d^2/2 rows: once the
    rows emitted pass :data:`~deltadisp.core.GRID_LIMIT`,
    SizeGuardExceededError is raised, checked after each end's rows, before
    the system outgrows the budget every other size guard shares.
    """
    delta = as_rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    counts, vertices = cert.interior_counts, cert.vertices
    if counts and not (min(counts) >= 0 and max(counts) < g.edge_count):
        e = next(e for e in counts if not 0 <= e < g.edge_count)
        raise ValueError(f"invalid edge index {e} in certificate")
    if vertices and not (min(vertices) >= 0 and max(vertices) < g.vertex_count):
        v = next(v for v in vertices if not 0 <= v < g.vertex_count)
        raise ValueError(f"invalid vertex id {v} in certificate")

    if cert.total < k:
        return Verdict(False, f"cardinality shortfall: certificate claims {cert.total} < k={k}")

    p, q = delta.numerator, delta.denominator
    radius = (p - 1) // q  # the largest hop count below delta
    # hop 0 holds no pair of distinct vertices; past it the sweep tells
    # whether two are fewer than delta hops apart, and only then does a
    # search in vertex order name the first such pair
    if radius and _close_pair(g.adjacency, {v: (0, v) for v in vertices}, p, q):
        for u in sorted(vertices):
            for hops, ring in hop_ball(g, u, radius):
                for w in ring:
                    if w > u and w in vertices:
                        return Verdict(False, f"vertex pair ({u}, {w}) at distance {hops} < {delta}")
        raise InternalConsistencyError("the search misses the vertex pair the sweep found")

    # x_i, i = 2 pos + side: distance from end `side` of the pos-th occupied
    # edge to its nearest interior point, in units of 1/q.  Rows are
    # x_i + x_j <= b or >= b, or x_i >= b; node 2i of the doubled graph
    # stands for +x_i, 2i+1 for -x_i, and each row is kept only as its arcs
    # (head, weight), two or one for x_i >= b, added when it is found.
    # x >= 0 implies every row whose ends are delta or more hops apart, and
    # the wrap-around row of an edge (c >= 2 only when delta <= 1).
    occupied = sorted(counts)
    edges = g.edges
    cap = q // p + 1  # the most points one edge holds at spacing p/q
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(4 * len(occupied))]
    ends: dict[int, list[int]] = {}  # vertex -> the variables at it, ascending
    for pos, e in enumerate(occupied):
        count = counts[e]
        if count > cap:
            return Verdict(
                False, f"infeasible system: edge {e} cannot hold {count} points at spacing {delta}"
            )
        i, b = 2 * pos, q - (count - 1) * p
        arcs[2 * i + 1].append((2 * i + 2, b))
        arcs[2 * i + 3].append((2 * i, b))
        u, v = edges[e]
        ends.setdefault(u, []).append(i)
        ends.setdefault(v, []).append(i + 1)

    rows = len(occupied)
    lower = [0] * (2 * len(occupied))
    # each variable's latest arc into it, (2i + 1, weight), shared by every
    # row found at that weight; row weights are negative, so the first
    # lookup makes one
    into = [(0, 0)] * len(lower)
    for u, here in ends.items():
        for hops, ring in hop_ball(g, u, radius) if radius else ((0, (u,)),):
            need = p - hops * q
            weight = -need
            for w in ring:
                if w in vertices:
                    for i in here:
                        if lower[i] < need:
                            lower[i] = need
                there = ends.get(w)
                if there is None:
                    continue
                for i in here:
                    for j in there:
                        if i < j and i >> 1 != j >> 1:  # the ends of one edge have its <= row
                            into_i, into_j = into[i], into[j]
                            if into_i[1] != weight:
                                into_i = into[i] = (2 * i + 1, weight)
                            if into_j[1] != weight:
                                into_j = into[j] = (2 * j + 1, weight)
                            arcs[2 * i].append(into_j)
                            arcs[2 * j].append(into_i)
                            rows += 1
                    check_size(rows, "this certificate's system", "rows")
    for i, b in enumerate(lower):
        arcs[2 * i].append((2 * i + 1, -2 * b))

    cycle = _negative_cycle(arcs)
    if cycle is None:
        return Verdict(True)

    def name(i: int) -> str:
        e = occupied[i >> 1]
        return f"x({edges[e][i & 1]},{e})"

    said = []  # each arc's row, read back off it, named once if both its arcs are on the cycle
    for t, h, w in cycle:
        i, j = sorted((t >> 1, h >> 1))  # odd t: <= w; even: >= -w, or -w/2 if i == j
        pair = name(i) if i == j else f"{name(i)} + {name(j)}"
        relation, b = ("<=", w) if t & 1 else (">=", -w // 2 if i == j else -w)
        d = gcd(b, q)  # b/q in lowest terms, worded as str(Fraction(b, q))
        said.append(f"{pair} {relation} {b // d}" + (f"/{q // d}" if q != d else ""))
    return Verdict(False, "infeasible system: " + "; ".join(dict.fromkeys(said)))


def _negative_cycle(arcs: list[list[tuple[int, int]]]) -> list[tuple[int, int, int]] | None:
    """Arcs ``(tail, head, weight)`` of a negative cycle, in its order, or None.

    ``arcs[t]`` lists ``(head, weight)``.  Bellman-Ford from a virtual
    source joined to every node by a zero arc, relaxing in rounds the arcs
    out of the nodes lowered in the round before.  After each round the
    parent arcs of the lowered nodes are followed: a cycle among them is
    negative (Cherkassky & Goldberg, *Negative-cycle detection algorithms*,
    1999), so a rejection costs rounds in proportion to the cycle's length.
    Weights are integers, so without such a cycle the rounds end.

    The state is flat: a node's parent arc is its tail and weight in two
    lists, one list holds the round that last lowered each node (so no
    mark is cleared between rounds), and one stamp list numbers the walk
    that last passed each node, so a walk stops at a node stamped earlier
    in its round and has found a cycle at one stamped by itself.
    """
    size = len(arcs)
    dist = [0] * size
    tail = [-1] * size
    weight = [0] * size
    lowered_in = [0] * size
    stamp = [0] * size
    walk = rounds = 0
    lowered = list(range(size))
    while lowered:
        rounds += 1
        changed = []
        for t in lowered:
            here = dist[t]
            for h, w in arcs[t]:
                if here + w < dist[h]:
                    dist[h] = here + w
                    tail[h], weight[h] = t, w
                    if lowered_in[h] != rounds:
                        lowered_in[h] = rounds
                        changed.append(h)
        lowered = changed
        first = walk + 1  # the number of this round's first walk
        for v in lowered:
            walk += 1
            while stamp[v] < first and tail[v] >= 0:
                stamp[v] = walk
                v = tail[v]
            if stamp[v] == walk:
                cycle = [v]
                x = tail[v]
                while x != v and len(cycle) < size:  # no cycle is longer
                    cycle.append(x)
                    x = tail[x]
                if x != v or sum(weight[x] for x in cycle) >= 0:
                    raise InternalConsistencyError("parent arcs hold no negative cycle")
                return [(tail[x], x, weight[x]) for x in reversed(cycle)]
    return None


# ---------------------------------------------------------------------------
# Text format: line 1 "k"; line 2 "W: v1 v2 ..."; then "e n_e" per edge
# ---------------------------------------------------------------------------


def format_certificate(k: int, cert: Certificate) -> str:
    out = [str(k), "W: " + " ".join(str(v) for v in sorted(cert.vertices))]
    out.extend(f"{e} {cert.interior_counts[e]}" for e in sorted(cert.interior_counts))
    return "\n".join(line.rstrip() for line in out) + "\n"


def parse_certificate(text: str) -> tuple[int, Certificate]:
    """Read the certificate format: a bound line ``k``, a line ``W:`` with
    the vertex ids, then one ``e n_e`` line, n_e >= 1, per occupied edge;
    blank lines are skipped.  Every number is a plain decimal integer (see
    :func:`integer_tokens`); a vertex id or an edge listed twice, or a
    count below 1, raises MalformedLineError naming the line.  The lines
    are read in order, so the first faulty line is the one named.
    """
    lines = text.splitlines()
    (k,) = integer_tokens(lines[0] if lines else "", 1, "an integer bound 'k'", 1)
    if len(lines) < 2 or not lines[1].strip().startswith("W:"):
        raise MalformedLineError("expected a 'W: ...' line", line=2)
    vertices: set[int] = set()
    for v in integer_tokens(lines[1].strip()[2:], 2, "integer vertex ids"):
        if v in vertices:
            raise MalformedLineError(f"vertex {v} listed twice", line=2)
        vertices.add(v)
    counts: dict[int, int] = {}
    for lineno, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        e, c = integer_tokens(raw, lineno, "integers 'e n_e'", 2)
        if e in counts:
            raise MalformedLineError(f"edge {e} listed twice", line=lineno)
        if c < 1:
            raise MalformedLineError("interior count must be positive", line=lineno)
        counts[e] = c
    return k, Certificate(vertices, counts)
