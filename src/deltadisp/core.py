"""Graph and point-space model for exact dispersion computations.

A graph here is a finite connected simple undirected graph whose edges all
have unit length.  Facilities may sit anywhere on an edge, so alongside the
usual vertex/edge structure this module models the continuum of edge points
with exact rational offsets, the bounded hop search the local checks share,
and the dispersion check behind :meth:`WitnessSet.verified`, the one check
every solver's witness passes.  Edge subdivision maps points exactly: the
points of offset denominator c are the vertices of the c-subdivision, and
their distance is their hop count there divided by c, so the oracle's
half-step grid for spacing a/b is the vertex set of the 2b-subdivision.

A witness is held in integers: a scale, the vertex ids it occupies, and an
``(edge, k)`` pair per point at offset k/scale inside an edge.  Solvers
emit that form, and the check and the witness printer read it; the
:class:`Point` values of a witness are built only when asked for, and the
point-level functions (:func:`is_dispersed`, :meth:`WitnessSet.build`,
:func:`parse_witness`) read points into the same form.

All values are immutable and all arithmetic is exact (integers, and
`fractions.Fraction` for point offsets); no floats appear anywhere on the
solver path.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import eq, index, sub
from typing import Collection, Iterable, Iterator, Sequence

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    InternalConsistencyError,
    MalformedLineError,
    SelfLoopError,
    VertexRangeError,
)

#: Exact rational scalar used for offsets, spacings and distances.
Rational = Fraction


def as_rational(value) -> Fraction:
    """Coerce to an exact rational, refusing floats (they round silently)."""
    if isinstance(value, float):
        raise TypeError(
            f"refusing to convert float {value!r}; pass a Fraction, an int, "
            f"or a string like '2/3'"
        )
    return Fraction(value)


__all__ = [
    "Rational",
    "as_rational",
    "Graph",
    "Point",
    "WitnessSet",
    "SubdivisionMap",
    "parse_graph",
    "format_graph",
    "subdivide",
    "is_dispersed",
    "hop_ball",
    "vertex_point",
    "normalize_point",
    "point_as_vertex",
    "format_witness",
    "parse_witness",
]


@dataclass(frozen=True)
class Graph:
    """A connected simple undirected graph with unit-length edges.

    Edges keep their position in ``edges``, so an edge index is a stable
    handle; points on edges refer to edges by this index.  Construction is
    the one place a graph from outside is validated: vertex range,
    self-loops, duplicate edges and connectivity, each with its own error
    type (all are ``ValueError``).  ``first_line``, when given, is the text line of edge 0
    and makes each edge error name its line (see :func:`parse_graph`).
    Validation builds the sorted neighbour lists once, for one
    breadth-first connectivity pass, and keeps them as :attr:`adjacency`.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    first_line: InitVar[int | None] = None

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """A graph that is valid by construction, skipping validation."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", n)
        object.__setattr__(g, "edges", edges)
        return g

    def __post_init__(self, first_line: int | None) -> None:
        n = self.vertex_count
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        edges: list[tuple[int, int]] = []
        seen: set[int] = set()
        for u, v in self.edges:
            u, v = index(u), index(v)  # refuses floats and Fractions
            key = u * n + v if u < v else v * n + u
            if not (0 <= u < n and 0 <= v < n) or u == v or key in seen:
                # the edge's position is how many came before it
                line = None if first_line is None else first_line + len(edges)
                if not (0 <= u < n and 0 <= v < n):
                    raise VertexRangeError(f"edge ({u}, {v}) outside [0, {n})", line=line)
                if u == v:
                    raise SelfLoopError(f"self-loop at vertex {u}", line=line)
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})", line=line)
            seen.add(key)
            edges.append((u, v))
        object.__setattr__(self, "edges", tuple(edges))
        # fewer than n - 1 edges cannot connect n vertices: say so before
        # allocating anything sized by n
        if n > len(edges) + 1:
            raise DisconnectedGraphError("graph is not connected")
        adjacency = _neighbour_lists(n, edges)
        object.__setattr__(self, "adjacency", adjacency)  # the cached property's value
        reached = bytearray(n)
        reached[0] = 1
        order = [0]
        for x in order:  # breadth-first: `order` grows as vertices are reached
            for y in adjacency[x]:
                if not reached[y]:
                    reached[y] = 1
                    order.append(y)
        if len(order) != n:
            raise DisconnectedGraphError("graph is not connected")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == self.vertex_count - 1

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour lists, indexed by vertex."""
        return _neighbour_lists(self.vertex_count, self.edges)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each vertex, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def _edge_ids(self) -> dict[tuple[int, int], int]:
        ids: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(self.edges):
            ids[(u, v)] = i
            ids[(v, u)] = i
        return ids

    def edge_index(self, u: int, v: int) -> int | None:
        """Index of the edge joining u and v, or None if absent."""
        return self._edge_ids.get((u, v))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _neighbour_lists(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour lists of vertices 0..n-1, indexed by vertex."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(map(tuple, map(sorted, nbrs)))


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


_ZERO = Fraction(0)
_ONE = Fraction(1)


def vertex_point(g: Graph, v: int) -> Point:
    """The canonical point sitting at vertex v."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    incident = g.incident_edges[v]
    if not incident:
        # only possible for the single-vertex graph
        return Point(-1, _ZERO)
    e = incident[0]
    u, _ = g.edges[e]
    return Point(e, _ZERO if u == v else _ONE)


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


def point_as_vertex(g: Graph, p: Point) -> int | None:
    """Vertex id of a point, or None for an interior point."""
    key = _point_key(g, p)
    return None if isinstance(key, tuple) else key


def _point_form(g: Graph, points: Iterable[Point]) -> tuple[int, list[int], list[tuple[int, int]]]:
    """Validate points and read them as ``(scale, vertex ids, (edge, k)
    pairs)``: an interior point sits at offset k/scale, over the lcm of
    the offsets' denominators.  Repeats are kept."""
    vertices: list[int] = []
    fractions: list[tuple[int, int, int]] = []
    for p in points:
        key = _point_key(g, p)
        if isinstance(key, tuple):
            fractions.append(key)
        else:
            vertices.append(key)
    scale = lcm(*(den for _, _, den in fractions))
    return scale, vertices, [(e, num * (scale // den)) for e, num, den in fractions]


def is_dispersed(g: Graph, points: Iterable[Point], delta: Fraction) -> bool:
    """True iff all pairs of distinct normalized points are >= delta apart.

    An adapter: the points are read into the integer form of
    :class:`WitnessSet` and decided by :func:`_dispersed`, the one
    dispersion check.
    """
    delta = as_rational(delta)
    scale, vertices, interior = _point_form(g, points)
    return _dispersed(g, scale, set(vertices), sorted(set(interior)), delta)


def _dispersed(
    g: Graph,
    scale: int,
    vertices: Collection[int],
    interior: Sequence[tuple[int, int]],
    delta: Fraction,
) -> bool:
    """The dispersion check, on the integer form: distinct vertex ids and
    distinct ``(edge, k)`` pairs in ascending order, the pair at offset
    k/scale of its edge, 0 < k < scale.

    Offsets and delta are scaled by L = lcm(scale, delta's denominator),
    so an edge is L long.  Two points on one edge are exactly their offset
    difference apart (a route around the edge is at least L long), so only
    neighbours in offset order are compared.
    Every other route leaves one point's edge at an end x and enters the
    other's at an end y, and costs at least L hops(x, y); a pair closer
    than delta therefore has ends fewer than delta hops apart.  Along such
    a route a nearer point on the same edge, or the vertex itself, is
    closer still, so each vertex keeps only its two nearest points (an
    occupied vertex only its own: the offset check has put every other
    point at least delta away from it), and a :func:`hop_ball` around each
    vertex that keeps a point pairs them up.

    The cost is a pass over the sorted points, one over the edge ends
    and one search ball of radius below delta per vertex that keeps a
    point, walked ring by ring: near-linear in the witness times the ball
    size, with no all-pairs table.
    """
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

    # Per vertex, its (distance, point) pairs for the nearest points,
    # nearest first: an occupied vertex's own point, named by its id, or
    # the two nearest ends of edges at a vacant one, named (edge, k).  An
    # end at an occupied vertex must be delta away from it instead.
    occupied = set(vertices)
    near: dict[int, list[tuple[int, object]]] = {v: [(0, v)] for v in occupied}
    edges = g.edges
    ends = [(edges[e][0], k * step, (e, k)) for e, k in dict(reversed(interior)).items()]
    ends += [(edges[e][1], (scale - k) * step, (e, k)) for e, k in dict(interior).items()]
    for x, distance, point in ends:
        kept = near.get(x)
        if kept is None:
            near[x] = [(distance, point)]
        elif x in occupied:
            if distance < limit:
                return False
        elif len(kept) == 1:
            kept.append((distance, point))
            if distance < kept[0][0]:
                kept.reverse()
        elif distance < kept[1][0]:
            kept[1] = (distance, point)
            if distance < kept[0][0]:
                kept.reverse()

    for x, here in near.items():
        if len(here) == 2 and here[0][0] + here[1][0] < limit:
            return False  # hop 0: the two points nearest x
        radius = (limit - here[0][0] - 1) // length
        if radius < 1:
            continue
        rings = hop_ball(g, x, radius)
        next(rings)  # ring 0 is x itself
        for hops, ring in rings:
            reach = limit - hops * length
            for y in ring:
                there = near.get(y)
                # the nearest pair first: it is the closest unless it is
                # one point seen from both ends of its edge
                if there is not None and here[0][0] + there[0][0] < reach:
                    for a, p in here:
                        for b, q in there:
                            if a + b < reach and p != q:
                                return False
    return True


def hop_ball(g: Graph, source: int, radius: int) -> Iterator[tuple[int, Sequence[int]]]:
    """``(hops, ring)`` for hops = 0, 1, ... up to ``radius``: ``ring`` holds
    the vertices exactly that many hops from ``source``, ring 0 being
    ``[source]`` and ring 1 its neighbour list.  The rings stop early once
    one comes up empty.

    A breadth-first search that stops at the radius, so its cost is the
    size of the ball, not of the graph; this is the one search the local
    checks (:func:`is_dispersed`, certificate verification) share.  The
    graph's connectivity check does not use it: :class:`Graph` runs one
    plain breadth-first pass over the neighbour lists it builds anyway.
    """
    yield 0, [source]
    adjacency = g.adjacency
    ring: Sequence[int] = adjacency[source]
    if radius < 1 or not ring:
        return
    yield 1, ring
    if radius < 2:  # the seen set is read only from ring 2 on
        return
    seen = {source, *ring}
    for hops in range(2, radius + 1):
        next_ring = []
        for w in ring:
            for y in adjacency[w]:
                if y not in seen:
                    seen.add(y)
                    next_ring.append(y)
        if not next_ring:
            return
        ring = next_ring
        yield hops, ring


@dataclass(frozen=True)
class WitnessSet:
    """A finite set of points claimed to be delta-dispersed, in integers.

    ``vertices`` are the vertex ids holding a point, ascending, and
    ``interior`` the ``(edge, k)`` pairs, ascending, of the points strictly
    inside an edge, at offset k/scale from its first endpoint (0 < k <
    scale).  ``scale`` is the smallest common denominator of those offsets
    (1 when there are none), so equal sets compare equal.  ``points``, the
    same set as normalized :class:`Point` values sorted by edge and offset,
    is built on first use; solvers never build it.
    """

    graph: Graph = field(compare=False, repr=False)
    scale: int
    vertices: tuple[int, ...]
    interior: tuple[tuple[int, int], ...]
    delta: Fraction

    def __len__(self) -> int:
        return len(self.vertices) + len(self.interior)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The points, normalized and sorted by edge and offset."""
        s = self.scale
        return tuple(Point(e, Fraction(x, s)) for e, x in self._sorted_keys())

    def _sorted_keys(self) -> list[tuple[int, int]]:
        """``(edge, x)`` per point, the point at offset x/scale of the edge,
        in the order of :attr:`points`: a vertex on its lowest-indexed edge,
        the lone vertex of an edgeless graph as ``(-1, 0)``."""
        incident, edges, s = self.graph.incident_edges, self.graph.edges, self.scale
        keys = list(self.interior)
        for v in self.vertices:
            if incident[v]:
                e = incident[v][0]
                keys.append((e, 0 if edges[e][0] == v else s))
            else:
                keys.append((-1, 0))
        keys.sort()
        return keys

    @classmethod
    def _from_form(
        cls,
        g: Graph,
        scale: int,
        vertices: Iterable[int],
        interior: Iterable[tuple[int, int]],
        delta: Fraction,
    ) -> "WitnessSet":
        """Sort the integer form, check it names distinct points of g, and
        reduce it to the smallest scale.  Raises ValueError otherwise."""
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
        return cls(g, scale, tuple(vertices), tuple(interior), as_rational(delta))

    @classmethod
    def build(cls, g: Graph, points: Iterable[Point], delta: Fraction) -> "WitnessSet":
        """Read points into the integer form; ValueError if two coincide."""
        return cls._from_form(g, *_point_form(g, points), delta)

    @classmethod
    def verified(
        cls,
        g: Graph,
        scale: int,
        vertices: Iterable[int],
        interior: Iterable[tuple[int, int]],
        delta: Fraction,
        size: int,
    ) -> "WitnessSet":
        """The one exit every solver's witness passes, given in the integer
        form (in any order, at any scale): it must name `size` distinct
        points of g, pairwise at least delta apart, checked by
        :func:`_dispersed`.  Raises InternalConsistencyError otherwise, so a
        construction bug cannot surface as a wrong answer."""
        try:
            witness = cls._from_form(g, scale, vertices, interior, delta)
        except ValueError as exc:
            raise InternalConsistencyError(f"solver witness rejected: {exc}") from None
        if len(witness) != size or not _dispersed(
            g, witness.scale, witness.vertices, witness.interior, witness.delta
        ):
            raise InternalConsistencyError(
                f"witness of {len(witness)} points fails verification for value {size}"
            )
        return witness


# ---------------------------------------------------------------------------
# Edge subdivision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubdivisionMap:
    """Invertible correspondence between points of a graph and its subdivision.

    A point at offset t from u on an original edge maps to the point at
    distance ``factor * t`` from u along the subdivided chain of that edge.
    """

    source: Graph
    target: Graph
    factor: int

    def _chain_vertex(self, edge: int, step: int) -> int:
        # step in 1..factor-1 names the step-th internal chain vertex
        n = self.source.vertex_count
        return n + edge * (self.factor - 1) + (step - 1)

    def forward(self, p: Point) -> Point:
        key = _point_key(self.source, p)
        if not isinstance(key, tuple):
            return vertex_point(self.target, key)  # vertices keep their ids
        e, num, den = key
        step, rem = divmod(self.factor * num, den)
        if rem == 0:
            return vertex_point(self.target, self._chain_vertex(e, step))
        return Point(e * self.factor + step, Fraction(rem, den))

    def source_point(self, v: int) -> Point:
        """The point of the source graph at target vertex v."""
        n = self.source.vertex_count
        if v < n:
            return vertex_point(self.source, v)
        edge, rem = divmod(v - n, self.factor - 1)
        return Point(edge, Fraction(rem + 1, self.factor))

    def inverse(self, p: Point) -> Point:
        key = _point_key(self.target, p)
        if not isinstance(key, tuple):
            return self.source_point(key)
        e, num, den = key  # strictly inside a chain, so strictly inside its edge
        edge, segment = divmod(e, self.factor)
        return Point(edge, Fraction(segment * den + num, self.factor * den))


def subdivide(g: Graph, c: int) -> tuple[Graph, SubdivisionMap]:
    """Replace every edge by a chain of c unit edges.

    Returns the subdivided graph plus the invertible point correspondence.
    ``c == 1`` yields an identical graph and the identity map.
    """
    if c < 1:
        raise ValueError("subdivision factor must be >= 1")
    n = g.vertex_count
    edges: list[tuple[int, int]] = []
    for j, (u, v) in enumerate(g.edges):
        chain = [u] + [n + j * (c - 1) + t for t in range(c - 1)] + [v]
        edges.extend((chain[s], chain[s + 1]) for s in range(c))
    # chains of fresh vertices keep it simple and connected: no need to re-validate
    target = Graph._unchecked(n + (c - 1) * g.edge_count, tuple(edges))
    return target, SubdivisionMap(g, target, c)


def grid_adjacency(g: Graph, c: int) -> list:
    """Neighbours of every vertex of ``subdivide(g, c)``, in its numbering,
    built straight from g's edges: unlike that graph's ``adjacency``, with
    no edge list and no sort, in a quarter of the time and half the
    memory.  Chain vertices get a pair, g's vertices a list."""
    n = g.vertex_count
    s = c - 1
    adjacency: list = [[] for _ in range(n)]
    for e, (u, v) in enumerate(g.edges):
        if s == 0:
            adjacency[u].append(v)
            adjacency[v].append(u)
            continue
        first = n + e * s
        last = first + s - 1
        adjacency[u].append(first)
        adjacency[v].append(last)
        if s == 1:
            adjacency.append((u, v))
            continue
        adjacency.append((u, first + 1))
        adjacency.extend((x - 1, x + 1) for x in range(first + 1, last))
        adjacency.append((last - 1, v))
    return adjacency


def grid_form(
    n: int, c: int, chosen: Iterable[int]
) -> tuple[int, list[int], list[tuple[int, int]]]:
    """Vertices `chosen` of ``subdivide(g, c)``, g having n vertices, in the
    integer form of :meth:`WitnessSet.verified`: ``(c, vertex ids, (edge,
    k) pairs)``.  Vertex i < n is vertex i of g, and vertex n + e(c-1) +
    k-1 the point k/c along edge e."""
    vertices: list[int] = []
    interior: list[tuple[int, int]] = []
    for i in chosen:
        if i < n:
            vertices.append(i)
        else:
            e, r = divmod(i - n, c - 1)
            interior.append((e, r + 1))
    return c, vertices, interior


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def integer_tokens(text: str, line: int, expected: str, count: int | None = None) -> list[int]:
    """The whitespace-separated integers of one line of a text format,
    `count` of them unless None.  Each token must be ``-?[0-9]+``; any
    other token, or another count, raises MalformedLineError naming the
    line and what was `expected`.
    """
    tokens = text.split()
    # free of what int() takes beyond -?[0-9]+ (underscores, a + sign,
    # non-ASCII digits), int() reads exactly those tokens; non-ASCII
    # whitespace only separates them
    joined = "".join(tokens)
    plain = joined.isascii() and "_" not in joined and "+" not in joined
    if plain and (count is None or len(tokens) == count):
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    raise MalformedLineError(f"expected {expected}", line=line)


def parse_graph(text: str) -> Graph:
    """Parse the graph file format: first line ``n m``, then m lines ``u v``.

    Vertex ids are 0-based and every number is a plain decimal integer
    (see :func:`integer_tokens`).  Raises a distinct error naming the
    offending line for each failure mode: malformed line, vertex id out of
    range, self-loop, duplicate edge, disconnected graph.  Errors come in
    line order: the edge lines are parsed lazily while :class:`Graph`
    validates them, and the trailing lines are checked before
    connectivity.
    """
    lines = text.splitlines()
    n, m = integer_tokens(lines[0] if lines else "", 1, "header 'n m'", 2)
    if n < 1:
        raise MalformedLineError("vertex count must be positive", line=1)
    if m < 0:
        raise MalformedLineError("edge count must be non-negative", line=1)
    return Graph(n, _edge_lines(lines, m), first_line=2)


def _edge_lines(lines: list[str], m: int) -> Iterator[list[int]]:
    """The m edge lines after the header as ``[u, v]``, then a check that
    nothing but blank lines follows them."""
    body = lines[1 : m + 1]
    for lineno, text in enumerate(body, start=2):
        yield integer_tokens(text, lineno, "'u v'", 2)
    if len(body) < m:
        raise MalformedLineError("missing edge line", line=len(body) + 2)
    for extra, content in enumerate(lines[m + 1 :], start=m + 2):
        if content.split():
            raise MalformedLineError("unexpected extra line", line=extra)


def format_graph(g: Graph) -> str:
    out = [f"{g.vertex_count} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def format_witness(g: Graph, ws: WitnessSet) -> str:
    """One line per point, in the order of ``ws.points``: ``e u v num/den``
    with the offset taken from u, in lowest terms."""
    s = ws.scale
    out = []
    offsets: dict[int, str] = {}
    edge = None
    for e, x in ws._sorted_keys():
        if e != edge:  # the keys come edge by edge
            edge = e
            u, v = (0, 0) if e == -1 else g.edges[e]
            prefix = f"{e} {u} {v} "
        text = offsets.get(x)
        if text is None:
            d = gcd(x, s)
            text = offsets[x] = f"{x // d}/{s // d}"
        out.append(prefix + text)
    return "\n".join(out) + ("\n" if out else "")


def parse_witness(g: Graph, text: str, delta: Fraction) -> WitnessSet:
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 4 or parts[3].count("/") != 1:
            raise MalformedLineError("expected 'e u v num/den'", line=lineno)
        e, u, v, num, den = integer_tokens(raw.replace("/", " "), lineno, "'e u v num/den'", 5)
        if den == 0:
            raise MalformedLineError("expected 'e u v num/den'", line=lineno)
        off = Fraction(num, den)
        if e == -1:
            if g.edge_count != 0:
                raise MalformedLineError("edgeless point in a graph with edges", line=lineno)
        elif not 0 <= e < g.edge_count:
            raise MalformedLineError(f"invalid edge index {e}", line=lineno)
        elif g.edges[e] != (u, v):
            raise MalformedLineError(
                f"edge {e} is stored as {g.edges[e]}, not ({u}, {v})", line=lineno
            )
        if not 0 <= off <= 1:
            raise MalformedLineError(f"offset {off} outside [0, 1]", line=lineno)
        points.append(Point(e, off))
    return WitnessSet.build(g, points, delta)
