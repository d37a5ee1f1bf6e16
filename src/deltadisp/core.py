"""Graph model, grid kernel and text tokenizer for exact dispersion.

A graph here is a finite connected simple undirected graph whose edges all
have unit length; facilities may sit anywhere on an edge.  Edge
subdivision maps points exactly: the points of offset denominator c are
the vertices of the c-subdivision, c times as many hops apart there as
their distance, so the oracle's half-step grid for spacing a/b is the
vertex set of the 2b-subdivision.  Witnesses and every check of an answer
live in :mod:`deltadisp.certify`.

All values are immutable and all arithmetic is exact (integers, and
`fractions.Fraction` for spacings); no floats appear anywhere on the
solver path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GraphFormatError,
    InternalConsistencyError,
    MalformedLineError,
    SelfLoopError,
    SizeGuardExceededError,
    VertexRangeError,
)


def as_rational(value) -> Fraction:
    """Coerce to an exact rational, refusing floats (they round silently)."""
    if isinstance(value, float):
        raise TypeError(
            f"refusing to convert float {value!r}; pass a Fraction, an int, "
            f"or a string like '2/3'"
        )
    return Fraction(value)


__all__ = [
    "as_rational",
    "Graph",
    "parse_graph",
    "format_graph",
    "subdivide",
    "hop_ball",
]


@dataclass(frozen=True)
class Graph:
    """A connected simple undirected graph with unit-length edges.

    Edges keep their position in ``edges``, so an edge index is a stable
    handle; points on edges refer to edges by this index.  Construction is
    the one place a graph from outside is validated: vertex range,
    self-loops, duplicate edges and connectivity, each with its own error
    type (all are ``ValueError``), checked over whole arrays by
    :func:`_edge_fault`.  Validation builds the sorted neighbour lists
    once, for one breadth-first connectivity pass, and keeps them as
    :attr:`adjacency`.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """A graph that is valid by construction, skipping validation."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", n)
        object.__setattr__(g, "edges", edges)
        return g

    def __post_init__(self) -> None:
        # operator.index refuses floats and Fractions, which int() truncates
        object.__setattr__(self, "vertex_count", index(self.vertex_count))
        if self.vertex_count < 1:
            raise ValueError("graph must have at least one vertex")
        pairs = tuple(self.edges)
        try:
            paired = set(map(len, pairs)) <= {2}
            us = list(map(index, map(itemgetter(0), pairs)))
            vs = list(map(index, map(itemgetter(1), pairs)))
        except (TypeError, LookupError):
            paired = False
        if not paired:  # the first edge that is not two integers raises in its turn
            raise _first_fault(self.vertex_count, pairs, None)
        self._validate(us, vs, None)

    @classmethod
    def _from_ids(cls, n: int, us: list[int], vs: list[int], first_line: int) -> "Graph":
        """The graph of n >= 1 vertices and edges ``(us[i], vs[i])`` of ints
        read from text, validated as construction validates; `first_line`
        is the text line of edge 0, so each edge error names its line."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", n)
        g._validate(us, vs, first_line)
        return g

    def _validate(self, us: list[int], vs: list[int], first_line: int | None) -> None:
        """Check and store the edges ``(us[i], vs[i])``, then build the
        neighbour lists and check connectivity."""
        n = self.vertex_count
        # a list first: tuple() of an iterator grows by resizing, and over
        # many graphs those resizes fragment the heap
        edges = tuple(list(zip(us, vs)))
        fault = _edge_fault(n, us, vs, edges, first_line)
        if fault is not None:
            raise fault
        object.__setattr__(self, "edges", edges)
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

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _neighbour_lists(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour lists of vertices 0..n-1, indexed by vertex."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    # a list first, as in Graph._validate: it keeps the heap from fragmenting
    return tuple(list(map(tuple, map(sorted, nbrs))))


def _edge_fault(
    n: int, us: list[int], vs: list[int], edges: tuple[tuple[int, int], ...], first_line: int | None
) -> GraphFormatError | None:
    """None when the edges ``(us[i], vs[i])``, held as `edges`, pass
    whole-array checks: ids in [0, n) by min and max, and one key set
    holding each edge once and no edge turned round.  A self-loop is its
    own turned edge, so that set finds self-loops too.  Otherwise the
    error of the first faulty edge, which only then is looked for, edge by
    edge, by :func:`_first_fault`.
    """
    keys = set(edges)
    if not edges or (
        min(min(us), min(vs)) >= 0
        and max(max(us), max(vs)) < n
        and len(keys) == len(edges)
        and keys.isdisjoint(zip(vs, us))
    ):
        return None
    return _first_fault(n, edges, first_line)


def _first_fault(n: int, pairs: Iterable, first_line: int | None) -> GraphFormatError:
    """The error of the first edge that fails a check of
    :func:`_edge_fault`, naming its line when `first_line` is given.  An
    edge that is not a pair of integers raises here, in its turn."""
    seen: set[tuple[int, int]] = set()
    for position, (u, v) in enumerate(pairs):
        u, v = index(u), index(v)
        line = None if first_line is None else first_line + position
        if not (0 <= u < n and 0 <= v < n):
            return VertexRangeError(f"edge ({u}, {v}) outside [0, {n})", line=line)
        if u == v:
            return SelfLoopError(f"self-loop at vertex {u}", line=line)
        if (u, v) in seen or (v, u) in seen:
            return DuplicateEdgeError(f"duplicate edge ({u}, {v})", line=line)
        seen.add((u, v))
    raise InternalConsistencyError("a whole-array edge check failed on no edge")


def hop_ball(g: Graph, source: int, radius: int) -> Iterator[tuple[int, Sequence[int]]]:
    """``(hops, ring)`` for hops = 0, 1, ... up to ``radius``: ``ring`` holds
    the vertices exactly that many hops from ``source``, ring 0 being
    ``[source]`` and ring 1 its neighbour list.  The rings stop early once
    one comes up empty.

    A breadth-first search that stops at the radius, so its cost is the
    size of the ball, not of the graph.  The certificate check of
    :mod:`deltadisp.certify` walks it from each occupied edge end for the
    rows of its system, and from each vertex in order to name the first
    pair of vertices too close, once its linear sweep has found there is
    one; the tests use it as a reference.  The dispersion check does not
    (it sweeps once over the graph), nor does the graph's connectivity
    check: :class:`Graph` runs one plain breadth-first pass over the
    neighbour lists it builds anyway.
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


# ---------------------------------------------------------------------------
# Edge subdivision
# ---------------------------------------------------------------------------


#: Largest grid, n + m(c-1) points for step 1/c, that :func:`subdivide`
#: or ``build_gadget`` builds, the most points, n + m*ceil(b/a), an
#: answer of the tree route may hold (its cover holds a ball per point),
#: and the most points a witness's text may hold, one line each.  The
#: routes of numerators 1 and 2 build no grid: their witnesses are runs,
#: one per edge, whatever b is.  Those lists take up to about 180 bytes a
#: point, so a run at the limit stays under about 1 GiB, its input
#: included.  A certificate's system keeps to the same count of rows, each kept once as
#: its arcs, which share one tuple per end and weight: about 24 bytes a
#: row, so under 0.1 GiB at the limit (89 MiB peak RSS for K1,4000 at 1/3).
GRID_LIMIT = 4_000_000


def check_size(size: int, name: str, unit: str) -> None:
    """Raise SizeGuardExceededError when `name` has `size` `unit`, more
    than :data:`GRID_LIMIT`: the one budget every size guard shares."""
    if size > GRID_LIMIT:
        raise SizeGuardExceededError(f"{name} has {size} {unit}, over the limit of {GRID_LIMIT}")


def subdivide(g: Graph, c: int) -> Graph:
    """The c-subdivision of g: every edge replaced by a chain of c unit edges.

    Vertex v of g keeps its id, and the point k/c along edge e (0 < k < c)
    is vertex n + e(c-1) + k-1, n being g's vertex count (see
    :func:`grid_form`).  ``c == 1`` yields a graph equal to g.  Raises
    SizeGuardExceededError when it has more than :data:`GRID_LIMIT`
    vertices.  Its one caller in the package is the CLI's ``subdivide``
    command; the oracle builds the same numbering with
    :func:`grid_adjacency`, and the tree route's cover names grid edges by
    edge and step.
    """
    if c < 1:
        raise ValueError("subdivision factor must be >= 1")
    n = g.vertex_count
    size = n + g.edge_count * (c - 1)
    check_size(size, f"the {c}-subdivision of this graph", "points")
    edges: list[tuple[int, int]] = []
    for j, (u, v) in enumerate(g.edges):
        chain = [u] + [n + j * (c - 1) + t for t in range(c - 1)] + [v]
        edges.extend((chain[s], chain[s + 1]) for s in range(c))
    # chains of fresh vertices keep it simple and connected: no need to re-validate
    return Graph._unchecked(size, tuple(edges))


def grid_adjacency(g: Graph, c: int) -> list:
    """Neighbours of every vertex of ``subdivide(g, c)``, in its numbering,
    built straight from g's edges: unlike that graph's ``adjacency``, with
    no edge list and no sort, in a quarter of the time and half the
    memory.  Chain vertices get a pair, g's vertices a list.  The oracle
    is its one caller: the tree route and the cover check work on g's
    chains by arithmetic."""
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
) -> tuple[int, list[int], list[tuple[int, int, int, int]]]:
    """Vertices `chosen` of ``subdivide(g, c)``, g having n vertices, in the
    integer form of :meth:`~deltadisp.certify.WitnessSet.verified`: ``(c,
    vertex ids, runs)``, a run ``(e, k, 1, 1)`` of one point per chosen
    vertex inside an edge.  Vertex i < n is vertex i of g, and vertex
    n + e(c-1) + k-1 the point k/c along edge e.  The oracle is its one
    caller in the package, and the tests' grid references use it too."""
    vertices: list[int] = []
    runs: list[tuple[int, int, int, int]] = []
    for i in chosen:
        if i < n:
            vertices.append(i)
        else:
            e, r = divmod(i - n, c - 1)
            runs.append((e, r + 1, 1, 1))
    return c, vertices, runs


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
    ids = _plain_integers(tokens) if count is None or len(tokens) == count else None
    if ids is None:
        raise MalformedLineError(f"expected {expected}", line=line)
    return ids


def _plain_integers(tokens: list[str]) -> list[int] | None:
    """int() of every token when each is ``-?[0-9]+``, else None."""
    # free of what int() takes beyond -?[0-9]+ (underscores, a + sign,
    # non-ASCII digits), int() reads exactly those tokens
    joined = "".join(tokens)
    if joined.isascii() and "_" not in joined and "+" not in joined:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    return None


def _edge_ids(lines: list[str]) -> list[int] | None:
    """``u0, v0, u1, v1, ...`` when every one of `lines` holds exactly two
    plain integers ``u v``, else None.

    One split of the lines joined by ``;`` tokenizes them all.  The joiners
    sit at every third token exactly when each line has two tokens, and
    they are dropped there unread: a joiner anywhere else is left among
    the ids and fails int(), as does a ``;`` a line holds itself, so no
    list is made per line.
    """
    if not lines:
        return []
    tokens = " ; ".join(lines).split()
    if len(tokens) != 3 * len(lines) - 1:
        return None
    del tokens[2::3]
    return _plain_integers(tokens)


def parse_graph(text: str) -> Graph:
    """Parse the graph file format: first line ``n m``, then m lines ``u v``.

    Vertex ids are 0-based and every number is a plain decimal integer
    (see :func:`integer_tokens`).  Raises a distinct error naming the
    offending line for each failure mode: malformed line, vertex id out of
    range, self-loop, duplicate edge, disconnected graph.

    The edge lines are read and checked in whole-body passes, and errors
    come in line order all the same: a faulty edge on a line before a
    malformed or missing edge line, or before an extra non-blank line
    after the m edge lines, is the error raised, and the trailing lines
    are checked before connectivity.  Only after a pass fails does the
    reader look for the first line it failed on.
    """
    lines = text.splitlines()
    n, m = integer_tokens(lines[0] if lines else "", 1, "header 'n m'", 2)
    if n < 1:
        raise MalformedLineError("vertex count must be positive", line=1)
    if m < 0:
        raise MalformedLineError("edge count must be non-negative", line=1)
    body = lines[1 : m + 1]
    ids = _edge_ids(body)
    if ids is None:
        bad = next(i for i, line in enumerate(body) if _edge_ids([line]) is None)
        fault = MalformedLineError("expected 'u v'", line=bad + 2)
        ids = _edge_ids(body[:bad])
    elif len(body) < m:
        fault = MalformedLineError("missing edge line", line=len(body) + 2)
    elif "".join(lines[m + 1 :]).strip():
        extra = next(i for i, line in enumerate(lines[m + 1 :], start=m + 2) if line.strip())
        fault = MalformedLineError("unexpected extra line", line=extra)
    else:
        return Graph._from_ids(n, ids[0::2], ids[1::2], first_line=2)
    us, vs = ids[0::2], ids[1::2]
    raise _edge_fault(n, us, vs, tuple(zip(us, vs)), 2) or fault  # an earlier line's fault wins


def format_graph(g: Graph) -> str:
    out = [f"{g.vertex_count} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
