"""Compact certificates for dispersion lower bounds, verified exactly.

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

Each stage is one pass.  The reader takes all ``e n_e`` lines in one
tokenization.  The check adds each row's arcs to the doubled graph as it
finds the row, walking from every occupied end a ball of radius
floor((p-1)/q) for delta = p/q, and nothing past hop 0 when delta <= 1, so
its cost is the occupied ends times that ball.  The cycle search keeps its
state in flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index
from typing import Mapping

from .core import Graph, WitnessSet, _edge_ids, as_rational, hop_ball, integer_tokens
from .errors import InternalConsistencyError, MalformedLineError

__all__ = [
    "Certificate",
    "Verdict",
    "extract_certificate",
    "verify_certificate",
    "format_certificate",
    "parse_certificate",
]


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
    read from the witness's integer form."""
    counts: dict[int, int] = {}
    for e, _ in ws.interior:
        counts[e] = counts.get(e, 0) + 1
    return Certificate(frozenset(ws.vertices), counts)


def verify_certificate(g: Graph, delta: Fraction, cert: Certificate, k: int) -> Verdict:
    """Accept iff the certificate claims >= k facilities and is realizable.

    Rejection reasons fall into three classes: cardinality shortfall, a
    vertex pair ``(u, w)`` of the certificate fewer than delta hops apart,
    or an infeasible system.  An infeasible system is an edge holding more
    points than fit at spacing delta, or a negative cycle, reported as the
    constraints along it, e.g. ``infeasible system: x(1,0) >= 1/2;
    x(0,0) + x(1,0) <= 1; x(0,0) >= 3/2``.
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
    if radius:  # hop 0 holds no pair of distinct vertices
        for u in sorted(vertices):
            for hops, ring in hop_ball(g, u, radius):
                for w in ring:
                    if w > u and w in vertices:
                        return Verdict(False, f"vertex pair ({u}, {w}) at distance {hops} < {delta}")

    # x_i, i = 2 pos + side: distance from end `side` of the pos-th occupied
    # edge to its nearest interior point, in units of 1/q.  Rows are
    # x_i + x_j <= b or >= b, or x_i >= b; node 2i of the doubled graph
    # stands for +x_i, 2i+1 for -x_i, and each row's arcs are added as it
    # is found, its (i, j, relation, b) kept only to word a rejection.
    # x >= 0 implies every row whose ends are delta or more hops apart, and
    # the wrap-around row of an edge (c >= 2 only when delta <= 1).
    occupied = sorted(counts)
    edges = g.edges
    cap = q // p + 1  # the most points one edge holds at spacing p/q
    arcs: list[list[tuple[int, int, int]]] = [[] for _ in range(4 * len(occupied))]
    labels: list[tuple[int, int | None, str, int]] = []
    ends: dict[int, list[int]] = {}  # vertex -> the variables at it, ascending
    for pos, e in enumerate(occupied):
        count = counts[e]
        if count > cap:
            return Verdict(
                False, f"infeasible system: edge {e} cannot hold {count} points at spacing {delta}"
            )
        i, b = 2 * pos, q - (count - 1) * p
        arcs[2 * i + 1].append((2 * i + 2, b, pos))
        arcs[2 * i + 3].append((2 * i, b, pos))
        labels.append((i, i + 1, "<=", b))
        u, v = edges[e]
        ends.setdefault(u, []).append(i)
        ends.setdefault(v, []).append(i + 1)

    lower = [0] * (2 * len(occupied))
    for u, here in ends.items():
        for hops, ring in hop_ball(g, u, radius) if radius else ((0, (u,)),):
            need = p - hops * q
            for w in ring:
                there = ends.get(w, ())
                held = w in vertices
                for i in here:
                    if held and lower[i] < need:
                        lower[i] = need
                    for j in there:
                        if i < j and i >> 1 != j >> 1:  # the ends of one edge have its <= row
                            arcs[2 * i].append((2 * j + 1, -need, len(labels)))
                            arcs[2 * j].append((2 * i + 1, -need, len(labels)))
                            labels.append((i, j, ">=", need))
    for i, b in enumerate(lower):
        arcs[2 * i].append((2 * i + 1, -2 * b, len(labels)))
        labels.append((i, None, ">=", b))

    cycle = _negative_cycle(arcs)
    if cycle is None:
        return Verdict(True)

    def name(i: int) -> str:
        e = occupied[i >> 1]
        return f"x({edges[e][i & 1]},{e})"

    said = []
    for i, j, relation, b in (labels[r] for r in dict.fromkeys(cycle)):
        pair = name(i) if j is None else f"{name(i)} + {name(j)}"
        d = gcd(b, q)  # b/q in lowest terms, worded as str(Fraction(b, q))
        said.append(f"{pair} {relation} {b // d}" + (f"/{q // d}" if q != d else ""))
    return Verdict(False, "infeasible system: " + "; ".join(said))


def _negative_cycle(arcs: list[list[tuple[int, int, int]]]) -> list[int] | None:
    """Rows on a negative cycle of the graph, or None if it has none.

    ``arcs[t]`` lists ``(head, weight, row)``.  Bellman-Ford from a virtual
    source joined to every node by a zero arc, relaxing in rounds the arcs
    out of the nodes lowered in the round before.  After each round the
    parent arcs of the lowered nodes are followed: a cycle among them is
    negative (Cherkassky & Goldberg, *Negative-cycle detection algorithms*,
    1999), so a rejection costs rounds in proportion to the cycle's length.
    Weights are integers, so without such a cycle the rounds end.

    The state is flat: a node's parent arc is its tail, weight and row in
    three lists, one list holds the round that last lowered each node (so
    no mark is cleared between rounds), and one stamp list numbers the walk
    that last passed each node, so a walk stops at a node stamped earlier
    in its round and has found a cycle at one stamped by itself.
    """
    size = len(arcs)
    dist = [0] * size
    tail = [-1] * size
    weight = [0] * size
    row = [0] * size
    lowered_in = [0] * size
    stamp = [0] * size
    walk = rounds = 0
    lowered = list(range(size))
    while lowered:
        rounds += 1
        changed = []
        for t in lowered:
            here = dist[t]
            for h, w, r in arcs[t]:
                if here + w < dist[h]:
                    dist[h] = here + w
                    tail[h], weight[h], row[h] = t, w, r
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
                return [row[x] for x in reversed(cycle)]
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
    count below 1, raises MalformedLineError naming the line.

    The ``e n_e`` lines are read and checked in whole-body passes, as
    :func:`parse_graph` reads edges; only after a pass fails does the
    reader look for the first line it failed on, so errors still come in
    line order.
    """
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
    body = lines[2:]
    numbers = range(3, len(lines) + 1)  # the line number of each of `body`
    fault = None
    pairs = _edge_ids(body)
    if pairs is None:  # blank lines, or a malformed line
        numbers = [n for n, line in zip(numbers, body) if line.split()]
        body = [lines[n - 1] for n in numbers]
        pairs = _edge_ids(body)
        if pairs is None:
            bad = next(i for i, line in enumerate(body) if _edge_ids([line]) is None)
            fault = MalformedLineError("expected integers 'e n_e'", line=numbers[bad])
            pairs = _edge_ids(body[:bad])
    es, cs = pairs[0::2], pairs[1::2]
    counts = dict(zip(es, cs))
    if fault is None and len(counts) == len(es) and (not cs or min(cs) >= 1):
        return k, Certificate(vertices, counts)
    seen = set()
    for n, e, c in zip(numbers, es, cs):  # the first faulty line, in line order
        if e in seen:
            raise MalformedLineError(f"edge {e} listed twice", line=n)
        if c < 1:
            raise MalformedLineError("interior count must be positive", line=n)
        seen.add(e)
    raise fault  # the malformed line, as no line before it is at fault
