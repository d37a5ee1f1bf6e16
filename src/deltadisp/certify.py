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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Mapping

from .core import Graph, WitnessSet, as_rational, hop_ball, integer_tokens
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
    """Vertex facilities plus per-edge interior facility counts."""

    vertices: frozenset[int]
    interior_counts: Mapping[int, int]

    def __post_init__(self) -> None:
        # operator.index refuses floats and Fractions, which int() truncates
        object.__setattr__(self, "vertices", frozenset(map(index, self.vertices)))
        counts = {index(e): index(c) for e, c in self.interior_counts.items() if index(c) != 0}
        if any(c < 0 for c in counts.values()):
            raise ValueError("interior counts must be non-negative")
        object.__setattr__(self, "interior_counts", counts)

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
    for e in cert.interior_counts:
        if not 0 <= e < g.edge_count:
            raise ValueError(f"invalid edge index {e} in certificate")
    for v in cert.vertices:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"invalid vertex id {v} in certificate")

    if cert.total < k:
        return Verdict(False, f"cardinality shortfall: certificate claims {cert.total} < k={k}")

    p, q = delta.numerator, delta.denominator
    radius = (p - 1) // q  # the largest hop count below delta
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

    # x(u,e): distance from end u of occupied edge e to its nearest interior
    # point, in units of 1/q.  Rows are x_i + x_j <= b or >= b (j is None
    # for x_i >= b); node 2i of the doubled graph stands for +x_i, 2i+1 for
    # -x_i.  x >= 0 implies every row whose ends are delta or more hops
    # apart, and the wrap-around row of an edge (c >= 2 only when delta <= 1).
    variables = [(u, e) for e in occupied for u in g.edges[e]]
    ends: dict[int, list[tuple[int, int]]] = {}  # vertex -> (edge, variable)
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

    arcs: list[list[tuple[int, int, int]]] = [[] for _ in range(2 * len(variables))]
    for r, (i, j, relation, b) in enumerate(rows):
        if j is None:
            arcs[2 * i].append((2 * i + 1, -2 * b, r))
        elif relation == "<=":
            arcs[2 * i + 1].append((2 * j, b, r))
            arcs[2 * j + 1].append((2 * i, b, r))
        else:
            arcs[2 * i].append((2 * j + 1, -b, r))
            arcs[2 * j].append((2 * i + 1, -b, r))
    cycle = _negative_cycle(arcs)
    if cycle is None:
        return Verdict(True)

    def name(i: int) -> str:
        return "x({},{})".format(*variables[i])

    said = []
    for i, j, relation, b in (rows[r] for r in dict.fromkeys(cycle)):
        pair = name(i) if j is None else f"{name(i)} + {name(j)}"
        said.append(f"{pair} {relation} {Fraction(b, q)}")
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
    """
    dist = [0] * len(arcs)
    parent: list[tuple[int, int, int] | None] = [None] * len(arcs)  # tail, weight, row
    lowered = list(range(len(arcs)))
    while lowered:
        changed: dict[int, None] = {}
        for t in lowered:
            for h, w, r in arcs[t]:
                if dist[t] + w < dist[h]:
                    dist[h] = dist[t] + w
                    parent[h] = (t, w, r)
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
                if sum(w for _, w, _ in cycle) >= 0:
                    raise InternalConsistencyError("parent cycle of non-negative weight")
                return [r for _, _, r in cycle]
            done.update(path)
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
    the vertex ids, then one ``e n_e`` line per occupied edge.  Every
    number is a plain decimal integer (see :func:`integer_tokens`)."""
    lines = text.splitlines()
    (k,) = integer_tokens(lines[0] if lines else "", 1, "an integer bound 'k'", 1)
    if len(lines) < 2 or not lines[1].strip().startswith("W:"):
        raise MalformedLineError("expected a 'W: ...' line", line=2)
    vertices = frozenset(integer_tokens(lines[1].strip()[2:], 2, "integer vertex ids"))
    counts: dict[int, int] = {}
    for lineno, raw in enumerate(lines[2:], start=3):
        if not raw.split():
            continue
        e, c = integer_tokens(raw, lineno, "integers 'e n_e'", 2)
        if e in counts:
            raise MalformedLineError(f"edge {e} listed twice", line=lineno)
        if c < 0:
            raise MalformedLineError("interior count must be non-negative", line=lineno)
        counts[e] = c
    return k, Certificate(vertices, counts)
