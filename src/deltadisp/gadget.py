"""Instance factory for the hard regime (numerator >= 3).

Independent-set instances on cubic graphs translate into dispersion
instances: every source edge becomes two paths joined at a fresh hub vertex
plus a cycle through that hub, with path and cycle lengths chosen by a
Bezout-style coefficient computation so that the spacings work out exactly.
The factory also builds the dispersed witness that realizes a given
independent set, and the bound it certifies, checked in
:mod:`deltadisp.certify`, the one place an answer is checked.

The gadget graph's edge list is the one record of its layout (see
:class:`GadgetInstance`); the chains, the witness's points and the
sidecar map are computed from it by arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .certify import WitnessSet
from .core import Graph, as_rational, check_size

__all__ = [
    "BezoutCoefficients",
    "GadgetInstance",
    "bezout_coeffs",
    "build_gadget",
    "predicted_bound",
    "witness_from_independent_set",
    "format_gadget_map",
]


@dataclass(frozen=True)
class BezoutCoefficients:
    """Path/cycle lengths (x1, x2) and point counts (y1, y2) for spacing a/b.

    Odd numerators solve ``2b*x1 - 2a*y1 = a-1`` and ``b*x2 - a*y2 = 1``;
    even numerators solve the variants with right-hand sides a-2 and 2.
    All four values are positive, and x2 >= 3 keeps the gadget simple.
    """

    x1: int
    y1: int
    x2: int
    y2: int
    parity: str  # "odd" or "even"


def _minimal_solution(b: int, a: int, target: int, min_x: int) -> tuple[int, int]:
    """Smallest x >= min_x with y >= 1 solving ``b*x - a*y = target``.

    Solutions form a lattice with steps (a, b); the minimum is computed
    directly on the residue class of x modulo a.  That class, x = target *
    b^-1 (mod a), makes the division exact, and x >= (target + a) / b makes
    y >= 1.
    """
    x0 = (target * pow(b, -1, a)) % a
    lowest = max(min_x, -(-(target + a) // b))  # y >= 1  <=>  b*x >= target + a
    if x0 >= lowest:
        x = x0
    else:
        x = x0 + a * (-(-(lowest - x0) // a))
    return x, (b * x - target) // a


def bezout_coeffs(a: int, b: int) -> BezoutCoefficients:
    """Smallest positive coefficients for spacing a/b (a >= 3, coprime)."""
    if a < 3:
        raise ValueError("gadget coefficients require a numerator >= 3")
    if b < 1 or math.gcd(a, b) != 1:
        raise ValueError("numerator and denominator must be coprime, denominator >= 1")
    if a % 2:
        parity = "odd"
        r1, r2 = (a - 1) // 2, 1
    else:
        parity = "even"
        r1, r2 = (a - 2) // 2, 2
    x1, y1 = _minimal_solution(b, a, r1, min_x=1)
    x2, y2 = _minimal_solution(b, a, r2, min_x=3)
    return BezoutCoefficients(x1, y1, x2, y2, parity)


@dataclass(frozen=True)
class GadgetInstance:
    """A dispersion instance produced from a cubic graph ``h``.

    The layout of ``g`` is fixed by ``h`` and ``coeffs`` (B = 2*x1 + x2):

    - source vertex v is vertex v;
    - the hub of source edge e is vertex nh + e, nh being h's vertex count;
    - source edge e owns the B edges of ``g`` that start at e*B: the chain
      from its first end to the hub (x1 edges), then the chain from its
      second end (x1 edges), then the hub's cycle (x2 edges).  Each edge is
      stored in chain order, its first endpoint the nearer the chain's start.
    """

    g: Graph
    h: Graph
    delta: Fraction
    coeffs: BezoutCoefficients


def build_gadget(h: Graph, delta: Fraction) -> GadgetInstance:
    """Translate a connected cubic graph into a dispersion instance.

    Raises SizeGuardExceededError, before building, when the gadget has
    more than :data:`~deltadisp.core.GRID_LIMIT` vertices.
    """
    delta = as_rational(delta)
    for v in range(h.vertex_count):
        if h.degree(v) != 3:
            raise ValueError(f"source graph is not cubic: vertex {v} has degree {h.degree(v)}")
    a, b = delta.numerator, delta.denominator
    coeffs = bezout_coeffs(a, b)

    nh, mh = h.vertex_count, h.edge_count
    x1, x2 = coeffs.x1, coeffs.x2
    check_size(nh + mh * (2 * x1 + x2 - 2), "this gadget", "points")
    fresh = nh + mh  # the next unused vertex id
    edges: list[tuple[int, int]] = []
    for e, (u, v) in enumerate(h.edges):
        hub = nh + e
        for first, last, length in ((u, hub, x1), (v, hub, x1), (hub, hub, x2)):
            verts = [first, *range(fresh, fresh + length - 1), last]
            fresh += length - 1
            edges.extend(zip(verts, verts[1:]))

    # h is connected and each chain runs through fresh vertices, so g is
    # simple and connected by construction, as subdivide's graphs are; each
    # source edge adds its 2*x1 + x2 chain edges
    g = Graph._unchecked(fresh, tuple(edges))
    return GadgetInstance(g=g, h=h, delta=delta, coeffs=coeffs)


def predicted_bound(inst: GadgetInstance, k: int) -> int:
    """Dispersion the gadget achieves when the source has an independent
    set of size k: k plus (2*y1 + y2) points per source edge."""
    if k < 0:
        raise ValueError("k must be non-negative")
    c = inst.coeffs
    return k + (2 * c.y1 + c.y2) * inst.h.edge_count


def witness_from_independent_set(inst: GadgetInstance, independent: Iterable[int]) -> WitnessSet:
    """The dispersed set realized by an independent set of the source graph.

    Selected source vertices keep their image point and push their path
    points a full spacing out; unselected ones start at half spacing.  Each
    cycle gets its fixed quota of points, so the set has
    :func:`predicted_bound` points; it is verified before it is returned.
    Only odd numerators carry this construction; the even variant is
    validated through the brute-force oracle instead.  Distances along the
    chains are counted in units of 1/q, q = 2b, so the spacing a/b is 2a
    units, and the point t units along the chain whose first edge is f
    lies on edge f + t // q at offset t % q, or on that edge's first
    endpoint when the offset is 0 (see :class:`GadgetInstance`).
    """
    chosen = frozenset(independent)
    if not all(0 <= v < inst.h.vertex_count for v in chosen):
        raise ValueError("independent set contains unknown vertices")
    for u, v in inst.h.edges:
        if u in chosen and v in chosen:
            raise ValueError(f"set is not independent: edge ({u}, {v})")
    if inst.coeffs.parity != "odd":
        raise ValueError("witness construction is only defined for odd numerators")

    g = inst.g
    a, q = inst.delta.numerator, 2 * inst.delta.denominator
    c = inst.coeffs
    vertices = sorted(chosen)
    runs: list[tuple[int, int, int, int]] = []  # one per point
    for e, (u, v) in enumerate(inst.h.edges):
        f = e * (2 * c.x1 + c.x2)
        # per chain: its first edge, its first point's distance, its point count
        for first, start, count in (
            (f, 2 * a if u in chosen else a, c.y1),
            (f + c.x1, 2 * a if v in chosen else a, c.y1),
            (f + 2 * c.x1, a + 1, c.y2),
        ):
            for t in range(start, start + 2 * a * count, 2 * a):
                step, k = divmod(t, q)
                if k:
                    runs.append((first + step, k, 1, 1))
                else:
                    vertices.append(g.edges[first + step][0])

    return WitnessSet.verified(
        g, q, vertices, runs, inst.delta, predicted_bound(inst, len(chosen))
    )


def format_gadget_map(inst: GadgetInstance) -> str:
    """Sidecar map: ``v <source-vertex> <gadget-id>`` / ``e <source-edge> <gadget-id>``,
    computed from the layout (see :class:`GadgetInstance`)."""
    nh = inst.h.vertex_count
    out = [f"v {v} {v}" for v in range(nh)]
    out.extend(f"e {e} {nh + e}" for e in range(inst.h.edge_count))
    return "\n".join(out) + "\n"
