"""Instance factory for the hard regime (numerator >= 3).

Independent-set instances on cubic graphs translate into dispersion
instances: every source edge becomes two paths joined at a fresh hub vertex
plus a cycle through that hub, with path and cycle lengths chosen by a
Bezout-style coefficient computation so that the spacings work out exactly.
The factory also builds the dispersed witness that realizes a given
independent set, and the bound it certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import Graph, WitnessSet, as_rational
from .errors import InternalConsistencyError

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
    directly on the residue class of x modulo a.
    """
    x0 = (target * pow(b, -1, a)) % a
    lowest = max(min_x, -(-(target + a) // b))  # y >= 1  <=>  b*x >= target + a
    if x0 >= lowest:
        x = x0
    else:
        x = x0 + a * (-(-(lowest - x0) // a))
    y, rem = divmod(b * x - target, a)
    if rem or x < 1 or y < 1:
        raise InternalConsistencyError("lattice walk produced a non-solution")
    return x, y


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
    coeffs = BezoutCoefficients(x1, y1, x2, y2, parity)
    lhs1 = 2 * b * x1 - 2 * a * y1
    lhs2 = b * x2 - a * y2
    want1 = a - 1 if parity == "odd" else a - 2
    want2 = 1 if parity == "odd" else 2
    if lhs1 != want1 or lhs2 != want2:
        raise InternalConsistencyError("coefficient equations violated")
    return coeffs


@dataclass(frozen=True)
class GadgetInstance:
    """A dispersion instance produced from a cubic graph.

    ``vmap`` and ``emap`` locate the images of source vertices and source
    edges inside the gadget graph; ``paths`` holds, per source edge, the two
    vertex chains from the endpoint images to the hub, and ``cycles`` the
    hub-to-hub chain around the attached cycle.
    """

    g: Graph
    h: Graph
    delta: Fraction
    vmap: Mapping[int, int]
    emap: Mapping[int, int]
    coeffs: BezoutCoefficients
    paths: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    cycles: tuple[tuple[int, ...], ...]


def build_gadget(h: Graph, delta: Fraction) -> GadgetInstance:
    """Translate a connected cubic graph into a dispersion instance."""
    delta = as_rational(delta)
    for v in range(h.vertex_count):
        if h.degree(v) != 3:
            raise ValueError(f"source graph is not cubic: vertex {v} has degree {h.degree(v)}")
    a, b = delta.numerator, delta.denominator
    coeffs = bezout_coeffs(a, b)

    nh, mh = h.vertex_count, h.edge_count
    vmap = {v: v for v in range(nh)}
    emap = {e: nh + e for e in range(mh)}
    next_id = nh + mh
    edges: list[tuple[int, int]] = []
    paths = []
    cycles = []

    def chain(first: int, last: int, length: int) -> tuple[int, ...]:
        nonlocal next_id
        inner = list(range(next_id, next_id + length - 1))
        next_id += length - 1
        verts = [first, *inner, last]
        edges.extend((verts[s], verts[s + 1]) for s in range(length))
        return tuple(verts)

    for e, (u, v) in enumerate(h.edges):
        hub = emap[e]
        paths.append((chain(vmap[u], hub, coeffs.x1), chain(vmap[v], hub, coeffs.x1)))
        cycles.append(chain(hub, hub, coeffs.x2))

    g = Graph(next_id, tuple(edges))
    expected_edges = (2 * coeffs.x1 + coeffs.x2) * mh
    if g.edge_count != expected_edges:
        raise InternalConsistencyError("gadget edge count off")
    return GadgetInstance(
        g=g,
        h=h,
        delta=delta,
        vmap=vmap,
        emap=emap,
        coeffs=coeffs,
        paths=tuple(paths),
        cycles=tuple(cycles),
    )


def predicted_bound(inst: GadgetInstance, k: int) -> int:
    """Dispersion the gadget achieves when the source has an independent
    set of size k: k plus (2*y1 + y2) points per source edge."""
    if k < 0:
        raise ValueError("k must be non-negative")
    c = inst.coeffs
    return k + (2 * c.y1 + c.y2) * inst.h.edge_count


def _place(
    g: Graph,
    verts: Sequence[int],
    t: int,
    q: int,
    vertices: list[int],
    interior: list[tuple[int, int]],
) -> None:
    """Add the point t/q along a chain of unit edges to `vertices`, or as
    an ``(edge, k)`` pair at scale q to `interior`."""
    if t < 0 or t > (len(verts) - 1) * q:
        raise ValueError("distance outside the chain")
    step, rem = divmod(t, q)
    if rem == 0:
        vertices.append(verts[step])
        return
    e = g.edge_index(verts[step], verts[step + 1])
    if e is None:
        raise ValueError("chain vertices are not adjacent")
    interior.append((e, rem if g.edges[e][0] == verts[step] else q - rem))


def witness_from_independent_set(inst: GadgetInstance, independent: Iterable[int]) -> WitnessSet:
    """The dispersed set realized by an independent set of the source graph.

    Selected source vertices keep their image point and push their path
    points a full spacing out; unselected ones start at half spacing.  Each
    cycle gets its fixed quota of points, so the set has
    :func:`predicted_bound` points; it is verified before it is returned.
    Only odd numerators carry this construction; the even variant is
    validated through the brute-force oracle instead.  Distances along the
    chains are counted in units of 1/(2b), so the spacing a/b is 2a units.
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
    vertices = [inst.vmap[u] for u in sorted(chosen)]
    interior: list[tuple[int, int]] = []
    for e, (u, v) in enumerate(inst.h.edges):
        for side, endpoint in ((0, u), (1, v)):
            start = 2 * a if endpoint in chosen else a
            for j in range(c.y1):
                _place(g, inst.paths[e][side], start + 2 * a * j, q, vertices, interior)
        for j in range(c.y2):
            _place(g, inst.cycles[e], a + 1 + 2 * a * j, q, vertices, interior)

    return WitnessSet.verified(
        g, q, vertices, interior, inst.delta, predicted_bound(inst, len(chosen))
    )


def format_gadget_map(inst: GadgetInstance) -> str:
    """Sidecar map: ``v <source-vertex> <gadget-id>`` / ``e <source-edge> <gadget-id>``."""
    out = [f"v {v} {inst.vmap[v]}" for v in sorted(inst.vmap)]
    out.extend(f"e {e} {inst.emap[e]}" for e in sorted(inst.emap))
    return "\n".join(out) + "\n"

