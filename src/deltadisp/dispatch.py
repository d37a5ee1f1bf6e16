"""Front-end solver: route each spacing to the right exact algorithm.

Spacings with numerator 1 have closed-form answers; numerator 2 reduces to
the polynomial delta=2 algorithm plus a per-edge surcharge; numerator >= 3
is NP-hard and only solvable here by the explicit brute-force oracle, which
the caller must opt into.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Graph, Point, WitnessSet, as_rational, is_dispersed, vertex_point
from .errors import InternalConsistencyError, NPHardRegimeError
from .oracle import DEFAULT_CANDIDATE_CAP, brute_disp
from .solve2 import disp2

__all__ = ["disp"]


def disp(
    g: Graph,
    delta: Fraction,
    allow_bruteforce: bool = False,
    cap: int = DEFAULT_CANDIDATE_CAP,
    timeout: float | None = None,
) -> tuple[int, WitnessSet]:
    """Maximum size of a delta-dispersed point set, with a witness.

    The witness is verified (cardinality and pairwise spacing) once before
    it is returned, so an internal construction bug cannot surface as a
    wrong answer.  At delta = 2 that check is the one ``disp2`` runs on its
    own witness.  A single point is always placeable, so the value is >= 1.
    """
    delta = as_rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    a, b = delta.numerator, delta.denominator
    if delta == 2:
        value, canonical = disp2(g)
        return value, canonical.to_witness_set(g)
    if a == 1:
        value, witness = _unit_numerator(g, b)
    elif a == 2:
        value, witness = _numerator_two(g, b)
    else:
        if not allow_bruteforce:
            raise NPHardRegimeError(
                f"computing the {a}/{b}-dispersion number is NP-hard for "
                f"numerators >= 3; pass allow_bruteforce=True to run the "
                f"exponential oracle"
            )
        value, witness = brute_disp(g, delta, cap=cap, timeout=timeout)
    if len(witness) != value or not is_dispersed(g, witness.points, delta):
        raise InternalConsistencyError("constructed witness fails verification")
    return value, witness


def _unit_numerator(g: Graph, b: int) -> tuple[int, WitnessSet]:
    """delta = 1/b: trees fit b points per edge plus one, others b per edge."""
    delta = Fraction(1, b)
    points: list[Point] = []
    if g.is_tree:
        points.extend(vertex_point(g, v) for v in range(g.vertex_count))
        for e in range(g.edge_count):
            points.extend(Point(e, Fraction(i, b)) for i in range(1, b))
        value = b * g.edge_count + 1
    else:
        for e in range(g.edge_count):
            points.extend(Point(e, Fraction(2 * i - 1, 2 * b)) for i in range(1, b + 1))
        value = b * g.edge_count
    return value, WitnessSet.build(g, points, delta)


def _numerator_two(g: Graph, b: int) -> tuple[int, WitnessSet]:
    """delta = 2/(2z+1), z >= 1: an optimal delta=2 set plus z points per edge.

    The canonical delta=2 witness partitions the edges into those touching
    one of its vertices, those holding one of its midpoints, and the rest;
    each class gets its own evenly spaced refill pattern.
    """
    if b % 2 == 0:
        raise InternalConsistencyError("numerator 2 with even denominator cannot occur")
    z = (b - 1) // 2
    base_value, canonical = disp2(g)

    delta = Fraction(2, b)
    vertices = canonical.vertex_points
    mids = canonical.edge_midpoints
    points = [vertex_point(g, v) for v in vertices]
    for e, (u, v) in enumerate(g.edges):
        if u in vertices or v in vertices:
            if u in vertices and v in vertices:
                raise InternalConsistencyError("adjacent vertices in a 2-dispersed set")
            if e in mids:
                raise InternalConsistencyError("midpoint edge touches a chosen vertex")
            offsets = [i * delta for i in range(1, z + 1)]
            if v in vertices:
                offsets = [1 - t for t in offsets]
            points.extend(Point(e, t) for t in offsets)
        elif e in mids:
            points.extend(Point(e, (4 * i - 3) * delta / 4) for i in range(1, z + 2))
        else:
            points.extend(Point(e, (4 * i - 1) * delta / 4) for i in range(1, z + 1))
    return base_value + z * g.edge_count, WitnessSet.build(g, points, delta)
