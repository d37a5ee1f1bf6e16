"""Front-end solver: route each spacing to the right exact algorithm.

Spacings with numerator 1 have closed-form answers; numerator 2 reduces to
the polynomial delta=2 algorithm plus a per-edge surcharge; numerator >= 3
is NP-hard and only solvable here by the explicit brute-force oracle, which
the caller must opt into.  Every route's witness passes one check,
``WitnessSet.verified``: here for the polynomial routes, in the oracle for it.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Graph, Point, WitnessSet, as_rational, vertex_point
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

    The polynomial routes return their value and witness points unchecked,
    and the witness is built and verified (cardinality and pairwise
    spacing) once, here; numerators >= 3 return :func:`brute_disp`'s
    answer, verified the same way at its exit.  So an internal construction
    bug cannot surface as a wrong answer.  A single point is always
    placeable, so the value is >= 1.
    """
    delta = as_rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    a, b = delta.numerator, delta.denominator
    if a == 1:
        value, points = _unit_numerator(g, b)
    elif a == 2:
        value, points = _numerator_two(g, b)
    elif not allow_bruteforce:
        raise NPHardRegimeError(
            f"computing the {a}/{b}-dispersion number is NP-hard for "
            f"numerators >= 3; pass allow_bruteforce=True to run the "
            f"exponential oracle"
        )
    else:
        return brute_disp(g, delta, cap, timeout)
    return value, WitnessSet.verified(g, points, delta, value)


def _unit_numerator(g: Graph, b: int) -> tuple[int, list[Point]]:
    """delta = 1/b: trees fit b points per edge plus one, others b per edge."""
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
    return value, points


def _numerator_two(g: Graph, b: int) -> tuple[int, list[Point]]:
    """delta = 2/b, b = 2z+1 odd: an optimal delta=2 set plus z points per edge.

    The canonical delta=2 witness partitions the edges into those touching
    one of its vertices, those holding one of its midpoints, and the rest;
    each class gets its own evenly spaced refill pattern: i*delta from the
    chosen vertex, (i - 3/4)*delta and (i - 1/4)*delta from the first end.
    At delta = 2 (z = 0) the pattern is the canonical witness itself.
    """
    if b % 2 == 0:
        raise InternalConsistencyError("numerator 2 with even denominator cannot occur")
    z = (b - 1) // 2
    base_value, vertices, mids = disp2(g)
    points = [vertex_point(g, v) for v in vertices]
    for e, (u, v) in enumerate(g.edges):
        if u in vertices or v in vertices:
            if u in vertices and v in vertices:
                raise InternalConsistencyError("adjacent vertices in a 2-dispersed set")
            if e in mids:
                raise InternalConsistencyError("midpoint edge touches a chosen vertex")
            if u in vertices:
                points.extend(Point(e, Fraction(2 * i, b)) for i in range(1, z + 1))
            else:
                points.extend(Point(e, Fraction(b - 2 * i, b)) for i in range(1, z + 1))
        elif e in mids:
            points.extend(Point(e, Fraction(4 * i - 3, 2 * b)) for i in range(1, z + 2))
        else:
            points.extend(Point(e, Fraction(4 * i - 1, 2 * b)) for i in range(1, z + 1))
    return base_value + z * g.edge_count, points
