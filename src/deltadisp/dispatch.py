"""Front-end solver: route each spacing to the right exact algorithm.

Spacings with numerator 1 have closed-form answers; numerator 2 reduces to
the polynomial delta=2 algorithm plus a per-edge surcharge.  Numerator >= 3
is NP-hard in general: on a tree it takes the linear tree route at every
spacing, and on any other graph it is only solvable here by the explicit
brute-force oracle, which the caller must opt into.  Every route's witness
passes one check, ``WitnessSet.verified``: here for the polynomial routes,
in the oracle for it.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Graph, WitnessSet, as_rational, check_grid
from .errors import InternalConsistencyError, NPHardRegimeError
from .oracle import DEFAULT_CANDIDATE_CAP, brute_disp
from .solve2 import disp2
from .trees import tree_disp

__all__ = ["disp"]


def disp(
    g: Graph,
    delta: Fraction,
    allow_bruteforce: bool = False,
    cap: int = DEFAULT_CANDIDATE_CAP,
    timeout: float | None = None,
) -> tuple[int, WitnessSet]:
    """Maximum size of a delta-dispersed point set, with a witness.

    Numerator 1 takes the closed forms and numerator 2 the delta = 2
    reduction.  At numerators >= 3 a tree takes
    :func:`~deltadisp.trees.tree_disp`, with no opt-in, and its answer is
    proven optimal by an edge-ball cover; any other graph raises
    NPHardRegimeError unless `allow_bruteforce` is set, and then returns
    :func:`brute_disp`'s answer.  `cap` and `timeout` apply to that
    oracle only.  Every other route first checks the instance's 1/(2b)
    grid, n + m(2b-1) points, against
    :data:`~deltadisp.core.GRID_LIMIT` and raises SizeGuardExceededError
    over it, before it allocates anything of the grid's size.

    The polynomial routes return their value and witness unchecked, in
    the integer form of :meth:`WitnessSet.verified`, and the witness is
    verified (cardinality and pairwise spacing) once, here; the oracle's
    is verified the same way at its exit.  So an internal construction
    bug cannot surface as a wrong answer.  A single point is always
    placeable, so the value is >= 1.
    """
    delta = as_rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    a, b = delta.numerator, delta.denominator
    if a >= 3 and not g.is_tree:
        if not allow_bruteforce:
            raise NPHardRegimeError(
                f"computing the {a}/{b}-dispersion number is NP-hard for "
                f"numerators >= 3 on graphs that are not trees; pass "
                f"allow_bruteforce=True to run the exponential oracle"
            )
        return brute_disp(g, delta, cap, timeout)
    check_grid(g, 2 * b, f"the {a}/{b} grid of this graph")
    if a == 1:
        value, form = _unit_numerator(g, b)
    elif a == 2:
        value, form = _numerator_two(g, b)
    else:
        value, form = tree_disp(g, a, b)
    return value, WitnessSet.verified(g, *form, delta, value)


def _unit_numerator(g: Graph, b: int) -> tuple[int, tuple]:
    """delta = 1/b: trees fit b points per edge plus one, others b per edge.

    Returns the value and the witness in the integer form ``(scale,
    vertex ids, (edge, k) pairs)`` that :meth:`WitnessSet.verified` takes.
    """
    m = g.edge_count
    if g.is_tree:
        interior = [(e, i) for e in range(m) for i in range(1, b)]
        return b * m + 1, (b, range(g.vertex_count), interior)
    interior = [(e, 2 * i - 1) for e in range(m) for i in range(1, b + 1)]
    return b * m, (2 * b, (), interior)


def _numerator_two(g: Graph, b: int) -> tuple[int, tuple]:
    """delta = 2/b, b = 2z+1 odd: an optimal delta=2 set plus z points per edge.

    The canonical delta=2 witness partitions the edges into those touching
    one of its vertices, those holding one of its midpoints, and the rest;
    each class gets its own evenly spaced refill pattern: i*delta from the
    chosen vertex, (i - 3/4)*delta and (i - 1/4)*delta from the first end.
    At delta = 2 (z = 0) the pattern is the canonical witness itself.
    Offsets are in units of 1/(2b), returned as :func:`_unit_numerator`'s.
    """
    if b % 2 == 0:
        raise InternalConsistencyError("numerator 2 with even denominator cannot occur")
    z = (b - 1) // 2
    base_value, vertices, mids = disp2(g)
    q = 2 * b
    held = bytearray(g.vertex_count)
    for v in vertices:
        held[v] = 1
    mid = bytearray(g.edge_count)
    for e in mids:
        mid[e] = 4
    # offsets per edge code held[u] + 2 held[v] + mid[e]; codes 3, 5, 6
    # and 7 are witness faults
    patterns = (
        range(3, 4 * z, 4),  # neither end chosen: 4i - 1
        range(4, 4 * z + 1, 4),  # first end chosen: 4i
        range(q - 4 * z, q, 4),  # second end chosen: q - 4i
        (),
        range(1, 4 * z + 2, 4),  # midpoint edge: 4i - 3
    )
    codes = [held[u] + 2 * held[v] + mid[e] for e, (u, v) in enumerate(g.edges)]
    if 3 in codes or 7 in codes:
        raise InternalConsistencyError("adjacent vertices in a 2-dispersed set")
    if 5 in codes or 6 in codes:
        raise InternalConsistencyError("midpoint edge touches a chosen vertex")
    interior = [(e, k) for e, code in enumerate(codes) for k in patterns[code]]
    return base_value + z * g.edge_count, (q, vertices, interior)
