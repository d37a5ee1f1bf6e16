"""Front-end solver: route each spacing to the right exact algorithm.

Spacings with numerator 1 have closed-form answers; numerator 2 takes the
polynomial :func:`~deltadisp.solve2.disp2`.  Numerator >= 3 is NP-hard in
general: on a tree it takes the linear tree route at every spacing, and on
any other graph it is only solvable here by the explicit brute-force
oracle, which the caller must opt into.  Every route's witness passes
``WitnessSet.verified`` in :mod:`deltadisp.certify`, the one place an
answer is checked: here for the polynomial routes, in the oracle for it.
"""

from __future__ import annotations

from fractions import Fraction

from .certify import WitnessSet
from .core import Graph, as_rational, check_grid, check_size
from .errors import NPHardRegimeError
from .oracle import DEFAULT_CANDIDATE_CAP, brute_disp, check_limits
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

    Numerator 1 takes the closed forms and numerator 2
    :func:`~deltadisp.solve2.disp2`.  At numerators >= 3 a tree takes
    :func:`~deltadisp.trees.tree_disp`, with no opt-in, and its answer is
    proven optimal by an edge-ball cover; any other graph raises
    NPHardRegimeError unless `allow_bruteforce` is set, and then returns
    :func:`brute_disp`'s answer.  `cap` and `timeout` apply to that
    oracle only, but a `cap` below 1 or a `timeout` that is negative,
    infinite or NaN raises ValueError on every route, before routing.
    Numerators 1 and 2 first check the instance's 1/(2b) grid, n +
    m(2b-1) points, against :data:`~deltadisp.core.GRID_LIMIT`; the tree
    route, which builds no grid, checks the most points its answer can
    hold, n + m*ceil(b/a).  Either raises SizeGuardExceededError over the
    limit, before anything of that size is allocated.

    The polynomial routes return their value and witness unchecked, and
    the witness is verified (cardinality and pairwise spacing) once, here,
    by :meth:`~deltadisp.certify.WitnessSet.verified`; the oracle's
    is verified the same way at its exit.  So an internal construction
    bug cannot surface as a wrong answer.  A single point is always
    placeable, so the value is >= 1.
    """
    delta = as_rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    check_limits(cap, timeout)
    a, b = delta.numerator, delta.denominator
    if a >= 3 and not g.is_tree:
        if not allow_bruteforce:
            raise NPHardRegimeError(
                f"computing the {a}/{b}-dispersion number is NP-hard for "
                f"numerators >= 3 on graphs that are not trees; pass "
                f"allow_bruteforce=True to run the exponential oracle"
            )
        return brute_disp(g, delta, cap, timeout)
    if a >= 3:
        # a dispersed set holds at most one point per vertex and ceil(b/a)
        # inside an edge, and the tree route keeps no more
        bound = g.vertex_count + g.edge_count * -(-b // a)
        check_size(bound, f"the {a}/{b} tree route's answer", "points at most")
        value, form = tree_disp(g, a, b)
    else:
        check_grid(g, 2 * b, f"the {a}/{b} grid of this graph")
        value, form = _unit_numerator(g, b) if a == 1 else disp2(g, b)
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

