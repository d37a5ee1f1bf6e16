"""Exact brute-force dispersion solver for arbitrary rational spacings.

For spacing a/b in lowest terms there is always an optimal dispersed set
whose offsets all have denominator 2b, so searching the finite grid of
half-step points is complete.  The grid points and their pairwise conflicts
(distance strictly below the spacing) form a conflict graph; an optimal
dispersed set is a maximum independent set in it, found here by a
deterministic branch-and-bound with a greedy clique-cover bound.

This solver is the ground truth the polynomial algorithms are tested
against, and the only exact route in the NP-hard regime (numerator >= 3).
It is meant for desk-scale instances; a candidate cap and an optional time
budget guard it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import monotonic
from typing import Iterator

from .core import Graph, Point, WitnessSet, as_rational, vertex_point
from .errors import OracleTimeoutError, SizeGuardExceededError

__all__ = ["ConflictGraph", "build_conflict_graph", "brute_disp", "DEFAULT_CANDIDATE_CAP"]

DEFAULT_CANDIDATE_CAP = 2000


@dataclass(frozen=True)
class ConflictGraph:
    """Grid candidates plus their pairwise conflict relation.

    ``conflicts[i]`` is a bitmask over candidate indices whose distance to
    candidate i is strictly below delta.  The relation is symmetric and
    irreflexive by construction.
    """

    delta: Fraction
    candidates: tuple[Point, ...]
    conflicts: tuple[int, ...]

    def conflict_pairs(self) -> Iterator[tuple[int, int]]:
        for i, mask in enumerate(self.conflicts):
            mask >>= i + 1
            j = i + 1
            while mask:
                if mask & 1:
                    yield (i, j)
                mask >>= 1
                j += 1


def build_conflict_graph(
    g: Graph,
    delta: Fraction,
    cap: int = DEFAULT_CANDIDATE_CAP,
    grid_denominator: int | None = None,
    deadline: float | None = None,
) -> ConflictGraph:
    """Enumerate the half-step grid candidates and their conflicts.

    Candidates are every vertex plus the interior points at offsets
    i/(2b), deduplicated; `grid_denominator` overrides the default 2b grid
    (used by completeness checks against finer grids).  Distances are
    compared exactly, in integer units of one grid step.  Raises
    OracleTimeoutError once `monotonic()` passes `deadline`, checked
    before each candidate's row of conflicts.
    """
    delta = as_rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    q = 2 * delta.denominator if grid_denominator is None else int(grid_denominator)
    if q < 1 or (delta * q).denominator != 1:
        raise ValueError(f"grid denominator {q} does not resolve delta {delta}")
    n, m = g.vertex_count, g.edge_count
    count = n + m * (q - 1)
    if count > cap:
        raise SizeGuardExceededError(
            f"{count} candidates exceed the cap of {cap}"
        )

    candidates: list[Point] = [vertex_point(g, v) for v in range(n)]
    # scaled geometry per candidate: (end_a, end_b, steps to a, steps to b)
    ends: list[tuple[int, int, int, int]] = [(v, v, 0, 0) for v in range(n)]
    on_edge: list[int] = [-1] * n
    for e, (u, v) in enumerate(g.edges):
        for i in range(1, q):
            candidates.append(Point(e, Fraction(i, q)))
            ends.append((u, v, i, q - i))
            on_edge.append(e)

    hops = g.hop_table
    threshold = int(delta * q)
    conflicts = [0] * count
    for i in range(count):
        if deadline is not None and monotonic() > deadline:
            raise OracleTimeoutError("conflict-graph build exceeded its time budget")
        ia, ib, da, db = ends[i]
        row_a = hops[ia]
        row_b = hops[ib]
        for j in range(i + 1, count):
            ja, jb, ea, eb = ends[j]
            d = min(
                da + q * row_a[ja] + ea,
                da + q * row_a[jb] + eb,
                db + q * row_b[ja] + ea,
                db + q * row_b[jb] + eb,
            )
            if on_edge[i] == on_edge[j] != -1:
                direct = abs(da - ea)
                if direct < d:
                    d = direct
            if d < threshold:
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return ConflictGraph(delta, tuple(candidates), tuple(conflicts))


def _clique_cover_size(conflicts: tuple[int, ...], remaining: int) -> int:
    """Greedy partition of `remaining` into mutually conflicting groups.

    Any dispersed set picks at most one candidate per group, so the group
    count bounds the independent set size from above.
    """
    cliques: list[int] = []
    r = remaining
    while r:
        low = r & -r
        r ^= low
        cv = conflicts[low.bit_length() - 1]
        for idx, members in enumerate(cliques):
            if members & ~cv == 0:
                cliques[idx] = members | low
                break
        else:
            cliques.append(low)
    return len(cliques)


def _max_independent_set(
    conflicts: tuple[int, ...], deadline: float | None
) -> tuple[int, int]:
    """Deterministic branch-and-bound MIS; returns (size, chosen bitmask).

    Branches on the candidate with the most remaining conflicts (ties by
    lowest index); conflict-free candidates are taken greedily since they
    can never hurt.
    """
    n = len(conflicts)
    if n == 0:
        return 0, 0
    full = (1 << n) - 1

    # greedy seed, ascending index
    best_mask = 0
    rem = full
    while rem:
        low = rem & -rem
        best_mask |= low
        rem &= ~(conflicts[low.bit_length() - 1] | low)
    best = best_mask.bit_count()

    stack = [(0, 0, full)]
    while stack:
        if deadline is not None and monotonic() > deadline:
            raise OracleTimeoutError("independent-set search exceeded its time budget")
        count, chosen, rem = stack.pop()

        free = 0
        pick = -1
        pick_degree = -1
        r = rem
        while r:
            low = r & -r
            r ^= low
            v = low.bit_length() - 1
            degree = (conflicts[v] & rem).bit_count()
            if degree == 0:
                free |= low
            elif degree > pick_degree:
                pick_degree = degree
                pick = v
        if free:
            # conflict-free picks leave all other degrees unchanged
            chosen |= free
            count += free.bit_count()
            rem &= ~free
        if rem == 0:
            if count > best:
                best = count
                best_mask = chosen
            continue
        if count + _clique_cover_size(conflicts, rem) <= best:
            continue
        bit = 1 << pick
        stack.append((count, chosen, rem & ~bit))
        stack.append((count + 1, chosen | bit, rem & ~(conflicts[pick] | bit)))
    return best, best_mask


def brute_disp(
    g: Graph,
    delta: Fraction,
    cap: int = DEFAULT_CANDIDATE_CAP,
    timeout: float | None = None,
) -> tuple[int, WitnessSet]:
    """Exact dispersion number by exhaustive search over the half-step grid.

    Deterministic: ties in the search are broken by candidate index, so the
    returned witness is reproducible.  Raises SizeGuardExceededError when
    the grid is larger than `cap` and OracleTimeoutError when `timeout`
    seconds elapse, counted from the call: the budget covers the conflict
    build as well as the search.
    """
    deadline = None if timeout is None else monotonic() + timeout
    cg = build_conflict_graph(g, delta, cap=cap, deadline=deadline)
    value, mask = _max_independent_set(cg.conflicts, deadline)
    points = []
    i = 0
    while mask:
        if mask & 1:
            points.append(cg.candidates[i])
        mask >>= 1
        i += 1
    witness = WitnessSet.build(g, points, cg.delta)
    if len(witness) != value:
        raise AssertionError("witness size disagrees with the search value")
    return value, witness
