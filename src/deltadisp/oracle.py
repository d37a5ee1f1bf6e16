"""Exact brute-force dispersion solver for arbitrary rational spacings.

For spacing a/b in lowest terms there is always an optimal dispersed set
whose offsets all have denominator 2b, so searching the finite grid of
half-step points is complete.  The grid points and their pairwise conflicts
(distance strictly below the spacing) form a conflict graph; an optimal
dispersed set is a maximum independent set in it.  Conflicts are built
locally: a pair can conflict only if its edges have ends fewer than the
spacing apart in hops, so each candidate is compared only with the
candidates around a bounded breadth-first search of its ends, and no
all-pairs table is built.  The independent set is found by a
deterministic branch-and-reduce search (Akiba & Iwata, TCS 2016): at
every node, isolated candidates are taken and dominating ones dropped
until neither applies, then a greedy clique-cover bound prunes, then the
search branches.  Domination alone solves the conflict graphs of trees.

This solver is the ground truth the polynomial algorithms are tested
against, and the only exact route in the NP-hard regime (numerator >= 3).
It is meant for desk-scale instances; a candidate cap and an optional time
budget guard it, and a timeout still reports the best dispersed set found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import monotonic
from typing import Callable, Iterator

from .core import Graph, Point, WitnessSet, as_rational, hop_ball, is_dispersed, vertex_point
from .errors import InternalConsistencyError, OracleTimeoutError, SizeGuardExceededError

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
    compared exactly, in integer units of one grid step.  A candidate is
    compared only with the candidates on edges that have an end within
    ``(threshold-1)//q`` hops of one of its own ends (:func:`hop_ball`),
    where ``threshold = delta * q``; farther pairs are at least `delta`
    apart.  Raises OracleTimeoutError once `monotonic()` passes
    `deadline`, checked before each candidate's row of conflicts.
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
    offsets = [Fraction(i, q) for i in range(1, q)]
    for e in range(m):
        candidates.extend(Point(e, x) for x in offsets)

    threshold = int(delta * q)
    # a pair closer than delta has ends at most this many hops apart
    radius = (threshold - 1) // q
    # Along an edge, the steps fewer than `threshold` from a point that is
    # r steps from one end form a run of min(threshold-1-r, q-1) steps from
    # that end.  As bits over the edge's q-1 steps, lowest step first:
    from_a = [(1 << max(0, min(threshold - 1 - r, q - 1))) - 1 for r in range(threshold + 1)]
    from_b = [bits << (q - 1 - bits.bit_length()) for bits in from_a]
    edges, incident = g.edges, g.incident_edges
    conflicts: list[int] = []

    def add_row(reach: dict[int, int], own_edge: int = -1, along: int = 0) -> None:
        """Append the row of the next candidate, which is ``reach[y]`` <
        threshold steps from each vertex y near it; an interior candidate
        also conflicts with the steps on its own edge it reaches directly,
        the bits `along`."""
        if deadline is not None and monotonic() > deadline:
            raise OracleTimeoutError("conflict-graph build exceeded its time budget")
        mask = 0
        near: set[int] = set()
        for y in reach:
            mask |= 1 << y
            near.update(incident[y])
        for f in near:
            a, b = edges[f]
            ends = from_a[reach.get(a, threshold)] | from_b[reach.get(b, threshold)]
            mask |= ends << (n + f * (q - 1))
        if own_edge >= 0:
            mask |= along << (n + own_edge * (q - 1))
        conflicts.append(mask & ~(1 << len(conflicts)))

    # vertex y is candidate y, step t of edge e is candidate n + e(q-1) + t-1
    for v in range(n):
        add_row({y: q * hops for y, hops in hop_ball(g, v, radius)})
    for e, (u, v) in enumerate(edges):
        ball_u = list(hop_ball(g, u, radius))
        ball_v = list(hop_ball(g, v, radius))
        for t in range(1, q):
            reach = {}
            for y, hops in ball_u:
                if t + q * hops < threshold:
                    reach[y] = t + q * hops
            for y, hops in ball_v:
                if q - t + q * hops < reach.get(y, threshold):
                    reach[y] = q - t + q * hops
            lo, hi = max(1, t - threshold + 1), min(q - 1, t + threshold - 1)
            add_row(reach, e, ((1 << (hi - lo + 1)) - 1) << (lo - 1))
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


class _SearchTimeout(OracleTimeoutError):
    """The search's deadline passed; ``mask`` is its incumbent."""

    def __init__(self, mask: int):
        super().__init__("independent-set search exceeded its time budget")
        self.mask = mask


def _reduce(
    conflicts: tuple[int, ...], rem: int, dirty: int, check: Callable[[], None]
) -> tuple[int, int]:
    """Apply isolation and domination to `rem` until neither fires.

    Returns ``(taken, rem)``: the isolated candidates taken and what is
    left.  Domination: when adjacent u and v have N[v] within N[u] (both
    restricted to `rem`), some maximum independent set avoids u, so u is
    dropped.  This covers pendant and simplicial candidates, so it solves
    the chordal conflict graphs of trees outright; it never folds, so
    every candidate keeps its meaning.  Only the `dirty` candidates, whose
    neighbourhoods shrank since they were last examined, can have become
    dominated or isolated; they are examined in ascending index order.
    `check` runs once per pass and raises when the deadline has passed.
    """
    taken = 0
    while dirty:
        check()
        dirty &= rem
        shrunk = 0
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            if not rem & low:
                continue
            nv = conflicts[low.bit_length() - 1] & rem
            r = nv
            while r:
                ub = r & -r
                r ^= ub
                u = conflicts[ub.bit_length() - 1]
                if nv & ~u == ub:  # N[v] within N[u]: drop u
                    rem ^= ub
                    nv ^= ub
                    shrunk |= u
            if not nv:
                taken |= low
                rem ^= low
        dirty = shrunk
    return taken, rem


def _max_independent_set(
    conflicts: tuple[int, ...], deadline: float | None
) -> tuple[int, int]:
    """Deterministic branch-and-reduce MIS; returns (size, chosen bitmask).

    Every node first runs :func:`_reduce` to a fixpoint, then prunes by a
    greedy clique-cover bound, then branches on the candidate with the most
    remaining conflicts (ties by lowest index), taking it before dropping
    it.  A greedy pass in index order seeds the incumbent.  Raises
    OracleTimeoutError, carrying the incumbent mask, once `monotonic()`
    passes `deadline`, checked at every node and every reduction pass.
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

    def check() -> None:
        if deadline is not None and monotonic() > deadline:
            raise _SearchTimeout(best_mask)

    # (size so far, chosen, remaining, remaining candidates to re-examine)
    stack = [(0, 0, full, full)]
    while stack:
        check()
        count, chosen, rem, dirty = stack.pop()
        taken, rem = _reduce(conflicts, rem, dirty, check)
        chosen |= taken
        count += taken.bit_count()
        if rem == 0:
            if count > best:
                best = count
                best_mask = chosen
            continue
        if count + _clique_cover_size(conflicts, rem) <= best:
            continue
        pick = -1
        pick_degree = -1
        r = rem
        while r:
            low = r & -r
            r ^= low
            v = low.bit_length() - 1
            degree = (conflicts[v] & rem).bit_count()
            if degree > pick_degree:
                pick_degree = degree
                pick = v
        bit = 1 << pick
        nbrs = conflicts[pick] & rem
        after_take = rem & ~nbrs & ~bit
        # taking pick removes its neighbours, so theirs are re-examined
        touched = 0
        r = nbrs
        while r:
            low = r & -r
            r ^= low
            touched |= conflicts[low.bit_length() - 1]
        stack.append((count, chosen, rem ^ bit, nbrs))
        stack.append((count + 1, chosen | bit, after_take, touched & after_take))
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
    build as well as the search.  The timeout error carries the best
    dispersed set found so far as ``best`` and ``witness``: the search's
    incumbent, or a single vertex if the conflict build did not finish.
    """
    deadline = None if timeout is None else monotonic() + timeout
    try:
        cg = build_conflict_graph(g, delta, cap=cap, deadline=deadline)
    except OracleTimeoutError as exc:
        raise _with_incumbent(exc, g, [vertex_point(g, 0)], as_rational(delta)) from None
    try:
        value, mask = _max_independent_set(cg.conflicts, deadline)
    except _SearchTimeout as exc:
        raise _with_incumbent(exc, g, _points(cg, exc.mask), cg.delta) from None
    witness = WitnessSet.build(g, _points(cg, mask), cg.delta)
    if len(witness) != value:
        raise AssertionError("witness size disagrees with the search value")
    return value, witness


def _points(cg: ConflictGraph, mask: int) -> list[Point]:
    return [p for i, p in enumerate(cg.candidates) if mask >> i & 1]


def _with_incumbent(
    exc: OracleTimeoutError, g: Graph, points: list[Point], delta: Fraction
) -> OracleTimeoutError:
    """`exc`'s message with `points` attached as a checked witness."""
    witness = WitnessSet.build(g, points, delta)
    if not is_dispersed(g, witness.points, delta):
        raise InternalConsistencyError("the search's incumbent is not dispersed")
    return OracleTimeoutError(str(exc), best=len(witness), witness=witness)
