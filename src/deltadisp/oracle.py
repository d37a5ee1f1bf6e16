"""Exact brute-force dispersion solver for arbitrary rational spacings.

For spacing a/b in lowest terms there is always an optimal dispersed set
whose offsets all have denominator 2b, so searching the finite grid of
half-step points is complete.  That grid is exactly the vertex set of the
2b-subdivision (every edge replaced by a chain of 2b unit edges), and two
grid points are closer than a/b exactly when they are fewer than 2a hops
apart there (Hartmann & Lendl, MFCS 2022).  The conflict graph is
therefore the (2a-1)-hop ball of each subdivision vertex, computed for all
vertices at once as bitsets, one round per hop; no all-pairs table is
built.  An optimal dispersed set is a maximum independent set in it, found
by a deterministic branch-and-reduce search (Akiba & Iwata, TCS 2016): at
every node, isolated candidates are taken and dominating ones dropped
until neither applies, then a greedy clique-cover bound prunes, then the
search branches.  Every neighbour a candidate dominates is found by one
running intersection of closed neighbourhoods and dropped at once (see
:func:`_reduce` for why that is sound).  Domination alone solves the
conflict graphs of trees.

The two inner loops do work in proportion to what they find.  The
running intersection takes a candidate's outer ring first (its conflicts
at the largest hop count, ``ConflictGraph.far``), whose neighbourhoods
overlap the rest least, so it empties sooner; an intersection is the same
set in any order, so what is dropped does not change.  The clique cover
grows one clique at a time from the lowest candidate left, one AND per
member, which is the same partition first-fit in index order builds.
The bound at every node, the search tree and the witness are therefore
those of the plain loops.

This solver is the ground truth the polynomial algorithms are tested
against, and the only exact route in the NP-hard regime (numerator >= 3)
on graphs that are not trees.  It is meant for desk-scale instances; a
candidate cap and an optional time budget guard it, and a timeout still
reports the best dispersed set found, checked, like every witness it
gives, in :mod:`deltadisp.certify`, the one place an answer is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isnan
from time import monotonic
from typing import Callable

from .certify import WitnessSet
from .core import Graph, as_rational, grid_adjacency, grid_form
from .errors import OracleTimeoutError, SizeGuardExceededError

__all__ = ["ConflictGraph", "build_conflict_graph", "brute_disp", "DEFAULT_CANDIDATE_CAP"]

DEFAULT_CANDIDATE_CAP = 2000


@dataclass(frozen=True)
class ConflictGraph:
    """Grid candidates plus their pairwise conflict relation.

    For delta = a/b in lowest terms, candidate i is vertex i of
    ``subdivide(g, 2b)``, the subdivision whose vertices are the grid
    (:func:`~deltadisp.core.grid_form` reads candidates as points of g).
    ``conflicts[i]`` is a bitmask over candidate indices whose distance to
    candidate i is strictly below delta.  The relation is symmetric and
    irreflexive by construction.  ``far[i]``, the outer ring of candidate
    i, is the part of ``conflicts[i]`` that the last growing round of the
    build added: the conflicts at the largest hop count, a hint for the
    search's domination test that never changes its result.
    """

    conflicts: tuple[int, ...]
    far: tuple[int, ...]


def build_conflict_graph(
    g: Graph,
    delta: Fraction,
    cap: int = DEFAULT_CANDIDATE_CAP,
    deadline: float | None = None,
) -> ConflictGraph:
    """The grid candidates of spacing `delta` and their conflicts.

    For delta = a/b in lowest terms, the grid of step 1/q, q = 2b, is the
    vertex set of ``subdivide(g, q)``: vertex v stays candidate v, and step
    t of edge e is chain vertex n + e(q-1) + t-1.  Points of the grid are
    exactly their hop count in the subdivision times 1/q apart, so the
    candidates closer than delta to a candidate are its ball of radius
    delta*q - 1 = 2a - 1 there.
    The balls grow as bitsets over :func:`~deltadisp.core.grid_adjacency`,
    one round per hop: each round ORs every vertex's neighbours' balls into
    its own, and the rounds stop early once none grows, so the work is
    bounded by the graph, not by delta.  ``far`` keeps what the last round
    that grew added to each ball.
    The candidate cap is checked before anything is allocated.  Raises
    OracleTimeoutError once `monotonic()` passes `deadline`, checked
    before each round.
    """
    delta = as_rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    q = 2 * delta.denominator
    count = g.vertex_count + g.edge_count * (q - 1)
    if count > cap:
        raise SizeGuardExceededError(
            f"{count} candidates exceed the cap of {cap}"
        )

    adjacency = grid_adjacency(g, q)
    reach = previous = [1 << v for v in range(count)]
    for _ in range(2 * delta.numerator - 1):
        if deadline is not None and monotonic() > deadline:
            raise OracleTimeoutError("conflict-graph build exceeded its time budget")
        grown = []
        for ball, nbrs in zip(reach, adjacency):
            for u in nbrs:
                ball |= reach[u]
            grown.append(ball)
        if grown == reach:
            break
        previous, reach = reach, grown
    conflicts = tuple(ball ^ (1 << v) for v, ball in enumerate(reach))
    # balls only grow, so the last growing round's additions are an XOR
    far = tuple(ball ^ inner for ball, inner in zip(reach, previous))
    return ConflictGraph(conflicts, far)


def _clique_cover_size(conflicts: tuple[int, ...], remaining: int) -> int:
    """Greedy partition of `remaining` into mutually conflicting groups.

    Any dispersed set picks at most one candidate per group, so the group
    count bounds the independent set size from above.  Each group grows
    from the lowest candidate left by repeatedly adding the lowest one
    that conflicts with every member so far, kept as one running AND of
    the members' conflicts: one AND per member.  That is first-fit in
    index order (each candidate joins the first group all of whose
    members it conflicts with) applied one group at a time: whether a
    candidate joins the first group depends only on the members below it,
    and the candidates it leaves form the later groups the same way, so
    the partition, and hence the bound, is first-fit's.
    """
    count = 0
    r = remaining
    while r:
        low = r & -r
        r ^= low
        count += 1
        cand = conflicts[low.bit_length() - 1] & r
        while cand:
            u = cand & -cand
            r ^= u
            cand &= conflicts[u.bit_length() - 1]
    return count


class _SearchTimeout(OracleTimeoutError):
    """The search's deadline passed; ``mask`` is its incumbent."""

    def __init__(self, mask: int):
        super().__init__("independent-set search exceeded its time budget")
        self.mask = mask


def _reduce(
    conflicts: tuple[int, ...],
    rem: int,
    dirty: int,
    check: Callable[[], None],
    far: tuple[int, ...],
) -> tuple[int, int]:
    """Apply isolation and domination to `rem` until neither fires.

    Returns ``(taken, rem)``: the isolated candidates taken and what is
    left.  Domination: when adjacent u and v have N[v] within N[u] (both
    restricted to `rem`), some maximum independent set avoids u, so u is
    dropped.  This covers pendant and simplicial candidates, so it solves
    the chordal conflict graphs of trees outright; it never folds, so
    every candidate keeps its meaning.

    For a candidate v, one running intersection finds every neighbour it
    dominates: starting from its remaining neighbours, it keeps those in
    the closed neighbourhood ``conflicts[w] | w`` of each remaining
    neighbour w, stopping once nothing is left.  A neighbour u survives
    exactly when it lies in the closed neighbourhood of every vertex of
    N[v] within `rem` (of v because it is v's neighbour), that is, when
    N[v] lies within N[u]; all of them are dropped at once.  That is
    sound: v stays in `rem`, and each inclusion N[v] within N[u] still
    holds after other candidates leave `rem`, so each drop is one the
    rule allows on its own.  A neighbour that becomes dominated only
    after the drop is found on the next pass, since the dropped
    candidates' neighbours, v among them, are re-examined.

    The intersection takes v's remaining neighbours in `far[v]` first,
    then the rest (each part in ascending order); ``(0,) * n`` is the
    empty hint, which runs the same loop.  An intersection is the same set
    in any order, so the order changes only how soon it empties, never
    what is dropped.  The outer ring (``ConflictGraph.far``) lies farthest from
    v's other neighbours, so its neighbourhoods tend to cut the set down
    soonest.

    Only the `dirty` candidates, whose neighbourhoods shrank since they
    were last examined, can have become dominated or isolated; they are
    examined in ascending index order.  `check` runs once per pass and
    raises when the deadline has passed.
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
            v = low.bit_length() - 1
            nv = conflicts[v] & rem
            dominated = nv
            r = far[v] & nv
            rest = nv ^ r
            while dominated:
                if not r:
                    if not rest:
                        break
                    r, rest = rest, 0
                w = r & -r
                r ^= w
                dominated &= conflicts[w.bit_length() - 1] | w
            if dominated:  # N[v] within N[u] for each u here: drop them all
                rem ^= dominated
                nv ^= dominated
                while dominated:
                    u = dominated & -dominated
                    dominated ^= u
                    shrunk |= conflicts[u.bit_length() - 1]
            if not nv:
                taken |= low
                rem ^= low
        dirty = shrunk
    return taken, rem


def _max_independent_set(
    conflicts: tuple[int, ...], deadline: float | None, far: tuple[int, ...]
) -> tuple[int, int]:
    """Deterministic branch-and-reduce MIS; returns (size, chosen bitmask).

    Every node first runs :func:`_reduce` to a fixpoint, with `far` as its
    order hint (no effect on the result), then prunes by a
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
        taken, rem = _reduce(conflicts, rem, dirty, check, far)
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


def check_limits(cap: int, timeout: float | None) -> None:
    """Raise ValueError unless the candidate cap is at least 1 and the time
    budget, if any, is a finite number of seconds >= 0."""
    if cap < 1:
        raise ValueError(f"the candidate cap must be at least 1, not {cap}")
    if timeout is not None and not 0 <= timeout < inf:
        raise ValueError(
            "timeout must be a number of seconds, not NaN"
            if isnan(timeout)
            else f"timeout must be a finite number of seconds >= 0, not {timeout}"
        )


def brute_disp(
    g: Graph,
    delta: Fraction,
    cap: int = DEFAULT_CANDIDATE_CAP,
    timeout: float | None = None,
) -> tuple[int, WitnessSet]:
    """Exact dispersion number by exhaustive search over the half-step grid.

    Deterministic: ties in the search are broken by candidate index, so the
    returned witness is reproducible.
    Raises ValueError when :func:`check_limits` refuses `cap` or
    `timeout`, SizeGuardExceededError when the grid is larger than `cap`,
    and OracleTimeoutError when `timeout` seconds elapse, counted from the
    call: the budget covers the conflict build as well as the search.  The
    timeout error carries the best dispersed set found so far as ``best``
    and ``witness``: the search's incumbent, or vertex 0 alone if the
    conflict build did not finish.  The answer and a timeout's incumbent
    leave by one exit, which checks either with
    :meth:`~deltadisp.certify.WitnessSet.verified`.
    """
    delta = as_rational(delta)
    check_limits(cap, timeout)
    deadline = None if timeout is None else monotonic() + timeout
    message = None
    try:
        cg = build_conflict_graph(g, delta, cap=cap, deadline=deadline)
        size, mask = _max_independent_set(cg.conflicts, deadline, cg.far)
    except OracleTimeoutError as exc:
        # the search's incumbent, or vertex 0 (candidate 0) if the build stopped
        message = str(exc)
        mask = exc.mask if isinstance(exc, _SearchTimeout) else 1
        size = mask.bit_count()
    chosen = (i for i in range(mask.bit_length()) if mask >> i & 1)
    form = grid_form(g.vertex_count, 2 * delta.denominator, chosen)
    witness = WitnessSet.verified(g, *form, delta, size)
    if message is not None:
        raise OracleTimeoutError(message, best=size, witness=witness)
    return size, witness
