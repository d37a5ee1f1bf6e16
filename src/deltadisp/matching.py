"""Maximum matching in general graphs and the structure of maximum matchings.

One engine, Edmonds' blossom-contracting alternating forest grown from
every exposed vertex, augments along every edge it finds between two of
its trees; the first forest that finds none proves the matching maximum,
and its outer vertices are the vertices some maximum matching misses.  A
blossom contraction costs its cycle paths plus the vertices it
relabels, not the size of the graph; forests on sparse graphs with many
blossoms (chains of triangles, cacti) take near-linear time, measured
but not proven, and a handful of forests suffice in practice.  The
decomposition built on the missed vertices exposes the guarantees
every maximum matching satisfies (odd factor-critical components,
perfectly matched even components, and the separator matched into
distinct odd components).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

from .core import Graph
from .errors import InternalConsistencyError

__all__ = [
    "EGDecomposition",
    "maximum_matching",
    "edmonds_gallai",
]


def _search(
    adj: Sequence[Sequence[int]], match: Sequence[int]
) -> tuple[list[tuple[int, int]], list[int], list[bool]]:
    """One phase of Edmonds' alternating forest, grown from every exposed vertex.

    Returns ``(bridges, parent, outer)``.  A bridge is an edge between outer
    vertices of two open trees, so root-to-bridge-to-root is an augmenting
    path; both trees close for the rest of the phase, which keeps the paths
    of different bridges vertex-disjoint.  ``parent`` holds the tree links
    to flip along those paths, and ``outer`` marks the even-labelled
    vertices, contracted blossoms included.

    A vertex names its blossom by an id, and each id its base vertex; see
    :func:`_contract` for what a contraction costs.  A phase costs
    O(E + V log V) plus the cycle paths its contractions walk, with no
    pass over all V vertices per blossom.
    """
    n = len(adj)
    parent = [-1] * n
    blossom = list(range(n))  # blossom id per vertex
    base = list(range(n))  # base vertex per blossom id
    members: dict[int, list[int]] = {}  # vertices of each merged blossom id
    outer = [False] * n
    tree = [-1] * n
    closed = [False] * n
    mark = [0] * n  # lowest-common-base stamps, two per contraction
    stamp = 0
    roots = [v for v in range(n) if match[v] == -1]
    for r in roots:
        outer[r] = True
        tree[r] = r
    queue = deque(roots)
    bridges: list[tuple[int, int]] = []

    while queue:
        v = queue.popleft()
        if closed[tree[v]]:
            continue
        mate = match[v]
        for to in adj[v]:
            if to == mate or blossom[v] == blossom[to]:
                continue
            if outer[to]:
                if tree[to] != tree[v]:
                    if not closed[tree[to]]:
                        bridges.append((v, to))
                        closed[tree[v]] = closed[tree[to]] = True
                        break
                    continue
                # odd cycle: contract the blossom down to its base; its
                # inner vertices turn outer, queued in vertex order
                stamp += 2
                queue.extend(_contract(v, to, stamp, match, parent, outer, blossom, base, members, mark))
            elif parent[to] == -1:
                # every exposed vertex is a root, so `to` is matched
                parent[to] = v
                tree[to] = tree[match[to]] = tree[v]
                outer[match[to]] = True
                queue.append(match[to])
    return bridges, parent, outer


def _contract(
    a: int,
    b: int,
    stamp: int,
    match: Sequence[int],
    parent: list[int],
    outer: list[bool],
    blossom: list[int],
    base: list[int],
    members: dict[int, list[int]],
    mark: list[int],
) -> list[int]:
    """Contract the blossom that the edge between outer vertices a and b
    of one tree closes, and return its inner vertices, now outer, sorted.

    The lowest common base is found by climbing from both ends by turns,
    marking bases with `stamp` and `stamp + 1`.  The paths from a and b
    down to it are marked as in Edmonds' algorithm, and every merged
    blossom but the largest is relabelled to the largest's id (Gabow's base
    merging, JACM 1976), so each vertex is relabelled O(log V) times in a
    phase.  The cost is the length of the cycle paths, at most the size of
    the blossom, plus the relabelled vertices.
    """
    x, y = base[blossom[a]], base[blossom[b]]
    mine, theirs = stamp, stamp + 1
    while True:
        if x != -1:
            if mark[x] == theirs:
                break
            mark[x] = mine
            x = -1 if match[x] == -1 else base[blossom[parent[match[x]]]]
        x, y, mine, theirs = y, x, theirs, mine
    stem = x

    keep = blossom[stem]
    merged = [keep]
    inner = []
    for v, child in ((a, b), (b, a)):
        while blossom[v] != keep:
            m = match[v]
            merged.append(blossom[v])
            merged.append(blossom[m])
            if not outer[m]:
                outer[m] = True
                inner.append(m)
            parent[v] = child
            child = m
            v = parent[m]

    merged = dict.fromkeys(merged)
    grown = [i for i in merged if i in members]  # the others are single vertices
    if grown:
        keep = max(grown, key=lambda i: len(members[i]))
    kept = members.setdefault(keep, [keep])
    for i in merged:
        if i != keep:
            moved = members.pop(i, [i])
            for w in moved:
                blossom[w] = keep
            kept += moved
    base[keep] = stem
    inner.sort()
    return inner


def maximum_matching(adjacency: Sequence[Sequence[int]]) -> tuple[list[int], list[bool]]:
    """A maximum matching (partner per vertex, -1 free) and, per vertex,
    whether some maximum matching misses it.

    A greedy pass in ascending degree order seeds the matching.  Each
    phase grows one alternating forest from every exposed vertex and
    augments along every bridge it records.  The first phase that records
    none proves the matching maximum, and its outer vertices are D
    (Gallai-Edmonds structure theorem).
    """
    n = len(adjacency)
    match = [-1] * n
    # greedy seed, lowest degree first (a stable sort: ties by index): an
    # edge at a leaf lies in some maximum matching, while a hub matched
    # first can strand its leaves and leave more phases to augment
    for v in sorted(range(n), key=list(map(len, adjacency)).__getitem__):
        if match[v] == -1:
            for u in adjacency[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    while True:
        bridges, parent, outer = _search(adjacency, match)
        if not bridges:
            return match, outer
        for a, b in bridges:
            ends = (match[a], match[b])
            match[a], match[b] = b, a
            for v in ends:
                while v != -1:
                    prev = parent[v]
                    nxt = match[prev]
                    match[v], match[prev] = prev, v
                    v = nxt


@dataclass(frozen=True)
class EGDecomposition:
    """Partition of the vertices by maximum-matching structure, held as the
    arrays it is labelled in: ``kind`` per vertex (0 inessential, the
    vertices some maximum matching misses; 1 separator, their outside
    neighbourhood; 2 remainder, the rest; and a last slot 3 for the
    partner -1 of an exposed vertex), the ``components`` of the inessential
    set as vertex lists, each led by its least vertex and ordered by it,
    and ``mate``, the maximum matching they are read off, which matches
    each separator vertex into its own inessential component and each
    remainder vertex to a remainder vertex.
    """

    kind: Sequence[int] = field(repr=False)
    components: Sequence[Sequence[int]] = field(repr=False)
    mate: tuple[int, ...]


def edmonds_gallai(g: Graph) -> EGDecomposition:
    """Compute the decomposition and verify its structural guarantees.

    The inessential set and the maximum matching the rest of the structure
    is read off come from one call of the matching engine.  One pass over
    a vertex-kind array labels the components of the inessential set, the
    only components the decomposition keeps.  The remainder is checked
    through the matching alone: every remainder vertex must be matched to
    a remainder vertex.  A matched neighbour of the same kind lies in the
    same component, so each remainder component is then perfectly matched,
    and hence even.  Any violated guarantee raises InternalConsistencyError
    rather than passing silently.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    mate, outer = maximum_matching(adjacency)
    kind = [0 if is_outer else 2 for is_outer in outer] + [3]
    for v in compress(range(n), outer):
        for u in adjacency[v]:
            if not outer[u]:
                kind[u] = 1
    comp = [-1] * (n + 1)
    components: list[list[int]] = []
    for start in compress(range(n), outer):
        if comp[start] != -1:
            continue
        comp[start] = start  # a component is named by its least vertex
        group = [start]
        for w in group:  # breadth-first: `group` grows as vertices are reached
            for x in adjacency[w]:
                if comp[x] == -1 and outer[x]:
                    comp[x] = start
                    group.append(x)
        if len(group) % 2 == 0:
            raise InternalConsistencyError(f"even-sized inessential component {sorted(group)}")
        components.append(group)

    owners = []  # the inessential component each separator vertex is matched into
    for y in compress(range(n), map((1).__eq__, kind)):
        x = mate[y]
        if kind[x] != 0:
            raise InternalConsistencyError(
                f"separator vertex {y} is not matched into the inessential set"
            )
        owners.append(comp[x])
    if len(set(owners)) != len(owners):
        raise InternalConsistencyError(
            "separator vertices matched into a shared inessential component"
        )

    for v in compress(range(n), map((2).__eq__, kind)):
        if kind[mate[v]] != 2:  # kind[-1] == 3 covers an exposed vertex
            raise InternalConsistencyError(
                f"remainder vertex {v} is not matched inside the remainder"
            )
    for group in components:
        c = group[0]
        # a singleton's mate, if any, lies outside it
        missed = group if len(group) == 1 else [v for v in group if comp[mate[v]] != c]
        if len(missed) != 1:
            raise InternalConsistencyError(
                f"inessential component {sorted(group)} not near-perfectly matched"
            )
        if kind[mate[missed[0]]] not in (1, 3):
            raise InternalConsistencyError(
                f"vertex {missed[0]} matched outside separator"
            )

    return EGDecomposition(kind, components, tuple(mate))
