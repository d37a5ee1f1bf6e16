"""Maximum matching in general graphs: the one matching engine.

One engine, Edmonds' blossom-contracting alternating forest grown from
every exposed vertex, augments along every edge it finds between two of
its trees; the first forest that finds none proves the matching maximum,
and its outer vertices are the vertices some maximum matching misses.  A
blossom contraction costs its cycle paths plus the vertices it
relabels, not the size of the graph; forests on sparse graphs with many
blossoms (chains of triangles, cacti) take near-linear time, measured
but not proven, and a handful of forests suffice in practice.  Nothing
here is trusted: the outer vertices name a Tutte-Berge barrier, and
:func:`deltadisp.certify.check_barrier` checks that the matching meets
its bound.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

__all__ = ["maximum_matching"]


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
