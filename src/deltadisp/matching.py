"""Maximum matching in general graphs and the structure of maximum matchings.

One engine, Edmonds' blossom-contracting alternating forest grown from
every exposed vertex (O(V^3)), augments along every edge it finds between
two of its trees; the first forest that finds none proves the matching
maximum, and its outer vertices are the vertices some maximum matching
misses.  The decomposition built on them exposes the guarantees every
maximum matching satisfies (odd factor-critical components, perfectly
matched even components, and the separator matched into distinct odd
components).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Graph
from .errors import InternalConsistencyError

__all__ = [
    "component_split",
    "EGDecomposition",
    "matching_and_inessential",
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
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    tree = [-1] * n
    closed = [False] * n
    roots = [v for v in range(n) if match[v] == -1]
    for r in roots:
        outer[r] = True
        tree[r] = r
    queue = deque(roots)
    bridges: list[tuple[int, int]] = []

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        u = a
        while True:
            u = base[u]
            seen[u] = True
            if match[u] == -1:
                break
            u = parent[match[u]]
        v = b
        while True:
            v = base[v]
            if seen[v]:
                return v
            v = parent[match[v]]

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[child]

    while queue:
        v = queue.popleft()
        if closed[tree[v]]:
            continue
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if outer[to]:
                if tree[to] != tree[v]:
                    if not closed[tree[to]]:
                        bridges.append((v, to))
                        closed[tree[v]] = closed[tree[to]] = True
                        break
                    continue
                # odd cycle: contract the blossom down to its base
                stem = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_path(v, stem, to, in_blossom)
                mark_path(to, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                # every exposed vertex is a root, so `to` is matched
                parent[to] = v
                tree[to] = tree[match[to]] = tree[v]
                outer[match[to]] = True
                queue.append(match[to])
    return bridges, parent, outer


def matching_and_inessential(
    adjacency: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], frozenset[int]]:
    """A maximum matching (partner per vertex, -1 free) and the set D of
    vertices some maximum matching misses.

    Each phase grows one alternating forest from every exposed vertex and
    augments along every bridge it records.  The first phase that records
    none proves the matching maximum, and its outer vertices are D
    (Gallai-Edmonds structure theorem).
    """
    n = len(adjacency)
    match = [-1] * n
    # greedy seed: most vertices start matched
    for v in range(n):
        if match[v] == -1:
            for u in adjacency[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    while True:
        bridges, parent, outer = _search(adjacency, match)
        if not bridges:
            return tuple(match), frozenset(v for v, is_outer in enumerate(outer) if is_outer)
        for a, b in bridges:
            ends = (match[a], match[b])
            match[a], match[b] = b, a
            for v in ends:
                while v != -1:
                    prev = parent[v]
                    nxt = match[prev]
                    match[v], match[prev] = prev, v
                    v = nxt


def component_split(adjacency: Sequence[Sequence[int]], inside: frozenset[int]) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by `inside`."""
    seen: set[int] = set()
    comps = []
    for start in sorted(inside):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque(comp)
        while queue:
            w = queue.popleft()
            for x in adjacency[w]:
                if x in inside and x not in seen:
                    seen.add(x)
                    comp.append(x)
                    queue.append(x)
        comps.append(frozenset(comp))
    return comps


@dataclass(frozen=True)
class EGDecomposition:
    """Partition of the vertices by maximum-matching structure.

    ``inessential`` holds the vertices missed by some maximum matching; the
    ``separator`` is its outside neighbourhood; the ``remainder`` is
    everything else.  The inessential components are split into singletons
    and odd components of size >= 3, and ``partner`` maps each separator
    vertex to its matched inessential vertex in ``mate``, the maximum
    matching the structure is read off: partner per vertex, -1 if exposed.
    """

    inessential: frozenset[int]
    separator: frozenset[int]
    remainder: frozenset[int]
    singletons: frozenset[int]
    odd_components: tuple[frozenset[int], ...]
    partner: Mapping[int, int]
    mate: tuple[int, ...]


def edmonds_gallai(g: Graph) -> EGDecomposition:
    """Compute the decomposition and verify its structural guarantees.

    The inessential set and the maximum matching the rest of the structure
    is read off come from one call of the matching engine.  Any violated
    guarantee raises InternalConsistencyError rather than passing silently.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    mate, inessential = matching_and_inessential(adjacency)
    separator = frozenset(
        u for v in inessential for u in adjacency[v]
    ) - inessential
    remainder = frozenset(range(n)) - inessential - separator

    comps = component_split(adjacency, inessential)
    for comp in comps:
        if len(comp) % 2 == 0:
            raise InternalConsistencyError(
                f"even-sized inessential component {sorted(comp)}"
            )
    singletons = frozenset(next(iter(c)) for c in comps if len(c) == 1)
    odd_components = tuple(
        sorted((c for c in comps if len(c) >= 3), key=min)
    )

    partner: dict[int, int] = {}
    for y in sorted(separator):
        x = mate[y]
        if x not in inessential:
            raise InternalConsistencyError(
                f"separator vertex {y} is not matched into the inessential set"
            )
        partner[y] = x
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    hit_components = [comp_of[x] for x in partner.values()]
    if len(set(hit_components)) != len(hit_components):
        raise InternalConsistencyError(
            "separator vertices matched into a shared inessential component"
        )

    for comp in component_split(adjacency, remainder):
        if len(comp) % 2:
            raise InternalConsistencyError(f"odd remainder component {sorted(comp)}")
        for v in comp:
            if mate[v] not in comp:
                raise InternalConsistencyError(
                    f"remainder component {sorted(comp)} is not perfectly matched"
                )
    for comp in comps:
        missed = [v for v in comp if mate[v] not in comp]
        if len(missed) != 1:
            raise InternalConsistencyError(
                f"inessential component {sorted(comp)} not near-perfectly matched"
            )
        outside = mate[missed[0]]
        if outside != -1 and outside not in separator:
            raise InternalConsistencyError(
                f"vertex {missed[0]} matched outside separator"
            )

    return EGDecomposition(
        inessential=inessential,
        separator=separator,
        remainder=remainder,
        singletons=singletons,
        odd_components=odd_components,
        partner=partner,
        mate=mate,
    )

