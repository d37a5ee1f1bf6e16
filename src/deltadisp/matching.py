"""Maximum matching in general graphs and the structure of maximum matchings.

One engine, Edmonds' blossom-contracting alternating search (O(V^3)),
augments to a maximum matching; one final search from all its exposed
vertices then marks the vertices some maximum matching misses.  The
decomposition built on them exposes the guarantees every maximum matching
satisfies (odd factor-critical components, perfectly matched even
components, and the separator matched into distinct odd components).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Graph
from .errors import InternalConsistencyError

__all__ = [
    "Matching",
    "component_split",
    "EGDecomposition",
    "matching_and_inessential",
    "edmonds_gallai",
]


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, held as edge indices."""

    edges: frozenset[int]

    def __len__(self) -> int:
        return len(self.edges)

    def cover_map(self, g: Graph) -> dict[int, int]:
        """Vertex -> matched partner, for covered vertices only."""
        cover: dict[int, int] = {}
        for e in self.edges:
            u, v = g.edges[e]
            if u in cover or v in cover:
                raise ValueError("edges share a vertex; not a matching")
            cover[u] = v
            cover[v] = u
        return cover


def _search(
    adj: Sequence[Sequence[int]], match: Sequence[int], roots: Sequence[int]
) -> tuple[int, list[int], list[bool]]:
    """One alternating search grown from the exposed vertices `roots`.

    Returns ``(end, parent, outer)``: ``end`` is an exposed non-root vertex
    that closes an augmenting path (-1 if the search finds none),
    ``parent`` holds the tree links to flip along that path, and ``outer``
    marks the even-labelled vertices, contracted blossoms included.  An
    edge between the outer vertices of two different trees also closes an
    augmenting path; the search cannot follow it, so it raises instead
    (with a single root it cannot occur).
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    tree = [-1] * n
    for r in roots:
        outer[r] = True
        tree[r] = r
    queue = deque(roots)

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
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if outer[to]:
                if tree[to] != tree[v]:
                    raise InternalConsistencyError(
                        f"outer vertices {v} and {to} lie in different alternating trees"
                    )
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
                parent[to] = v
                if match[to] == -1:
                    return to, parent, outer
                tree[to] = tree[match[to]] = tree[v]
                outer[match[to]] = True
                queue.append(match[to])
    return -1, parent, outer


def _blossom(adj: Sequence[Sequence[int]]) -> list[int]:
    """Maximum cardinality matching; returns partner per vertex (-1 free)."""
    n = len(adj)
    match = [-1] * n
    # greedy seed halves the number of augmenting searches
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    for v in range(n):
        if match[v] == -1:
            exposed, parent, _ = _search(adj, match, [v])
            while exposed != -1:
                prev = parent[exposed]
                nxt = match[prev]
                match[exposed] = prev
                match[prev] = exposed
                exposed = nxt
    return match


def matching_and_inessential(
    adjacency: Sequence[Sequence[int]],
) -> tuple[list[int], frozenset[int]]:
    """A maximum matching (partner per vertex, -1 free) and the set D of
    vertices some maximum matching misses.

    D is the outer vertex set of one final search grown from every exposed
    vertex (Gallai-Edmonds structure theorem).  If that search can still
    augment, the matching was not maximum: InternalConsistencyError.
    """
    match = _blossom(adjacency)
    exposed = [v for v, partner in enumerate(match) if partner == -1]
    end, _, outer = _search(adjacency, match, exposed)
    if end != -1:
        raise InternalConsistencyError(
            f"augmenting path to {end} remains after the matching search"
        )
    return match, frozenset(v for v, is_outer in enumerate(outer) if is_outer)


def _pairs_to_matching(g: Graph, match: Sequence[int]) -> Matching:
    edges = set()
    for v, u in enumerate(match):
        if u > v:
            e = g.edge_index(v, u)
            if e is None:
                raise InternalConsistencyError(f"matched pair ({v}, {u}) is not an edge")
            edges.add(e)
    return Matching(frozenset(edges))


def component_split(adjacency: Sequence[Sequence[int]], inside: frozenset[int]) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by `inside`."""
    remaining = set(inside)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        queue = deque([start])
        while queue:
            w = queue.popleft()
            for x in adjacency[w]:
                if x in remaining and x not in comp:
                    comp.add(x)
                    queue.append(x)
        remaining -= comp
        comps.append(frozenset(comp))
    return comps


@dataclass(frozen=True)
class EGDecomposition:
    """Partition of the vertices by maximum-matching structure.

    ``inessential`` holds the vertices missed by some maximum matching; the
    ``separator`` is its outside neighbourhood; the ``remainder`` is
    everything else.  The inessential components are split into singletons
    and odd components of size >= 3, and ``partner`` maps each separator
    vertex to its matched inessential vertex in ``base_matching``.
    """

    inessential: frozenset[int]
    separator: frozenset[int]
    remainder: frozenset[int]
    singletons: frozenset[int]
    odd_components: tuple[frozenset[int], ...]
    partner: Mapping[int, int]
    base_matching: Matching


def edmonds_gallai(g: Graph) -> EGDecomposition:
    """Compute the decomposition and verify its structural guarantees.

    The inessential set and the maximum matching the rest of the structure
    is read off come from one call of the matching engine.  Any violated
    guarantee raises InternalConsistencyError rather than passing silently.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    match, inessential = matching_and_inessential(adjacency)
    base = _pairs_to_matching(g, match)
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

    cover = base.cover_map(g)
    partner: dict[int, int] = {}
    for y in sorted(separator):
        x = cover.get(y)
        if x is None or x not in inessential:
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
            if cover.get(v) not in comp:
                raise InternalConsistencyError(
                    f"remainder component {sorted(comp)} is not perfectly matched"
                )
    for comp in comps:
        missed = [v for v in comp if cover.get(v) not in comp]
        if len(missed) != 1:
            raise InternalConsistencyError(
                f"inessential component {sorted(comp)} not near-perfectly matched"
            )
        outside = cover.get(missed[0])
        if outside is not None and outside not in separator:
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
        base_matching=base,
    )

