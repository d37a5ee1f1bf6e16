"""Seeded graph generators for the benchmark workloads.

Each generator draws its structure from the ``random.Random`` it is given
and returns graph text in the program's file format, so the program under
test receives only text.  Sizes are passed in by the caller: the workloads
walk fixed size schedules and let the seed choose only the structure, which
keeps the cost of a run close to the same from one seed to the next.
"""

from __future__ import annotations

import random


def _relabel(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> str:
    """Shuffle the ids of vertices 1..n-1, the edge order and each edge's
    orientation; format as text."""
    perm = list(range(1, n))
    rng.shuffle(perm)
    perm = [0, *perm]
    out = []
    for u, v in edges:
        u, v = perm[u], perm[v]
        out.append((v, u) if rng.random() < 0.5 else (u, v))
    rng.shuffle(out)
    return "\n".join([f"{n} {len(out)}", *(f"{u} {v}" for u, v in out)]) + "\n"


def _tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(v), v) for v in range(1, n)]


def tree(rng: random.Random, n: int) -> str:
    """A random recursive tree on n vertices."""
    return _relabel(rng, n, _tree_edges(rng, n))


def sparse(rng: random.Random, n: int, chords: int) -> str:
    """A random tree on n vertices plus `chords` distinct extra edges."""
    edges = _tree_edges(rng, n)
    seen = {(min(u, v), max(u, v)) for u, v in edges}
    while chords > 0:
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            edges.append(key)
            chords -= 1
    return _relabel(rng, n, edges)


def cactus(rng: random.Random, n: int) -> str:
    """A random tree of triangles, pentagons and pendant single vertices.

    Blocks hang off a uniformly chosen earlier vertex until the graph has
    at least n vertices.  Odd cycles give the Gallai-Edmonds decomposition
    odd components and singletons together with a non-empty separator.
    """
    count = 1
    edges: list[tuple[int, int]] = []
    while count < n:
        root = rng.randrange(count)
        cycle = rng.choice((0, 3, 5))
        if cycle:
            ring = [root, *range(count, count + cycle - 1)]
            edges.extend(zip(ring, ring[1:] + ring[:1]))
            count += cycle - 1
        else:
            edges.append((root, count))
            count += 1
    return _relabel(rng, count, edges)
