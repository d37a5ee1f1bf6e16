"""Witnesses held as arithmetic runs, against the pair form they replaced.

``WitnessSet`` keeps each edge's points as runs ``(edge, first, step,
count)``; ``helpers.PairWitness`` is the ``(edge, k)`` form with its
constructor and point-by-point dispersion check, and ``expand_runs`` maps
one to the other.  The sweep checks the constructor's canonical form and
the check's verdict against them; the mutations check what the
constructor and the check must refuse; the routes' witnesses stay one run
per edge at any denominator.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from helpers import (
    PairWitness,
    expand_runs,
    random_cactus,
    random_connected_graph,
    random_tree,
    reference_build,
    reference_format_witness,
    reference_runs,
    witness_points,
)

from deltadisp import (
    Graph,
    InternalConsistencyError,
    WitnessSet,
    disp,
    format_witness,
    parse_witness,
)
from deltadisp.cli import run

K2 = Graph(2, ((0, 1),))
P3 = Graph(3, ((0, 1), (1, 2)))


def _random_runs(rng, edges: int, scale: int) -> list[tuple[int, int, int, int]]:
    """Several runs per edge, none overlapping or interleaving, some edges
    empty; a run of one point gets a random step."""
    runs = []
    for e in range(edges):
        if rng.random() < 0.35:
            continue
        x = rng.randint(1, 3)  # the lowest offset still free on e
        while x < scale and rng.random() < 0.8:
            step = rng.randint(1, 4)
            count = rng.randint(1, (scale - 1 - x) // step + 1)
            runs.append((e, x, step, count))
            x += (count - 1) * step + rng.randint(1, 3)
    return runs


def _resplit(rng, runs) -> list[tuple[int, int, int, int]]:
    """The points of `runs` cut into other runs: pieces of one or two
    points, or the rest of a run, in shuffled order."""
    pieces = []
    for e, first, step, count in runs:
        i = 0
        while i < count:
            take = rng.choice((1, 2, count - i))
            take = min(take, count - i)
            pieces.append((e, first + i * step, step if take > 1 else rng.randint(1, 5), take))
            i += take
    rng.shuffle(pieces)
    return pieces


def test_runs_agree_with_the_pair_reference():
    # up to 7 vertices, scale <= 9, delta = p/q with p <= 12: the canonical
    # runs, the reduced scale, len and the verdict all match the pair form
    rng = random.Random(31)
    verdicts = {True: 0, False: 0}
    for case in range(20_000):
        n = rng.randint(1, 7)
        g = random_connected_graph(rng, n, rng.randint(0, 4))
        scale = rng.randint(1, 9)
        vertices = [v for v in range(n) if rng.random() < 0.3]
        runs = _random_runs(rng, g.edge_count, scale)
        delta = Fraction(rng.randint(1, 12), rng.randint(1, 9))
        ws = WitnessSet._from_runs(g, scale, vertices, _resplit(rng, runs), delta)
        ref = PairWitness.from_form(g, scale, vertices, expand_runs(runs), delta)
        assert (ws.scale, ws.vertices, expand_runs(ws.runs)) == (
            ref.scale, ref.vertices, list(ref.interior)
        ), case
        assert list(ws.runs) == reference_runs(ref.interior), case
        assert len(ws) == len(ref)
        verdict = ws.is_dispersed()
        assert verdict == ref.is_dispersed(), case
        verdicts[verdict] += 1
        if case % 20 == 0:
            points = reference_build(g, witness_points(ws))
            assert format_witness(g, ws) == reference_format_witness(g, points), case
    assert min(verdicts.values()) > 5000, verdicts


def test_equal_sets_in_different_splits_compare_equal():
    rng = random.Random(32)
    g = random_connected_graph(rng, 6, 3)
    for _ in range(500):
        runs = _random_runs(rng, g.edge_count, 12)
        one = WitnessSet._from_runs(g, 12, [0, 3], runs, Fraction(1, 7))
        other = WitnessSet._from_runs(g, 12, [3, 0], _resplit(rng, runs), Fraction(1, 7))
        single = [(e, k, 1, 1) for e, k in expand_runs(runs)]
        rng.shuffle(single)
        assert one == other == WitnessSet._from_runs(g, 12, [0, 3], single, Fraction(1, 7))
    # 1/4 and 3/4 on K2, as one run at scale 8 or as two points at scale
    # 4, is the run (0, 1, 2, 2) at scale 4; a lone point's step is 1
    assert WitnessSet._from_runs(K2, 8, [], [(0, 2, 4, 2)], 1) == WitnessSet._from_runs(
        K2, 4, [], [(0, 1, 1, 1), (0, 3, 1, 1)], 1
    )
    assert WitnessSet._from_runs(K2, 8, [], [(0, 4, 9, 1)], 1).runs == ((0, 1, 1, 1),)


@pytest.mark.parametrize(
    "vertices, runs, message",
    [
        ([], [(0, 1, 2, 3), (0, 3, 1, 1)], "overlap or interleave"),  # 1 3 5 and 3
        ([], [(0, 1, 2, 3), (0, 2, 2, 2)], "overlap or interleave"),  # 1 3 5 and 2 4
        ([], [(0, 1, 1, 1), (0, 1, 1, 1)], "overlap or interleave"),
        ([], [(0, 2, 3, 3)], "outside its edge"),  # the last point, 8/8, at the end
        ([], [(0, 0, 1, 1)], "outside its edge"),
        ([], [(0, 1, 1, 0)], "holds no point"),
        ([], [(0, 1, 0, 2)], "holds no point"),
        ([], [(2, 1, 1, 1)], "edge outside the graph"),
        ([], [(-1, 1, 1, 1)], "edge outside the graph"),
        ([0, 3], [], "vertex outside the graph"),
        ([-1], [], "vertex outside the graph"),
    ],
    ids=["overlap", "interleave", "repeat", "last-at-end", "first-at-start", "count-0",
         "step-0", "edge-past", "edge-negative", "vertex-past", "vertex-negative"],
)
def test_malformed_runs_are_refused(vertices, runs, message):
    with pytest.raises(ValueError, match=message):
        WitnessSet._from_runs(P3, 8, vertices, runs, Fraction(1, 8))
    with pytest.raises(InternalConsistencyError, match=message):
        WitnessSet.verified(P3, 8, vertices, runs, Fraction(1, 8), 3)


def test_a_shortened_step_fails_the_check():
    # runs spaced exactly delta pass; a step short of it, facing ends of
    # two runs, or two points through a vertex, one unit too near, fail
    quarter, three = Fraction(1, 4), Fraction(3, 8)
    assert WitnessSet.verified(P3, 8, [0, 1, 2], [(0, 2, 2, 3), (1, 2, 2, 3)], quarter, 9)
    assert WitnessSet.verified(P3, 8, [], [(0, 1, 3, 3), (1, 2, 3, 2)], three, 5)
    for delta, vertices, runs in (
        (quarter, [], [(0, 1, 1, 3)]),  # step 1/8
        (quarter, [], [(0, 1, 2, 3), (0, 6, 1, 1)]),  # 5/8 and 6/8
        (quarter, [0], [(0, 1, 2, 3)]),  # 1/8 from vertex 0
        (quarter, [1], [(0, 3, 2, 3)]),  # the last point, 7/8, 1/8 from vertex 1
        (quarter, [1], [(1, 1, 2, 2)]),
        (three, [], [(0, 1, 3, 3), (1, 1, 3, 3)]),  # 7/8 on edge 0 and 1/8 on edge 1
    ):
        ws = WitnessSet._from_runs(P3, 8, vertices, runs, delta)
        assert not ws.is_dispersed() and not PairWitness.of(ws).is_dispersed()
        with pytest.raises(InternalConsistencyError, match="fails verification"):
            WitnessSet.verified(P3, 8, vertices, runs, delta, len(ws))


def test_routes_emit_one_run_per_edge():
    rng = random.Random(33)
    graphs = [random_tree(rng, 15), random_connected_graph(rng, 12, 5), random_cactus(rng, 14)]
    for g in graphs:
        for delta in (Fraction(1, 2), Fraction(1, 5), Fraction(2, 3), Fraction(2, 7)):
            value, ws = disp(g, delta)
            assert len({run[0] for run in ws.runs}) == len(ws.runs) <= g.edge_count
            if delta.numerator == 1:
                assert len(ws.runs) == g.edge_count
                assert value == delta.denominator * g.edge_count + g.is_tree
        if g.is_tree:
            for delta in (Fraction(3, 10), Fraction(5, 2), Fraction(7, 20)):
                ws = disp(g, delta)[1]
                assert len({run[0] for run in ws.runs}) == len(ws.runs) <= g.edge_count


def test_cactus_at_one_millionth():
    # 10^4 vertices, ten billion points: answered and checked as runs
    g = random_cactus(random.Random(34), 10_000)
    g.adjacency
    b = 10**6
    tracemalloc.start()
    try:
        value, ws = disp(g, Fraction(1, b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == len(ws) == b * g.edge_count
    assert ws.runs == tuple((e, 1, 2, b) for e in range(g.edge_count))
    assert ws.is_dispersed() and not WitnessSet(
        g, ws.scale, ws.vertices, ((0, 1, 1, b),) + ws.runs[1:], ws.delta
    ).is_dispersed()
    assert peak < 16 << 20


@pytest.mark.parametrize("delta", ["1/6", "2/5"])
def test_cli_witness_round_trips(tmp_path, delta):
    rng = random.Random(35)
    for i, g in enumerate([random_tree(rng, 9), random_cactus(rng, 11)]):
        path, out = tmp_path / f"g{i}.graph", tmp_path / f"g{i}.witness"
        path.write_text(f"{g.vertex_count} {g.edge_count}\n" + "".join(
            f"{u} {v}\n" for u, v in g.edges
        ))
        assert run(["solve", str(path), "--delta", delta, "--witness", str(out)]) == 0
        value, ws = disp(g, Fraction(delta))
        text = out.read_text()
        assert text == format_witness(g, ws) and text.count("\n") == value
        assert parse_witness(g, text, Fraction(delta)) == ws
