"""The four benchmark workloads: seeded set-up, timed operations, checks.

Each workload function takes the seeded ``random.Random`` and a working
directory, writes whatever files its operations read, and returns the
operations.  An operation is one call into the program (``call``, the
only part that is timed) plus a check of its outcome (``check``, run after
the clock stops).  The program sees only graph, spacing and certificate
text; every operation parses its graph afresh, because ``Graph`` caches its
adjacency and hop table and re-solving one ``Graph`` object would measure
that cache.

A workload builds one pass: a fixed multiset of size/spacing/family
combinations, in an order that spreads cheap and costly operations evenly
(see ``_spread``).  Every seed does the same mix of work, and the seed
chooses each graph's structure.  Sizes keep one operation well under a
second at the first version of the solvers, so that a run completes
several passes.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

from deltadisp import certify, cli, core, dispatch, gadget

import instances

#: A hang in the exponential oracle fails the operation instead of the run.
ORACLE_TIMEOUT_S = 10.0

_K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # a failure message, or None


def _cli(argv: list[str]) -> tuple[int, str]:
    """``deltadisp.cli.run`` with its printed output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _spread(combos, cost: Callable) -> list:
    """`combos` in an order whose every prefix has close to the whole list's
    mix of costs: sorted by the estimated `cost`, then taken with a stride
    near 0.618 of the length, prime to it."""
    ordered = sorted(combos, key=cost)
    size = len(ordered)
    stride = next(s for s in range(round(0.618 * size), size + 1) if math.gcd(s, size) == 1)
    return [ordered[i * stride % size] for i in range(size)]


def _edge_count(text: str) -> int:
    return int(text.split(None, 2)[1])


# ---------------------------------------------------------------------------
# closed-form: delta = 1/b through the CLI
# ---------------------------------------------------------------------------


def closed_form_ops(rng: random.Random, workdir: Path) -> list[Op]:
    """``deltadisp solve --delta 1/b --witness out`` on trees and sparse graphs."""
    combos = list(product(range(12, 29), (False, True), (2, 3, 4, 6)))
    ops = []
    for i, (n, chords, b) in enumerate(_spread(combos, _witness_size)):
        text = instances.sparse(rng, n, n // 3) if chords else instances.tree(rng, n)
        graph = workdir / f"cf{i}.graph"
        graph.write_text(text)
        witness = workdir / f"cf{i}.witness"
        expected = b * _edge_count(text) + (not chords)
        argv = ["solve", str(graph), "--delta", f"1/{b}", "--witness", str(witness)]
        ops.append(
            Op(
                f"1/{b} {'sparse' if chords else 'tree'} n={n}",
                lambda argv=argv: _cli(argv),
                lambda outcome, witness=witness, expected=expected: _check_solve(
                    outcome, witness, expected
                ),
            )
        )
    return ops


def _witness_size(combo) -> int:
    """b*m; an operation's cost grows with its square."""
    n, chords, b = combo
    return b * (n - 1 + chords * (n // 3))


def _check_solve(outcome: tuple[int, str], witness: Path, expected: int) -> str | None:
    code, printed = outcome
    if code != 0 or printed.strip() != str(expected):
        return f"exit {code}, printed {printed.strip()!r}, expected {expected}"
    lines = len(witness.read_text().splitlines())
    witness.unlink()  # a later run of this operation must write it again
    if lines != expected:
        return f"witness has {lines} lines, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# numerator-two: delta in {2, 2/3, 2/5} through disp()
# ---------------------------------------------------------------------------

_NUMERATOR_TWO = (Fraction(2), Fraction(2, 3), Fraction(2, 5))


def numerator_two_ops(rng: random.Random, workdir: Path) -> list[Op]:
    """``disp(parse_graph(text), delta)`` on trees, sparse graphs and cacti.

    Each graph is solved at delta = 2 first and then at 2/3 and 2/5, whose
    checks use the identity disp(2/(2z+1)) = disp(2) + z*m on that graph.
    """
    combos = list(product(range(24, 57, 4), ("tree", "sparse", "cactus")))
    ops = []
    for n, family in _spread(combos, lambda c: c[0]):
        if family == "tree":
            text = instances.tree(rng, n)
        elif family == "sparse":
            text = instances.sparse(rng, n, n // 3)
        else:
            text = instances.cactus(rng, n)
        base: dict[str, int] = {}
        for delta in _NUMERATOR_TWO:
            ops.append(
                Op(
                    f"{delta} {family} n={n}",
                    lambda text=text, delta=delta: dispatch.disp(core.parse_graph(text), delta),
                    lambda outcome, text=text, delta=delta, base=base: _check_two(
                        outcome, text, delta, base
                    ),
                )
            )
    return ops


def _check_two(outcome, text: str, delta: Fraction, base: dict[str, int]) -> str | None:
    value, witness = outcome
    if len(witness) != value:
        return f"value {value} but witness of size {len(witness)}"
    if delta == 2:
        base["value"] = value
        return None
    if "value" not in base:
        return "no delta=2 value to compare with"
    z = (delta.denominator - 1) // 2
    expected = base["value"] + z * _edge_count(text)
    if value != expected:
        return f"disp({delta}) = {value}, expected disp(2) + {z}m = {expected}"
    return None


# ---------------------------------------------------------------------------
# oracle: numerators >= 3 through the opt-in brute force, plus the K4 gadget
# ---------------------------------------------------------------------------


def oracle_ops(rng: random.Random, workdir: Path) -> list[Op]:
    """Brute-force ``disp`` on small trees and sparse graphs, and the K4 gadget."""
    tree_sizes = {Fraction(3): range(20, 41, 2), Fraction(5, 2): range(20, 37, 2),
                  Fraction(4, 3): range(14, 21)}
    combos: list = [("tree", d, n) for d, sizes in tree_sizes.items() for n in sizes]
    combos += product(("sparse",), (Fraction(3, 2), Fraction(5, 3), Fraction(4, 3)),
                      range(8, 15))
    # one operation in eight, so the 90th percentile falls among the gadgets
    combos += [("k4", Fraction(3), 4)] * 7
    ops = []
    # six graphs per combination: the search's cost depends on structure
    for family, delta, n in _spread(combos * 6, _grid_size):
        if family == "k4":
            ops.append(Op("k4 gadget 3", _gadget_pipeline, _check_gadget))
            continue
        text = instances.tree(rng, n) if family == "tree" else instances.sparse(rng, n, n // 3)
        ops.append(
            Op(
                f"{delta} {family} n={n}",
                lambda text=text, delta=delta: dispatch.disp(
                    core.parse_graph(text), delta, allow_bruteforce=True,
                    timeout=ORACLE_TIMEOUT_S,
                ),
                _check_size,
            )
        )
    return ops


def _grid_size(combo) -> int:
    """Candidates on the oracle's grid: vertices plus 2b-1 points per edge."""
    family, delta, n = combo
    if family == "k4":
        return 136  # the gadget graph has 64 vertices and 72 edges
    m = n - 1 if family == "tree" else n - 1 + n // 3
    return n + m * (2 * delta.denominator - 1)


def _check_size(outcome) -> str | None:
    value, witness = outcome
    if len(witness) != value:
        return f"value {value} but witness of size {len(witness)}"
    return None


def _gadget_pipeline():
    inst = gadget.build_gadget(core.parse_graph(_K4), Fraction(3))
    constructed = gadget.witness_from_independent_set(inst, {0})
    value, witness = dispatch.disp(
        inst.g, inst.delta, allow_bruteforce=True, timeout=ORACLE_TIMEOUT_S
    )
    return inst, constructed, value, witness


def _check_gadget(outcome) -> str | None:
    inst, constructed, value, witness = outcome
    bound = gadget.predicted_bound(inst, 1)  # K4's independence number is 1
    if not value == len(witness) == len(constructed) == bound:
        return (f"oracle {value} (witness {len(witness)}), constructed "
                f"{len(constructed)}, predicted {bound}")
    return None


# ---------------------------------------------------------------------------
# certify: `deltadisp verify` on certificates derived during set-up
# ---------------------------------------------------------------------------


def certify_ops(rng: random.Random, workdir: Path) -> list[Op]:
    """``deltadisp verify`` on one accepting and one rejecting certificate per graph.

    The accepting certificate comes from an optimal witness.  The rejecting
    one claims k = opt + 1 by adding one interior point, on an occupied edge
    with room for it when there is one and otherwise on an empty edge, so
    the linear system decides it; when every edge is full it is the
    optimal certificate with k = opt + 1, a cardinality shortfall.
    """
    # Two thirds of the graphs get a spacing whose certificates occupy many
    # edges, and half of those have m = 6, so the median falls in the middle
    # of one size of linear system rather than between two.
    deltas = (Fraction(2, 3), Fraction(2, 3), Fraction(2, 5), Fraction(2, 5),
              Fraction(2), Fraction(3, 2))
    sizes = ((5, 2), (6, 1), (6, 2), (7, 2))  # (n, chords): m = 6, 6, 7, 8
    combos = [(n, chords, delta) for (n, chords), delta in product(sizes, deltas)]
    ops = []
    # five graphs per combination: the linear systems' cost depends on structure
    for gid, (n, chords, delta) in enumerate(_spread(combos * 5, _system_size)):
        graph = instances.sparse(rng, n, chords)
        graph_path = workdir / f"ct{gid}.graph"
        graph_path.write_text(graph)
        g = core.parse_graph(graph)
        opt, witness = dispatch.disp(g, delta, allow_bruteforce=True)
        cert = certify.extract_certificate(g, witness)
        claims = (("accept", opt, cert), ("reject", opt + 1, _one_more(g, delta, cert)))
        for verdict, k, claimed in claims:
            path = workdir / f"ct{gid}.{verdict}"
            path.write_text(certify.format_certificate(k, claimed))
            argv = ["verify", str(graph_path), "--delta", str(delta), "--certificate", str(path)]
            want = 0 if verdict == "accept" else 1
            ops.append(
                Op(
                    f"{verdict} {delta} n={n} m={n - 1 + chords}",
                    lambda argv=argv: _cli(argv),
                    lambda outcome, want=want: (
                        None if outcome[0] == want
                        else f"exit {outcome[0]} ({outcome[1].strip()!r}), expected {want}"
                    ),
                )
            )
    return ops


def _system_size(combo) -> tuple[bool, int]:
    """The linear systems at 2/3 and 2/5 dominate, and grow with the edge count."""
    n, chords, delta = combo
    return delta in (Fraction(2, 3), Fraction(2, 5)), n - 1 + chords


def _one_more(g, delta: Fraction, cert):
    room = int(1 / delta) + 1  # verify rejects more than this on one edge without solving
    counts = dict(cert.interior_counts)
    targets = [e for e in sorted(counts) if counts[e] < room]
    targets = targets or [e for e in range(g.edge_count) if e not in counts]
    if not targets:
        return cert
    counts[targets[0]] = counts.get(targets[0], 0) + 1
    return certify.Certificate(cert.vertices, counts)


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Op]]] = {
    "closed-form": closed_form_ops,
    "numerator-two": numerator_two_ops,
    "oracle": oracle_ops,
    "certify": certify_ops,
}
