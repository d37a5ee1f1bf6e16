"""Per-layer tracing from outside the program.

While installed, a :class:`Tracer` replaces each traced public function at
the module attribute its caller looks it up by (``deltadisp.solve2`` calls
``edmonds_gallai`` through its own namespace, so that is the attribute
wrapped), and the ``Graph.hop_table`` getter.  Every call records a span
(name, start, end, parent span, operation id) in memory; counters taken
from arguments and results are recorded after the span closes.  Targets
that a version of the program no longer has are skipped and report zero.

Per-layer metrics are averages per traced operation, with each
operation's times scaled by its host-speed factor as in ``run.py``.
``ms`` is time inside the function including its traced callees,
``self_ms`` excludes them; ``core.is_dispersed.ms`` excludes the hop table
it may build.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from time import perf_counter

import deltadisp
from deltadisp import core

# (span name, metric suffix, time it as self time?, module attributes wrapped)
FUNCTIONS = (
    ("cli.run", "self_ms", True, ("cli.run",)),
    ("core.parse_graph", "ms", False, ("cli.parse_graph", "core.parse_graph")),
    ("core.hop_table", "ms", False, ()),  # the Graph.hop_table getter
    ("core.is_dispersed", "ms", True,
     ("dispatch.is_dispersed", "solve2.is_dispersed", "gadget.is_dispersed")),
    ("core.format_witness", "ms", False, ("cli.format_witness",)),
    ("dispatch.disp", "self_ms", True, ("cli.disp", "dispatch.disp")),
    ("matching.edmonds_gallai", "self_ms", True, ("solve2.edmonds_gallai",)),
    ("matching.maximum_matching", "ms", False, ("matching.maximum_matching",)),
    ("matching.near_perfect_matching", "ms", False, ("solve2.near_perfect_matching",)),
    ("solve2.disp2", "self_ms", True, ("dispatch.disp2",)),
    ("solve2.min_surplus", "ms", False, ("solve2.min_surplus",)),
    ("oracle.build_conflict_graph", "ms", False, ("oracle.build_conflict_graph",)),
    ("oracle.brute_disp", "self_ms", True, ("dispatch.brute_disp",)),
    ("certify.parse_certificate", "ms", False, ("cli.parse_certificate",)),
    ("certify.verify_certificate", "self_ms", True, ("cli.verify_certificate",)),
    ("certify.fourier_motzkin_feasible", "ms", False, ("certify.fourier_motzkin_feasible",)),
    ("gadget.build_gadget", "ms", False, ("gadget.build_gadget",)),
    ("gadget.witness_from_independent_set", "self_ms", True,
     ("gadget.witness_from_independent_set",)),
)

COUNTERS = (
    "core.is_dispersed.pairs",
    "matching.vertices",
    "solve2.singletons",
    "oracle.candidates",
    "oracle.conflict_pairs",
    "certify.fm_rows",
    "certify.fm_vars",
)


def _pairs(args, result):
    k = len(args[1])
    return {"core.is_dispersed.pairs": k * (k - 1) // 2}


def _eg(args, result):
    return {"matching.vertices": args[0].vertex_count,
            "solve2.singletons": len(getattr(result, "singletons", ()))}


def _conflicts(args, result):
    return {"oracle.candidates": len(result.candidates),
            "oracle.conflict_pairs": sum(m.bit_count() for m in result.conflicts) // 2}


def _fm(args, result):
    return {"certify.fm_vars": args[0], "certify.fm_rows": len(args[1])}


def _verdict(args, result):
    return {"certify.accepted": int(bool(getattr(result, "accepted", False)))}


_COUNT = {
    "core.is_dispersed": _pairs,
    "matching.edmonds_gallai": _eg,
    "oracle.build_conflict_graph": _conflicts,
    "certify.fourier_motzkin_feasible": _fm,
    "certify.verify_certificate": _verdict,
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for span, suffix, _, _ in FUNCTIONS:
        names += [f"{span}.{suffix}", f"{span}.calls_per_op"]
    return names + list(COUNTERS) + ["certify.accept_share", "trace.overhead_pct"]


class Tracer:
    """Spans and counters for the operations run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.ops = 0
        #: per operation, the host-speed factor its times are scaled by
        self.factors: list[float] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        count = _COUNT.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.ops))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.ops)
            if count is not None:
                try:
                    self.counts.update(count(args, result))
                except (AttributeError, IndexError, TypeError):
                    pass  # a later version takes or returns something else: count nothing
            return result

        return traced

    @contextmanager
    def operation(self):
        """Trace one operation: wrap every target, restore them afterwards."""
        self.ops += 1
        restore = []
        for span, _, _, targets in FUNCTIONS:
            for target in targets:
                module_name, attr = target.split(".")
                module = getattr(deltadisp, module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    restore.append((module, attr, original))
                    setattr(module, attr, self._wrap(span, original))
        getter = core.Graph.__dict__.get("hop_table")
        if isinstance(getter, cached_property):
            traced = cached_property(self._wrap("core.hop_table", getter.func))
            traced.__set_name__(core.Graph, "hop_table")
            restore.append((core.Graph, "hop_table", getter))
            setattr(core.Graph, "hop_table", traced)
        try:
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-operation averages of the recorded spans and counters."""
        def seconds(span) -> float:
            _, start, end, _, op = span
            return (end - start) * (self.factors[op - 1] if op <= len(self.factors) else 1.0)

        child_s: Counter[int] = Counter()
        for span in self.spans:
            if span[3] >= 0:
                child_s[span[3]] += seconds(span)
        total_s: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for index, span in enumerate(self.spans):
            name = span[0]
            total_s[name] += seconds(span)
            self_s[name] += seconds(span) - child_s[index]
            calls[name] += 1
        ops = max(self.ops, 1)
        out = {}
        for span, suffix, use_self, _ in FUNCTIONS:
            seconds = self_s[span] if use_self else total_s[span]
            out[f"{span}.{suffix}"] = 1000 * seconds / ops
            out[f"{span}.calls_per_op"] = calls[span] / ops
        for name in COUNTERS:
            out[name] = self.counts[name] / ops
        verified = calls["certify.verify_certificate"]
        out["certify.accept_share"] = self.counts["certify.accepted"] / verified if verified else 0.0
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent index, operation id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
