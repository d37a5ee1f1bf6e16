"""Exception types shared across the solver suite."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .certify import WitnessSet


class DispersionError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(DispersionError, ValueError):
    """A text input (graph, witness, certificate) violates its file format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class MalformedLineError(GraphFormatError):
    """A line does not have the shape the format requires."""


class VertexRangeError(GraphFormatError):
    """An edge refers to a vertex id outside [0, vertex_count)."""


class SelfLoopError(GraphFormatError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphFormatError):
    """The same vertex pair appears twice in the edge list."""


class DisconnectedGraphError(GraphFormatError):
    """The edge list does not connect all vertices."""


class NPHardRegimeError(DispersionError):
    """Exact solve requested for a spacing with numerator >= 3 on a graph
    that is not a tree.

    That regime has no known polynomial algorithm (the problem is NP-hard
    there); callers must opt into the exponential search explicitly.
    Trees never raise it: they take the linear tree route at every spacing.
    """


class SizeGuardExceededError(DispersionError):
    """An instance is larger than its guard allows: the brute-force
    candidate set over the configured cap, or a size over the one fixed
    limit, ``core.GRID_LIMIT`` points, that the routes of numerators 1
    and 2 (the 1/(2b) grid of spacing a/b), the tree route (the most
    points its answer may hold), ``subdivide`` and ``build_gadget`` share.
    Raised before anything of that size is allocated."""


class OracleTimeoutError(DispersionError):
    """The brute-force search exceeded its time budget.

    ``best`` and ``witness`` are the largest dispersed set found before the
    budget ran out, a verified lower bound on the dispersion number, when
    the raiser has one (``brute_disp`` always does); otherwise None.
    """

    def __init__(
        self, message: str, best: int | None = None, witness: WitnessSet | None = None
    ):
        super().__init__(message)
        self.best = best
        self.witness = witness


class InternalConsistencyError(DispersionError):
    """A structural guarantee the algorithms rely on failed; indicates a bug."""
