"""Exact solvers for continuous point dispersion on unit-edge graphs."""

from .certify import (
    Certificate,
    Verdict,
    WitnessSet,
    extract_certificate,
    format_certificate,
    format_witness,
    parse_certificate,
    parse_witness,
    verify_certificate,
)
from .core import (
    Graph,
    as_rational,
    format_graph,
    parse_graph,
    subdivide,
)
from .dispatch import disp
from .errors import (
    DisconnectedGraphError,
    DispersionError,
    DuplicateEdgeError,
    GraphFormatError,
    InternalConsistencyError,
    MalformedLineError,
    NPHardRegimeError,
    OracleTimeoutError,
    SelfLoopError,
    SizeGuardExceededError,
    VertexRangeError,
)
from .gadget import (
    BezoutCoefficients,
    GadgetInstance,
    bezout_coeffs,
    build_gadget,
    format_gadget_map,
    predicted_bound,
    witness_from_independent_set,
)
from .oracle import (
    DEFAULT_CANDIDATE_CAP,
    ConflictGraph,
    brute_disp,
    build_conflict_graph,
)

__version__ = "0.1.0"
