"""Exact solvers for continuous point dispersion on unit-edge graphs."""

from .certify import (
    Certificate,
    Verdict,
    extract_certificate,
    format_certificate,
    parse_certificate,
    verify_certificate,
)
from .core import (
    Graph,
    WitnessSet,
    as_rational,
    format_graph,
    format_witness,
    parse_graph,
    parse_witness,
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
from .matching import (
    EGDecomposition,
    edmonds_gallai,
)
from .oracle import (
    DEFAULT_CANDIDATE_CAP,
    ConflictGraph,
    brute_disp,
    build_conflict_graph,
)

__version__ = "0.1.0"
