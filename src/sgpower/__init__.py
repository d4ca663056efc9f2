"""Signed graph distances, powers, balance, and spectra."""

from .core import (
    BadExponentError,
    BadSignError,
    DisconnectedError,
    DuplicateEdgeError,
    LoopEdgeError,
    MissingWitnessError,
    NonUniquePowerError,
    NotAPathError,
    NotCompatibleError,
    SignedGraph,
    SignedGraphError,
    VertexOutOfRangeError,
    is_connected,
    is_two_connected,
    path_sign,
    switch,
    walk_sign,
)
from .distance import (
    PathSigns,
    Reach,
    build_tables,
    diameter,
    distance_matrices,
    first_incompatible_pair,
    is_compatible,
    is_compatible_pair,
    shortest_path_with_sign,
    sign_reachability,
)
from .power import (
    PowerResult,
    associated_complete,
    first_incompatible_pair_within,
    is_power_unique,
    power,
)
from .balance import BalanceReport, is_balanced, lift_path, project_path
from .spectra import (
    NoConvergenceError,
    NotSymmetricError,
    Spectrum,
    adjacency_matrix,
    balanced_spectrum_test,
    eigenvalues,
)
from .oracle import (
    CorpusSpec,
    GenerationExhaustedError,
    TooManyPathsError,
    enumerate_shortest_paths,
    generate,
    oracle_signs,
)
from .fileio import GraphSyntaxError, parse_corpus_spec, parse_graph, serialize_graph

__version__ = "0.1.0"
