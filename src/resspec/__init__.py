"""Exact resistance distances and resistance spectra of small graphs.

The package computes effective resistances over exact rationals, reduces
weighted electrical networks step by step, checks the classical resistance
lemmas as executable properties, enumerates connected graphs up to
isomorphism, and tests which complete bipartite graphs are pinned down by
their resistance spectrum at desk scale.
"""

from .graphs import (
    EdgeExistsError,
    Graph,
    Graph6Error,
    GraphError,
    add_edge,
    blocks_and_cut_vertices,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    delete_edge,
    delete_vertices,
    is_connected,
    new_graph,
    parse_graph6,
    path_graph,
    to_graph6,
)
from .resistance import (
    DisconnectedError,
    ResistanceMatrix,
    ResistanceSpectrum,
    format_rational,
    kmn_spectrum_closed_form,
    laplacian,
    parse_rational,
    resistance,
    resistance_diameter,
    resistance_matrix,
    resistance_spectrum,
    spanning_tree_count,
    spectrum_json,
)
from .reduction import (
    ReductionError,
    SEquivalenceError,
    WeightedNetwork,
    eliminate_block,
    new_network,
    parallel_reduce,
    parse_network,
    network_to_text,
    series_reduce,
    substitute,
    unit_network,
    weighted_resistance,
    weighted_resistance_matrix,
)
from .lemmas import CheckReport, Witness, run_all_checks
from .enumeration import (
    CanonicalCode,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    enumerate_connected,
)
from .drs import (
    CollisionReport,
    DrsVerdict,
    SpectrumIndex,
    check_theorems,
    classify_kmn,
    find_collisions,
    index_spectra,
    verify_drs,
)

__version__ = "0.1.0"
