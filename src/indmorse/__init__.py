"""Acyclic matchings on independence complexes via simplicial-vertex
recursion, with homotopy classification and homology cross-checks."""

from .chordal import is_chordal, maximum_cardinality_search
from .complexes import (
    SimplicialComplex,
    f_vector,
    hasse_edges,
    independence_complex,
    is_maximal,
)
from .counts import (
    GridCountTable,
    critical_fvector_recursive,
    grid_count_table,
    grid_critical_fvector,
)
from .generators import (
    GridSpec,
    grid_graph,
    grid_spec_from_labels,
    power_graph_cyclic,
    random_chordal,
    standard_graph,
)
from .graph_core import (
    CapabilityError,
    Graph,
    UnsupportedGraphError,
    bits,
    domination_number,
    graph_from_json,
    graph_to_json,
)
from .homology import HomologyProfile, homology_integer
from .homotopy import (
    HomotopyType,
    check_domination_bound,
    classify,
    classify_tree,
    consistency_with_homology,
)
from .matching import (
    check_field,
    check_matching,
    critical_fvector_of,
    critical_simplices,
    generalized_vpath_reachable,
    verify_acyclic,
    verify_matching,
)
from .morse import (
    ConstructionResult,
    build_auto,
    build_chordal_matching,
    build_grid_matching,
    certify_tree,
    extend_matching,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ConstructionResult",
    "Graph",
    "GridCountTable",
    "GridSpec",
    "HomologyProfile",
    "HomotopyType",
    "SimplicialComplex",
    "UnsupportedGraphError",
    "bits",
    "build_auto",
    "build_chordal_matching",
    "build_grid_matching",
    "certify_tree",
    "check_domination_bound",
    "check_field",
    "check_matching",
    "classify",
    "classify_tree",
    "consistency_with_homology",
    "critical_fvector_of",
    "critical_fvector_recursive",
    "critical_simplices",
    "domination_number",
    "extend_matching",
    "f_vector",
    "generalized_vpath_reachable",
    "graph_from_json",
    "graph_to_json",
    "grid_count_table",
    "grid_critical_fvector",
    "grid_graph",
    "grid_spec_from_labels",
    "hasse_edges",
    "homology_integer",
    "independence_complex",
    "is_chordal",
    "is_maximal",
    "maximum_cardinality_search",
    "power_graph_cyclic",
    "random_chordal",
    "standard_graph",
    "verify_acyclic",
    "verify_matching",
]
