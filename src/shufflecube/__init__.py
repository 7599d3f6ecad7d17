"""Shuffle-cube family toolkit: construction, analysis, routing, Hamiltonicity.

The public surface re-exports the word codec, adjacency oracles, brute-force
analytics, the vertex-transitivity maps, the routing algorithms and the
Hamiltonian-cycle machinery.
"""

from .errors import (
    Check,
    ConstructionError,
    DisconnectedGraphError,
    InvalidVertexError,
    ResourceLimitError,
)
from .words import (
    BlockValue,
    Dimension,
    VertexWord,
    blocks,
    block_width,
    format_vertex,
    get_block,
    hamming,
    make_block,
    pair1,
    pair2,
    parse_vertex,
    set_block,
)
from .topology import (
    B_SSQ_LABEL,
    BHVertex,
    BlockGraph,
    C4_LABEL,
    CubeGraph,
    D_BSQ_LABEL,
    MATERIALIZE_CAP,
    TopologyKind,
    V_SETS,
    adjacent,
    bh_neighbors,
    block_graph,
    is_valid_vertex,
    materialize,
    neighbor_sets,
    neighbors,
    product_factors,
)
from .analysis import (
    BipartitionResult,
    DiameterResult,
    K4Census,
    TransitivityCertificate,
    bfs_distances,
    bh_pattern_pairs,
    bh_same_neighborhood_pairs,
    bipartition,
    bsq_pattern_pairs,
    clique_number,
    diameter,
    eccentricity,
    edge_transitivity_certificate,
    girth,
    is_connected,
    k4_census,
    same_neighborhood_pairs,
    triangle_counts,
    vertex_transitivity_certificate,
)
from .symmetry import (
    AutomorphismSpec,
    apply_map,
    build_phi,
    build_psi,
    verify_automorphism,
    verify_factor_automorphism,
)
from .routing import (
    diameter_formula,
    distance_of,
    route_bsq,
    route_ssq,
)
from .hamiltonian import (
    HamiltonianCycle,
    fixture_h1,
    fixture_h2,
    hamiltonian_cycle,
    snake_product,
    validate_cycle,
)
from .claims import ClaimRecord, ClaimsReport, run_claims

__version__ = "0.1.0"
