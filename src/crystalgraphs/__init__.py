"""Exact crystal combinatorics, the Cartan braiding, higher-rank graphs, and
a shift-operator model of the q=0 quantized coordinate ring."""

from .braiding import (
    longest_permutation_word,
    pair_braiding,
    right_ends,
    sigma_word,
)
from .crystal import (
    Crystal,
    TensorCrystal,
    canonical_morphism,
    highest_weight_crystal,
    string_data,
    strings,
    tensor_of,
)
from .hrgraph import (
    ColourSet,
    GraphPath,
    HigherRankGraph,
    build_graph,
    colour_set,
    graph_tables_from_json,
    weyl_vertex_map,
)
from .memo import cache_stats, clear_caches
from .report import Check, VerificationReport
from .rootdata import (
    CartanTypeError,
    RootDatum,
    WeylGroup,
    WeylSizeError,
    build_root_datum,
    weyl_dim,
    weyl_group,
)
from .soibelman import SoibelmanModel
from .toeplitz import OperatorElement

__version__ = "0.1.0"

__all__ = [
    "CartanTypeError",
    "Check",
    "ColourSet",
    "Crystal",
    "GraphPath",
    "HigherRankGraph",
    "OperatorElement",
    "RootDatum",
    "SoibelmanModel",
    "TensorCrystal",
    "VerificationReport",
    "WeylGroup",
    "WeylSizeError",
    "build_graph",
    "build_root_datum",
    "cache_stats",
    "canonical_morphism",
    "clear_caches",
    "colour_set",
    "graph_tables_from_json",
    "highest_weight_crystal",
    "longest_permutation_word",
    "pair_braiding",
    "right_ends",
    "sigma_word",
    "string_data",
    "strings",
    "tensor_of",
    "weyl_dim",
    "weyl_group",
    "weyl_vertex_map",
]
