"""Section 6 made executable: lower-bound constructions, the Lemma 6.8
correspondence, and the disjointness → 2-SiSP reduction."""

from .gamma_graph import GammaGraph, build_gamma_graph
from .hard_instance import (
    HardInstance,
    build_hard_instance,
    expected_optimal_length,
    lexicographic_phi,
)
from .correspondence import (
    CorrespondenceReport,
    decode_matrix_from_lengths,
    verify_correspondence,
)
from .disjointness import (
    Transcript,
    TrivialDisjointnessProtocol,
    disjointness,
    disjointness_lower_bound_bits,
    inner_product,
)
from .reduction import (
    ReductionReport,
    bits_to_matrix,
    decide_disjointness_via_two_sisp,
)
from .diameter_bound import build_diameter_instance, expected_two_sisp
from .cut_analysis import (
    CutTrafficReport,
    bipartite_cut,
    measure_cut_traffic,
)

__all__ = [
    "CorrespondenceReport",
    "CutTrafficReport",
    "GammaGraph",
    "HardInstance",
    "ReductionReport",
    "Transcript",
    "TrivialDisjointnessProtocol",
    "bipartite_cut",
    "bits_to_matrix",
    "build_diameter_instance",
    "build_gamma_graph",
    "build_hard_instance",
    "decide_disjointness_via_two_sisp",
    "decode_matrix_from_lengths",
    "disjointness",
    "disjointness_lower_bound_bits",
    "expected_optimal_length",
    "expected_two_sisp",
    "inner_product",
    "lexicographic_phi",
    "measure_cut_traffic",
    "verify_correspondence",
]
