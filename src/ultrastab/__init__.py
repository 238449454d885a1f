"""Exact repair and instability witnesses for approximate matrix
representations over truncated local rings."""

from .local_ring import NormValue, RingSpec
from .presentations import ApproxRep, FiniteImage, Presentation, Word
from .ultranorm_linalg import (
    UMatrix,
    Unsolvable,
    nearest_monomial_commutant,
    solve_linear,
)
from .homrepair import (
    CharPUnsupported,
    GraphOfGroups,
    HypothesisViolated,
    PrecisionLedger,
    graph_repair,
    repair_finite_image,
)
from .char2_involutions import BGForm, bg_blockform, involution_repair
from .witnesses import (
    HdistCertificate,
    build_unstable_generators,
    commutator_witness_oracle,
    hdist_gl1_cyclic,
    hdist_lowerbound_diag,
    make_badestimate_rep,
    make_commutator_witness,
    make_wreath_rep,
    verify_claims,
    wreath_rep_defect_certificate,
)
from .gbs_criteria import GBSGraph, check_pifree_criterion, gbs_vertex_order_bound
from .aux_families import FiltrationMetricSpec, FiltrationRep, filtration_dist, split_section_repair

__version__ = "0.1.0"
