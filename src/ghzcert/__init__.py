"""Certified GHZ fidelity from multipartite Bell violations.

The package builds n-party Svetlichny and MABK Bell operators, verifies the
positivity certificate behind the fidelity statement over all measurement
angles, converts observed Bell values into certified GHZ fidelity lower
bounds, and simulates finite-statistics experiments.
"""
from __future__ import annotations

from .bell import (MABK, SVETLICHNY, BellProtocol, build_operator,
                   hybrid_bound, local_bound, observable, quantum_bound)
from .linalg import hermitian_eigenvalues, kron_all
from .root2 import SQRT2, Root2
from .simulate import (RNG_ALGORITHM, ExperimentRecord, NoiseModel,
                       born_probabilities, certify, estimate_violation,
                       noisy_state, outcome_products, records_to_csv,
                       sample_outcomes)
from .states import apply_channel, ghz_state
from .tradeoff import (CurvePoint, TradeoffCurve, curve_to_csv, curve_to_json,
                       emit_curve, fidelity_lower_bound, format_float,
                       is_trivial_bound, relative_violation, tightness_check,
                       upper_bound_reference)
from .verifier import (CertificateConstants, CertificationReport, GridSpec,
                       StructureViolation, block_decompose, build_T,
                       catalog_constants, closed_form_crosscheck,
                       min_eig_over_grid, parity_projector, projector_lambda,
                       sv3_block_functions, sv4_block_functions,
                       sv4_determinant)

__version__ = "0.1.0"

__all__ = [
    "BellProtocol", "CertificateConstants", "CertificationReport",
    "CurvePoint", "ExperimentRecord", "GridSpec", "MABK", "NoiseModel",
    "RNG_ALGORITHM", "Root2", "SQRT2", "SVETLICHNY", "StructureViolation",
    "TradeoffCurve", "apply_channel", "block_decompose",
    "born_probabilities", "build_T", "build_operator", "catalog_constants",
    "certify", "closed_form_crosscheck", "curve_to_csv", "curve_to_json",
    "emit_curve", "estimate_violation", "fidelity_lower_bound",
    "format_float", "ghz_state", "hermitian_eigenvalues", "hybrid_bound",
    "is_trivial_bound", "kron_all", "local_bound", "min_eig_over_grid",
    "noisy_state", "observable", "outcome_products", "parity_projector",
    "projector_lambda", "quantum_bound", "records_to_csv",
    "relative_violation", "sample_outcomes", "sv3_block_functions",
    "sv4_block_functions", "sv4_determinant", "tightness_check",
    "upper_bound_reference", "__version__",
]
