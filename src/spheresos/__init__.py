"""Kernel-based sum-of-squares certificates on the unit sphere.

Core objects: sparse homogeneous polynomials (scalar and matrix-valued),
the Gegenbauer family in reproducing normalization, generalized Toeplitz
matrices and the convergence-rate quantities they define, spherical-harmonic
decomposition, certificate construction/verification, and the Best Separable
State machinery built on top.
"""

from .certificate import (
    Certificate,
    build_certificate,
    reznick_lambdas,
    sphere_quadrature,
    verify_certificate,
)
from .gegenbauer import GegenbauerBasis, harmonic_dim, weight_ratio
from .harmonic import HarmonicDecomp, b_constant, decompose, decompose_matrix, r_coefficient
from .poly import MatPoly, Poly, SpherePoint, sample_sphere, sup_norm_sphere
from .quantum import (
    GAP_RATE_CONSTANT,
    QOperator,
    bss_gap_certificate,
    check_dps_conditions,
    hsep_lower,
    partial_trace,
    partial_transpose,
    product_extension,
    realify,
    sym_projector,
    verify_rsos_witness,
)
from .rho import (
    KernelSpec,
    RATE_CONSTANTS,
    RATE_LEVEL_MULTIPLIER,
    rate_table,
    rho2,
    rho4,
    rho_from_tilde,
    rho_tilde,
)
from .toeplitz import ToeplitzOp, build, gegenbauer_roots, lambda_max

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "GegenbauerBasis",
    "HarmonicDecomp",
    "GAP_RATE_CONSTANT",
    "KernelSpec",
    "RATE_CONSTANTS",
    "RATE_LEVEL_MULTIPLIER",
    "MatPoly",
    "Poly",
    "QOperator",
    "SpherePoint",
    "ToeplitzOp",
    "b_constant",
    "bss_gap_certificate",
    "build",
    "build_certificate",
    "check_dps_conditions",
    "decompose",
    "decompose_matrix",
    "gegenbauer_roots",
    "harmonic_dim",
    "hsep_lower",
    "lambda_max",
    "partial_trace",
    "partial_transpose",
    "product_extension",
    "r_coefficient",
    "rate_table",
    "realify",
    "reznick_lambdas",
    "rho2",
    "rho4",
    "rho_from_tilde",
    "rho_tilde",
    "sample_sphere",
    "sphere_quadrature",
    "sup_norm_sphere",
    "sym_projector",
    "verify_certificate",
    "verify_rsos_witness",
    "weight_ratio",
]
