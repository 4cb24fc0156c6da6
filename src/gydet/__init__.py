"""Determinants of discrete Schrodinger-type operators -Delta_d + V.

The package computes them three ways and makes the ways fight:

  * forward sweep recursions (bounded and growing matrix forms) costing
    O(N K^3) instead of the O((N K)^3) of a dense factorization,
  * exact oracles for the separable 2D operator (dense factorization,
    eigenvalue product, transverse sinh product), and
  * large-lattice asymptotic formulas for the 2D massive and massless
    operators, with all their special constants and quadratures.

A continuum companion computes regularized determinant ratios in one
dimension and in a truncated sine-mode basis as the extrapolated limit of
the same lattice sweeps.  The `gydet` CLI exposes single determinants (JSON),
asymptotic breakdowns (JSON), scaling benchmarks (CSV), and the
cross-method verification suite.
"""

from .errors import (
    GydetError,
    NonConvergentRatio,
    NonFiniteRecursion,
    PotentialFileError,
    QuadratureError,
    SignChange,
    SingularCrossing,
    SingularMatrix,
    SizeCapExceeded,
)
from .lattice import (
    DENSE_CAP,
    LatticeSpec,
    PotentialField,
    build_interior_hamiltonian,
    transverse_eigenvalues,
    transverse_laplacian,
    transverse_slice,
)
from .logdet import Diagnostics, LogDet, dense_logdet
from .gy import (
    matrix_logdet_aform,
    matrix_logdet_yform,
    scalar_logdet,
    scalar_y_solution,
)
from .oracles import (
    eigenproduct_logdet_2d,
    gamma_k,
    log_sinh,
    sinh_product_logdet,
)
from .asymptotics import (
    CATALAN,
    AsymptoticBreakdown,
    catalan,
    g_of_m,
    massive_asymptotic_logdet,
    massless_asymptotic_logdet,
    quad_I1,
    quad_I2,
)
from .continuum import (
    Potential1D,
    RatioResult,
    TransversePotential2D,
    ratio_logdet_1d,
    ratio_logdet_1d_riccati,
    ratio_logdet_2d_truncated,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticBreakdown",
    "CATALAN",
    "DENSE_CAP",
    "Diagnostics",
    "GydetError",
    "LatticeSpec",
    "LogDet",
    "NonConvergentRatio",
    "NonFiniteRecursion",
    "Potential1D",
    "PotentialField",
    "PotentialFileError",
    "QuadratureError",
    "RatioResult",
    "SignChange",
    "SingularCrossing",
    "SingularMatrix",
    "SizeCapExceeded",
    "TransversePotential2D",
    "build_interior_hamiltonian",
    "catalan",
    "dense_logdet",
    "eigenproduct_logdet_2d",
    "g_of_m",
    "gamma_k",
    "log_sinh",
    "massive_asymptotic_logdet",
    "massless_asymptotic_logdet",
    "matrix_logdet_aform",
    "matrix_logdet_yform",
    "quad_I1",
    "quad_I2",
    "ratio_logdet_1d",
    "ratio_logdet_1d_riccati",
    "ratio_logdet_2d_truncated",
    "scalar_logdet",
    "scalar_y_solution",
    "sinh_product_logdet",
    "transverse_eigenvalues",
    "transverse_laplacian",
    "transverse_slice",
]
