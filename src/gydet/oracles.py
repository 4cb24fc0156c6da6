"""Closed-form determinant routes for the two-dimensional operator.

For -Delta_2 + m^2 on an (N-1) x (M-1) interior grid the spectrum is
separable, which yields two independent ground truths:

  * the eigenvalue product over both directions, and
  * the transverse-mode product of sinh ratios,

        det = prod_k sinh(gamma_k N) / sinh(gamma_k),
        cosh(gamma_k) = 1 + (m^2 - lambda_k) / 2,

    with lambda_k the transverse Laplacian eigenvalues.

Both are evaluated in the log domain: gamma_k N reaches thousands and
sinh overflows at arguments around 710, so ln sinh(x) is computed as
x + ln(1 - e^(-2x)) - ln 2.  arccosh is evaluated in a log1p form that
keeps full relative accuracy as its argument approaches 1 (small mass,
small transverse eigenvalue).
"""

from __future__ import annotations

import math

import numpy as np

from .logdet import Diagnostics, LogDet
from .lattice import LatticeSpec, transverse_eigenvalues


def _check_m2(m2: float) -> None:
    if not (math.isfinite(m2) and m2 >= 0):
        raise ValueError(f"m2 must be finite and >= 0, got {m2}")


def gamma_k(m2: float, lam: float) -> float:
    """Decay rate gamma >= 0 of a transverse mode, from the characteristic
    condition e^gamma + e^-gamma = m2 + 2 - lam.

    Requires m2 >= lam (always true here: lam < 0 <= m2); gamma = 0 only
    when m2 = lam = 0.  Above t = 1e150, where t (t + 2) would overflow,
    arccosh(1 + t) = ln(2t) + O(1/t) is ln(2t) to the last bit.
    """
    t = (m2 - lam) / 2.0
    if t < 0.0:
        raise ValueError(f"arccosh argument below 1: m2={m2}, lambda={lam}")
    if t > 1e150:
        return math.log(2.0 * t)
    # arccosh(1 + t) without cancellation near t = 0
    return math.log1p(t + math.sqrt(t * (t + 2.0)))


def log_sinh(x: float) -> float:
    """ln(sinh(x)) for x > 0, overflow-safe: x + ln(1 - e^(-2x)) - ln 2."""
    if x <= 0.0:
        raise ValueError(f"log_sinh requires x > 0, got {x}")
    return x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)


def sinh_product_logdet(m2: float, N: int, M: int) -> LogDet:
    """ln det(-Delta_2 + m^2) as the transverse-mode product of sinh ratios.

    Every gamma_k is strictly positive for k >= 1 (lambda_k < 0), so no
    singular term arises even at m = 0; the sign is always +.  The M-1
    positive terms are summed exactly (math.fsum) and rounded once, so the
    error of the total is bounded by the errors of the terms and does not
    grow with the number of additions.
    """
    _check_m2(m2)
    LatticeSpec(2, N, M)
    terms = []
    for lam in transverse_eigenvalues(M):
        g = gamma_k(m2, lam)
        terms.append(log_sinh(g * N) - log_sinh(g))
    return LogDet(
        log_abs=math.fsum(terms),
        sign=1,
        method="sinh-product",
        diagnostics=Diagnostics(),
    )


def eigenproduct_logdet_2d(m2: float, N: int, M: int) -> LogDet:
    """ln det(-Delta_2 + m^2) as the separable eigenvalue double product:

        sum_{j,k} ln(m^2 + 4 - 2 cos(pi j / N) - 2 cos(pi k / M)).

    The smallest eigenvalue 2(1-cos(pi/N)) + 2(1-cos(pi/M)) + m^2 is
    strictly positive for finite N, M, so the sign is always +.
    """
    _check_m2(m2)
    LatticeSpec(2, N, M)
    eigs = m2 - transverse_eigenvalues(N)[:, None] - transverse_eigenvalues(M)[None, :]
    return LogDet(
        log_abs=float(np.log(eigs).sum()),
        sign=1,
        method="eigen-product",
        diagnostics=Diagnostics(min_pivot=float(eigs.min())),
    )
