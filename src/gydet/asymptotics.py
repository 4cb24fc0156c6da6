"""Large-lattice asymptotics of ln det(-Delta_2 + m^2).

Massive case (m > 0):

    ln det = N*M*I1(m) - (N+M)/2 * g(m) + (1/4) ln(m^2 (m^2+4)^2 (m^2+8))

with I1 the arccosh mode-density integral (no closed form) and
g(m) = arccosh(1 + m^2/2) + arccosh(3 + m^2/2).  The neglected remainder
is exponentially small in N and is available separately as a diagnostic
(s2_massive_correction).

Massless case:

    ln det = (4G/pi) N M - (N+M) ln(1+sqrt 2) - (1/4) ln(N M)
             + (1/2) ln(4 sqrt 2) + ln(q^(1/24) (N/M)^(1/4) P(q)),

with G the Catalan constant, q = e^(-2 pi N / M) and P the Euler product
prod (1 - q^k).  The last logarithm is invariant under exchanging N and M
(the eta-function modular identity), which makes the whole expression
symmetric; the modular term is assembled in log space so extreme aspect
ratios merely underflow q to zero instead of destroying the term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_quad

_LOG2 = math.log(2.0)
_LN_SILVER = math.log(1.0 + math.sqrt(2.0))  # ln(1 + sqrt 2)


def _acosh1p(t):
    """arccosh(1 + t), elementwise, stable for small t >= 0."""
    return np.log1p(t + np.sqrt(t * (t + 2.0)))


def catalan(n_terms: int = 40) -> float:
    """Catalan constant from the alternating series sum (-1)^k / (2k+1)^2,
    convergence-accelerated (Chebyshev-weighted partial sums; error decays
    like (3 + sqrt 8)^-n, so the default 40 terms is far past double
    precision)."""
    d = (3.0 + math.sqrt(8.0)) ** n_terms
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n_terms):
        c = b - c
        s += c / (2 * k + 1) ** 2
        b = (k + n_terms) * (k - n_terms) * b / ((k + 0.5) * (k + 1.0))
    return s / d


def catalan_partial_sums(n_terms: int) -> float:
    """Raw partial sum of the alternating Catalan series with n_terms terms
    (no acceleration).  Even/odd term counts bracket the limit."""
    k = np.arange(n_terms)
    return float(((-1.0) ** k / (2 * k + 1) ** 2).sum())


CATALAN = catalan()


def euler_product_log(q: float) -> float:
    """ln P(q) = sum_k ln(1 - q^k), truncated once |ln(1 - q^k)| < 1e-17."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must be in [0, 1), got {q}")
    if q == 0.0:
        return 0.0
    total = 0.0
    qk = q
    while True:
        term = math.log1p(-qk)
        total += term
        if abs(term) < 1e-17:
            return total
        qk *= q


def euler_product_P(q: float) -> float:
    """Euler product P(q) = prod_{k>=1} (1 - q^k); relative error <= 1e-15."""
    return math.exp(euler_product_log(q))


def g_of_m(m2: float) -> float:
    """g(m) = arccosh(1 + m^2/2) + arccosh(3 + m^2/2), safe near m = 0."""
    if m2 < 0:
        raise ValueError(f"m2 must be >= 0, got {m2}")
    return float(_acosh1p(m2 / 2.0) + _acosh1p(2.0 + m2 / 2.0))


def quad_I1(m2: float, *, tol: float = 1e-12) -> float:
    """Area density of the massive log-determinant:

        I1(m) = (1/pi) * integral_0^pi arccosh(1 + (m^2 + 2(1-cos x))/2) dx.

    No closed form; evaluated by adaptive quadrature to absolute tolerance
    tol.  At m = 0 this equals 4G/pi.  The result must be accurate to
    about 1 ulp, not merely to tol: the area term N M I1 of
    massive_asymptotic_logdet multiplies its error by N M, so a bias of a
    few ulps here becomes as many ulps of ln det.  At the default tol the
    result is within 0.4 ulp of 30-digit quadrature for m^2 in
    {0, 0.25, 1, 4}.
    """
    if m2 < 0:
        raise ValueError(f"m2 must be >= 0, got {m2}")

    def f(x):
        # 2(1-cos x) = 4 sin^2(x/2), exact at the x -> 0 endpoint
        t = (m2 + 4.0 * np.sin(0.5 * x) ** 2) / 2.0
        return _acosh1p(t)

    return adaptive_quad(f, 0.0, math.pi, tol=tol * math.pi) / math.pi


def quad_I2(m2: float, *, tol: float = 1e-10) -> float:
    """Boundary-density integral of the massive expansion:

        I2(m) = -(1/(2 pi)) * integral_0^pi
                 ln(m^4 + 8 m^2 + 14 - 4(m^2+4) cos x + 2 cos 2x) dx.

    Restricted to m2 > 0: at m = 0 the integrand has an integrable log
    singularity at x = 0 and the massless route goes through the closed
    form instead.  Numerically I2(m) = -g(m)/2, which the test suite
    checks as an identity.
    """
    if m2 <= 0:
        raise ValueError(f"quad_I2 requires m2 > 0, got {m2}")

    def f(x):
        c = np.cos(x)
        return np.log(m2 * m2 + 8.0 * m2 + 14.0 - 4.0 * (m2 + 4.0) * c + 2.0 * np.cos(2.0 * x))

    return -adaptive_quad(f, 0.0, math.pi, tol=tol * math.pi) / (2.0 * math.pi)


@dataclass(frozen=True)
class MassiveCorrectionParams:
    """Small-k expansion constants of the mode growth factor:
    c0 = (m^2 + 2 + sqrt(m^2 (m^2+4)))/2 >= 1 (equality only at m = 0),
    c1 = (pi^2/2)(1 + (m^2+2)/sqrt(m^2 (m^2+4))), finite only for m > 0."""

    c0: float
    c1: float

    @classmethod
    def of(cls, m2: float) -> "MassiveCorrectionParams":
        if m2 <= 0:
            raise ValueError(f"requires m2 > 0, got {m2}")
        root = math.sqrt(m2 * (m2 + 4.0))
        return cls(
            c0=0.5 * (m2 + 2.0 + root),
            c1=0.5 * math.pi**2 * (1.0 + (m2 + 2.0) / root),
        )


def s2_massive_correction(m2: float, N: int, M: int) -> float:
    """Leading approximation of the exponentially small remainder neglected
    by the massive asymptotic:

        sum_{k>=1} ln(1 - c0^(-2N) exp(-2 c1 N k^2 / (c0 M^2))),

    truncated when the term magnitude drops below 1e-18.  Reported as an
    opt-in diagnostic addend.  It estimates the order of the remainder
    and bounds neither it nor its error: at m^2 = 1, N = M = 16 it gives
    -2.92e-14, while the true remainder (sinh product minus the asymptotic
    formula, both in 50-digit arithmetic) is -6.05e-14; for N = M from 8
    to 32 the true remainder is 0.76 to 2.41 times c0^(-2N) in magnitude.

    The exponent carries 2 c1 / c0: c1 is the curvature of the mode growth
    factor (xi_k = c0 + c1 k^2 / M^2 + ..., checked numerically against
    the dispersion relation), and raising to the power -2N doubles it.
    Against direct mode sums the truncation error of this limit is O(1/N).
    """
    p = MassiveCorrectionParams.of(m2)
    log_amp = -2.0 * N * math.log(p.c0)
    total = 0.0
    k = 1
    while True:
        x = math.exp(log_amp - 2.0 * p.c1 * N * k * k / (p.c0 * M * M))
        if x >= 1.0:
            raise ValueError("correction series argument reached 1")
        term = math.log1p(-x)
        if abs(term) < 1e-18:
            return total
        total += term
        k += 1


@dataclass(frozen=True)
class AsymptoticBreakdown:
    """Named contributions to an asymptotic log-determinant.

    total is always the same-order sum area + perimeter + log + constant
    + modular.  Massive results carry zero log and modular terms; the
    massless formula populates all five.
    """

    area_term: float
    perimeter_term: float
    log_term: float
    constant_term: float
    modular_term: float
    total: float

    @classmethod
    def build(cls, area, perimeter, log_t, constant, modular) -> "AsymptoticBreakdown":
        return cls(
            area_term=area,
            perimeter_term=perimeter,
            log_term=log_t,
            constant_term=constant,
            modular_term=modular,
            total=area + perimeter + log_t + constant + modular,
        )


def massive_asymptotic_logdet(m2: float, N: int, M: int) -> AsymptoticBreakdown:
    """Asymptotic ln det(-Delta_2 + m^2) for m > 0 at large N, M.

    total = N M I1(m) - (N+M)/2 g(m) + (1/4) ln(m^2 (m^2+4)^2 (m^2+8)).
    The omitted remainder is exponentially small in min(N, M); see
    s2_massive_correction.  The expression is symmetric in N and M.
    N M amplifies the error of I1, so the total is only as accurate as
    quad_I1 is to about 1 ulp; with that, the total lies within a few
    ulps of its exact value.
    """
    if m2 <= 0:
        raise ValueError(f"massive asymptotic requires m2 > 0, got {m2}")
    if N < 2 or M < 2:
        raise ValueError("N and M must be >= 2")
    return AsymptoticBreakdown.build(
        area=N * M * quad_I1(m2),
        perimeter=-0.5 * (N + M) * g_of_m(m2),
        log_t=0.0,
        constant=0.25 * math.log(m2 * (m2 + 4.0) ** 2 * (m2 + 8.0)),
        modular=0.0,
    )


def massless_modular_term(N: int, M: int) -> float:
    """ln(q^(1/24) (N/M)^(1/4) P(q)) with q = e^(-2 pi N / M), assembled in
    log space: the q^(1/24) factor enters as -pi N / (12 M) directly, so a
    long thin lattice underflows q (P -> 1) without losing the term."""
    q = math.exp(-2.0 * math.pi * N / M)
    return -math.pi * N / (12.0 * M) + 0.25 * math.log(N / M) + euler_product_log(q)


def massless_asymptotic_logdet(N: int, M: int) -> AsymptoticBreakdown:
    """Asymptotic ln det(-Delta_2) at large N, M.

    total = (4G/pi) N M - (N+M) ln(1+sqrt 2) - (1/4) ln(N M)
            + (1/2) ln(4 sqrt 2) + modular term; exchange-symmetric in
    (N, M) thanks to the modular identity of the final logarithm.
    """
    if N < 2 or M < 2:
        raise ValueError("N and M must be >= 2")
    return AsymptoticBreakdown.build(
        area=(4.0 * CATALAN / math.pi) * N * M,
        perimeter=-(N + M) * _LN_SILVER,
        log_t=-0.25 * math.log(float(N) * M),
        constant=0.5 * math.log(4.0 * math.sqrt(2.0)),
        modular=massless_modular_term(N, M),
    )
