"""Large-lattice asymptotics of ln det(-Delta_2 + m^2).

Massive case (m > 0):

    ln det = N*M*I1(m) - (N+M)/2 * g(m) + (1/4) ln(m^2 (m^2+4)^2 (m^2+8))

with I1(m) the mean of the sinh product's decay rate gamma(lambda)
(oracles.gamma_k) over the transverse band lambda = -4 sin^2(x/2), and
g(m) = gamma(0) + gamma(-4) the sum of its band-edge values.  The
neglected remainder is exponentially small in N; `gydet asym
--with-exact` reports it as the discrepancy from the exact sinh product.

Massless case:

    ln det = (4G/pi) N M - (N+M)/2 g(0) - (1/4) ln(N M)
             + (1/2) ln(4 sqrt 2) + ln(q^(1/24) (N/M)^(1/4) P(q)),

with G the Catalan constant, g(0) = 2 ln(1 + sqrt 2), q = e^(-2 pi N / M)
and P the Euler product prod (1 - q^k).  The last logarithm is invariant
under exchanging N and M (the eta-function modular identity), which makes
the whole expression symmetric; the modular term is assembled in log space
so extreme aspect ratios merely underflow q to zero instead of destroying
the term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import QuadratureError
from .lattice import LatticeSpec
from .oracles import _check_m2, gamma_k

# Catalan's constant G, correctly rounded to double precision
CATALAN = 0.915965594177219
# Absolute tolerances of the quad_I1 and quad_I2 integrals.
_I1_TOL = 1e-12
_I2_TOL = 1e-10


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


def _integrate_0_pi(f: Callable[[float], float], tol: float) -> float:
    """Integral of f over [0, pi] to absolute tolerance tol by scipy's
    QUADPACK dqags.  QuadratureError when QUADPACK reports a failure, its
    error estimate exceeds tol, or the value is not finite (an inf
    integrand gives inf without a reported failure).  scipy.integrate is
    imported here: with the module it adds a quarter second to start-up.
    """
    from scipy.integrate import quad

    value, err, _info, *failure = quad(f, 0.0, math.pi, epsabs=tol, epsrel=0.0, full_output=1)
    if failure or not (math.isfinite(value) and err <= tol):
        raise QuadratureError(err, tol)
    return value


def g_of_m(m2: float) -> float:
    """g(m) = gamma(0) + gamma(-4), the decay rate at the two edges of the
    transverse band: arccosh(1 + m^2/2) + arccosh(3 + m^2/2)."""
    _check_m2(m2)
    return gamma_k(m2, 0.0) + gamma_k(m2, -4.0)


def quad_I1(m2: float) -> float:
    """Area density of the massive log-determinant, the band mean of the
    decay rate gamma(lambda) over lambda = -4 sin^2(x/2) = -2(1 - cos x):

        I1(m) = (1/pi) * integral_0^pi arccosh(1 + (m^2 + 2(1-cos x))/2) dx.

    No closed form; evaluated by adaptive quadrature to absolute tolerance
    _I1_TOL.  At m = 0 this equals 4G/pi.  The result must be accurate to
    about 1 ulp, not merely to _I1_TOL: the area term N M I1 of
    massive_asymptotic_logdet multiplies its error by N M, so a bias of a
    few ulps here becomes as many ulps of ln det.  At this tolerance the
    result is within 0.4 ulp of 40-digit quadrature for m^2 in
    {0, 0.25, 1, 4}, and at most 1.71 ulps off over 37 values of m^2 in
    [0, 9].
    """
    _check_m2(m2)
    # 2(1-cos x) = 4 sin^2(x/2), exact at the x -> 0 endpoint
    f = lambda x: gamma_k(m2, -4.0 * math.sin(0.5 * x) ** 2)
    return _integrate_0_pi(f, _I1_TOL * math.pi) / math.pi


def quad_I2(m2: float) -> float:
    """Boundary-density integral of the massive expansion:

        I2(m) = -(1/(2 pi)) * integral_0^pi
                 ln(m^4 + 8 m^2 + 14 - 4(m^2+4) cos x + 2 cos 2x) dx.

    Restricted to m2 > 0: at m = 0 the integrand has an integrable log
    singularity at x = 0 and the massless route goes through the closed
    form instead.  Numerically I2(m) = -g(m)/2, which the test suite
    checks as an identity.
    """
    if not (math.isfinite(m2) and m2 > 0):
        raise ValueError(f"quad_I2 requires finite m2 > 0, got {m2}")

    def f(x):
        c = math.cos(x)
        return math.log(m2 * m2 + 8.0 * m2 + 14.0 - 4.0 * (m2 + 4.0) * c + 2.0 * math.cos(2.0 * x))

    return -_integrate_0_pi(f, _I2_TOL * math.pi) / (2.0 * math.pi)


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
    The omitted remainder is exponentially small in min(N, M); `gydet asym
    --with-exact` reports it as the discrepancy.  The expression is
    symmetric in N and M.  N M amplifies the error of I1, so the total is
    only as accurate as quad_I1 is to about 1 ulp; with that, the total
    lies within a few ulps of its exact value.
    """
    if not (math.isfinite(m2) and m2 > 0):
        raise ValueError(f"massive asymptotic requires finite m2 > 0, got {m2}")
    LatticeSpec(2, N, M)
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
    long thin lattice underflows q (P -> 1) without losing the term.  The
    term is exchange-invariant, so N and M are swapped when N < M: then
    q <= e^(-2 pi) and P(q) converges fast instead of summing many
    inaccurate factors at q near 1.
    """
    if N < M:
        N, M = M, N
    q = math.exp(-2.0 * math.pi * N / M)
    return -math.pi * N / (12.0 * M) + 0.25 * math.log(N / M) + euler_product_log(q)


def massless_asymptotic_logdet(N: int, M: int) -> AsymptoticBreakdown:
    """Asymptotic ln det(-Delta_2) at large N, M.

    total = (4G/pi) N M - (N+M)/2 g(0) - (1/4) ln(N M)
            + (1/2) ln(4 sqrt 2) + modular term; exchange-symmetric in
    (N, M) thanks to the modular identity of the final logarithm.
    """
    LatticeSpec(2, N, M)
    return AsymptoticBreakdown.build(
        area=(4.0 * CATALAN / math.pi) * N * M,
        perimeter=-0.5 * (N + M) * g_of_m(0.0),
        log_t=-0.25 * math.log(float(N) * M),
        constant=0.5 * math.log(4.0 * math.sqrt(2.0)),
        modular=massless_modular_term(N, M),
    )
