"""Quadrature on finite intervals.

adaptive_quad is scipy's QUADPACK dqags (21-point Gauss-Kronrod panels
with bisection and epsilon-algorithm extrapolation; Piessens et al.,
1983); fixed_gauss_legendre is an independent single-panel rule kept as
the second opinion in tests.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError


def adaptive_quad(
    f: Callable[[float], float], a: float, b: float, *, tol: float = 1e-12
) -> float:
    """Integrate the scalar function f over [a, b] to absolute tolerance tol.

    Raises QuadratureError when QUADPACK reports a failure, when its error
    estimate exceeds tol, or when the value is not finite (QUADPACK
    returns inf for an integrand that returns inf without reporting one).
    scipy.integrate is imported here, not with the module: it adds about
    a quarter of a second to `import gydet`.
    """
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    from scipy.integrate import quad

    value, err, _info, *failure = quad(f, a, b, epsabs=tol, epsrel=0.0, full_output=1)
    if failure or not (math.isfinite(value) and err <= tol):
        raise QuadratureError(err, tol)
    return value


def fixed_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, order: int = 200
) -> float:
    """Single-panel Gauss-Legendre rule of the given order.

    Deliberately independent of the adaptive path; used as the second
    opinion when pinning quadrature values in tests.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(w @ np.asarray(f(mid + half * x), dtype=float))
