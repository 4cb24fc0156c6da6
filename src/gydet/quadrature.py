"""Quadrature on finite intervals.

adaptive_quad is scipy's QUADPACK dqags (21-point Gauss-Kronrod panels
with bisection and epsilon-algorithm extrapolation; Piessens et al.,
1983).  The tests check it against an independent single-panel
Gauss-Legendre rule (numpy's leggauss).
"""

from __future__ import annotations

import math
from typing import Callable

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

