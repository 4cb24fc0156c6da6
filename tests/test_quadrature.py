import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gydet
from gydet.errors import QuadratureError
from gydet.quadrature import adaptive_quad

EPS = np.finfo(float).eps


class TestKronrodTable:
    """The Gauss-Kronrod table behind adaptive_quad (QUADPACK's 21-point
    dqk21) must hold its constants to the last bit: a table cut to 15
    digits biases every panel by -3e-15 relative, which the area term
    N M I1 of the massive asymptotic turns into ~19 ulps of ln det."""

    def test_kronrod_weights_sum_to_two(self):
        # one panel on [-1, 1] integrates 1 to the sum of its weights
        assert abs(adaptive_quad(lambda x: 1.0, -1.0, 1.0) - 2.0) <= math.ulp(2.0)

    @pytest.mark.parametrize("k", range(23))
    def test_panel_integrates_monomials_exactly(self, k):
        # the 21-point Kronrod rule is exact to degree 31, so on [-1, 1]
        # only the rounding of the weighted sums remains, whatever the
        # number of panels (one for k < 20, at most four here)
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = adaptive_quad(lambda x: x**k, -1.0, 1.0)
        assert abs(got - want) <= 4 * EPS * 2.0 / (k + 1)


class TestAdaptiveQuad:
    def test_polynomial_is_exact(self):
        got = adaptive_quad(lambda x: 3 * x**2, 0.0, 2.0, tol=1e-13)
        assert abs(got - 8.0) < 1e-13

    def test_sine(self):
        got = adaptive_quad(math.sin, 0.0, math.pi, tol=1e-13)
        assert abs(got - 2.0) < 1e-13

    def test_narrow_gaussian_needs_subdivision(self):
        # sharp feature far from panel centers: forces deep bisection
        got = adaptive_quad(
            lambda x: math.exp(-((x - 0.123) ** 2) * 1e4), -1.0, 1.0, tol=1e-12
        )
        want = math.sqrt(math.pi) / 100.0
        assert abs(got - want) < 1e-11

    def test_integrable_log_singularity(self):
        got = adaptive_quad(math.log, 1e-300, 1.0, tol=1e-10)
        assert abs(got - (-1.0)) < 1e-9

    def test_agrees_with_fixed_rule(self):
        a = adaptive_quad(lambda x: math.exp(math.cos(3 * x)) * x, 0.0, 2.0, tol=1e-12)
        # single-panel Gauss-Legendre rule of order 120 on [0, 2] = 1 + [-1, 1]
        t, w = np.polynomial.legendre.leggauss(120)
        x = 1.0 + t
        b = float(w @ (np.exp(np.cos(3 * x)) * x))
        assert abs(a - b) < 1e-11

    def test_nonfinite_integrand_raises(self):
        # QUADPACK returns inf for an inf integrand without reporting a failure
        for bad in (math.inf, math.nan):
            with pytest.raises(QuadratureError):
                adaptive_quad(lambda x: bad, 0.0, 1.0)

    def test_quadpack_failure_raises(self):
        # sin(1/x) oscillates without bound at the left end; QUADPACK gives
        # up with an error estimate of ~6e-4
        with pytest.raises(QuadratureError) as info:
            adaptive_quad(lambda x: math.sin(1.0 / x), 1e-9, 1.0, tol=1e-13)
        assert info.value.achieved > 1e-13

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(math.sin, 1.0, 1.0)


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate adds about a quarter of a second to every start-up;
    # a fresh interpreter, since this one may have imported it already
    src = str(Path(gydet.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gydet; "
        "sys.exit('scipy.integrate' in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_every_export_resolves_once():
    # a deleted function must leave no dangling name in the public list
    assert len(gydet.__all__) == len(set(gydet.__all__))
    missing = [name for name in gydet.__all__ if not hasattr(gydet, name)]
    assert missing == []
