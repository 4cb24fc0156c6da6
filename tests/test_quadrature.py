import math

import numpy as np
import pytest
import scipy.integrate

from gydet.asymptotics import _integrate_0_pi
from gydet.errors import QuadratureError

EPS = np.finfo(float).eps


class TestKronrodTable:
    """The Gauss-Kronrod table behind _integrate_0_pi (QUADPACK's 21-point
    dqk21) must hold its constants to the last bit: a table cut to 15
    digits biases every panel by -3e-15 relative, which the area term
    N M I1 of the massive asymptotic turns into ~19 ulps of ln det.  The
    monomials are integrated on [-1, 1], where the nodes are the table's
    abscissae exactly, by the call _integrate_0_pi makes."""

    def test_kronrod_weights_sum_to_two(self):
        # one panel on [0, pi] integrates 1 to pi/2 times the sum of its weights
        assert abs(_integrate_0_pi(lambda x: 1.0, 1e-12) - math.pi) <= math.ulp(math.pi)

    @pytest.mark.parametrize("k", range(23))
    def test_panel_integrates_monomials_exactly(self, k):
        # the 21-point Kronrod rule is exact to degree 31, so on [-1, 1]
        # only the rounding of the weighted sums remains, whatever the
        # number of panels (one for k < 20, at most four here)
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got, _err = scipy.integrate.quad(lambda x: x**k, -1.0, 1.0, epsabs=1e-12, epsrel=0.0)
        assert abs(got - want) <= 4 * EPS * 2.0 / (k + 1)


class TestAdaptiveQuad:
    def test_polynomial_is_exact(self):
        got = _integrate_0_pi(lambda x: 3 * (x / math.pi) ** 2, 1e-13)
        assert abs(got - math.pi) < 1e-13

    def test_sine(self):
        got = _integrate_0_pi(math.sin, 1e-13)
        assert abs(got - 2.0) < 1e-13

    def test_narrow_gaussian_needs_subdivision(self):
        # sharp feature far from panel centers: forces deep bisection
        got = _integrate_0_pi(lambda x: math.exp(-((x - 1.123) ** 2) * 1e4), 1e-12)
        want = math.sqrt(math.pi) / 100.0
        assert abs(got - want) < 1e-11

    def test_integrable_log_singularity(self):
        got = _integrate_0_pi(math.log, 1e-10)
        assert abs(got - (math.pi * math.log(math.pi) - math.pi)) < 1e-9

    def test_agrees_with_fixed_rule(self):
        a = _integrate_0_pi(lambda x: math.exp(math.cos(3 * x)) * x, 1e-12)
        # single-panel Gauss-Legendre rule of order 120 on [0, pi]
        t, w = np.polynomial.legendre.leggauss(120)
        x = 0.5 * math.pi * (1.0 + t)
        b = 0.5 * math.pi * float(w @ (np.exp(np.cos(3 * x)) * x))
        assert abs(a - b) < 1e-11

    def test_nonfinite_integrand_raises(self):
        # QUADPACK returns inf for an inf integrand without reporting a failure
        for bad in (math.inf, math.nan):
            with pytest.raises(QuadratureError):
                _integrate_0_pi(lambda x: bad, 1e-12)

    def test_quadpack_failure_raises(self):
        # sin(1/x) oscillates without bound at the left end; QUADPACK gives
        # up with an error estimate of ~1.5e-3
        with pytest.raises(QuadratureError) as info:
            _integrate_0_pi(lambda x: math.sin(1.0 / x), 1e-13)
        assert info.value.requested == 1e-13
        assert 1e-3 < info.value.achieved < 2e-3
