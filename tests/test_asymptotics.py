import math

import numpy as np
import pytest
import scipy.integrate

from gydet.asymptotics import (
    CATALAN,
    euler_product_log,
    g_of_m,
    massive_asymptotic_logdet,
    massless_asymptotic_logdet,
    massless_modular_term,
    quad_I1,
    quad_I2,
)
from gydet.oracles import eigenproduct_logdet_2d, sinh_product_logdet

# double-entry anchor for the constant (anti-typo)
CATALAN_LITERAL = 0.915965594177219

# pinned by 30-digit quadrature of the defining integrals before the build
I1_AT_1 = 1.50798260227951338825
I1_AT_4 = 2.04569626821401488913
I2_AT_1 = -1.44363547517881034249
I2_AT_4 = -2.02758942180013186913


def catalan_partial_sums(n_terms: int) -> float:
    """Raw partial sum of the alternating Catalan series with n_terms terms
    (no acceleration).  Even/odd term counts bracket the limit."""
    k = np.arange(n_terms)
    return float(((-1.0) ** k / (2 * k + 1) ** 2).sum())


def count_panels(monkeypatch, fn, m2):
    """Number of 21-point QUADPACK panels fn(m2) ends up with."""
    panels = []
    quad = scipy.integrate.quad

    def counting(*args, **kwargs):
        out = quad(*args, **kwargs)
        panels.append(out[2]["last"])
        return out

    monkeypatch.setattr(scipy.integrate, "quad", counting)
    fn(m2)
    return sum(panels)


class TestCatalan:
    def test_value_against_literal(self):
        # the literal is G correctly rounded (checked against 50-digit
        # mpmath); the accelerated series it replaced came out 2 ulps low
        assert CATALAN == CATALAN_LITERAL

    def test_partial_sums_bracket(self):
        for n in (1, 2, 5, 20):
            assert catalan_partial_sums(2 * n) < CATALAN < catalan_partial_sums(2 * n + 1)

    def test_area_density_constant(self):
        assert abs(4 * CATALAN / math.pi - 1.1662436161232751) < 1e-14


class TestEulerProduct:
    def test_empty(self):
        assert math.exp(euler_product_log(0.0)) == 1.0

    def test_small_q(self):
        q = math.exp(-2 * math.pi)
        assert abs(math.exp(euler_product_log(q)) - 0.9981290699259585) < 1e-14

    def test_half(self):
        assert abs(math.exp(euler_product_log(0.5)) - 0.288788095086602421) < 1e-15 * 0.29

    def test_direct_product_oracle(self):
        for q in (0.05, 0.3, 0.7, 0.9):
            direct = 1.0
            for k in range(1, 2000):
                direct *= 1.0 - q**k
            assert abs(math.exp(euler_product_log(q)) - direct) < 1e-12 * direct

    def test_domain(self):
        with pytest.raises(ValueError):
            euler_product_log(1.0)
        with pytest.raises(ValueError):
            euler_product_log(-0.1)


class TestG:
    def test_massless_value(self):
        want = 2.0 * math.log(1.0 + math.sqrt(2.0))  # arccosh 3
        assert abs(g_of_m(0.0) - want) < 1e-14

    def test_unit_mass(self):
        assert abs(g_of_m(1.0) - 2.88727095035762068) < 1e-14

    def test_first_term_vanishes_at_zero(self):
        # arccosh(1) contributes nothing at m = 0
        assert abs(g_of_m(0.0) - math.acosh(3.0)) < 1e-14


class TestQuadI1:
    def test_massless_equals_area_density(self):
        assert abs(quad_I1(0.0) - 4 * CATALAN / math.pi) < 1e-12

    @pytest.mark.parametrize("m2,want", [(1.0, I1_AT_1), (4.0, I1_AT_4)])
    def test_pinned_values(self, m2, want):
        # 2 ulps of the 21-digit pins: the area term N M I1 of the massive
        # asymptotic multiplies any bias of I1 (a 15-digit Kronrod table
        # leaves it 19 ulps low)
        assert abs(quad_I1(m2) - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("m2", [0.0, 1.0, 4.0])
    def test_panel_count(self, m2, monkeypatch):
        assert count_panels(monkeypatch, quad_I1, m2) <= 8

    @pytest.mark.parametrize("m2", [0.0, 0.3, 1.0, 4.0, 25.0])
    def test_independent_fixed_rule(self, m2):
        def f(x):
            t = (m2 + 2.0 * (1.0 - np.cos(x))) / 2.0
            return np.log1p(t + np.sqrt(t * (t + 2.0)))

        # single-panel Gauss-Legendre rule of order 240 on [0, pi]; the
        # mean over the panel is half the weighted sum
        t, w = np.polynomial.legendre.leggauss(240)
        ref = 0.5 * float(w @ f(0.5 * math.pi * (1.0 + t)))
        assert abs(quad_I1(m2) - ref) < 1e-11


class TestQuadI2:
    @pytest.mark.parametrize("m2,want", [(1.0, I2_AT_1), (4.0, I2_AT_4)])
    def test_pinned_values(self, m2, want):
        assert abs(quad_I2(m2) - want) < 1e-10

    @pytest.mark.parametrize("m2", [0.01, 0.1, 1.0, 4.0, 25.0])
    def test_identity_with_g(self, m2):
        assert abs(quad_I2(m2) + g_of_m(m2) / 2.0) <= 1e-9

    def test_massless_limit_by_extrapolation(self):
        # I2(m) -> -ln(1 + sqrt 2) as m -> 0 (arccosh 3 = 2 ln(1+sqrt 2));
        # the gap is arccosh(1 + m^2/2)/2 ~ m/2
        want = -math.log(1.0 + math.sqrt(2.0))
        for m2 in (1e-2, 1e-3, 1e-4):
            gap = abs(quad_I2(m2) - want)
            assert abs(gap - math.sqrt(m2) / 2.0) < 0.03 * math.sqrt(m2)

    def test_rejects_massless(self):
        with pytest.raises(ValueError):
            quad_I2(0.0)

    def test_panel_count(self, monkeypatch):
        assert count_panels(monkeypatch, quad_I2, 0.01) <= 12


class TestMassiveAsymptotic:
    def test_breakdown_composition(self):
        b = massive_asymptotic_logdet(1.0, 10, 14)
        assert b.total == (
            b.area_term + b.perimeter_term + b.log_term + b.constant_term + b.modular_term
        )
        assert b.log_term == 0.0 and b.modular_term == 0.0

    def test_exchange_symmetric(self):
        a = massive_asymptotic_logdet(1.0, 9, 17)
        b = massive_asymptotic_logdet(1.0, 17, 9)
        assert a.total == b.total

    def test_accuracy_against_sinh_product(self):
        # at equal aspect the formula is exponentially accurate: the
        # remainder is 6e-14 at N = 16 (about one ulp of ln det) and 4e-27
        # at N = 32, so beyond that only rounding is left; these caps are
        # loose, acceptance criterion 08 holds the gaps to the rounding floor
        for n, cap in ((8, 2e-7), (16, 1e-9), (64, 1e-8)):
            gap = abs(
                massive_asymptotic_logdet(1.0, n, n).total
                - sinh_product_logdet(1.0, n, n).log_abs
            )
            assert gap < cap, (n, gap)

    def test_exponential_convergence_small_sizes(self):
        # the dominant error is the neglected remainder ~ c0^(-2N): the
        # measured gaps must collapse much faster than any power law
        gaps = [
            abs(
                massive_asymptotic_logdet(1.0, n, n).total
                - sinh_product_logdet(1.0, n, n).log_abs
            )
            for n in (4, 6, 8, 12)
        ]
        assert all(b < 0.1 * a for a, b in zip(gaps, gaps[1:])), gaps

    def test_rejects_massless(self):
        with pytest.raises(ValueError):
            massive_asymptotic_logdet(0.0, 8, 8)


class TestMasslessAsymptotic:
    def test_breakdown_composition(self):
        b = massless_asymptotic_logdet(5, 9)
        assert b.total == (
            b.area_term + b.perimeter_term + b.log_term + b.constant_term + b.modular_term
        )

    def test_small_lattice_anchor(self):
        got = massless_asymptotic_logdet(3, 3).total
        exact = eigenproduct_logdet_2d(0.0, 3, 3).log_abs
        gap = got - exact
        assert abs(got - 5.2614067841091777) < 1e-12
        assert 0.0 < gap < 0.005
        assert abs(gap - 0.0039114120813952) < 1e-10

    def test_convergence_sequence(self):
        gaps = []
        for n in (3, 8, 16, 32, 64):
            gaps.append(
                abs(
                    massless_asymptotic_logdet(n, n).total
                    - eigenproduct_logdet_2d(0.0, n, n).log_abs
                )
            )
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(b <= 0.6 * a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_area_density_limit(self):
        target = 4 * CATALAN / math.pi
        for n in (16, 32, 64):
            density = massless_asymptotic_logdet(n, n).total / (n * n)
            assert abs(density - target) < 3.0 / n

    def test_exchange_invariance(self):
        for (N, M) in ((3, 7), (4, 16), (5, 9)):
            a = massless_asymptotic_logdet(N, M).total
            b = massless_asymptotic_logdet(M, N).total
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_modular_term_invariance(self):
        # the eta-function identity, in its directly assertable form
        for (N, M) in ((3, 7), (4, 16), (5, 9), (2, 30)):
            assert abs(massless_modular_term(N, M) - massless_modular_term(M, N)) < 1e-12

    def test_raw_series_modular_identity(self):
        # massless_modular_term swaps N < M, so it is symmetric by
        # construction; the identity itself is checked on the series
        def raw(N, M):
            q = math.exp(-2.0 * math.pi * N / M)
            return -math.pi * N / (12.0 * M) + 0.25 * math.log(N / M) + euler_product_log(q)

        for (N, M) in ((3, 7), (4, 16), (5, 9)):
            assert abs(raw(N, M) - raw(M, N)) < 1e-12

    def test_thin_lattice_pinned(self):
        # 40-digit value of -pi 1e6 / 24 + ln(5e5) / 4 (q = e^(-pi 1e6), so
        # ln P(q) is far below double precision); summing the Euler product
        # at q = e^(-2 pi 2 / 1e6) instead is off by 1.6e-7
        want = -130896.4133087303671870781
        assert abs(massless_modular_term(2, 10**6) - want) < 1e-10

    def test_extreme_aspect_ratio_survives_underflow(self):
        # q underflows to zero; the q^(1/24) piece must survive in log space
        b = massless_asymptotic_logdet(500, 2)
        assert math.isfinite(b.modular_term)
        want_q_term = -math.pi * 500 / (12 * 2)
        assert abs(b.modular_term - (want_q_term + 0.25 * math.log(250.0))) < 1e-12

    def test_constant_term_recovery_by_fitting(self):
        # fit a + bN + cN^2 + d ln N to exact log-dets; the constant must
        # land on (1/2) ln(4 sqrt 2) - pi/12 + ln P(e^(-2 pi))
        sizes = [32, 48, 64, 96, 128]
        ys = [eigenproduct_logdet_2d(0.0, n, n).log_abs for n in sizes]
        A = np.array([[1.0, n, n * n, math.log(n)] for n in sizes])
        coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
        want = (
            0.5 * math.log(4.0 * math.sqrt(2.0))
            - math.pi / 12.0
            + euler_product_log(math.exp(-2 * math.pi))
        )
        assert abs(coef[0] - want) < 1e-2
        # the companions should land on their analytic values too
        assert abs(coef[1] - (-2.0 * math.log(1.0 + math.sqrt(2.0)))) < 1e-3
        assert abs(coef[2] - 4 * CATALAN / math.pi) < 1e-6
        assert abs(coef[3] - (-0.5)) < 2e-2


@pytest.mark.parametrize("m2", [math.nan, math.inf])
@pytest.mark.parametrize(
    "fn",
    [g_of_m, quad_I1, quad_I2, lambda m2: massive_asymptotic_logdet(m2, 8, 8)],
    ids=["g_of_m", "quad_I1", "quad_I2", "massive"],
)
def test_rejects_nonfinite_mass(fn, m2):
    # nan passed the old sign checks and surfaced as a quadrature failure
    with pytest.raises(ValueError, match="finite"):
        fn(m2)
