import math

import numpy as np
import pytest

from gydet.lattice import LatticeSpec, PotentialField, build_interior_hamiltonian
from gydet.logdet import dense_logdet
from gydet.oracles import (
    eigenproduct_logdet_2d,
    gamma_k,
    log_sinh,
    sinh_product_logdet,
)


class TestGamma:
    def test_examples(self):
        assert gamma_k(0.0, 0.0) == 0.0
        assert abs(gamma_k(1.0, 0.0) - 0.9624236501192069) < 1e-12
        assert abs(gamma_k(0.0, -2.0) - 1.3169578969248166) < 1e-12

    @pytest.mark.parametrize("m2", [0.0, 1e-8, 1e-4, 0.5, 1.0, 9.0])
    @pytest.mark.parametrize("lam", [0.0, -1e-6, -0.5, -2.0, -3.999])
    def test_cosh_round_trip(self, m2, lam):
        g = gamma_k(m2, lam)
        want = 1.0 + (m2 - lam) / 2.0
        assert abs(math.cosh(g) - want) <= 1e-14 * want

    def test_small_argument_accuracy(self):
        # cancellation-prone corner: cosh(gamma) = 1 + m^2/2 means
        # gamma -> m as m -> 0; the naive arccosh form loses half the
        # digits here, the log1p form must not
        for m in (1e-8, 1e-6, 1e-4):
            g = gamma_k(m * m, 0.0)
            want = m * (1.0 - m * m / 24.0)  # next order is +3 m^5/640
            assert abs(g - want) < 1e-14 * m

    @pytest.mark.parametrize("lam", [0.0, -4.0, np.float64(-4.0)])
    def test_huge_mass_finite(self, lam):
        # t (t + 2) overflowed to inf above m^2 of about 2.7e154, with a
        # numpy RuntimeWarning when lam was a numpy float
        want = 460.5170185988091368035982909368728415202  # ln 1e200, lam adds 4e-200
        assert abs(gamma_k(1e200, lam) - want) <= math.ulp(want)

    def test_monotonicity(self):
        gs = [gamma_k(m2, -1.0) for m2 in (0.0, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(gs, gs[1:]))
        gs = [gamma_k(1.0, lam) for lam in (-0.5, -1.0, -2.0, -3.5)]
        assert all(b > a for a, b in zip(gs, gs[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_k(0.0, 1.0)


class TestLogSinh:
    def test_moderate(self):
        for x in (1e-8, 0.1, 1.0, 20.0):
            assert abs(log_sinh(x) - math.log(math.sinh(x))) < 1e-14 * max(
                1.0, abs(math.log(math.sinh(x)))
            )

    def test_huge_argument_no_overflow(self):
        x = 5000.0
        assert abs(log_sinh(x) - (x - math.log(2.0))) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_sinh(0.0)


class TestClosedForms:
    def test_sinh_anchors(self):
        assert abs(sinh_product_logdet(0.0, 2, 2).log_abs - math.log(4)) < 1e-12
        assert abs(sinh_product_logdet(0.0, 3, 3).log_abs - math.log(192)) < 1e-12
        assert abs(sinh_product_logdet(1.0, 2, 2).log_abs - math.log(5)) < 1e-12

    def test_eigenproduct_anchors(self):
        assert abs(eigenproduct_logdet_2d(0.0, 2, 2).log_abs - math.log(4)) < 1e-13
        assert abs(eigenproduct_logdet_2d(0.0, 3, 3).log_abs - math.log(192)) < 1e-13
        assert abs(eigenproduct_logdet_2d(1.0, 2, 2).log_abs - math.log(5)) < 1e-13

    def test_three_way_agreement(self):
        # eigenproduct, sinh product, and dense factorization of the built
        # operator, all pairs, m2 x N x M grid
        for m2 in (0.0, 0.5, 1.0, 4.0):
            for N in range(2, 17):
                for M in range(2, 17):
                    ep = eigenproduct_logdet_2d(m2, N, M)
                    sp = sinh_product_logdet(m2, N, M)
                    spec = LatticeSpec(d=2, N=N, M=M)
                    pot = PotentialField.constant(spec, m2)
                    dl = dense_logdet(build_interior_hamiltonian(spec, pot))
                    assert ep.sign == sp.sign == dl.sign == 1
                    scale = max(1.0, abs(dl.log_abs))
                    assert abs(ep.log_abs - dl.log_abs) < 1e-10 * scale
                    assert abs(sp.log_abs - dl.log_abs) < 1e-10 * scale

    def test_exchange_symmetry(self):
        # the sinh product sums over M-1 transverse modes only, so matching
        # the swapped eigenproduct is a nontrivial identity
        for m2 in (0.0, 1.0, 4.0):
            for (N, M) in ((2, 9), (5, 13), (7, 3), (16, 4)):
                sp = sinh_product_logdet(m2, N, M).log_abs
                ep_swapped = eigenproduct_logdet_2d(m2, M, N).log_abs
                assert abs(sp - ep_swapped) < 1e-10 * max(1.0, abs(sp))

    def test_huge_lattice_no_overflow(self):
        # gamma * N in the thousands: the log-domain product must survive
        ld = sinh_product_logdet(4.0, 5000, 10)
        assert math.isfinite(ld.log_abs) and ld.log_abs > 1e4

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sinh_product_logdet(-1.0, 4, 4)
        with pytest.raises(ValueError):
            eigenproduct_logdet_2d(0.0, 1, 4)

    @pytest.mark.parametrize("oracle", [sinh_product_logdet, eigenproduct_logdet_2d])
    @pytest.mark.parametrize("m2", [math.nan, math.inf, -1.0])
    def test_rejects_bad_mass(self, oracle, m2):
        # the error names m2 rather than the non-finite log it would produce
        with pytest.raises(ValueError, match=rf"^m2 must be finite and >= 0, got {m2}$"):
            oracle(m2, 8, 8)
