import math
import tracemalloc

import numpy as np
import pytest

from gydet.errors import SingularCrossing
from gydet.gy import (
    matrix_logdet_aform,
    matrix_logdet_yform,
    scalar_logdet,
    scalar_y_solution,
)
from gydet.lattice import LatticeSpec, PotentialField, build_interior_hamiltonian
from gydet.logdet import dense_logdet


def tridiag_det_recurrence(V):
    """Cofactor recurrence for det(tridiag(-1, 2+V_i, -1)); integer-exact
    when V is integer-valued."""
    d_prev, d = 1.0, 2.0 + V[0]
    for v in V[1:]:
        d_prev, d = d, (2.0 + v) * d - d_prev
    return d


class TestScalarY:
    def test_free_counts_sites(self):
        np.testing.assert_array_equal(
            scalar_y_solution(np.zeros(4)), [0, 1, 2, 3, 4, 5]
        )

    def test_unit_mass_fibonacci(self):
        np.testing.assert_array_equal(
            scalar_y_solution(np.ones(4)), [0, 1, 3, 8, 21, 55]
        )

    def test_single_site_negative(self):
        y = scalar_y_solution(np.array([-4.0]))
        np.testing.assert_array_equal(y, [0, 1, -2])

    @pytest.mark.parametrize("seed", range(6))
    def test_final_value_is_determinant(self, seed):
        rng = np.random.default_rng(seed)
        V = rng.uniform(-1, 1, size=11)
        H = np.diag(2.0 + V)
        i = np.arange(10)
        H[i, i + 1] = H[i + 1, i] = -1.0
        y = scalar_y_solution(V)
        assert abs(y[-1] - np.linalg.det(H)) < 1e-10 * max(1.0, abs(y[-1]))


class TestScalarLogdet:
    def test_free(self):
        ld = scalar_logdet(np.zeros(9))
        assert ld.sign == 1 and abs(ld.log_abs - math.log(10)) < 1e-14
        assert ld.method == "scalar-a"

    def test_unit_mass(self):
        ld = scalar_logdet(np.ones(4))
        assert ld.sign == 1 and abs(ld.log_abs - math.log(55)) < 1e-13

    def test_negative_determinant(self):
        ld = scalar_logdet(np.array([-4.0]))
        assert ld.sign == -1 and abs(ld.log_abs - math.log(2)) < 1e-15

    def test_matches_y_solution_with_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            V = rng.uniform(-5, 1, size=int(rng.integers(1, 25)))
            y_final = scalar_y_solution(V)[-1]
            if abs(y_final) < 1e-6:
                continue
            ld = scalar_logdet(V)
            assert ld.sign == (1 if y_final > 0 else -1)
            assert abs(ld.log_abs - math.log(abs(y_final))) < 1e-11 * max(
                1.0, abs(math.log(abs(y_final)))
            )

    def test_rescaling_on_steep_growth(self):
        # V = 100 grows the solution by ~ e^4.6 per site: forces rescales
        ld = scalar_logdet(np.full(500, 100.0))
        assert ld.diagnostics.rescale_count > 0
        want = tridiag_det_recurrence(np.full(4, 100.0))  # spot value small case
        small = scalar_logdet(np.full(4, 100.0))
        assert abs(small.log_abs - math.log(want)) < 1e-12 * math.log(want)

    def test_oscillatory_regime_stays_bounded(self):
        # for -4 < V < 0 the characteristic roots sit on the unit circle:
        # the solution oscillates, crossing zero between slices but never
        # landing on one for this potential; signs still come out right
        V = np.full(801, -2.5)
        ld = scalar_logdet(V)
        ref = tridiag_det_recurrence(np.full(6, -2.5))
        got_small = scalar_logdet(np.full(6, -2.5))
        assert abs(ld.log_abs) < 10.0  # bounded, no growth
        assert abs(got_small.log_abs - math.log(abs(ref))) < 1e-12
        assert got_small.sign == (1 if ref > 0 else -1)

    def test_singular_crossing_names_slice(self):
        with pytest.raises(SingularCrossing) as exc:
            scalar_logdet(np.array([-2.0, 0.5]))
        assert exc.value.slice_index == 1
        # crossing later in the chain: free pivots are (k+1)/k, so slice 4
        # dies when V_4 + 2 = 1/(a_3 + 1) = 3/4 exactly
        V = np.zeros(5)
        V[3] = -1.25
        with pytest.raises(SingularCrossing) as exc:
            scalar_logdet(V)
        assert exc.value.slice_index == 4

    def test_min_pivot_diagnostic(self):
        ld = scalar_logdet(np.zeros(9))
        # free pivots are (k+1)/k, smallest at the last slice: 10/9
        assert abs(ld.diagnostics.min_pivot - 10.0 / 9.0) < 1e-15


class TestMatrixForms:
    def test_trivial_single_site(self):
        spec = LatticeSpec(d=2, N=2, M=2)
        pot = PotentialField.constant(spec, 0.0)
        for ld in (matrix_logdet_aform(spec, pot), matrix_logdet_yform(spec, pot)):
            assert ld.sign == 1 and abs(ld.log_abs - math.log(4)) < 1e-14

    def test_free_3x3(self):
        spec = LatticeSpec(d=2, N=3, M=3)
        pot = PotentialField.constant(spec, 0.0)
        a = matrix_logdet_aform(spec, pot)
        y = matrix_logdet_yform(spec, pot)
        assert abs(a.log_abs - math.log(192)) < 1e-13
        assert abs(y.log_abs - math.log(192)) < 1e-13
        assert a.method == "matrix-A" and y.method == "matrix-Y"

    def test_massive_single_site(self):
        spec = LatticeSpec(d=2, N=2, M=2)
        pot = PotentialField.constant(spec, 1.0)
        assert abs(matrix_logdet_yform(spec, pot).log_abs - math.log(5)) < 1e-14

    def test_d3_single_site(self):
        spec = LatticeSpec(d=3, N=2, M=2)
        pot = PotentialField.constant(spec, 0.0)
        assert abs(matrix_logdet_aform(spec, pot).log_abs - math.log(6)) < 1e-14

    def test_k1_equals_scalar_with_shifted_potential(self):
        # one transverse site contributes a constant +2
        spec = LatticeSpec(d=2, N=9, M=2)
        pot = PotentialField.random_uniform(spec, seed=11)
        a = matrix_logdet_aform(spec, pot)
        sc = scalar_logdet(pot.values[:, 0] + 2.0)
        assert a.sign == sc.sign
        assert abs(a.log_abs - sc.log_abs) < 1e-12 * max(1.0, abs(sc.log_abs))

    def test_d1_matrix_path_equals_scalar(self):
        spec = LatticeSpec(d=1, N=14)
        pot = PotentialField.random_uniform(spec, seed=5)
        a = matrix_logdet_aform(spec, pot)
        sc = scalar_logdet(pot.values[:, 0])
        assert a.sign == sc.sign
        assert abs(a.log_abs - sc.log_abs) < 1e-12 * max(1.0, abs(sc.log_abs))

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_equivalence_random_potentials(self, seed):
        # lattices up to (N-1)K = 512, V uniform in [-1, 1]
        rng = np.random.default_rng(seed)
        N = int(rng.integers(3, 30))
        M = int(rng.integers(2, 20))
        if (N - 1) * (M - 1) > 512:
            M = 512 // (N - 1) + 1
        spec = LatticeSpec(d=2, N=N, M=M)
        pot = PotentialField.random_uniform(spec, seed=seed)
        ref = dense_logdet(build_interior_hamiltonian(spec, pot))
        a = matrix_logdet_aform(spec, pot)
        assert a.sign == ref.sign
        assert abs(a.log_abs - ref.log_abs) < 1e-10 * max(1.0, abs(ref.log_abs))

    @pytest.mark.parametrize("shift", [0.0, -5.0])
    def test_forms_agree_including_negative_dets(self, shift):
        for seed in range(5):
            spec = LatticeSpec(d=2, N=8, M=7)
            base = PotentialField.random_uniform(spec, seed=seed)
            pot = PotentialField(spec, base.values + shift, ("file", "synthetic"))
            a = matrix_logdet_aform(spec, pot)
            y = matrix_logdet_yform(spec, pot)
            d = dense_logdet(build_interior_hamiltonian(spec, pot))
            assert a.sign == y.sign == d.sign
            assert abs(a.log_abs - y.log_abs) < 1e-10 * max(1.0, abs(a.log_abs))
            assert abs(a.log_abs - d.log_abs) < 1e-10 * max(1.0, abs(a.log_abs))

    def test_singular_crossing_matrix(self):
        # B_1 = 2 + 2 - 4 = 0 at the first slice
        spec = LatticeSpec(d=2, N=3, M=2)
        pot = PotentialField.constant(spec, -4.0)
        with pytest.raises(SingularCrossing) as exc:
            matrix_logdet_aform(spec, pot)
        assert exc.value.slice_index == 1

    @pytest.mark.parametrize("s", [4096, 4097, 8193])
    def test_sub_threshold_crossing_past_first_chunk(self, s):
        # K = 1, T_n = 4 + V_n: B_{s-1} = 4 + 1e305 - ..., so the pivot at
        # slice s is 0 - 1/B_{s-1} = -1e-305; dsytrf does not flag it, and
        # the chunked decode must name slice s
        spec = LatticeSpec(d=2, N=9001, M=2)
        V = np.zeros((spec.N - 1, 1))
        V[s - 2] = 1e305
        V[s - 1] = -4.0
        pot = PotentialField(spec, V, ("file", "test"))
        with pytest.raises(SingularCrossing) as exc:
            matrix_logdet_aform(spec, pot)
        assert exc.value.slice_index == s

    def test_gaussian_toy_needs_no_linear_term(self):
        # 2-slice toy: the quadratic-only recursion reproduces the dense
        # determinant exactly, confirming no linear correction is missing
        spec = LatticeSpec(d=2, N=3, M=3)
        pot = PotentialField.random_uniform(spec, seed=2)
        a = matrix_logdet_aform(spec, pot)
        d = dense_logdet(build_interior_hamiltonian(spec, pot))
        assert a.sign == d.sign
        assert abs(a.log_abs - d.log_abs) < 1e-12 * max(1.0, abs(d.log_abs))


class TestStateIterators:
    def test_partial_products_match_y_determinants(self):
        # the A-form after n slices is ln|det| of the lattice cut to its
        # first n slices, which the growing form reads as det Y_{n+1};
        # with V >= 0 every prefix operator is positive definite, sign +1
        cases = (
            (LatticeSpec(d=2, N=7, M=5), 3, -1.0, 1.0),
            (LatticeSpec(d=2, N=8, M=6), 0, 0.0, 2.0),
        )
        for spec, seed, lo, hi in cases:
            pot = PotentialField.random_uniform(spec, seed=seed, lo=lo, hi=hi)
            for n in range(1, spec.N - 1):
                sub = LatticeSpec(d=2, N=n + 1, M=spec.M)
                sub_pot = PotentialField(sub, pot.values[:n], pot.provenance)
                d = dense_logdet(build_interior_hamiltonian(sub, sub_pot))
                for ld in (matrix_logdet_aform(sub, sub_pot), matrix_logdet_yform(sub, sub_pot)):
                    assert abs(ld.log_abs - d.log_abs) < 1e-9 * max(1.0, abs(d.log_abs))
                    assert ld.sign == d.sign
                if lo >= 0.0:
                    assert d.sign == 1

    def test_yform_rescales_and_survives(self):
        # heavy mass keeps the mode growth-rate spread small (inside the
        # growing form's validity envelope) while the overall growth passes
        # the rescale threshold several times
        spec = LatticeSpec(d=2, N=100, M=3)
        pot = PotentialField.constant(spec, 9.0)
        ld = matrix_logdet_yform(spec, pot)
        assert ld.diagnostics.rescale_count >= 1
        a = matrix_logdet_aform(spec, pot)
        assert ld.sign == a.sign == 1
        assert abs(ld.log_abs - a.log_abs) < 1e-9 * abs(a.log_abs)


class TestSweepMemory:
    @pytest.mark.parametrize("route", [matrix_logdet_aform, matrix_logdet_yform])
    def test_peak_memory_independent_of_sweep_length(self, route):
        """A sweep keeps O(K^2) working memory, not the O(N K^2) slice stack.

        At N = 1025, M = 65 (K = 64, 1024 slices) the bound is the sum of
        - the working set: at most 16 K x K float64 matrices (the slice
          base, the current slice, the inverse or the Y pair, the identity
          and LAPACK's outputs), 16 * 8 K^2 bytes = 0.52 MB;
        - the A-form's pivot buffers: d, sub and ipiv rows, 8 bytes each,
          for min(N - 1, 4096) slices of K entries, plus at most five
          temporaries of that size made by one chunk decode: 8 * 8 R K
          bytes = 4.19 MB with R = 1024 rows.
        That is 4.72 MB; a stack of all 1024 slices alone is 33.6 MB.
        """
        spec = LatticeSpec(d=2, N=1025, M=65)
        pot = PotentialField.constant(spec, 1.0)
        small = LatticeSpec(d=2, N=3, M=3)
        route(small, PotentialField.constant(small, 1.0))  # lazy imports
        K, rows = spec.K, min(spec.N - 1, 4096)
        bound = 16 * 8 * K * K + 8 * 8 * rows * K
        tracemalloc.start()
        try:
            route(spec, pot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 1e6:.1f} MB over {bound / 1e6:.2f} MB"
