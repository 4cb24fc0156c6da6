import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dsytrf, dsytrs

from gydet import gy
from gydet.errors import SingularCrossing, SizeCapExceeded
from gydet.gy import (
    L_GROWTH_MAX,
    matrix_logdet_aform,
    matrix_logdet_yform,
    scalar_logdet,
    scalar_y_solution,
)
from gydet.lattice import (
    LatticeSpec,
    PotentialField,
    build_interior_hamiltonian,
    transverse_laplacian,
)
from gydet.logdet import PANEL, dense_logdet
from gydet.oracles import sinh_product_logdet


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

    def test_rescale_from_first_pivot(self):
        # y_2 = 1e160 is past the rescale threshold: unless it is rescaled
        # before the next site, y_3 = 1e320 overflows
        ld = scalar_logdet([1e160, 1e160])
        sign, want = np.linalg.slogdet(np.array([[2.0 + 1e160, -1.0], [-1.0, 2.0 + 1e160]]))
        assert (ld.sign, sign) == (1, 1.0)
        assert ld.log_abs == pytest.approx(want, rel=1e-12)  # 736.8272297580946

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

    @pytest.mark.parametrize("route", [matrix_logdet_aform, matrix_logdet_yform])
    def test_block_cap_refused_before_allocating(self, route):
        # K = 9,801: one K x K block would be 768 MB
        spec = LatticeSpec(d=3, N=3, M=100)
        pot = PotentialField.constant(spec, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapExceeded, match="K=9801"):
                route(spec, pot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * spec.K * 8

    @pytest.mark.parametrize("s", [4096, 4097, 8193])
    def test_sub_threshold_crossing_past_first_chunk(self, s):
        # K = 1, T_n = 4 + V_n: B_{s-1} = 4 + 1e305 - ..., so the pivot at
        # slice s is 0 - 1/B_{s-1} = -1e-305; dsytrf does not flag it, and
        # the chunked decode must name slice s
        spec = LatticeSpec(d=2, N=9001, M=2)
        assert gy._decode_rows(spec.K) == 4096
        V = np.zeros((spec.N - 1, 1))
        V[s - 2] = 1e305
        V[s - 1] = -4.0
        pot = PotentialField(spec, V, ("file", "test"))
        with pytest.raises(SingularCrossing) as exc:
            matrix_logdet_aform(spec, pot)
        assert exc.value.slice_index == s

    @pytest.mark.parametrize("chunks, offset", [(1, 0), (1, 1), (2, 1)])
    def test_sub_threshold_crossing_past_small_chunk(self, chunks, offset):
        # K = 5 decodes every 1,638 slices; B_{s-1} ~ 1e305 I, so
        # B_s = diag(0, 3, 3, 3, 3) - B_{s-1}^{-1} has a 1x1 pivot near -1e-305
        K = 5
        s = chunks * gy._decode_rows(K) + offset
        blocks = [4.0 * np.eye(K)] * (s + 3)
        blocks[s - 2] = 1e305 * np.eye(K)
        blocks[s - 1] = np.diag([0.0, 3.0, 3.0, 3.0, 3.0])
        with pytest.raises(SingularCrossing) as exc:
            gy._aform_logdet(iter(blocks), K, len(blocks))
        assert exc.value.slice_index == s
        assert exc.value.pivot == pytest.approx(1e-305, rel=1e-15)

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


def sweep_peak(route, spec, pot):
    """tracemalloc peak of one sweep, in bytes.  Lazy imports and the
    cached transverse Laplacian, which outlive the sweep, are made
    beforehand."""
    small = LatticeSpec(d=2, N=3, M=3)
    route(small, PotentialField.constant(small, 1.0))
    transverse_laplacian(spec)
    tracemalloc.start()
    try:
        route(spec, pot)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSweepMemory:
    """A sweep keeps O(K^2) working memory at any length, not the O(N K^2)
    slice stack: the A-form buffers the pivot data of _decode_rows(K)
    slices, about 8192 entries, between two decodes.  A bound on the peak
    is the sum of
    - a working set of K x K float64 blocks.  The A-form holds one, B_n,
      in which each step factors and inverts, and a second, the copy of
      B_{n-2}^{-1}, while a run of repeated slices has not converged;
    - dsytrf's workspace of gy.NB * K float64 entries, 8 NB K bytes;
    - K x PANEL float64 panels, 8 * 64 K bytes each: the panel of a step
      that solves against the identity (_solve_inverse);
    - the A-form's pivot buffers: d, sub and ipiv rows, at most 8 bytes
      an entry, for R = min(N - 1, _decode_rows(K)) slices of K entries,
      plus the temporaries of one chunk decode (two float64 copies of the
      1x1 pivots and three masks of a byte an entry): 5 * 8 R K bytes."""

    @staticmethod
    def bound(spec, blocks, panels):
        K, rows = spec.K, min(spec.N - 1, gy._decode_rows(spec.K))
        return (blocks * 8 * K * K + 8 * gy.NB * K + panels * 8 * PANEL * K
                + 5 * 8 * rows * K)

    @pytest.mark.parametrize("route", [matrix_logdet_aform, matrix_logdet_yform])
    def test_peak_memory_bounded(self, route):
        """At N = 1025, M = 65 (K = 64, 1024 slices, R = 128) the working
        set is at most 16 blocks (the Y-form's slice, its Y pair and their
        temporaries, and LAPACK's outputs), 0.52 MB, the workspace 0.01 MB
        and the pivot term 0.33 MB.  That is 0.86 MB; a stack of all 1024
        slices alone is 33.6 MB."""
        spec = LatticeSpec(d=2, N=1025, M=65)
        peak = sweep_peak(route, spec, PotentialField.constant(spec, 1.0))
        bound = self.bound(spec, 16, 0)
        assert peak < bound, f"peak {peak / 1e6:.2f} MB over {bound / 1e6:.2f} MB"

    @pytest.mark.parametrize("route", [matrix_logdet_aform, matrix_logdet_yform])
    def test_peak_memory_independent_of_sweep_length(self, route):
        # K = 63: sixteen times the slices add less than a tenth to the peak
        peaks = []
        for N in (257, 4097):
            spec = LatticeSpec(d=2, N=N, M=64)
            peaks.append(sweep_peak(route, spec, PotentialField.constant(spec, 1.0)))
        short, long = peaks
        assert long <= 1.1 * short, f"{long / 1e6:.2f} MB at N = 4097, {short / 1e6:.2f} at 257"

    def test_peak_memory_with_guarded_steps(self):
        """At N = M = 128 (K = 127, R = 64) a random sweep solves against
        the identity on about one step in five, so the A-form holds B, the
        workspace and the panel: 0.13 MB, 0.024 MB and 0.065 MB, plus
        0.33 MB of pivot term, 0.54 MB.  A sweep that also keeps a dense
        slice and a K x K solve buffer peaks at 0.70 MB."""
        spec = LatticeSpec(d=2, N=128, M=128)
        peak = sweep_peak(matrix_logdet_aform, spec, PotentialField.random_uniform(spec, seed=0))
        bound = self.bound(spec, 1, 1)
        assert peak < bound, f"peak {peak / 1e6:.2f} MB over {bound / 1e6:.2f} MB"

    def test_peak_memory_three_dimensional(self):
        """At d = 3, N = 300, M = 24 (K = 529, R = 15) one block is 2.24 MB,
        so the working set of two blocks (B and the copy of B_{n-2}^{-1}
        while the constant run converges) dominates: 4.48 MB, plus 0.10 MB
        of dsytrf workspace and 0.32 MB of pivot term, 4.90 MB.  With the
        64 K workspace of dsytrf_lwork(K) the sweep peaks at 4.92 MB."""
        spec = LatticeSpec(d=3, N=300, M=24)
        peak = sweep_peak(matrix_logdet_aform, spec, PotentialField.constant(spec, 1.0))
        bound = self.bound(spec, 2, 0)
        assert peak < bound, f"peak {peak / 1e6:.2f} MB over {bound / 1e6:.2f} MB"


def two_by_two_pivots_after_first(spec, pot):
    """Rows in 2x2 Bunch-Kaufman blocks of B_2 .. B_{N-1}, from an
    independent sweep that inverts each B_n with numpy."""
    T0 = 2.0 * np.eye(spec.K) + transverse_laplacian(spec)
    inv, rows = 0.0, []
    for v in pot.values:
        B = T0 + np.diag(v) - inv
        rows.append(int(np.count_nonzero(dsytrf(B, lower=1)[1] < 0)))
        inv = np.linalg.inv(B)
    return sum(rows[1:])


def assert_matches(ld, ref, rel=1e-12):
    assert ld.sign == ref.sign
    assert abs(ld.log_abs - ref.log_abs) <= rel * max(1.0, abs(ref.log_abs))


class TestInPlaceInverse:
    """The A-form inverts each block in place with dsytri, which fills only
    the lower triangle and leaves stale entries above it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_two_by_two_pivots(self, seed):
        spec = LatticeSpec(d=2, N=12, M=11)
        pot = PotentialField.random_uniform(spec, seed=seed, lo=-4.5, hi=-3.5)
        assert two_by_two_pivots_after_first(spec, pot) > 0
        ref = dense_logdet(build_interior_hamiltonian(spec, pot))
        assert_matches(matrix_logdet_aform(spec, pot), ref)

    def test_k1(self):
        spec = LatticeSpec(d=2, N=40, M=2)
        pot = PotentialField.random_uniform(spec, seed=3, lo=-5.0, hi=-1.0)
        ref = dense_logdet(build_interior_hamiltonian(spec, pot))
        assert ref.sign == -1
        assert_matches(matrix_logdet_aform(spec, pot), ref)

    def test_sweep_across_decode_chunks(self):
        # 4099 slices: one full chunk of 4096 and a second of 3
        spec = LatticeSpec(d=2, N=4100, M=3)
        assert gy._decode_rows(spec.K) == 4096
        pot = PotentialField.constant(spec, 0.5)
        assert_matches(matrix_logdet_aform(spec, pot), sinh_product_logdet(0.5, 4100, 3))

    @pytest.mark.parametrize("mirror", [True, False], ids=["mirrored", "unmirrored"])
    def test_nearly_singular_wide_sweep(self, mirror):
        # K = 255, smallest pivot 0.049: a long-double (80-bit) Gauss-Jordan
        # sweep of the same recursion gives ln|det| = 73790.49542483062 for
        # the lattice and its mirror image.  Mirrored, dsytri alone lands
        # 5.9e-12 relative off, solving every step 1.1e-14; the growth check
        # keeps the mixed sweep near the latter.  Unmirrored, the mixed sweep
        # is 1.4e-15 off, and 5.7e-14 to 2.7e-13 with L_GROWTH_MAX at 3, 6, 8
        spec = LatticeSpec(d=2, N=256, M=256)
        base = PotentialField.random_uniform(spec, seed=3833724231935326071)
        pot = PotentialField(spec, base.values[::-1], ("mirror",) + base.provenance)
        ld = matrix_logdet_aform(spec, pot if mirror else base)
        assert ld.sign == -1
        assert abs(ld.log_abs - 73790.49542483062) <= 5e-14 * 73790.49542483062

    @pytest.mark.parametrize("n_slices", [2, 5])
    def test_singular_later_slice(self, n_slices):
        # K = 2: B_1 = [[1, -1], [-1, 2]] has the exact inverse [[2, 1], [1, 1]],
        # so B_2 = [[2, -2], [-2, 2]] is exactly singular
        spec = LatticeSpec(d=2, N=n_slices + 1, M=3)
        V = np.zeros((n_slices, 2))
        V[0] = (-3.0, -2.0)
        V[1] = (0.0, -1.0)
        pot = PotentialField(spec, V, ("file", "test"))
        with pytest.raises(SingularCrossing) as exc:
            matrix_logdet_aform(spec, pot)
        assert exc.value.slice_index == 2


def record_inverse_kernels(monkeypatch):
    """The inverse kernel of each step the A-form inverts from now on, in
    step order: "dsytri", or "dsytrs" for a step that solves against the
    identity, however many column panels it takes (_solve_inverse)."""
    steps = []
    for name, attr in (("dsytri", "dsytri"), ("dsytrs", "_solve_inverse")):
        kernel = getattr(gy, attr)

        def recorded(*args, name=name, kernel=kernel):
            steps.append(name)
            return kernel(*args)

        monkeypatch.setattr(gy, attr, recorded)
    return steps


def block_tridiagonal(blocks):
    """The matrix with the given diagonal blocks and -I off the diagonal."""
    n, K = len(blocks), blocks[0].shape[0]
    H = np.zeros((n * K, n * K))
    for i, T in enumerate(blocks):
        H[i * K:(i + 1) * K, i * K:(i + 1) * K] = T
        if i:
            H[i * K:(i + 1) * K, (i - 1) * K:i * K] = -np.eye(K)
            H[(i - 1) * K:i * K, i * K:(i + 1) * K] = -np.eye(K)
    return H


class TestInverseKernelChoice:
    """Each step inverts with dsytri unless its Bunch-Kaufman factor L has
    an entry above L_GROWTH_MAX; then it solves with dsytrs, in column
    panels."""

    def test_constant_potential_never_solves(self, monkeypatch):
        # past the fixed point the steps invert nothing (TestFixedPointSkip)
        calls = record_inverse_kernels(monkeypatch)
        spec = LatticeSpec(d=2, N=64, M=64)
        ld = matrix_logdet_aform(spec, PotentialField.constant(spec, 0.5))
        assert set(calls) == {"dsytri"} and len(calls) < 62
        assert_matches(ld, sinh_product_logdet(0.5, 64, 64))

    def test_random_sweep_takes_both(self, monkeypatch):
        calls = record_inverse_kernels(monkeypatch)
        spec = LatticeSpec(d=2, N=40, M=40)
        pot = PotentialField.random_uniform(spec, seed=1074)
        ld = matrix_logdet_aform(spec, pot)
        assert len(calls) == 38 and {"dsytri", "dsytrs"} == set(calls)
        assert_matches(ld, dense_logdet(build_interior_hamiltonian(spec, pot)))

    def test_growth_solves(self, monkeypatch):
        # dsytrf takes 0.2 as a 1x1 pivot (|a11| sigma = 2 >= alpha |a21|^2),
        # so L has the entry 1/0.2 = 5, and the Schur complement
        # [[-4, 10], [10, 1]] is a 2x2 pivot block.  B_2 = 4I - B_1^{-1}
        # needs no pivoting (|L| < 0.64); B_3 = grown - B_2^{-1} has a 2x2
        # block again, whose off-diagonal 10.1 belongs to D, and |L| < 0.72
        grown = np.array([[0.2, 1.0, 0.0], [1.0, 1.0, 10.0], [0.0, 10.0, 1.0]])
        _, ipiv, _ = dsytrf(grown, lower=1)
        assert list(ipiv) == [1, -3, -3]
        blocks = [grown, 4.0 * np.eye(3), grown, 4.0 * np.eye(3)]
        calls = record_inverse_kernels(monkeypatch)
        ld = gy._aform_logdet(iter(blocks), 3, 4)
        assert calls == ["dsytrs", "dsytri", "dsytri"]
        assert_matches(ld, dense_logdet(block_tridiagonal(blocks)))

    def test_two_by_two_block_entry_is_not_growth(self, monkeypatch):
        # a 2x2 pivot block with off-diagonal 10 and nothing below it: L is
        # the identity, so the entry 10 must not count as growth
        swap = np.array([[0.0, 10.0], [10.0, 0.0]])
        _, ipiv, _ = dsytrf(swap, lower=1)
        assert list(ipiv) == [-2, -2]
        blocks = [swap, 3.0 * np.eye(2), swap]
        calls = record_inverse_kernels(monkeypatch)
        ld = gy._aform_logdet(iter(blocks), 2, 3)
        assert calls == ["dsytri", "dsytri"]
        assert_matches(ld, dense_logdet(block_tridiagonal(blocks)))

    # K = 64 is the last one-panel case, K = 65 the first with two; seed 64
    # draws a K = 64 matrix whose L stays within the bound
    @pytest.mark.parametrize(
        "K, seed",
        [(39, 39), (64, 65), (65, 65), (121, 121), (255, 255)],
        ids=["39", "64", "65", "121", "255"],
    )
    def test_panel_solve_is_whole_solve(self, K, seed):
        # a random symmetric matrix factors with 2x2 pivots and |L| past
        # the bound; the inverse solved in panels, left in place, has the
        # bits of one solve against the whole identity below the diagonal
        A = np.random.default_rng(seed).uniform(-1.0, 1.0, (K, K))
        ldu, ipiv, _ = dsytrf(A + A.T, lower=1)
        assert (ipiv < 0).any() and not gy._growth_bounded(ldu, ipiv)
        want = dsytrs(ldu, ipiv, np.eye(K), 1)[0]
        assert gy._solve_inverse(ldu, ipiv) == 0
        assert (np.tril(ldu).view(np.int64) == np.tril(want).view(np.int64)).all()


def l_max(ldu, ipiv):
    """The largest |entry| of L in ldu: its strict lower triangle with the
    subdiagonal entry of each 2x2 pivot block, which belongs to D, zeroed
    (NaN if any entry of L is NaN)."""
    L = np.tril(ldu, -1)
    firsts = np.flatnonzero(ipiv < 0)[::2]
    L[firsts + 1, firsts] = 0.0
    return np.abs(L).max()


class TestGrowthScan:
    """_growth_bounded, the panelled scan behind the inverse kernel choice,
    gives the verdict of one scan of L, and leaves the factor as it was."""

    @staticmethod
    def factor(K, seed):
        """A stand-in factor: L entries within the bound, 2x2 blocks at
        rows 0-1, 63-64 (the block entry (64, 63) lies below the first
        PANEL x PANEL square) and every tenth row pair, their D entries far
        past the bound, and the strict upper triangle filled with entries
        far past it too, as the stale entries of a real factor may be."""
        rng = np.random.default_rng(seed)
        ldu = np.asfortranarray(rng.uniform(-L_GROWTH_MAX, L_GROWTH_MAX, (K, K)))
        ldu[np.triu_indices(K)] = rng.uniform(-1e3, 1e3, K * (K + 1) // 2)
        ipiv = np.arange(1, K + 1, dtype=np.intc)
        for j in (0, 63, *range(5, K - 1, 10)):
            if j + 1 < K:
                ipiv[j] = ipiv[j + 1] = -(j + 2)
                ldu[j + 1, j] = rng.choice([-1.0, 1.0]) * rng.uniform(10.0, 1e3)
        return ldu, ipiv

    @staticmethod
    def edges(K):
        """Entries below the diagonal in rows and columns at panel edges."""
        lines = sorted({i for i in (0, 1, 62, 63, 64, 65, 126, 127, 128, 129, K - 2, K - 1)
                        if 0 <= i < K})
        return [(i, j) for i in lines for j in lines if i > j]

    def check(self, ldu, ipiv):
        before = ldu.copy(order="F")
        want = l_max(ldu, ipiv) <= L_GROWTH_MAX  # False for NaN
        assert gy._growth_bounded(ldu, ipiv) is bool(want)
        assert (ldu.view(np.int64) == before.view(np.int64)).all()
        return want

    @pytest.mark.parametrize("K", [1, 2, 15, 63, 64, 65, 127, 128, 129, 255])
    def test_verdict_is_numpy_max(self, K):
        ldu, ipiv = self.factor(K, K)
        assert K < 3 or (ipiv < 0).sum() >= 4
        assert self.check(ldu, ipiv)
        firsts = set(np.flatnonzero(ipiv < 0)[::2])
        for i, j in self.edges(K):
            saved = ldu[i, j]
            in_d = i == j + 1 and j in firsts
            for value, bounded in (
                (L_GROWTH_MAX, True),
                (-L_GROWTH_MAX, True),
                (np.nextafter(L_GROWTH_MAX, np.inf), in_d),
                (-np.nextafter(L_GROWTH_MAX, np.inf), in_d),
                (np.nan, in_d),
            ):
                ldu[i, j] = value
                assert self.check(ldu, ipiv) == bounded, (i, j, value)
            ldu[i, j] = saved

    def test_two_by_two_block_below_first_square(self):
        # the D entry (64, 63) sits in the rectangle the scan reads without
        # dlantr; an L entry at the same place is growth
        ldu, ipiv = self.factor(129, 1)
        assert list(ipiv[63:65]) == [-65, -65] and abs(ldu[64, 63]) > 10.0
        assert self.check(ldu, ipiv)
        ipiv[63:65] = (64, 65)
        assert not self.check(ldu, ipiv)

    def test_nan_is_never_bounded(self):
        # a NaN at either end of a panel's rectangle, where Python's
        # max(0.0, nan) would drop it
        ldu, ipiv = self.factor(255, 2)
        for i, j in ((64, 0), (254, 63), (200, 150), (254, 253)):
            saved, ldu[i, j] = ldu[i, j], np.nan
            assert not self.check(ldu, ipiv)
            ldu[i, j] = saved


def every_slice(spec, pot):
    """The slices T_n of pot, each a fresh array, so none is marked as a
    repeat of the one before and the A-form factors every step."""
    T0 = 2.0 * np.eye(spec.K) + transverse_laplacian(spec)
    for v in pot.values:
        T = T0.copy()
        np.fill_diagonal(T, T0.diagonal() + v)
        yield T


def assert_bit_identical(spec, pot):
    """gy-a on pot returns exactly what a sweep factoring every step does,
    and raises the same SingularCrossing; the result, or None."""
    try:
        ref = gy._aform_logdet(every_slice(spec, pot), spec.K, spec.N - 1)
    except SingularCrossing as exc:
        with pytest.raises(SingularCrossing) as got:
            matrix_logdet_aform(spec, pot)
        assert (got.value.slice_index, got.value.pivot) == (exc.slice_index, exc.pivot)
        return None
    ld = matrix_logdet_aform(spec, pot)
    want = ref.diagnostics
    assert ld.log_abs == ref.log_abs and ld.sign == ref.sign
    assert ld.diagnostics.min_pivot == want.min_pivot
    assert ld.diagnostics.n_negative == want.n_negative
    assert want.factorizations == spec.N - 1
    return ld


def factored_steps(monkeypatch, spec, pot):
    """The slices at which gy-a calls dsytrf on pot."""
    consumed, steps = [], []
    factor, slices = gy.dsytrf, gy._slices

    def counted(*args):
        for t in slices(*args):
            consumed.append(t)
            yield t

    def recorded(*args):
        steps.append(len(consumed))
        return factor(*args)

    monkeypatch.setattr(gy, "dsytrf", recorded)
    monkeypatch.setattr(gy, "_slices", counted)
    matrix_logdet_aform(spec, pot)
    return steps


def stripes(spec, length, seed):
    """A potential constant over runs of `length` slices, drawn per run
    uniform on [0, 3) for each transverse site."""
    runs = -(-(spec.N - 1) // length)
    V = np.random.default_rng(seed).uniform(0.0, 3.0, size=(runs, spec.K))
    return PotentialField(spec, np.repeat(V, length, axis=0)[: spec.N - 1], ("file", "stripes"))


class TestFixedPointSkip:
    """On a run of repeated slices gy-a stops factoring once B_n reaches the
    fixed point bitwise, and copies the fixed pivot rows instead."""

    @pytest.mark.parametrize(
        "d, N, M, m2",
        [(2, 64, 64, 0.0), (2, 64, 64, 0.25), (2, 64, 64, 4.0), (3, 12, 12, 0.0),
         (3, 12, 12, 0.25), (3, 12, 12, 4.0), (2, 300, 9, 0.0), (3, 40, 6, 4.0),
         (2, 64, 64, -0.5)],
    )
    def test_constant_is_bit_identical(self, d, N, M, m2):
        spec = LatticeSpec(d=d, N=N, M=M)
        assert_bit_identical(spec, PotentialField.constant(spec, m2))

    @pytest.mark.parametrize("d, N, M, lo", [(3, 12, 12, -5.0), (4, 9, 6, -8.0)])
    def test_guarded_random_is_bit_identical(self, monkeypatch, d, N, M, lo):
        # V uniform in [lo, 1): most steps solve against the identity, in
        # two panels at K = 121 and 125, and the stencil is masked at the
        # faces of every axis but the slowest
        spec = LatticeSpec(d=d, N=N, M=M)
        pot = PotentialField.random_uniform(spec, seed=d, lo=lo, hi=1.0)
        assert_bit_identical(spec, pot)
        steps = record_inverse_kernels(monkeypatch)
        matrix_logdet_aform(spec, pot)
        assert steps.count("dsytrs") > (N - 2) // 2

    def test_massive_constant_skips_random_does_not(self):
        spec = LatticeSpec(d=2, N=64, M=64)
        for m2 in (0.5, 4.0):
            ld = assert_bit_identical(spec, PotentialField.constant(spec, m2))
            assert ld.diagnostics.factorizations < 63
        ld = assert_bit_identical(spec, PotentialField.random_uniform(spec, seed=2))
        assert ld.diagnostics.factorizations == 63

    @pytest.mark.parametrize("N, M, runs", [(256, 256, 1), (200, 10, 2)])
    def test_central_defect(self, monkeypatch, N, M, runs):
        # six random slices amid m^2 = 0.5: the sweep reaches the fixed point,
        # leaves it at the defect and, on the narrow lattice, reaches it again
        spec = LatticeSpec(d=2, N=N, M=M)
        V = np.full((N - 1, spec.K), 0.5)
        mid = (N - 1) // 2
        V[mid - 3:mid + 3] = np.random.default_rng(0).uniform(-1, 1, (6, spec.K))
        pot = PotentialField(spec, V, ("file", "defect"))
        ld = assert_bit_identical(spec, pot)
        steps = factored_steps(monkeypatch, spec, pot)
        assert len(steps) == ld.diagnostics.factorizations
        assert set(range(mid - 2, mid + 4)) <= set(steps)  # the defect
        skipped = sorted(set(range(1, N)) - set(steps))
        assert 1 + sum(b - a > 1 for a, b in zip(skipped, skipped[1:])) == runs

    def test_stripes_across_decode_chunk(self, monkeypatch):
        # 4,199 slices in runs of 300, K = 5: each run is at its fixed point
        # within 20 slices, so also where a chunk is decoded (after slices
        # 1,638 and 3,276) and at the slice after
        spec = LatticeSpec(d=2, N=4200, M=6)
        pot = stripes(spec, 300, seed=1)
        ld = assert_bit_identical(spec, pot)
        assert ld.diagnostics.factorizations < 4199 // 2
        rows = gy._decode_rows(spec.K)
        ends = set(range(rows, spec.N - 1, rows))
        assert len(ends) == 2
        assert not (ends | {n + 1 for n in ends}) & set(factored_steps(monkeypatch, spec, pot))

    def test_wide_fixed_run_across_decode_chunks(self):
        # K = 255 decodes every 32 slices; m^2 = 4 stops factoring after
        # slice 48, so the skipped run spans several decodes
        spec = LatticeSpec(d=2, N=200, M=256)
        ld = assert_bit_identical(spec, PotentialField.constant(spec, 4.0))
        rows = gy._decode_rows(spec.K)
        skipped = range(ld.diagnostics.factorizations + 1, spec.N)
        assert rows == 32 and sum(n % rows == 0 for n in skipped) >= 4

    def test_crossing_after_fixed_point(self):
        # K = 1 at its fixed point up to slice 6,000, then the spike and the
        # sub-threshold pivot of test_sub_threshold_crossing_past_first_chunk
        spec = LatticeSpec(d=2, N=9001, M=2)
        free = matrix_logdet_aform(spec, PotentialField.constant(spec, 0.0))
        assert free.diagnostics.factorizations < 100
        V = np.zeros((spec.N - 1, 1))
        V[6000] = 1e305
        V[6001] = -4.0
        assert assert_bit_identical(spec, PotentialField(spec, V, ("file", "test"))) is None

    def test_singular_constant(self):
        spec = LatticeSpec(d=2, N=64, M=64)
        with pytest.raises(SingularCrossing) as exc:
            matrix_logdet_aform(spec, PotentialField.constant(spec, -4.0))
        assert exc.value.slice_index == 1


class TestInertia:
    @pytest.mark.parametrize("seed", range(3))
    def test_negative_eigenvalue_count(self, seed):
        spec = LatticeSpec(d=2, N=12, M=11)
        base = PotentialField.random_uniform(spec, seed=seed)
        pot = PotentialField(spec, base.values - 3.0, ("file", "synthetic"))
        H = build_interior_hamiltonian(spec, pot)
        want = int(np.count_nonzero(np.linalg.eigvalsh(H) < 0))
        assert want > 0
        for ld in (matrix_logdet_aform(spec, pot), dense_logdet(H)):
            assert ld.diagnostics.n_negative == want
            assert ld.sign == (-1) ** want
