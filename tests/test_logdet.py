import math
import tracemalloc

import numpy as np
import pytest

from gydet.errors import SingularMatrix
from gydet.logdet import SAVED_MIN, TILE, LogDet, SymmetricFactor, decode_bunch_kaufman, dense_logdet


def cofactor_det_3x3(A):
    return (
        A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
        - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
        + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
    )


class TestLogDetType:
    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            LogDet(log_abs=0.0, sign=0, method="dense-LU")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LogDet(log_abs=math.inf, sign=1, method="dense-LU")

    def test_det_overflow_saturates(self):
        assert LogDet(log_abs=1e4, sign=-1, method="dense-LU").det == -math.inf
        assert LogDet(log_abs=math.log(3.0), sign=1, method="dense-LU").det == pytest.approx(3.0)


class TestSymmetricFactor:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_slogdet(self, seed):
        # mixes definite and indefinite matrices; 2x2 pivot blocks appear
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        A = rng.normal(size=(n, n))
        B = (A + A.T) / 2
        if seed % 3 == 0:
            B = B @ B.T + 0.1 * np.eye(n)
        fac = SymmetricFactor(B)
        sign, logabs = np.linalg.slogdet(B)
        assert fac.sign == int(sign)
        assert abs(fac.log_abs - logabs) < 1e-8 * max(1.0, abs(logabs))

    def test_solve(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(12, 12))
        B = (A + A.T) / 2
        fac = SymmetricFactor(B)
        X = fac.solve(np.eye(12))
        assert np.abs(B @ X - np.eye(12)).max() < 1e-10

    def test_positive_definite_has_positive_pivots(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(10, 10))
        B = A @ A.T + np.eye(10)
        fac = SymmetricFactor(B)
        assert fac.sign == 1 and fac.min_pivot > 0


class TestDecodeStacked:
    def test_chunk_equals_rowwise(self):
        # stacked decode must agree with per-row decode even when 2x2
        # blocks appear in some rows only
        from scipy.linalg.lapack import dsytrf

        rng = np.random.default_rng(7)
        K = 9
        ds, os_, ips = [], [], []
        tot_log, tot_neg = 0.0, 0
        for row in range(25):
            A = rng.normal(size=(K, K))
            B = (A + A.T) / 2
            if row % 2:
                B = B @ B.T
            ldu, ipiv, info = dsytrf(B, lower=1)
            ds.append(ldu.diagonal().copy())
            os_.append(np.append(ldu.diagonal(-1), 0.0))  # padded to K
            ips.append(ipiv.copy())
            la, nn, _ = decode_bunch_kaufman(ds[-1], os_[-1], ips[-1])
            tot_log += la
            tot_neg += nn
        la, nn, _ = decode_bunch_kaufman(np.array(ds), np.array(os_), np.array(ips))
        assert abs(la - tot_log) < 1e-9 * max(1.0, abs(tot_log))
        assert nn == tot_neg

    def test_back_to_back_2x2_blocks(self):
        # two 2x2 blocks in a row, then a 1x1, then a 2x2:
        # det = (-4)(-9.02)(5)(-1) = -180.4
        from scipy.linalg import block_diag
        from scipy.linalg.lapack import dsytrf

        B = block_diag([[0, 2], [2, 0]], [[0.1, 3], [3, -0.2]], [[5]], [[0, 1], [1, 0]])
        ldu, ipiv, _ = dsytrf(B, lower=1)
        assert ipiv.tolist() == [-2, -2, -4, -4, 5, -7, -7]
        sign, want = np.linalg.slogdet(B)
        assert sign == -1 and abs(want - 5.19517660762852) < 1e-13
        d, sub = ldu.diagonal(), ldu.diagonal(-1)
        la, nn, _ = decode_bunch_kaufman(d, sub, ipiv)
        assert nn % 2 == 1 and abs(la - want) < 1e-13
        # the same factor stacked after a positive-definite one: I + the
        # all-ones matrix has eigenvalues 1 (six times) and 8
        P = np.eye(7) + 1.0
        P_ldu, P_ipiv, _ = dsytrf(P, lower=1)
        la, nn, _ = decode_bunch_kaufman(
            np.array([P_ldu.diagonal(), d]),
            np.array([np.append(P_ldu.diagonal(-1), 0.0), np.append(sub, 0.0)]),
            np.array([P_ipiv, ipiv]),
        )
        assert nn % 2 == 1 and abs(la - (want + math.log(8.0))) < 1e-13


class TestDenseLogdet:
    def test_trivial(self):
        ld = dense_logdet(np.array([[2.0]]))
        assert ld.sign == 1 and abs(ld.log_abs - math.log(2)) < 1e-15
        assert ld.method == "dense-LU"

    def test_free_2d_3x3(self):
        H = np.array([
            [4, -1, -1, 0],
            [-1, 4, 0, -1],
            [-1, 0, 4, -1],
            [0, -1, -1, 4],
        ], dtype=float)
        ld = dense_logdet(H)
        assert ld.sign == 1
        assert abs(ld.log_abs - math.log(192)) < 1e-13

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_cofactor_3x3(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(3, 3))
        B = (A + A.T) / 2
        want = cofactor_det_3x3(B)
        ld = dense_logdet(B)
        got = ld.sign * math.exp(ld.log_abs)
        assert abs(got - want) < 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_as_fortran_copy(self, seed):
        # symmetric and indefinite, so 2x2 pivot blocks appear; H is
        # C-ordered, and factoring H.T spares LAPACK a transposing copy
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(60, 60))
        H = A + A.T
        kept = H.copy()
        ld = dense_logdet(H)
        fac = SymmetricFactor(np.asfortranarray(H))
        d = ld.diagnostics
        assert (ld.log_abs, ld.sign, d.min_pivot, d.n_negative) == (
            fac.log_abs, fac.sign, fac.min_pivot, fac.n_negative
        )
        assert np.array_equal(H.view(np.int64), kept.view(np.int64))
        # only the upper triangle is read
        H[np.tril_indices(60, -1)] = 7.0
        assert dense_logdet(H) == ld

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            dense_logdet(np.zeros((2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dense_logdet(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_shape_error_names_the_given_shape(self):
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            dense_logdet(np.ones((2, 3)))


def symmetric_indefinite(n, seed):
    """Symmetric and indefinite, so 2x2 pivot blocks appear."""
    A = np.random.default_rng(seed).normal(size=(n, n))
    return A + A.T


def upper_triangle_factor(H):
    """The factorization dense_logdet must reproduce: H's upper triangle,
    handed to LAPACK as a Fortran-ordered copy."""
    return SymmetricFactor(np.asfortranarray(H.T))


def traced_peak(H):
    tracemalloc.start()
    try:
        ld = dense_logdet(H)
        return ld, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_same_bits(H, kept):
    assert np.array_equal(H.view(np.int64), kept.view(np.int64))


def assert_matches_factor(ld, fac):
    d = ld.diagnostics
    assert (ld.log_abs, ld.sign, d.min_pivot, d.n_negative) == (
        fac.log_abs, fac.sign, fac.min_pivot, fac.n_negative
    )


class TestDenseInPlace:
    """A writeable C-ordered symmetric H is factored in place and restored."""

    def test_no_second_matrix(self):
        H = symmetric_indefinite(1500, 0)
        kept = H.copy()
        _, peak = traced_peak(H)
        assert peak < H.nbytes / 4
        assert_same_bits(H, kept)

    # test_same_bits_as_fortran_copy covers one tile; these span several
    @pytest.mark.parametrize("n", [600, 900])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_bits_as_copy(self, n, seed):
        assert max(TILE, SAVED_MIN // n) < n
        H = symmetric_indefinite(n, seed)
        kept = H.copy()
        fac = upper_triangle_factor(H)
        assert (fac._ipiv < 0).any()
        assert_matches_factor(dense_logdet(H), fac)
        assert_same_bits(H, kept)

    @pytest.mark.parametrize("n", [3, 600])
    def test_restored_after_singular(self, n):
        H = np.zeros((n, n))
        H[1:, 1:] = symmetric_indefinite(n - 1, 4)
        kept = H.copy()
        with pytest.raises(SingularMatrix):
            dense_logdet(H)
        assert_same_bits(H, kept)

    def test_repeated_calls_agree(self):
        # `bench --methods dense` factors the same H again and again
        H = symmetric_indefinite(600, 5)
        kept = H.copy()
        first = dense_logdet(H)
        assert dense_logdet(H) == first and dense_logdet(H) == first
        assert_same_bits(H, kept)

    @pytest.mark.parametrize(
        "where", [(500, 7), (9, 4)], ids=["off-diagonal-tile", "diagonal-tile"]
    )
    def test_nan_below_diagonal_raises(self, where):
        H = symmetric_indefinite(600, 6)
        H[where] = np.nan
        kept = H.copy()
        with pytest.raises(ValueError, match="non-finite"):
            dense_logdet(H)
        assert_same_bits(H, kept)


def read_only(H):
    H = H.copy()
    H.setflags(write=False)
    return H


def signed_zero_pair(H):
    # differs from H.T only in the sign of one zero, off the diagonal tiles
    H = H.copy()
    H[3, 600] = -0.0
    H[600, 3] = 0.0
    return H


class TestDenseCopyPath:
    """Inputs that cannot be restored in place are factored from a copy."""

    @pytest.mark.parametrize(
        "make",
        [read_only, np.asfortranarray, lambda H: H[::2, ::2], signed_zero_pair],
        ids=["read-only", "fortran", "strided", "signed-zero"],
    )
    def test_copy_path(self, make):
        H = make(symmetric_indefinite(900, 7))
        kept = H.copy()
        ld, peak = traced_peak(H)
        assert peak >= H.nbytes
        assert_matches_factor(ld, upper_triangle_factor(H))
        assert_same_bits(H, kept)
