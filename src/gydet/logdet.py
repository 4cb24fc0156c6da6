"""Sign-tracked log-determinants and the symmetric factorization kernel.

Determinants here grow like exp(c*N*M) and overflow floating point long
before desk-scale problem sizes are exhausted, so every route works in the
log domain and carries the sign separately.  The workhorse is LAPACK's
Bunch-Kaufman factorization (dsytrf): symmetric pivoting, stable for the
indefinite matrices that appear once potentials push eigenvalues through
zero.  Because the factorization is congruent (B = L D L^T up to a
symmetric permutation), the permutation parity cancels and the sign of
det(B) is read off the 1x1 and 2x2 blocks of D alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs

from .errors import SingularMatrix

#: Pivot magnitude below which a singular crossing is declared.
EPS_PIVOT = 1e-300

#: dense_logdet checks and restores H in square tiles of side TILE,
#: widened for a small H until its diagonal tiles, which it saves whole,
#: hold up to SAVED_MIN entries (2 MB) in all.
TILE = 128
SAVED_MIN = 1 << 18


@dataclass(frozen=True)
class Diagnostics:
    """Numerical health record of a log-determinant computation."""

    min_pivot: float = math.inf
    rescale_count: int = 0
    #: Negative eigenvalues of the matrix, by Sylvester's law of inertia
    #: from the pivot blocks of a symmetric factorization; None where the
    #: route does not count them.
    n_negative: int | None = None
    #: Bunch-Kaufman factorizations (dsytrf calls) of the bounded sweep,
    #: which skips them on a run of repeated slices at its fixed point;
    #: None for every other route.
    factorizations: int | None = None


@dataclass(frozen=True)
class LogDet:
    """ln|det| plus sign, method tag, and diagnostics.

    method is one of: scalar-a, matrix-A, matrix-Y, dense-LU,
    eigen-product, sinh-product.
    """

    log_abs: float
    sign: int
    method: str
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not math.isfinite(self.log_abs):
            raise ValueError(f"log_abs must be finite, got {self.log_abs}")

    @property
    def det(self) -> float:
        """Plain determinant; overflows to +-inf when log_abs is large."""
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return self.sign * math.inf


def decode_bunch_kaufman(d: np.ndarray, sub: np.ndarray, ipiv: np.ndarray):
    """Reduce Bunch-Kaufman D-block data to (log_abs, n_negative, min_pivot).

    d and ipiv are the diagonal and pivot vector of the factor returned by
    dsytrf(lower=1), sub its first subdiagonal; all three are raveled, so
    sub[i] must be the entry below d[i].  That holds for one factorization
    (sub = ldu.diagonal(-1), of length K-1) and for a stack of them whose
    sub rows are zero-padded to length K.  LAPACK marks the two rows of
    each 2x2 block, and only those, with negative ipiv entries; every
    factorization holds whole blocks, so the negative positions come in
    consecutive pairs and every other one is the first row of a block.
    Exact zero pivots are reported as min_pivot == 0.0, never as -inf logs.
    """
    d = np.asarray(d).ravel()
    neg = np.asarray(ipiv).ravel() < 0
    has_2x2 = neg.any()
    d1 = d[~neg] if has_2x2 else d
    ad1 = np.abs(d1)
    nneg = int(np.count_nonzero(d1 < 0.0))
    min_pivot = float(ad1.min()) if ad1.size else math.inf
    if min_pivot == 0.0:
        log_abs = -math.inf
    else:
        log_abs = float(np.log(ad1, out=ad1).sum()) if ad1.size else 0.0
    if has_2x2:
        sub = np.asarray(sub).ravel()
        firsts = np.flatnonzero(neg)[::2]
        det2 = d[firsts] * d[firsts + 1] - sub[firsts] ** 2
        ad2 = np.abs(det2)
        nneg += int(np.count_nonzero(det2 < 0.0))
        min2 = float(ad2.min())
        # sqrt|det| is the geometric-mean magnitude of the block's eigenpair
        min_pivot = min(min_pivot, math.sqrt(min2))
        if min2 == 0.0:
            log_abs = -math.inf
        elif math.isfinite(log_abs):
            log_abs += float(np.log(ad2).sum())
    return log_abs, nneg, min_pivot


class SymmetricFactor:
    """One Bunch-Kaufman factorization of a symmetric matrix.

    Wraps dsytrf output so callers can read the determinant data and solve
    against the factors without refactorizing.  B is read from its lower
    triangle, diagonal included.  With overwrite=True and a
    Fortran-contiguous float64 B, the factors are written over that
    triangle of B itself and its strict upper triangle is left untouched;
    otherwise dsytrf works on a copy and B is never written.
    """

    def __init__(self, B: np.ndarray, overwrite: bool = False):
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {B.shape}")
        n = B.shape[0]
        lwork = dsytrf_lwork(n)[0]
        self._ldu, self._ipiv, info = dsytrf(
            B, lower=1, lwork=lwork, overwrite_a=overwrite
        )
        self.exact_singular = info > 0
        if info < 0:
            raise ValueError(f"dsytrf: illegal argument {-info}")
        self.log_abs, self.n_negative, self.min_pivot = decode_bunch_kaufman(
            self._ldu.diagonal(), self._ldu.diagonal(-1), self._ipiv
        )
        self.sign = -1 if self.n_negative % 2 else 1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = dsytrs(self._ldu, self._ipiv, rhs, lower=1)
        if info != 0:
            raise SingularMatrix("solve against singular factors")
        return x


def dense_logdet(H: np.ndarray) -> LogDet:
    """Log-determinant of a dense symmetric matrix by pivoted factorization.

    Independent of every recursion route: one Bunch-Kaufman sweep over the
    full matrix, log_abs summed over pivot blocks, sign from their product.
    It factors H.T, which is H when H is symmetric, from its lower
    triangle, so only the upper triangle of H (diagonal included) is read.

    A writeable C-ordered H is factored in place, so the call needs no
    second n x n matrix.  H is written during the call and restored bit
    for bit before it returns, also when SingularMatrix is raised, so it
    must not be read from another thread meanwhile.  The restore copies
    H's diagonal tiles back from a saved copy (at most the larger of
    n x TILE and SAVED_MIN entries) and the rest of its upper triangle from
    the lower one, transposed; that is exact because a check before the
    factorization finds the two triangles equal there bit for bit.  Where
    they differ, and for read-only, Fortran-ordered or strided inputs,
    LAPACK works on a copy and H is never written.
    Raises ValueError on a non-finite entry and SingularMatrix on an exact
    zero pivot.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    A = H.T
    n = A.shape[0]
    side = max(TILE, SAVED_MIN // max(n, 1))
    tiles = [slice(i, i + side) for i in range(0, n, side)]
    if _finite_and_mirrored(A, tiles) and A.flags.f_contiguous and A.flags.writeable:
        saved = [A[t, t].copy(order="F") for t in tiles]
        try:
            fac = SymmetricFactor(A, overwrite=True)
        finally:
            for k, t in enumerate(tiles):
                A[t, t] = saved[k]
                for u in tiles[k + 1:]:
                    A[u, t] = A[t, u].T
    else:
        fac = SymmetricFactor(A)
    if fac.exact_singular or not math.isfinite(fac.log_abs):
        raise SingularMatrix("exact zero pivot: determinant is zero")
    return LogDet(
        log_abs=fac.log_abs,
        sign=fac.sign,
        method="dense-LU",
        diagnostics=Diagnostics(min_pivot=fac.min_pivot, n_negative=fac.n_negative),
    )


def _finite_and_mirrored(A: np.ndarray, tiles: list[slice]) -> bool:
    """Whether every tile of A below its diagonal tiles mirrors its partner.

    A[u, t] mirrors A[t, u] when it equals its transpose.  Compares bits
    through an int64 view, so a zero's sign counts, and stops comparing at
    the first tile that differs.  Raises ValueError if any entry of A is
    not finite.  Both checks run tile by tile (np.isfinite over whole
    columns of tiles), so neither makes an n x n temporary.
    """
    bits = A.view(np.int64)
    mirrored = True
    for k, t in enumerate(tiles):
        if not np.isfinite(A[:, t]).all():
            raise ValueError("matrix contains non-finite entries")
        mirrored = mirrored and all(
            np.array_equal(bits[t, u], bits[u, t].T) for u in tiles[k + 1:]
        )
    return mirrored
