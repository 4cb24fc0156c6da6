"""Sign-tracked log-determinants and the symmetric factorization kernel.

Determinants here grow like exp(c*N*M) and overflow floating point long
before desk-scale problem sizes are exhausted, so every route works in the
log domain and carries the sign separately.  The workhorse is LAPACK's
Bunch-Kaufman factorization (dsytrf): symmetric pivoting, stable for the
indefinite matrices that appear once potentials push eigenvalues through
zero.  Because the factorization is congruent (B = L D L^T up to a
symmetric permutation), the permutation parity cancels and the sign of
det(B) is read off the 1x1 and 2x2 blocks of D alone.

A symmetric matrix factored in place by dsytrf(lower=1) keeps its strict
upper triangle, so the dense factorization (dense_logdet) and the bounded
sweep's guarded inverse (gy._solve_inverse) restore the lower one from it
with mirror_upper, and same_lower compares lower triangles bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs

from .errors import SingularMatrix

#: Pivot magnitude below which a singular crossing is declared.
EPS_PIVOT = 1e-300

#: Columns or rows that same_lower and mirror_upper handle at a time.  The
#: A-form's guarded inverse solves the identity PANEL columns at a time
#: (gy._solve_inverse), so it must stay a multiple of 8: OpenBLAS's dger,
#: which dsytrs calls for every pivot, groups the right-hand sides by four
#: columns, and a panel that starts off that grid rounds differently from
#: one solve against the whole identity.  Panels of 32, 40 and 64 columns
#: matched that solve bit for bit at K = 121 to 255; 67-column panels
#: moved the last three columns of each panel by up to 4.5e-15 at K = 121.
PANEL = 64

#: The strict upper triangle of a PANEL x PANEL square.
UPPER = np.triu(np.ones((PANEL, PANEL), dtype=bool), 1)

#: Entries (2 MB) up to which dense_logdet factors H from a copy.
COPY_MAX = 1 << 18


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
    d = np.asarray(d).reshape(-1)  # a view where possible, unlike ravel
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
        sub = np.asarray(sub).reshape(-1)
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


def same_lower(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the lower triangles of the square arrays a and b, diagonal
    included, hold the same bits, so a zero's sign counts.  The diagonal is
    compared first; until it agrees, no mask is made, and then the rest is
    compared PANEL columns at a time, so no mask is larger than n x PANEL."""
    a, b = a.view(np.int64), b.view(np.int64)
    if not np.array_equal(a.diagonal(), b.diagonal()):
        return False
    n = a.shape[0]
    for c in range(0, n, PANEL):
        e = min(c + PANEL, n)
        if (a[e:, c:e] != b[e:, c:e]).any():
            return False
        if (a[c:e, c:e] != b[c:e, c:e])[UPPER[: e - c, : e - c].T].any():
            return False
    return True


def mirror_upper(A: np.ndarray) -> None:
    """Copy the strict upper triangle of the square array A, transposed,
    over its strict lower triangle, in place; the diagonal is left as it
    is.  The lower triangle is written PANEL rows at a time: the part of
    each strip left of the diagonal in one transposed copy of the strip of
    PANEL columns above it, and its diagonal square through a mask.  Only
    the square needs a temporary, so none is larger than PANEL x PANEL."""
    n = A.shape[0]
    for r in range(0, n, PANEL):
        f = min(r + PANEL, n)
        A[r:f, :r] = A[:r, r:f].T
        square = A[r:f, r:f]
        np.copyto(square, square.T, where=UPPER[: f - r, : f - r].T)


def dense_logdet(H: np.ndarray) -> LogDet:
    """Log-determinant of a dense symmetric matrix by pivoted factorization.

    Independent of every recursion route: one Bunch-Kaufman sweep over the
    full matrix, log_abs summed over pivot blocks, sign from their product.
    It factors H.T, which is H when H is symmetric, from its lower
    triangle, so only the upper triangle of H (diagonal included) is read.

    A writeable C-ordered H is factored in place, so the call needs no
    second n x n matrix.  H is written during the call and restored bit
    for bit before it returns, also when SingularMatrix is raised, so it
    must not be read from another thread meanwhile.  Only its diagonal is
    saved: dsytrf leaves the strict upper triangle of A = H.T untouched,
    and mirror_upper copies it back over the strict lower one, which is
    exact because same_lower(A, A.T) finds H symmetric bit for bit first.
    Where it is not, for read-only, Fortran-ordered or strided inputs, and
    for H of at most COPY_MAX entries, LAPACK works on a copy and H is
    never written.  Finiteness is checked PANEL columns at a time, in the
    lower triangle alone where H is symmetric.
    Raises ValueError on a non-finite entry and SingularMatrix on an exact
    zero pivot.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    A = H.T
    n = A.shape[0]
    flags = A.flags
    in_place = A.size > COPY_MAX and flags.f_contiguous and flags.writeable and same_lower(A, A.T)
    # a bitwise symmetric A holds all its values in its lower triangle
    for c in range(0, n, PANEL):
        if not np.isfinite(A[c if in_place else 0:, c:c + PANEL]).all():
            raise ValueError("matrix contains non-finite entries")
    if in_place:
        diagonal = A.diagonal().copy()
        try:
            fac = SymmetricFactor(A, overwrite=True)
        finally:
            mirror_upper(A)
            np.fill_diagonal(A, diagonal)
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
