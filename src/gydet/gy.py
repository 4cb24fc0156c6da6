"""Scalar and matrix sweep recursions for block-tridiagonal determinants.

Two equivalent propagations are implemented, in one and in d dimensions.

The bounded form ("A-form") iterates

    B_1 = 2I - Delta_{d-1} + V_1,   B_{n+1} = (2I - Delta_{d-1} + V_{n+1}) - B_n^{-1}

where B_n = A_n + I in terms of the Gaussian-ansatz matrices A_n; the
determinant is the product of det(B_n) over the sweep, accumulated in the
log domain with the sign read from the pivot blocks of each symmetric
factorization.  Its iterates stay O(1) for nonnegative potentials, which
is why it is the production path.

The growing form ("Y-form") propagates the matrix solution of the
homogeneous problem,

    Y_0 = 0,  Y_1 = I,  Y_{n+2} = (2I - Delta_{d-1} + V_{n+1}) Y_{n+1} - Y_n,

whose final determinant equals the same answer (det H = det Y_N).  Y_n
grows like exp(gamma n) and is rescaled whenever entries pass 1e100, with
the scale logs folded back into the result.  The two routes are kept
deliberately separate so they can cross-check each other.

The d = 1 scalar specializations are the classic forward recursions
y_{n+2} = (2 + V_{n+1}) y_{n+1} - y_n with det H = y_N.  The scalar
log-determinant evaluates the pivot recursion in projective form (as the
ratio of successive y values with exact power-of-two rescaling): the raw
pivot iteration a_{n+1} = V_{n+1} + 1 - 1/(a_n + 1) drifts at roughly
n*eps relative error per 10^6 sites, while the projective form loses
nothing (the free-potential chain stays exact integer arithmetic).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.linalg.lapack import dgetrf, dsytrf, dsytrf_lwork, dsytrs

from .errors import NonFiniteRecursion, SingularCrossing
from .lattice import LatticeSpec, PotentialField, transverse_laplacian
from .logdet import EPS_PIVOT, Diagnostics, LogDet, decode_bunch_kaufman

#: Entry magnitude that triggers a Y-form rescale.
RESCALE_THRESHOLD = 1e100

# Exact power-of-two scaling used by the projective scalar recursion.
_SCALE_HI = 2.0**512
_SCALE_LO = 2.0**-512
_LOG_SCALE = 512.0 * math.log(2.0)


def scalar_y_solution(V: Sequence[float]) -> np.ndarray:
    """Solve (Hy)_n = 0 forward: y_0 = 0, y_1 = 1,
    y_{n+2} = (2 + V_{n+1}) y_{n+1} - y_n.

    Returns the full sequence y_0..y_N for a potential on N-1 interior
    sites; det H = y_N.  Plain floating point, no rescaling: intended for
    small N and testing, overflows around |log det| ~ 700.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 1:
        raise ValueError("V must be one-dimensional")
    if not np.isfinite(V).all():
        raise ValueError("V contains non-finite values")
    n_sites = V.shape[0]
    y = np.empty(n_sites + 2)
    y[0] = 0.0
    y[1] = 1.0
    for n in range(n_sites):
        y[n + 2] = (2.0 + V[n]) * y[n + 1] - y[n]
    return y


def scalar_logdet(V: Sequence[float]) -> LogDet:
    """Sign-tracked ln|det| of the 1D operator via the pivot recursion.

    The per-slice pivots a_k + 1 (ratios of successive homogeneous
    solutions) are accumulated as log|a_k + 1|; a pivot magnitude below
    EPS_PIVOT aborts with SingularCrossing naming the slice, since sign
    bookkeeping is meaningless across a zero mode.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 1 or V.shape[0] < 1:
        raise ValueError("V must be a non-empty one-dimensional sequence")
    if not np.isfinite(V).all():
        raise ValueError("V contains non-finite values")
    vals = V.tolist()  # Python floats: numpy scalars are far slower per step
    u, v = 1.0, 0.0  # (y_1, y_0)
    acc = 0.0
    rescales = 0
    min_pivot = math.inf
    for k, vk in enumerate(vals, start=1):
        u, v = (2.0 + vk) * u - v, u
        au = abs(u)
        piv = au / abs(v)
        if piv < min_pivot:
            if piv < EPS_PIVOT:
                raise SingularCrossing(k, piv)
            min_pivot = piv
        if au > _SCALE_HI:
            u *= _SCALE_LO
            v *= _SCALE_LO
            acc += _LOG_SCALE
            rescales += 1
        elif au < _SCALE_LO and au > 0.0:
            u *= _SCALE_HI
            v *= _SCALE_HI
            acc -= _LOG_SCALE
            rescales += 1
    if not math.isfinite(u):
        raise NonFiniteRecursion(len(vals))
    acc += math.log(abs(u))
    return LogDet(
        log_abs=acc,
        sign=-1 if u < 0.0 else 1,
        method="scalar-a",
        diagnostics=Diagnostics(min_pivot=min_pivot, rescale_count=rescales),
    )


def _slices(spec: LatticeSpec, pot: PotentialField) -> Iterator[np.ndarray]:
    """Yield the N-1 diagonal blocks T_n = 2I - Delta_{d-1} + V_n one at a
    time.  Every block is the same read-only C-ordered array, whose
    diagonal is rewritten when the next one is asked for."""
    T = 2.0 * np.eye(spec.K) + transverse_laplacian(spec)
    free_diag = T.diagonal().copy()  # the diagonal of 2I - Delta_{d-1}
    T_diag = T.ravel()[:: spec.K + 1]  # the same diagonal, through a view
    view = T.view()
    view.setflags(write=False)
    for v in pot.values:
        np.add(free_diag, v, out=T_diag)
        yield view


def matrix_logdet_aform(spec: LatticeSpec, pot: PotentialField) -> LogDet:
    """Sign-tracked ln|det(-Delta_d + V)| via the bounded matrix recursion
    (see _aform_logdet), over the slices T_n = 2I - Delta_{d-1} + V_n."""
    if pot.spec != spec:
        raise ValueError("potential was built for a different lattice")
    return _aform_logdet(_slices(spec, pot), spec.K, spec.N - 1)


def _aform_logdet(slices: Iterable[np.ndarray], K: int, n_steps: int) -> LogDet:
    """ln|det| and sign of the block-tridiagonal matrix with the n_steps
    symmetric K x K diagonal blocks T_n taken from slices and -I off the
    diagonal, by the bounded recursion B_1 = T_1, B_{n+1} = T_{n+1} - B_n^{-1}.

    Each step factors B_n with symmetric (Bunch-Kaufman) pivoting; the
    pivot-block determinants accumulate into the answer and the same
    factorization supplies B_n^{-1} for the next step, so the whole sweep
    costs O(n_steps K^3) time.  Slices are consumed as the sweep reaches
    them, so it keeps O(K^2) working memory besides the pivot buffers of
    at most 4096 slices.  Pivot data is buffered and decoded in
    vectorized chunks; exact LAPACK singularity reports surface
    immediately, anything below EPS_PIVOT surfaces at the chunk boundary
    naming the offending slice.
    """
    lwork = dsytrf_lwork(K)[0]
    eye = np.eye(K, order="F")

    # B_n is built in one zero-padded buffer that dsytrf factors in place
    # (it is Fortran-contiguous, so the returned factor is B itself); the
    # diagonal and first subdiagonal of each factor -- the pivot blocks --
    # are then one fixed strided (2, K) view, whose last subdiagonal entry
    # is the padding and stays 0.  The hot loop stores only that band and
    # the pivot vector per step; everything is decoded in vectorized
    # chunks afterwards.
    store = np.zeros(K * K + 1)
    B = store[: K * K].reshape((K, K), order="F")
    item = store.itemsize
    band = np.ndarray((2, K), buffer=store, strides=(item, (K + 1) * item))
    chunk = 4096
    rows = min(chunk, n_steps)
    band_buf = np.empty((2, rows, K))  # rows of diagonals, rows of subdiagonals
    i_buf = np.empty((rows, K), dtype=np.intc)

    acc_log = 0.0
    n_negative = 0
    min_pivot = math.inf
    filled = 0

    # the LAPACK wrappers take their options positionally (lower=1, lwork,
    # overwrite_a=1): parsing keywords costs about 1 us a call, a tenth of
    # a whole K = 15 step
    trf, trs, sub = dsytrf, dsytrs, np.subtract
    inv = 0.0  # B_{n-1}^{-1}; there is none before the first slice
    for n, T in enumerate(slices, start=1):
        # T is symmetric, so T.T is the same matrix in Fortran order
        sub(T.T, inv, out=B)
        ldu, ipiv, info = trf(B, 1, lwork, 1)
        if info > 0:
            raise SingularCrossing(n, 0.0)
        band_buf[:, filled] = band
        i_buf[filled] = ipiv
        filled += 1
        if filled == chunk or n == n_steps:
            log_abs, nneg, piv = decode_bunch_kaufman(
                band_buf[0, :filled], band_buf[1, :filled], i_buf[:filled]
            )
            if piv < EPS_PIVOT or not math.isfinite(log_abs):
                # locate the first offending slice; the chunk's first slice
                # is n - filled + 1
                for row in range(filled):
                    la, _, p = decode_bunch_kaufman(*band_buf[:, row], i_buf[row])
                    if p < EPS_PIVOT:
                        raise SingularCrossing(n - filled + 1 + row, p)
                    if not math.isfinite(la):
                        raise NonFiniteRecursion(n - filled + 1 + row)
            acc_log += log_abs
            n_negative += nneg
            min_pivot = min(min_pivot, piv)
            filled = 0
        if n < n_steps:
            inv, info = trs(ldu, ipiv, eye, 1)
            if info != 0:
                raise SingularCrossing(n, 0.0)
    if not math.isfinite(acc_log):
        raise NonFiniteRecursion(n_steps)
    return LogDet(
        log_abs=acc_log,
        sign=-1 if n_negative % 2 else 1,
        method="matrix-A",
        diagnostics=Diagnostics(min_pivot=min_pivot),
    )


def matrix_logdet_yform(spec: LatticeSpec, pot: PotentialField) -> LogDet:
    """Sign-tracked ln|det(-Delta_d + V)| from the growing matrix solution.

    Propagates Y_n to n = N with periodic rescaling (each rescale adds
    K*log(scale) to the accumulator) and reads ln|det Y_N| plus the sign
    from one final pivoted factorization.  Y_N is a product of symmetric
    factors but not symmetric itself, so the final step uses general LU.
    Retained as an independent cross-check of the bounded route.

    Accuracy caveat: with growth rates gamma_max and gamma_min across the
    transverse modes, rounding noise from the fastest-growing mode swamps
    the slowest once (gamma_max - gamma_min) * N exceeds ln(1/eps) ~ 36,
    after which det Y_N degrades even though each entry is finite.  This
    is intrinsic to propagating the growing solution; at desk scale
    (N, M <~ 30) the route is solid, at larger N prefer the bounded form.
    """
    if pot.spec != spec:
        raise ValueError("potential was built for a different lattice")
    K = spec.K
    Y_prev = np.zeros((K, K))
    Y = np.eye(K)
    log_scale = 0.0
    rescales = 0
    for n, T in enumerate(_slices(spec, pot), start=1):
        Y, Y_prev = T @ Y - Y_prev, Y
        peak = np.abs(Y).max()
        if not math.isfinite(peak):
            raise NonFiniteRecursion(n + 1)
        if peak > RESCALE_THRESHOLD:
            # both members of the pair share the scale, so the recursion
            # continues unchanged on Y * exp(-log_scale)
            Y /= peak
            Y_prev /= peak
            log_scale += math.log(peak)
            rescales += 1
    lu, piv, info = dgetrf(Y)
    if info > 0:
        raise SingularCrossing(spec.N, 0.0)
    diag = lu.diagonal()
    adiag = np.abs(diag)
    log_abs = float(np.log(adiag).sum())
    n_neg = int(np.count_nonzero(diag < 0.0))
    n_swaps = int(np.count_nonzero(piv != np.arange(K)))
    sign = -1 if (n_neg + n_swaps) % 2 else 1
    total = log_abs + K * log_scale
    if not math.isfinite(total):
        raise NonFiniteRecursion(spec.N)
    return LogDet(
        log_abs=total,
        sign=sign,
        method="matrix-Y",
        diagnostics=Diagnostics(
            min_pivot=float(adiag.min()), rescale_count=rescales
        ),
    )
