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
from scipy.linalg.lapack import dgetrf, dlantr, dsytrf, dsytrf_lwork, dsytri, dsytrs

from .errors import NonFiniteRecursion, SingularCrossing
from .lattice import LatticeSpec, PotentialField, transverse_laplacian
from .logdet import EPS_PIVOT, Diagnostics, LogDet, decode_bunch_kaufman

#: Entry magnitude that triggers a Y-form rescale.
RESCALE_THRESHOLD = 1e100

#: Largest |entry| of a Bunch-Kaufman factor L at which the A-form inverts
#: with dsytri; above it the step solves against the identity instead.
#: Set by measurement on twenty random K = 255 sweeps (V uniform in
#: [-1, 1)), among them a nearly singular lattice and its mirror image:
#: there the sweep is 2.4e-14 or less from the solve-only sweep at bounds
#: 1.56, 2 and 2.3 (the 2.3 sweeps solve 39-60 of their 255 steps),
#: 6.5e-14 to 7.7e-14 at 2.78 and 3.2, and 5.9e-12 with dsytri alone.
#: Against an 80-bit Gauss-Jordan sweep of that lattice, unmirrored, the
#: sweep is 1.4e-15 off at 2.3 and 5.7e-14, 4.6e-14, 2.7e-13 and 1.4e-13
#: off at 3, 4, 6 and 8, past the tests' 5e-14 at 3, 6 and 8.  Bounds of 4
#: to 8 would make random K = 255 sweeps 1.3-1.5x faster, but only by
#: giving up that accuracy.
L_GROWTH_MAX = 2.3

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


def _slices(spec: LatticeSpec, pot: PotentialField) -> Iterator[np.ndarray | None]:
    """Yield the N-1 diagonal blocks T_n = 2I - Delta_{d-1} + V_n one at a
    time, or None for a block equal to the one before it (its row of
    pot.values equals the previous row).  Every block is the same
    read-only C-ordered array, whose diagonal is rewritten when the next
    different block is asked for, so at a None it still holds the block
    before.  The A-form skips work on runs of such blocks (see
    _aform_logdet)."""
    T = 2.0 * np.eye(spec.K) + transverse_laplacian(spec)
    free_diag = T.diagonal().copy()  # the diagonal of 2I - Delta_{d-1}
    T_diag = T.ravel()[:: spec.K + 1]  # the same diagonal, through a view
    view = T.view()
    view.setflags(write=False)
    rows = pot.values
    # a row is compared in full only when its first entry repeats, so a
    # potential that varies along the sweep pays one float comparison a
    # slice (the memoryview yields Python floats, which compare fastest)
    first_prev = v_prev = None
    for first, v in zip(memoryview(rows[:, 0]), rows):
        if first == first_prev and np.array_equal(v, v_prev):
            yield None
        else:
            np.add(free_diag, v, T_diag)
            yield view
        first_prev, v_prev = first, v


def matrix_logdet_aform(spec: LatticeSpec, pot: PotentialField) -> LogDet:
    """Sign-tracked ln|det(-Delta_d + V)| via the bounded matrix recursion
    (see _aform_logdet), over the slices T_n = 2I - Delta_{d-1} + V_n."""
    if pot.spec != spec:
        raise ValueError("potential was built for a different lattice")
    return _aform_logdet(_slices(spec, pot), spec.K, spec.N - 1)


def _l_bounded(ldu: np.ndarray, ipiv: np.ndarray) -> bool:
    """Whether every entry of L in the dsytrf(lower=1) factor ldu is at
    most L_GROWTH_MAX after all, once dlantr over the whole strict lower
    triangle has exceeded it.  That scan also reads the subdiagonal entry
    of each 2x2 pivot block, which belongs to D, not L: the answer is no
    unless there are such blocks and the bound holds without them."""
    firsts = np.flatnonzero(ipiv < 0)[::2]
    if not firsts.size:
        return False
    d21 = ldu[firsts + 1, firsts]
    ldu[firsts + 1, firsts] = 0.0
    bounded = dlantr(b"M", ldu, b"L", b"U") <= L_GROWTH_MAX
    ldu[firsts + 1, firsts] = d21
    return bool(bounded)


def _same_lower(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the lower triangles of a and b, diagonal included, hold the
    same bits.  The diagonal is compared first: until it agrees, no K x K
    mask is made."""
    if not np.array_equal(a.diagonal(), b.diagonal()):
        return False
    return not np.tril(a.view(np.int64) != b.view(np.int64)).any()


def _aform_logdet(slices: Iterable[np.ndarray | None], K: int, n_steps: int) -> LogDet:
    """ln|det| and sign of the block-tridiagonal matrix with the n_steps
    symmetric K x K diagonal blocks T_n taken from slices and -I off the
    diagonal, by the bounded recursion B_1 = T_1, B_{n+1} = T_{n+1} - B_n^{-1}.
    A slice given as None repeats the one before it; the first is never None.

    Each step factors B_n with symmetric (Bunch-Kaufman) pivoting; the
    pivot-block determinants accumulate into the answer and the same
    factorization supplies B_n^{-1} for the next step, so the whole sweep
    costs O(n_steps K^3) time.  The inverse is LAPACK dsytri, computed in
    place over the factors in about 2K^3/3 flops (a solve against the
    identity costs 2K^3).  dsytri fills only the lower triangle; the upper
    triangle keeps stale entries and is never read, because the next
    subtraction is elementwise and dsytrf(lower=1) and the pivot-band view
    read only the diagonal and below.  dsytri forms L^{-1} explicitly, so
    its error grows with |L|, which partial Bunch-Kaufman pivoting does
    not bound: a step whose L has an entry above L_GROWTH_MAX solves
    against the identity with dsytrs instead (about one step in five on
    a random K = 255 sweep, none on a constant potential).  On a nearly
    singular sweep the dsytri error would otherwise reach the answer:
    5e-12 relative on a K = 255 input where the solve gives 1e-14.  The
    count of negative pivot blocks is, by Sylvester's law of inertia (the
    sweep is a block LDL^T congruence), the number of negative
    eigenvalues of the whole matrix.  Slices are consumed as the sweep
    reaches them, so it keeps O(K^2) working memory besides the pivot
    buffers of at most 4096 slices.  Pivot data is buffered and decoded
    in vectorized chunks; exact LAPACK singularity reports surface
    immediately, anything below EPS_PIVOT surfaces at the chunk boundary
    naming the offending slice.

    A run of repeated slices drives B_n towards the fixed point B* of
    B -> T - B^{-1}, whose ln|det| is the bulk term per slice, and in
    floating point the sweep reaches it bitwise.  Inside a run the sweep
    keeps a copy of B_{n-2}^{-1}; once the lower triangle of B_{n-1}^{-1}
    equals it bitwise, B_n equals B_{n-1} bitwise and so does every later
    block of the run, so the steps from n on would factor a bitwise
    identical matrix.  They call neither dsytrf, the growth check nor
    dsytri: each copies the previous row of the pivot buffers, and
    B*^{-1} is kept for the next different slice.  The decode therefore
    sees the rows a sweep factoring every step would store, and the
    result is bit for bit the same.  On a constant potential at N = M =
    256 the skip starts at step 49 (m^2 = 4) to 112 (m^2 = 0.25) of 255;
    a massless sweep does not reach the fixed point within 255 steps at
    M = 256, but does by step 56 at M = 9.  The copy costs one K x K
    buffer, held only while a run of repeated slices has not yet
    converged.  Diagnostics.factorizations counts the dsytrf calls.
    """
    lwork = dsytrf_lwork(K)[0]

    # B_n is built in one zero-padded buffer that dsytrf factors and dsytri
    # inverts in place (it is Fortran-contiguous, so the returned factor and
    # inverse are B itself); a dsytrs step solves in place into X, which the
    # first such step allocates, so no step allocates a K x K array.  The
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
    skipped = 0

    # the LAPACK wrappers take their options positionally (lower=1, lwork,
    # overwrite_a=1), and the ufuncs their output: parsing keywords costs
    # about 1 us a LAPACK call and 0.1 us a ufunc call, against 8 us for a
    # whole K = 15 step
    trf, tri, trs, lantr, sub = dsytrf, dsytri, dsytrs, dlantr, np.subtract
    inv = 0.0  # B_{n-1}^{-1}; there is none before the first slice
    X = None
    ref = None  # B_{n-2}^{-1} inside a run of repeated slices
    fixed = False  # whether B_n is the run's fixed point
    for n, T in enumerate(slices, start=1):
        if T is not None:
            last, fixed, ref = T, False, None
        elif not fixed:
            # slice n repeats slice n - 1, so B_n = B_{n-1} once their
            # inverses B_{n-1}^{-1} and B_{n-2}^{-1} agree
            if ref is not None and _same_lower(inv, ref):
                fixed, ref = True, None
            else:
                if ref is None:
                    ref = np.empty((K, K), order="F")
                np.copyto(ref, inv)
        if fixed:
            # the pivot rows of B_{n-1}; after a chunk decode, filled - 1 = -1
            # is the last row of the decoded chunk
            band_buf[:, filled] = band_buf[:, filled - 1]
            i_buf[filled] = i_buf[filled - 1]
            skipped += 1
        else:
            # T is symmetric, so T.T is the same matrix in Fortran order;
            # after dsytri only the lower triangle of inv holds B_{n-1}^{-1},
            # and only the lower triangle of B is read from here on
            sub(last.T, inv, B)
            ldu, ipiv, info = trf(B, 1, lwork, 1)
            if info > 0:
                raise SingularCrossing(n, 0.0)
            band_buf[:, filled] = band
            i_buf[filled] = ipiv
        filled += 1
        if filled == chunk or n == n_steps:
            ref = None  # freed before the decode, whose temporaries set the peak memory
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
        if n < n_steps and not fixed:
            # dlantr: the largest |entry| below the diagonal, or 1
            if lantr(b"M", ldu, b"L", b"U") <= L_GROWTH_MAX or _l_bounded(ldu, ipiv):
                inv, info = tri(ldu, ipiv, 1, 1)
            else:
                if X is None:
                    X = np.empty((K, K), order="F")
                X.fill(0.0)
                np.fill_diagonal(X, 1.0)
                inv, info = trs(ldu, ipiv, X, 1, 1)
            if info != 0:
                raise SingularCrossing(n, 0.0)
    if not math.isfinite(acc_log):
        raise NonFiniteRecursion(n_steps)
    return LogDet(
        log_abs=acc_log,
        sign=-1 if n_negative % 2 else 1,
        method="matrix-A",
        diagnostics=Diagnostics(
            min_pivot=min_pivot, n_negative=n_negative, factorizations=n_steps - skipped
        ),
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
    is intrinsic to propagating the growing solution, and small lattices
    are not exempt: on a 12 x 10 grid with V = -0.5 except about one site
    in ten drawn uniform on [-4000, 4000) (numpy default_rng seeds 7, 8, 9
    and 11) the result is off from dense factorization by 1.4e-3 to 9.1e-3
    in ln|det|, with no error raised.  Prefer the bounded form.
    """
    if pot.spec != spec:
        raise ValueError("potential was built for a different lattice")
    K = spec.K
    Y_prev = np.zeros((K, K))
    Y = np.eye(K)
    log_scale = 0.0
    rescales = 0
    for n, S in enumerate(_slices(spec, pot), start=1):
        if S is not None:  # None repeats the slice before
            T = S
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
