"""Continuum determinant ratios as the h -> 0 limit of lattice ones.

Bare continuum determinants diverge, so this module only ever returns the
regularized ratio ln(det(H_V) / det(H_0)).  In one dimension that is
ln(y_V(L) / y_0(L)) with -y'' + V y = 0, y(0) = 0, y'(0) = 1; in two
dimensions (one transverse direction, Dirichlet on [0, W]) it is
ln det Y_V(L) - ln det Y_0(L) for the matrix problem Y'' = Omega(x) Y
truncated to K sine modes, Omega = diag((pi n / W)^2) + V-hat(x).

Both are computed with the lattice sweep of gydet.gy, the paper's one
recursion for discrete and continuum operators.  x is sampled at the nodes
x_i = L i / n (h = L / n), and the ratio is sum_i ln det B_i(V) minus
sum_i ln det B_i(0) for the bounded recursion over the slices
T_i = 2I + h^2 Omega(x_i): scalar_logdet once per mode for 1-D and
mode-diagonal potentials, the A-form for dense couplings, all in one
sampling loop (_lattice_ratio) with one sign rule: SignChange only when
det H_V or det H_0 is negative, never for a single mode's factor.  For
smooth V the error of this discrete ratio is a series in h^2, which
Richardson extrapolation over step doubling from n = MIN_STEPS removes
until the extrapolated value moves less than the requested tolerance; the
chain diagonals are rounded with compensated running sums (_on_grid), so
that rounding 2 + h^2 V does not grow into an O(n^2 eps) error.  The free
system runs through the same code with identical arithmetic, so a
potential that evaluates to zero gives exactly 0.0.  A potential with a
jump converges only at first order; a ratio that has not met its
tolerance by MAX_STEPS raises NonConvergentRatio instead of being returned.
A potential that is not finite where it is sampled raises ValueError
naming that x.

The first-order (Riccati) route z' = -z^2 + V is kept as an independent
1-D check.  Its initial condition z(0) = infinity is regularized by
starting at x0 > 0 and the 1/x behaviour near the left end is handled by
integrating u = x z on a logarithmic axis: u' = u - u^2 + x^2 V(x) in
t = ln x, with u(x0) = 1, by classical RK4 on the same convergence loop.

A position-space V(x, rho) enters through its sine-basis matrix, one
Gauss-Legendre product per node on (0, W), so V must be smooth in rho
there; a grid file enters through the exact transform of its interpolant.

Mode-space truncation of a genuinely two-dimensional potential is only
guaranteed to converge in K for finite-rank or summably decaying mode
couplings.  A constant mass couples every mode equally and the truncated
ratio grows like (m^2 W L / 2 pi) ln 2 per doubling of K; that logarithmic
drift is a real continuum feature, measured by two calls as
ratio(K) - ratio(K // 2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NonConvergentRatio, QuadratureError, SignChange, SingularCrossing
from .gy import _aform_logdet, scalar_logdet
from .lattice import LatticeSpec, PotentialField, _check_int
from .logdet import LogDet

MIN_STEPS = 64
MAX_STEPS = 1 << 16
#: max-norm gap of two successive rules at which matrix_elements stops
QUAD_TOL = 1e-10


@functools.cache
def _gauss_legendre(J: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only J-point Gauss-Legendre rule on [-1, 1], made once per J."""
    t, w = np.polynomial.legendre.leggauss(J)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _check_length(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_finite(v: np.ndarray, xs: list[float]) -> None:
    """ValueError naming the first x in xs whose samples v[i] of the
    potential are not finite."""
    ok = np.isfinite(v).reshape(len(xs), -1).all(axis=1)
    if not ok.all():
        raise ValueError(f"potential is not finite at x = {xs[ok.argmin()]}")


def _check_tol(tol: float) -> None:
    # the convergence test needs tol > 0, and the Riccati start x0 = L tol
    # must lie inside (0, L)
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")


@dataclass(frozen=True)
class Potential1D:
    """Potential V(x) on [0, L]; piecewise-continuous is accepted, but a
    jump makes the ratio converge only at first order in the step."""

    V: Callable[[float], float]
    L: float

    def __post_init__(self):
        _check_length("L", self.L)

    @classmethod
    def constant(cls, c: float, L: float) -> "Potential1D":
        return cls(V=lambda x: c, L=L)


@dataclass(frozen=True)
class RatioResult:
    """ln(det H_V / det H_0) plus solver metadata: step_count is the finest
    n used and estimated_error the last Richardson difference."""

    log_ratio: float
    step_count: int
    estimated_error: float


def _extrapolate(run: Callable[[int], float], tol: float, order: int, step: int) -> RatioResult:
    """Richardson extrapolation of run(n) over n = MIN_STEPS, 2 MIN_STEPS, ...
    for an error series in h^order, h^(order + step), h^(order + 2 step), ...

    Returns the newest diagonal entry of the tableau once it moves less than
    tol * max(1, |value|); raises NonConvergentRatio if that has not
    happened by MAX_STEPS, and SignChange if a sweep meets a singular pivot.
    """
    prev: list[float] = []
    n = MIN_STEPS
    while True:
        try:
            row = [run(n)]
        except SingularCrossing as exc:
            raise SignChange(f"eigenvalue crossing at n = {n}: {exc}") from exc
        for j, r in enumerate(prev):
            row.append(row[j] + (row[j] - r) / (2.0 ** (order + j * step) - 1.0))
        # a V that vanishes on the nodes of the first two levels (sin(2 pi
        # 64 x / L), say) gives them equal values, so convergence is not
        # judged before the third
        if len(row) > 2:
            err = abs(row[-1] - prev[-1])
            scale = max(1.0, abs(row[-1]))
            if err <= tol * scale:
                return RatioResult(log_ratio=row[-1], step_count=n, estimated_error=err)
            if n >= MAX_STEPS:
                raise NonConvergentRatio(err / scale, tol, n)
        prev = row
        n *= 2


def _positive_log(ld: LogDet) -> float:
    """ln det of a sweep whose determinant must stay positive."""
    if ld.sign < 0:
        raise SignChange("determinant went negative: eigenvalue crossed")
    return ld.log_abs


def _on_grid(v: np.ndarray) -> np.ndarray:
    """v moved, along axis 0, onto multiples of the spacing q of the doubles
    in [2, 4), so that 2 + v is exact, with the running sum of the moves
    kept within q / 2.  Rounding 2 + h^2 V moves V by up to q / 2h^2 at
    every node; for a constant V the moves share one sign and shift the
    ratio by O(n^2 eps), while compensated moves do not accumulate."""
    q = np.spacing(2.0)
    g = np.round(v / q) * q
    carry = np.round(np.cumsum(v - g, axis=0) / q) * q
    return g + np.diff(carry, axis=0, prepend=0.0)


def _chains(diag: np.ndarray) -> LogDet:
    """Product over the columns k of det(tridiag(-1, 2 + diag[:, k], -1)),
    one scalar sweep per column of the _on_grid diagonals: the summed
    ln|det| of the chains and the product of their signs."""
    lds = [scalar_logdet(col) for col in _on_grid(diag).T]
    sign = math.prod(ld.sign for ld in lds)
    return LogDet(sum(ld.log_abs for ld in lds), sign, "scalar-a")


def _lattice_ratio(L: float, sweep: Callable, vhat: Callable, zero, tol: float) -> RatioResult:
    """Richardson limit of ln det H_V - ln det H_0 on [0, L].  sweep(h^2,
    nodes, vhat) is the lattice determinant over the nodes x_i = L i / n
    with the potential vhat(x_i); it runs for V and for vhat = zero, and
    a negative determinant of either raises SignChange."""

    def run(n: int) -> float:
        h2 = (L / n) ** 2
        nodes = [L * i / n for i in range(1, n)]
        log_V = _positive_log(sweep(h2, nodes, vhat))
        return log_V - _positive_log(sweep(h2, nodes, lambda x: zero))

    return _extrapolate(run, tol, order=2, step=2)


def ratio_logdet_1d(pot: Potential1D, tol: float = 1e-10) -> RatioResult:
    """ln(y_V(L) / y_0(L)) as the h -> 0 limit of the lattice ratio.

    Raises SignChange when y_V(L) <= 0 (a negative eigenvalue has been
    crossed and the real-valued ratio log is undefined) and
    NonConvergentRatio when tol is not met by MAX_STEPS; tol must lie in
    (0, 1).
    """
    _check_tol(tol)

    def sweep(h2: float, nodes: list[float], vhat: Callable) -> LogDet:
        v = np.array([[vhat(x)] for x in nodes])
        _check_finite(v, nodes)
        return _chains(h2 * v)

    return _lattice_ratio(pot.L, sweep, pot.V, 0.0, tol)


def ratio_logdet_1d_riccati(pot: Potential1D, tol: float = 1e-10) -> RatioResult:
    """Diagnostic first-order route: integrate the Riccati equation
    z' = -z^2 + V from z(x0) = 1/x0 and return ln x0 - ln L + int_x0^L z dx.

    Substituting u = x z, t = ln x turns the singular start into the
    smooth problem u' = u - u^2 + x^2 V with u = 1 at t0, integrated with
    classical RK4 under Richardson extrapolation.  x0 is tol-scaled,
    x0 = L * tol (floored at 1e-12 L), making the start bias ~ V * x0^2
    negligible against tol.  Divergence of u signals a sign change of y.
    """
    _check_tol(tol)
    L = pot.L
    x0 = L * max(tol, 1e-12)
    T = math.log(L / x0)
    V = pot.V

    def sweep(n_steps: int) -> float:
        h = T / n_steps
        u = 1.0
        s = 0.0  # integral of u dt = integral of z dx
        t = 0.0
        w1 = x0 * x0 * V(x0)
        for _ in range(n_steps):
            xm = x0 * math.exp(t + 0.5 * h)
            t += h
            x2 = x0 * math.exp(t)  # the next step's start node
            wm = xm * xm * V(xm)
            w2 = x2 * x2 * V(x2)
            k1 = u - u * u + w1
            u2 = u + 0.5 * h * k1
            k2 = u2 - u2 * u2 + wm
            u3 = u + 0.5 * h * k2
            k3 = u3 - u3 * u3 + wm
            u4 = u + h * k3
            k4 = u4 - u4 * u4 + w2
            # s' = u, so its four stages are u's stage values
            s += h / 6.0 * (u + 2.0 * (u2 + u3) + u4)
            u += h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            w1 = w2
            if not math.isfinite(u):
                # a non-finite sample makes u non-finite in its own step,
                # whose first node is x0 or was sampled one step earlier
                xs = [x0, xm, x2]
                _check_finite(np.array([V(x) for x in xs]), xs)
                raise SignChange("Riccati variable diverged: sign change")
        return math.log(x0) - math.log(L) + s

    # RK4's global error is a series in every power of h from the fourth on
    return _extrapolate(sweep, tol, order=4, step=1)


class TransversePotential2D:
    """Potential for the 2D (one transverse direction) problem.

    Either a position-space callable V(x, rho) on [0, L] x [0, W], or a
    mode-space function returning the K x K matrix of V-hat(x) in the sine
    basis u_n(rho) = sqrt(2/W) sin(pi n rho / W).  Built-in constructors
    cover constant masses, separable products f(x) g(rho), finite-rank
    mode couplings, and tabulated grids with bilinear interpolation.

    A position callable must be smooth in rho on (0, W), where
    matrix_elements integrates it with one Gauss-Legendre rule.  A kink or
    a jump raises QuadratureError; give such a V as mode_matrix= instead,
    as from_grid_file does with the exact transform of its interpolant.
    """

    def __init__(
        self,
        W: float,
        *,
        position: Callable[[float, float], float] | None = None,
        mode_matrix: Callable[[float, int], np.ndarray] | None = None,
        diagonal_modes: Callable[[float, int], np.ndarray] | None = None,
    ):
        _check_length("W", W)
        given = sum(f is not None for f in (position, mode_matrix, diagonal_modes))
        if given != 1:
            raise ValueError("give exactly one of position, mode_matrix, diagonal_modes")
        self.W = W
        self._position = position
        self._mode_matrix = mode_matrix
        self._diagonal = diagonal_modes

    @classmethod
    def constant(cls, c: float, W: float) -> "TransversePotential2D":
        c = float(c)
        return cls(W, diagonal_modes=lambda x, K: np.full(K, c))

    @classmethod
    def separable(
        cls, fx: Callable[[float], float], grho: Callable[[float], float], W: float
    ) -> "TransversePotential2D":
        return cls(W, position=lambda x, rho: fx(x) * grho(rho))

    @classmethod
    def finite_rank(
        cls, entries: dict[tuple[int, int], float], W: float
    ) -> "TransversePotential2D":
        """Constant-in-x mode-space coupling: entries maps (n, m) with
        integers n, m >= 1 to the coupling strength; symmetrized
        automatically."""
        for nm in entries:
            if not all(isinstance(i, (int, np.integer)) and i >= 1 for i in nm):
                raise ValueError(f"mode indices must be integers >= 1, got {nm}")

        def build(x: float, K: int) -> np.ndarray:
            V = np.zeros((K, K))
            for (n, m), c in entries.items():
                if n <= K and m <= K:
                    V[n - 1, m - 1] += c
                    if n != m:
                        V[m - 1, n - 1] += c
            return V

        return cls(W, mode_matrix=build)

    @classmethod
    def from_grid_file(
        cls, path: str | Path, N: int, M: int, L: float, W: float
    ) -> "TransversePotential2D":
        """Tabulated potential: the lattice text format (i, j, value per
        line, interior sites of an N x M grid) placed at x = i L / N,
        rho = j W / M, bilinear in between.  The boundary ring is padded
        with zeros, so values taper linearly to zero across the outermost
        half cell; interpolation is exact only inside the interior-node
        hull.  Sampling x outside [0, L] raises ValueError.  The mode matrix
        is the interpolant's exact sine transform: at fixed x it is a sum
        of hats of heights w_j on the lines j W / M, so
        V-hat_nm = c_|n-m| - c_(n+m) with
        c_q = sinc^2(q / 2M) / M * sum_j w_j cos(q pi j / M)."""
        _check_length("L", L)
        spec = LatticeSpec(d=2, N=N, M=M)
        field = PotentialField.from_file(spec, path)
        # zero rows at x = 0 and x = L give the Dirichlet-style boundary ring
        grid = np.zeros((N + 1, M - 1))
        grid[1:N] = field.values
        j = np.arange(1, M)

        def mode_matrix(x: float, K: int) -> np.ndarray:
            if not 0.0 <= x <= L:
                raise ValueError(f"grid potential sampled at x = {x!r}, outside [0, L = {L!r}]")
            fx = x / L * N
            i0 = min(int(fx), N - 1)
            t = fx - i0
            w = (1 - t) * grid[i0] + t * grid[i0 + 1]
            q = np.arange(2 * K + 1)
            c = np.cos(np.outer(q, j) * (math.pi / M)) @ w * np.sinc(q / (2 * M)) ** 2 / M
            n = np.arange(1, K + 1)
            return c[abs(n[:, None] - n)] - c[n[:, None] + n]

        return cls(W, mode_matrix=mode_matrix)

    def _diagonal_modes(self, x: float, K: int) -> np.ndarray:
        """The K diagonal entries of V-hat(x) of a mode-diagonal potential."""
        d = np.asarray(self._diagonal(x, K), dtype=float)
        if d.shape != (K,):
            raise ValueError(f"diagonal modes have shape {d.shape}, expected {(K,)}")
        return d

    def matrix_elements(self, x: float, K: int) -> np.ndarray:
        """K x K symmetric matrix of V-hat(x) in the sine basis.  A position
        callable is integrated over (0, W) with J = 2K + 16 Gauss-Legendre
        points, J doubled until two rules agree to QUAD_TOL in max norm;
        QuadratureError after four rules."""
        _check_int("K", K)
        if K < 1:
            raise ValueError(f"K must be >= 1, got {K}")
        if self._diagonal is not None:
            return np.diag(self._diagonal_modes(x, K))
        if self._mode_matrix is not None:
            V = np.asarray(self._mode_matrix(x, K), dtype=float)
            if V.shape != (K, K):
                raise ValueError(f"mode matrix has shape {V.shape}, expected {(K, K)}")
            _check_finite(V, [x])
            if not np.array_equal(V, V.T):
                # the A-form sweep reads one triangle of each slice
                raise ValueError("mode matrix is not symmetric")
            return V
        # V-hat = (2/W) S^T diag(w V(x, rho)) S with S[j, n] = sin(n pi rho_j / W)
        half = 0.5 * self.W
        freq = math.pi / self.W * np.arange(1, K + 1)
        J = 2 * K + 16
        prev = np.inf
        for _ in range(4):
            t, w = _gauss_legendre(J)
            rho = half + half * t
            f = np.array([self._position(x, r) for r in rho.tolist()], dtype=float)
            _check_finite(f, [x])
            S = np.sin(np.outer(rho, freq))
            V = (S.T * ((2.0 / self.W) * (half * w) * f)) @ S
            err = float(np.abs(V - prev).max())
            if err <= QUAD_TOL:
                return np.triu(V) + np.triu(V, 1).T
            prev = V
            J *= 2
        raise QuadratureError(err, QUAD_TOL)


def ratio_logdet_2d_truncated(
    pot: TransversePotential2D,
    L: float,
    W: float,
    K: int,
    tol: float = 1e-8,
) -> RatioResult:
    """ln(det H_V / det H_0) in the K-mode sine-basis truncation.

    Sweeps the lattice slices T_i = 2I + h^2 Omega(x_i) for the potential
    and for the free operator on the same nodes and subtracts the
    log-determinants (one scalar chain per mode for mode-diagonal
    potentials, the A-form otherwise); V = 0 therefore returns exactly 0
    for every K.  Raises SignChange only when det H_V or det H_0 goes
    negative, and NonConvergentRatio when tol is not met by MAX_STEPS.
    L and W must be finite and positive and tol must lie in (0, 1).  The
    drift in K is ratio(K) - ratio(K // 2) (see the module docstring).
    """
    _check_tol(tol)
    _check_length("L", L)
    _check_length("W", W)
    _check_int("K", K)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if abs(W - pot.W) > 1e-12 * max(1.0, abs(W)):
        raise ValueError("W disagrees with the potential's transverse extent")
    om0sq = (math.pi * np.arange(1, K + 1) / W) ** 2

    if pot._diagonal is not None:
        elements = lambda x: pot._diagonal_modes(x, K)
        zero = np.zeros(K)

        def sweep(h2: float, nodes: list[float], vhat: Callable) -> LogDet:
            v = np.array([vhat(x) for x in nodes])
            _check_finite(v, nodes)
            return _chains(h2 * (om0sq + v))
    else:
        elements = functools.partial(pot.matrix_elements, K=K)
        zero = np.zeros((K, K))
        two = 2.0 * np.eye(K)
        om0 = np.diag(om0sq)

        def sweep(h2: float, nodes: list[float], vhat: Callable) -> LogDet:
            slices = (two + h2 * (om0 + vhat(x)) for x in nodes)
            return _aform_logdet(slices, K, len(nodes))

    return _lattice_ratio(L, sweep, elements, zero, tol)
