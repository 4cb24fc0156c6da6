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

The first-order (Riccati) route z' = -z^2 + V is kept as an independent
1-D check.  Its initial condition z(0) = infinity is regularized by
starting at x0 > 0 and the 1/x behaviour near the left end is handled by
integrating u = x z on a logarithmic axis: u' = u - u^2 + x^2 V(x) in
t = ln x, with u(x0) = 1, by classical RK4 on the same convergence loop.

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

from .errors import NonConvergentRatio, SignChange, SingularCrossing
from .gy import _aform_logdet, scalar_logdet
from .logdet import LogDet
from .quadrature import adaptive_quad

MIN_STEPS = 64
MAX_STEPS = 1 << 16
#: absolute tolerance of each sine-basis quadrature of a position-space V
QUAD_TOL = 1e-10


def _check_length(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


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
        return _chains(h2 * np.array([[vhat(x)] for x in nodes]))

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
        hull."""
        from .lattice import LatticeSpec, PotentialField

        _check_length("L", L)
        spec = LatticeSpec(d=2, N=N, M=M)
        field = PotentialField.from_file(spec, path)
        # pad with the Dirichlet-style zero boundary so interpolation is
        # defined on the whole box
        grid = np.zeros((N + 1, M + 1))
        grid[1:N, 1:M] = field.values

        def position(x: float, rho: float) -> float:
            fx = min(max(x / L * N, 0.0), N)
            fr = min(max(rho / W * M, 0.0), M)
            i0 = min(int(fx), N - 1)
            j0 = min(int(fr), M - 1)
            tx = fx - i0
            tr = fr - j0
            return float(
                grid[i0, j0] * (1 - tx) * (1 - tr)
                + grid[i0 + 1, j0] * tx * (1 - tr)
                + grid[i0, j0 + 1] * (1 - tx) * tr
                + grid[i0 + 1, j0 + 1] * tx * tr
            )

        return cls(W, position=position)

    @property
    def is_mode_diagonal(self) -> bool:
        return self._diagonal is not None

    def diagonal_modes(self, x: float, K: int) -> np.ndarray:
        if self._diagonal is None:
            raise ValueError("potential is not stored mode-diagonally")
        return np.asarray(self._diagonal(x, K), dtype=float)

    def matrix_elements(self, x: float, K: int) -> np.ndarray:
        """K x K symmetric matrix of V-hat(x) in the sine basis."""
        if K < 1:
            raise ValueError(f"K must be >= 1, got {K}")
        if self._diagonal is not None:
            return np.diag(self._diagonal(x, K))
        if self._mode_matrix is not None:
            V = np.asarray(self._mode_matrix(x, K), dtype=float)
            if V.shape != (K, K):
                raise ValueError(f"mode matrix has shape {V.shape}, expected {(K, K)}")
            if not np.array_equal(V, V.T):
                # the A-form sweep reads one triangle of each slice
                raise ValueError("mode matrix is not symmetric")
            return V
        W = self.W
        norm = 2.0 / W
        pos = self._position
        V = np.empty((K, K))
        for n in range(1, K + 1):
            for m in range(n, K + 1):
                val = adaptive_quad(
                    lambda r: pos(x, r)
                    * math.sin(math.pi * n * r / W)
                    * math.sin(math.pi * m * r / W),
                    0.0,
                    W,
                    tol=QUAD_TOL,
                )
                V[n - 1, m - 1] = V[m - 1, n - 1] = norm * val
        return V


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
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if abs(W - pot.W) > 1e-12 * max(1.0, abs(W)):
        raise ValueError("W disagrees with the potential's transverse extent")
    om0sq = (math.pi * np.arange(1, K + 1) / W) ** 2

    if pot.is_mode_diagonal:
        elements = functools.partial(pot.diagonal_modes, K=K)
        zero = np.zeros(K)

        def sweep(h2: float, nodes: list[float], vhat: Callable) -> LogDet:
            return _chains(h2 * (om0sq + np.array([vhat(x) for x in nodes])))
    else:
        elements = functools.partial(pot.matrix_elements, K=K)
        if pot._position is not None:
            # K(K+1)/2 quadratures a node; L i / n gives a node the same
            # float at every doubling, so each is computed once
            elements = functools.cache(elements)
        zero = np.zeros((K, K))
        two = 2.0 * np.eye(K)
        om0 = np.diag(om0sq)

        def sweep(h2: float, nodes: list[float], vhat: Callable) -> LogDet:
            slices = (two + h2 * (om0 + vhat(x)) for x in nodes)
            return _aform_logdet(slices, K, len(nodes))

    return _lattice_ratio(L, sweep, elements, zero, tol)
