import math

import numpy as np
import pytest
import scipy.integrate

from gydet.continuum import (
    MIN_STEPS,
    Potential1D,
    TransversePotential2D,
    ratio_logdet_1d,
    ratio_logdet_1d_riccati,
    ratio_logdet_2d_truncated,
)
from gydet.errors import NonConvergentRatio, QuadratureError, SignChange
from gydet.gy import scalar_logdet
from gydet.lattice import LatticeSpec, PotentialField
from gydet.oracles import log_sinh


def massive_ratio_1d(mL: float) -> float:
    return math.log(math.sinh(mL) / mL)


def x_independent_ratio_2d(vhat: np.ndarray, L: float, W: float) -> float:
    """Exact ratio for a mode coupling that does not depend on x:
    sum_k ln(sinh(sqrt(mu_k) L)/sqrt(mu_k)) over mu = eigvalsh(Omega),
    minus the same over the free (pi k / W)^2."""
    free = (math.pi * np.arange(1, vhat.shape[0] + 1) / W) ** 2

    def log_det(mu):
        return math.fsum(log_sinh(math.sqrt(m) * L) - 0.5 * math.log(m) for m in mu)

    return log_det(np.linalg.eigvalsh(np.diag(free) + vhat)) - log_det(free)


# V = 1 on [0, 1/2) and 9 on [1/2, 1]: the jump leaves a lattice error of
# first order in h, which Richardson extrapolation in h^2 does not remove
STEP = Potential1D(V=lambda x: 1.0 if x < 0.5 else 9.0, L=1.0)
# transfer matrix: y = sinh x up to x = 1/2, then cosh/sinh of 3(x - 1/2)
STEP_RATIO = math.log(math.sinh(0.5) * math.cosh(1.5) + math.cosh(0.5) * math.sinh(1.5) / 3.0)


ROUTES = {
    "1d": lambda tol: ratio_logdet_1d(Potential1D.constant(1.0, 1.0), tol=tol),
    "riccati": lambda tol: ratio_logdet_1d_riccati(Potential1D.constant(1.0, 1.0), tol=tol),
    "2d": lambda tol: ratio_logdet_2d_truncated(
        TransversePotential2D.constant(1.0, 1.0), 1.0, 1.0, 2, tol=tol
    ),
}


class TestInputChecks:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, 1.0])
    @pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
    def test_tol_outside_unit_interval_rejected(self, route, tol):
        # nan used to run every level to MAX_STEPS, and tol >= 1 put the
        # Riccati start x0 = L tol at or past L
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            route(tol)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
    def test_bad_length_rejected(self, L, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("1 1 1.0\n")
        pot = TransversePotential2D.constant(1.0, 1.0)
        for build in (
            lambda: Potential1D.constant(1.0, L),
            lambda: ratio_logdet_2d_truncated(pot, L, 1.0, 2, tol=1e-8),
            lambda: TransversePotential2D.from_grid_file(path, 2, 2, L, 1.0),
        ):
            with pytest.raises(ValueError, match="L must be finite and positive"):
                build()

    @pytest.mark.parametrize(
        "entry", [(0, 1), (1, -1), (1.0, 2)], ids=["zero", "negative", "float"]
    )
    def test_bad_mode_index_rejected(self, entry):
        # (0, 1) used to wrap round to the last mode and (1, -1) to couple
        # modes 1 and 2
        with pytest.raises(ValueError, match="mode indices"):
            TransversePotential2D.finite_rank({entry: 5.0}, 1.0)


def nan_beyond_half(s):
    return math.nan if s > 0.5 else 1.0


NOT_FINITE = "potential is not finite at x = "
BAD_POTENTIALS = {
    # was "mode matrix is not symmetric"
    "finite-rank-nan": (
        lambda: ratio_logdet_2d_truncated(
            TransversePotential2D.finite_rank({(1, 1): math.nan}, 1.0), 1.0, 1.0, 2
        ),
        NOT_FINITE,
    ),
    # was SignChange at a zero pivot
    "mode-matrix-inf": (
        lambda: ratio_logdet_2d_truncated(
            TransversePotential2D(1.0, mode_matrix=lambda x, K: np.full((K, K), math.inf)),
            1.0, 1.0, 2,
        ),
        NOT_FINITE,
    ),
    # was SignChange: Riccati variable diverged
    "riccati-nan": (
        lambda: ratio_logdet_1d_riccati(Potential1D(nan_beyond_half, 1.0)),
        NOT_FINITE,
    ),
    # was QuadratureError after four rules; nan in rho, reported at its x
    "position-nan": (
        lambda: TransversePotential2D(1.0, position=lambda x, r: nan_beyond_half(r))
        .matrix_elements(0.3, 64),
        NOT_FINITE + "0.3",
    ),
    # the three inf cases raised numpy's RuntimeWarning
    "1d-inf": (
        lambda: ratio_logdet_1d(Potential1D(lambda x: math.inf, 1.0)),
        NOT_FINITE + f"{1 / MIN_STEPS}",
    ),
    "diagonal-inf": (
        lambda: ratio_logdet_2d_truncated(
            TransversePotential2D(1.0, diagonal_modes=lambda x, K: np.full(K, math.inf)),
            1.0, 1.0, 2,
        ),
        NOT_FINITE,
    ),
    "position-inf": (
        lambda: ratio_logdet_2d_truncated(
            TransversePotential2D.separable(lambda x: math.inf, math.sin, 1.0), 1.0, 1.0, 2
        ),
        NOT_FINITE,
    ),
    # was numpy's TypeError from leggauss
    "float-K": (
        lambda: TransversePotential2D.constant(1.0, 1.0).matrix_elements(0.3, 4.0),
        "K must be an integer, got 4.0",
    ),
    # was a 3 x 3 matrix, and a broadcast error in the ratio
    "diagonal-shape": (
        lambda: TransversePotential2D(1.0, diagonal_modes=lambda x, K: np.ones(K + 1))
        .matrix_elements(0.3, 2),
        r"diagonal modes have shape \(3,\), expected \(2,\)",
    ),
    "diagonal-shape-ratio": (
        lambda: ratio_logdet_2d_truncated(
            TransversePotential2D(1.0, diagonal_modes=lambda x, K: np.ones(K + 1)),
            1.0, 1.0, 2,
        ),
        r"diagonal modes have shape \(3,\), expected \(2,\)",
    ),
}


@pytest.mark.parametrize("call, message", BAD_POTENTIALS.values(), ids=BAD_POTENTIALS.keys())
def test_bad_potential_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


class TestRatio1D:
    def test_zero_potential_is_exactly_zero(self):
        r = ratio_logdet_1d(Potential1D.constant(0.0, 3.7), tol=1e-10)
        assert r.log_ratio == 0.0

    @pytest.mark.parametrize("mL", [0.5, 1.0, 5.0])
    def test_constant_mass_closed_form(self, mL):
        pot = Potential1D.constant(mL * mL, 1.0)
        r = ratio_logdet_1d(pot, tol=1e-10)
        assert abs(r.log_ratio - massive_ratio_1d(mL)) < 1e-8

    def test_length_scaling(self):
        # same physics with L != 1: V = m^2, ratio depends on m L only
        m = 2.0
        L = 2.5
        r = ratio_logdet_1d(Potential1D.constant(m * m, L), tol=1e-10)
        assert abs(r.log_ratio - massive_ratio_1d(m * L)) < 1e-8

    def test_smooth_potential_against_fine_reference(self):
        pot = Potential1D(V=lambda x: 1.0 + math.sin(2.0 * x) ** 2, L=1.5)
        loose = ratio_logdet_1d(pot, tol=1e-6)
        tight = ratio_logdet_1d(pot, tol=1e-12)
        assert abs(loose.log_ratio - tight.log_ratio) < 1e-6
        assert loose.step_count <= tight.step_count

    def test_sign_change_raises(self):
        # V = -5 on [0, 2] puts exactly one eigenvalue below zero
        # ((pi/2)^2 - 5 < 0 < (pi)^2 - 5), so y(L) = sin(2 sqrt 5)/sqrt 5 < 0
        with pytest.raises(SignChange):
            ratio_logdet_1d(Potential1D.constant(-5.0, 2.0), tol=1e-8)

    def test_even_number_of_crossings_is_not_a_sign_change(self):
        # V = -40 on [0, 2] crosses four eigenvalues: det stays positive
        # and the ratio is well defined
        r = ratio_logdet_1d(Potential1D.constant(-40.0, 2.0), tol=1e-8)
        want = math.log(math.sin(2.0 * math.sqrt(40.0)) / (math.sqrt(40.0) * 2.0))
        assert abs(r.log_ratio - want) < 1e-7

    def test_potential_vanishing_on_coarse_nodes(self):
        # V is zero on every node x = i/128, so the first two samplings
        # agree on a ratio of 0 that is not the limit
        pot = Potential1D(V=lambda x: 50.0 * math.sin(128.0 * math.pi * x), L=1.0)
        lin = ratio_logdet_1d(pot, tol=1e-8).log_ratio
        ric = ratio_logdet_1d_riccati(pot, tol=1e-8).log_ratio
        assert abs(lin - ric) < 1e-7 and abs(lin) > 1e-3, (lin, ric)

    def test_estimated_error_reported(self):
        r = ratio_logdet_1d(Potential1D.constant(1.0, 1.0), tol=1e-10)
        assert 0.0 <= r.estimated_error < 1e-10


class TestNonSmoothPotential:
    @pytest.mark.parametrize("route", [ratio_logdet_1d, ratio_logdet_1d_riccati])
    def test_loose_tolerance_is_met(self, route):
        tol = 1e-4
        r = route(STEP, tol=tol)
        assert abs(r.log_ratio - STEP_RATIO) < 3 * tol, r

    @pytest.mark.parametrize(
        "route",
        [
            lambda tol: ratio_logdet_1d(STEP, tol=tol),
            lambda tol: ratio_logdet_1d_riccati(STEP, tol=tol),
            lambda tol: ratio_logdet_2d_truncated(
                TransversePotential2D(
                    1.0, diagonal_modes=lambda x, K: np.full(K, STEP.V(x))
                ),
                1.0,
                1.0,
                2,
                tol=tol,
            ),
        ],
        ids=["1d", "riccati", "2d"],
    )
    def test_unreachable_tolerance_raises(self, route):
        # first-order convergence cannot reach 1e-10 within the step cap:
        # the route must say so instead of returning an unconverged value
        with pytest.raises(NonConvergentRatio) as info:
            route(1e-10)
        assert info.value.requested == 1e-10
        assert info.value.achieved > 1e-10


class TestRiccatiDiagnostic:
    @pytest.mark.parametrize("mL", [0.5, 1.0, 5.0])
    def test_agrees_with_linear_route(self, mL):
        pot = Potential1D.constant(mL * mL, 1.0)
        lin = ratio_logdet_1d(pot, tol=1e-10).log_ratio
        ric = ratio_logdet_1d_riccati(pot, tol=1e-8).log_ratio
        assert abs(lin - ric) < 1e-6

    def test_zero_potential(self):
        # u = 1 is an exact fixed point of the substituted flow
        r = ratio_logdet_1d_riccati(Potential1D.constant(0.0, 1.0), tol=1e-8)
        assert abs(r.log_ratio) < 1e-12

    def test_one_potential_call_per_node(self):
        # an n-step sweep evaluates V at its n + 1 step nodes and n
        # midpoints; a step's end node is the next step's start node
        calls = []
        pot = Potential1D(V=lambda x: calls.append(x) or 1.0 + x, L=1.0)
        r = ratio_logdet_1d_riccati(pot, tol=1e-8)
        levels = []
        n = MIN_STEPS
        while n <= r.step_count:
            levels.append(n)
            n *= 2
        assert len(levels) >= 3
        assert len(calls) == sum(2 * n + 1 for n in levels)

    def test_sign_change_detected(self):
        # any zero of y blows the Riccati variable up, even when later
        # crossings would restore the sign of y(L)
        with pytest.raises(SignChange):
            ratio_logdet_1d_riccati(Potential1D.constant(-40.0, 2.0), tol=1e-6)


class TestDiscreteContinuumConsistency:
    def test_lattice_ratio_converges_second_order(self):
        # lattice ratio with spacing delta = L/N approaches the continuum
        # ratio at second order
        m, L = 1.0, 1.0
        cont = ratio_logdet_1d(Potential1D.constant(m * m, L), tol=1e-12).log_ratio
        errs = []
        for N in (100, 200, 400):
            delta = L / N
            lat = (
                scalar_logdet(np.full(N - 1, m * m * delta * delta)).log_abs
                - scalar_logdet(np.zeros(N - 1)).log_abs
            )
            errs.append(abs(lat - cont))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(s >= 1.9 for s in slopes), (errs, slopes)


class TestMatrixElements:
    def test_constant_gives_identity_multiple(self):
        pot = TransversePotential2D(2.0, position=lambda x, r: 3.5)
        V = pot.matrix_elements(0.1, 4)
        np.testing.assert_allclose(V, 3.5 * np.eye(4), atol=1e-10)

    def test_symmetry(self):
        pot = TransversePotential2D(1.0, position=lambda x, r: r * math.exp(-r))
        V = pot.matrix_elements(0.0, 5)
        assert np.abs(V - V.T).max() < 1e-12

    def test_linear_ramp_closed_form(self):
        # V(x, rho) = rho on W = 1: diagonals 1/2, (1,2) entry -16/(9 pi^2)
        pot = TransversePotential2D(1.0, position=lambda x, r: r)
        V = pot.matrix_elements(0.0, 2)
        assert abs(V[0, 0] - 0.5) < 1e-10
        assert abs(V[1, 1] - 0.5) < 1e-10
        assert abs(V[0, 1] - (-16.0 / (9.0 * math.pi**2))) < 1e-10

    def test_asymmetric_mode_matrix_rejected(self):
        pot = TransversePotential2D(1.0, mode_matrix=lambda x, K: np.triu(np.ones((K, K))))
        with pytest.raises(ValueError):
            ratio_logdet_2d_truncated(pot, 1.0, 1.0, 3, tol=1e-8)

    def test_kinked_position_callable_raises(self):
        # |rho - 0.37| has a kink inside the one panel (0, W), where a
        # Gauss-Legendre rule converges only algebraically
        pot = TransversePotential2D(1.0, position=lambda x, r: (1 + x) * abs(r - 0.37))
        with pytest.raises(QuadratureError) as info:
            pot.matrix_elements(0.5, 8)
        assert info.value.requested == 1e-10
        assert info.value.achieved > 1e-10

    def test_mode_space_passthrough(self):
        want = np.array([[1.0, 0.25], [0.25, 2.0]])
        pot = TransversePotential2D(1.0, mode_matrix=lambda x, K: want[:K, :K])
        np.testing.assert_array_equal(pot.matrix_elements(0.3, 2), want)


class TestRatio2D:
    def test_zero_potential_every_k(self):
        # through the per-mode chains and through the dense A-form
        for pot in (
            TransversePotential2D.constant(0.0, 1.0),
            TransversePotential2D(1.0, mode_matrix=lambda x, K: np.zeros((K, K))),
        ):
            for K in (1, 3, 8):
                r = ratio_logdet_2d_truncated(pot, 1.0, 1.0, K, tol=1e-8)
                assert r.log_ratio == 0.0

    @pytest.mark.parametrize("K", [16, 24])
    def test_dense_coupling_against_exact(self, K):
        # every mode coupled, so the growth spread pi (K - 1) L / W passes
        # ln(1/eps) at K ~ 12: a sweep of the growing solution fails here
        k = np.arange(1, K + 1)
        vhat = 3.0 / np.outer(k, k) ** 2
        pot = TransversePotential2D(1.0, mode_matrix=lambda x, n: vhat[:n, :n])
        r = ratio_logdet_2d_truncated(pot, 1.0, 1.0, K, tol=1e-10)
        assert abs(r.log_ratio - x_independent_ratio_2d(vhat, 1.0, 1.0)) <= 1e-8

    def test_rank1_closed_form_independent_of_k(self):
        W = L = 1.0
        c = 3.0
        om = math.sqrt(c + math.pi**2)
        want = math.log(math.sinh(om * L) / om) - math.log(
            math.sinh(math.pi * L) / math.pi
        )
        pot = TransversePotential2D.finite_rank({(1, 1): c}, W)
        for K in (1, 4, 16):
            r = ratio_logdet_2d_truncated(pot, L, W, K, tol=1e-10)
            assert abs(r.log_ratio - want) < 1e-8, K

    def test_offdiagonal_rank2_against_dense_modes(self):
        # 2x2 mode block with coupling: solve the decoupled eigenbasis by
        # hand and compare
        W = L = 1.0
        a, b, c = 2.0, 0.8, 1.0
        pot = TransversePotential2D.finite_rank({(1, 1): a, (2, 2): b, (1, 2): c}, W)
        r = ratio_logdet_2d_truncated(pot, L, W, 2, tol=1e-10)
        Omega = np.diag([math.pi**2, 4 * math.pi**2]) + np.array([[a, c], [c, b]])
        want = 0.0
        for w2, w02 in zip(sorted(np.linalg.eigvalsh(Omega)), (math.pi**2, 4 * math.pi**2)):
            w, w0 = math.sqrt(w2), math.sqrt(w02)
            want += math.log(math.sinh(w * L) / w) - math.log(math.sinh(w0 * L) / w0)
        assert abs(r.log_ratio - want) < 1e-8

    def test_separable_factorization_for_mode_diagonal(self):
        # mode-diagonal potential: 2D result equals the sum of per-mode 1D
        # ratios
        W, L = 1.3, 0.9
        weights = [2.0, -0.5, 1.0, 0.25]
        pot = TransversePotential2D(
            W, diagonal_modes=lambda x, K: np.array(weights[:K])
        )
        K = 4
        r2d = ratio_logdet_2d_truncated(pot, L, W, K, tol=1e-11)
        total = 0.0
        for n in range(1, K + 1):
            om0 = math.pi * n / W
            pot1 = Potential1D(V=lambda x, c=weights[n - 1]: c + om0 * om0, L=L)
            wants = ratio_logdet_1d(pot1, tol=1e-12).log_ratio
            total += wants - math.log(math.sinh(om0 * L) / (om0 * L))
        assert abs(r2d.log_ratio - total) < 1e-9

    def test_truncation_monotone_for_positive_constant(self):
        pot = TransversePotential2D.constant(1.0, 1.0)
        vals = [
            ratio_logdet_2d_truncated(pot, 1.0, 1.0, K, tol=1e-9).log_ratio
            for K in (1, 2, 4, 8, 16)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_constant_mass_truncation_gap(self):
        # value(2K) - value(K) -> (m^2 W L / 2 pi) ln 2 for large K
        W = L = 1.0
        m2 = 1.0
        pot = TransversePotential2D.constant(m2, W)
        v64 = ratio_logdet_2d_truncated(pot, L, W, 64, tol=1e-7).log_ratio
        v128 = ratio_logdet_2d_truncated(pot, L, W, 128, tol=1e-7).log_ratio
        want = m2 * W * L / (2.0 * math.pi) * math.log(2.0)
        assert abs((v128 - v64) - want) < 0.2 * want

    def test_position_space_matrix_path(self):
        # separable x-independent potential integrated through the full
        # matrix sweep agrees with the same potential given mode-space
        W = L = 1.0
        g = lambda r: math.sin(math.pi * r)
        pos = TransversePotential2D.separable(lambda x: 1.0, g, W)
        K = 3
        Vhat = pos.matrix_elements(0.0, K)
        mode = TransversePotential2D(W, mode_matrix=lambda x, k: Vhat[:k, :k])
        a = ratio_logdet_2d_truncated(pos, L, W, K, tol=1e-8)
        b = ratio_logdet_2d_truncated(mode, L, W, K, tol=1e-8)
        assert abs(a.log_ratio - b.log_ratio) < 1e-7

    def test_two_negative_modes_same_either_way(self):
        # Omega = -(pi^2 + 5) in both modes: each mode's factor sin(w)/w
        # is negative, their product and the ratio are not, and the
        # mode-diagonal and dense sweeps share one sign rule
        W = L = 1.0
        c = np.array([-(2 * math.pi**2 + 5), -(5 * math.pi**2 + 5)])
        diag = TransversePotential2D(W, diagonal_modes=lambda x, K: c[:K])
        dense = TransversePotential2D(W, mode_matrix=lambda x, K: np.diag(c[:K]))
        a = ratio_logdet_2d_truncated(diag, L, W, 2, tol=1e-8).log_ratio
        b = ratio_logdet_2d_truncated(dense, L, W, 2, tol=1e-8).log_ratio
        w = math.sqrt(math.pi**2 + 5)
        want = (
            2 * math.log(abs(math.sin(w) / w))
            - math.log(math.sinh(math.pi) / math.pi)
            - math.log(math.sinh(2 * math.pi) / (2 * math.pi))
        )
        assert want == pytest.approx(-8.598785174564407, abs=1e-12)
        assert abs(a - b) < 1e-7
        assert abs(a - want) < 1e-7 and abs(b - want) < 1e-7, (a, b, want)

    def test_w_mismatch_rejected(self):
        pot = TransversePotential2D.constant(1.0, 2.0)
        with pytest.raises(ValueError):
            ratio_logdet_2d_truncated(pot, 1.0, 1.0, 4, tol=1e-8)


def seeded_grid(tmp_path, N=8, M=6):
    """Grid file of uniform values on [-1, 2) at the interior sites of an
    N x M grid, seeded with default_rng(3)."""
    vals = np.random.default_rng(3).uniform(-1.0, 2.0, size=(N - 1, M - 1))
    path = tmp_path / "grid.txt"
    sites = [(i, j) for i in range(1, N) for j in range(1, M)]
    path.write_text("".join(f"{i} {j} {float(vals[i - 1, j - 1])!r}\n" for i, j in sites))
    return path


def bilinear(path, N, M, L, W):
    """The bilinear interpolant of a grid file at a point, on the grid
    padded with a zero boundary ring: the reference that from_grid_file's
    mode matrix is the exact transform of."""
    grid = np.zeros((N + 1, M + 1))
    grid[1:N, 1:M] = PotentialField.from_file(LatticeSpec(2, N, M), path).values

    def V(x, rho):
        fx = min(max(x / L * N, 0.0), N)
        fr = min(max(rho / W * M, 0.0), M)
        i0 = min(int(fx), N - 1)
        j0 = min(int(fr), M - 1)
        tx, tr = fx - i0, fr - j0
        return float(
            grid[i0, j0] * (1 - tx) * (1 - tr)
            + grid[i0 + 1, j0] * tx * (1 - tr)
            + grid[i0, j0 + 1] * (1 - tx) * tr
            + grid[i0 + 1, j0 + 1] * tx * tr
        )

    return V


def quad_element(V, x, n, m, M, W):
    """(2/W) int_0^W V(x, rho) sin(n pi rho / W) sin(m pi rho / W) by
    QUADPACK, split at the grid lines, where the interpolant has kinks."""
    k = math.pi / W
    value, _ = scipy.integrate.quad(
        lambda r: 2.0 / W * V(x, r) * math.sin(n * k * r) * math.sin(m * k * r),
        0.0, W, points=[j * W / M for j in range(1, M)], epsabs=1e-13, epsrel=0.0,
        limit=200,
    )
    return value


class TestGridFilePotential:
    def test_matrix_elements_at_k64(self, tmp_path):
        # the highest mode's row, where sin sin oscillates fastest, matches
        # QUADPACK's integrals of the pointwise interpolant
        N, M, K, x = 8, 6, 64, 0.3
        path = seeded_grid(tmp_path, N, M)
        pot = TransversePotential2D.from_grid_file(path, N, M, 1.0, 1.0)
        V = bilinear(path, N, M, 1.0, 1.0)
        row = pot.matrix_elements(x, K)[K - 1]
        for m in range(1, K + 1):
            assert abs(row[m - 1] - quad_element(V, x, K, m, M, 1.0)) <= 1e-13, m

    def test_ratio_against_pinned_value(self, tmp_path):
        # the QUADPACK-element route gave 0.10346570940423103 for this grid
        pot = TransversePotential2D.from_grid_file(seeded_grid(tmp_path), 8, 6, 1.0, 1.0)
        r = ratio_logdet_2d_truncated(pot, 1.0, 1.0, 4, tol=1e-8)
        assert abs(r.log_ratio - 0.10346570940423103) <= 1e-11

    def test_bilinear_interpolation(self, tmp_path):
        # tabulate V(x, rho) = x * rho on a grid with L != W; the reference
        # reproduces it (bilinear is exact for bilinear functions) inside
        # the interior-node hull, and the mode matrix is its transform at
        # x between grid lines
        N, M, L, W, K = 8, 6, 2.0, 1.5, 6
        lines = []
        for i in range(1, N):
            for j in range(1, M):
                x, rho = i * L / N, j * W / M
                lines.append(f"{i} {j} {x * rho}")
        path = tmp_path / "grid.txt"
        path.write_text("\n".join(lines) + "\n")
        pot = TransversePotential2D.from_grid_file(path, N, M, L, W)
        V = bilinear(path, N, M, L, W)
        for (x, rho) in ((0.5, 0.3), (1.2, 0.9), (1.6, 1.1)):
            assert abs(V(x, rho) - x * rho) < 1e-12
            got = pot.matrix_elements(x, K)
            for n in range(1, K + 1):
                for m in range(1, n + 1):
                    assert abs(got[n - 1, m - 1] - quad_element(V, x, n, m, M, W)) <= 1e-13

    def test_boundary_ring_is_zero(self, tmp_path):
        N = M = 4
        lines = [f"{i} {j} 1.0" for i in range(1, N) for j in range(1, M)]
        path = tmp_path / "grid.txt"
        path.write_text("\n".join(lines) + "\n")
        pot = TransversePotential2D.from_grid_file(path, N, M, 1.0, 1.0)
        assert not pot.matrix_elements(0.0, 8).any()
        assert not pot.matrix_elements(1.0, 8).any()

    @pytest.mark.parametrize("x", [-3.0, -1e-300, 1.7])
    def test_outside_grid_raises(self, tmp_path, x):
        # x was clamped to [0, L], so V read as zero beyond the grid
        pot = TransversePotential2D.from_grid_file(seeded_grid(tmp_path, 4, 4), 4, 4, 1.0, 1.0)
        with pytest.raises(ValueError, match=rf"x = {x!r}, outside \[0, L = 1.0\]"):
            pot.matrix_elements(x, 2)

    def test_ratio_past_grid_raises(self, tmp_path):
        # integrating to L = 2 over a grid tabulated on [0, 1] returned
        # 0.033816859689934205 with V taken as zero on (1, 2]
        pot = TransversePotential2D.from_grid_file(seeded_grid(tmp_path, 4, 4), 4, 4, 1.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            ratio_logdet_2d_truncated(pot, 2.0, 1.0, 4)
