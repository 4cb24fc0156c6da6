"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s or -rA to see them all).

Tolerances are pinned here and nowhere else.  Criterion 8 measures the
massive asymptotic against the float64 rounding floor, whose size its
docstring derives from the error budget of the two routes compared.
Criterion 12 is asserted exactly as stated even though its window does
not hold under a Python runtime (see its docstring): the honest outcome
for it is a red test, not a loosened one.
"""

import math
import time

import numpy as np

from gydet import (
    CATALAN,
    LatticeSpec,
    Potential1D,
    PotentialField,
    TransversePotential2D,
    build_interior_hamiltonian,
    dense_logdet,
    eigenproduct_logdet_2d,
    g_of_m,
    massive_asymptotic_logdet,
    massless_asymptotic_logdet,
    matrix_logdet_aform,
    matrix_logdet_yform,
    quad_I2,
    ratio_logdet_1d,
    ratio_logdet_1d_riccati,
    ratio_logdet_2d_truncated,
    scalar_logdet,
    scalar_y_solution,
    sinh_product_logdet,
)
from gydet.cli import main as cli_main

CATALAN_LITERAL = 0.915965594177219


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_01_free_laplacian_exactness():
    """scalar_logdet(V=0, N) = ln N to 1e-12 relative up to N = 10^6,
    with the largest size under one second."""
    worst = 0.0
    elapsed = 0.0
    for N in (2, 10, 10**3, 10**6):
        t0 = time.perf_counter()
        ld = scalar_logdet(np.zeros(N - 1))
        dt = time.perf_counter() - t0
        if N == 10**6:
            elapsed = dt
        worst = max(worst, abs(ld.log_abs - math.log(N)) / math.log(N))
        assert ld.sign == 1
    report(
        "01 free-laplacian-exactness",
        worst <= 1e-12 and elapsed < 1.0,
        f"max rel err {worst:.2e}, 1e6 sites in {elapsed:.2f} s",
    )


def test_criterion_02_fibonacci_anchor():
    """V = 1 determinants equal the integer recurrence d_n = 3d_(n-1) - d_(n-2)."""
    y5 = scalar_y_solution(np.ones(4))[-1]
    d_prev, d = 1, 3
    for _ in range(8):
        d_prev, d = d, 3 * d - d_prev
    ld = scalar_logdet(np.ones(9))
    gap10 = abs(ld.log_abs - math.log(d)) / math.log(d)
    report(
        "02 fibonacci-anchor",
        y5 == 55.0 and ld.sign == 1 and gap10 <= 1e-12,
        f"det(N=5) = {y5:.0f}, N=10 rel gap {gap10:.2e} vs d_10 = {d}",
    )


def test_criterion_03_four_way_agreement():
    """All five routes agree pairwise to 1e-10 on constant masses over the
    full small-lattice grid; recursion routes vs dense to 1e-9 with signs
    on random and shifted-random potentials.  Under 30 s."""
    t0 = time.perf_counter()
    worst_const = 0.0
    for m2 in (0.0, 1.0):
        for N in range(2, 13):
            for M in range(2, 13):
                spec = LatticeSpec(d=2, N=N, M=M)
                pot = PotentialField.constant(spec, m2)
                lds = [
                    matrix_logdet_aform(spec, pot),
                    matrix_logdet_yform(spec, pot),
                    dense_logdet(build_interior_hamiltonian(spec, pot)),
                    eigenproduct_logdet_2d(m2, N, M),
                    sinh_product_logdet(m2, N, M),
                ]
                assert all(ld.sign == 1 for ld in lds), (m2, N, M)
                vals = [ld.log_abs for ld in lds]
                for i in range(len(vals)):
                    for j in range(i + 1, len(vals)):
                        worst_const = max(worst_const, rel_gap(vals[i], vals[j]))
    worst_rand = 0.0
    n_negative = 0
    for N in range(2, 13):
        for M in range(2, 13):
            spec = LatticeSpec(d=2, N=N, M=M)
            base = PotentialField.random_uniform(spec, seed=100 * N + M)
            for shift in (0.0, -5.0):
                pot = (
                    base
                    if shift == 0.0
                    else PotentialField(
                        spec, base.values + shift, ("seeded-random", 0, -6.0, -4.0)
                    )
                )
                ref = dense_logdet(build_interior_hamiltonian(spec, pot))
                a = matrix_logdet_aform(spec, pot)
                y = matrix_logdet_yform(spec, pot)
                assert a.sign == y.sign == ref.sign, (N, M, shift)
                if ref.sign == -1:
                    n_negative += 1
                worst_rand = max(
                    worst_rand, rel_gap(a.log_abs, ref.log_abs), rel_gap(y.log_abs, ref.log_abs)
                )
    elapsed = time.perf_counter() - t0
    report(
        "03 four-way-agreement",
        worst_const <= 1e-10 and worst_rand <= 1e-9 and n_negative > 0 and elapsed < 30.0,
        f"const worst {worst_const:.2e}, random worst {worst_rand:.2e}, "
        f"{n_negative} negative-determinant cases, {elapsed:.1f} s",
    )


def test_criterion_04_sinh_product_anchors():
    """Desk anchors ln 4, ln 192, ln 5 exact to 1e-12."""
    gaps = [
        abs(sinh_product_logdet(0.0, 2, 2).log_abs - math.log(4.0)),
        abs(sinh_product_logdet(0.0, 3, 3).log_abs - math.log(192.0)),
        abs(sinh_product_logdet(1.0, 2, 2).log_abs - math.log(5.0)),
    ]
    report(
        "04 sinh-product-anchors",
        max(gaps) <= 1e-12,
        f"gaps {', '.join(f'{g:.1e}' for g in gaps)}",
    )


def test_criterion_05_i2_identity():
    """|I2(m^2) + g(m^2)/2| <= 1e-9 across the mass grid."""
    worst = max(
        abs(quad_I2(m2) + g_of_m(m2) / 2.0) for m2 in (0.01, 0.1, 1.0, 4.0, 25.0)
    )
    report("05 i2-identity", worst <= 1e-9, f"worst |I2 + g/2| = {worst:.2e}")


def test_criterion_06_massless_area_density():
    """Exact density approaches 4G/pi within 3/N; the computed Catalan
    constant matches its double-entry literal to 1e-14."""
    g_err = abs(CATALAN - CATALAN_LITERAL)
    target = 4.0 * CATALAN / math.pi
    ok = g_err <= 1e-14
    detail = [f"|G - literal| = {g_err:.1e}"]
    for n in (32, 64, 128):
        density = eigenproduct_logdet_2d(0.0, n, n).log_abs / (n * n)
        gap = abs(density - target)
        ok = ok and gap <= 3.0 / n
        detail.append(f"N={n}: {gap:.2e} <= {3.0 / n:.2e}")
    report("06 massless-area-density", ok, "; ".join(detail))


def test_criterion_07_massless_asymptotic_accuracy():
    """Gap 0.0039 at N=M=3 (re-derived through both oracles), monotone
    decay through 64, below 1e-3 there."""
    gaps = []
    for n in (3, 8, 16, 32, 64):
        gaps.append(
            abs(
                massless_asymptotic_logdet(n, n).total
                - eigenproduct_logdet_2d(0.0, n, n).log_abs
            )
        )
    ok = (
        abs(gaps[0] - 0.0039114120813952) < 1e-9
        and gaps[0] <= 0.005
        and all(b < a for a, b in zip(gaps, gaps[1:]))
        and gaps[-1] < 1e-3
    )
    report(
        "07 massless-asymptotic-accuracy",
        ok,
        "gaps " + ", ".join(f"{g:.2e}" for g in gaps),
    )


def test_criterion_08_massive_asymptotic_accuracy():
    """For m^2 = 1 the asymptotic converges to the sinh product at
    N = M in {16, 32, 64, 128}, measured against the float64 rounding
    floor: each gap is at most max(0.6 x previous gap, floor_N), and the
    first is at most floor_16 plus the true remainder at N = 16.

    At equal aspect the massive asymptotic is exponentially accurate:
    every Euler-MacLaurin power correction vanishes by evenness, and the
    neglected remainder is c0^(-2N) times a slowly growing mode-sum factor
    (REMAINDER_16 = 6.05e-14, about one ulp of ln det, at N = 16; 4e-27 at
    N = 32).  Past N = 16 the true gap is far below one ulp of ln det, so a
    correct program gives gaps of a few ulps or 0; a power-law ratio test
    alone cannot hold in float64, hence the floor.

    floor_N = FLOOR_ULPS ulps of L = max(|asym|, |exact|), from the error
    budget of the two routes.  Here eps = 2^-52; at these sizes L lies in
    [N^2, 1.51 N^2) and N is a power of two, so ulp(L) = eps N^2 and
    eps L < 1.51 ulp(L).

      asymptotic, <= 3 ulps:
        I1 within 1 ulp (eps, as I1 is in [1, 2)) scaled by N M = N^2   1
        rounding of N M I1, which lies in [N^2, 2 N^2)                0.5
        perimeter (N+M)/2 g ~ 2.9 N < L/7, a few ulps of its own      < 0.5
        two roundings of the four-term sum (log, modular terms are 0)   1
      sinh product, <= 7 ulps:
        each positive term ln(sinh(N gamma_k)/sinh(gamma_k)) within
        4 eps relative (gamma_k within 2.5 eps: lambda_k, the arccosh
        argument, sqrt and log1p; then N gamma_k, ln sinh, difference);
        summed, 4 eps L                                              < 6.1
        math.fsum rounds the exact sum once                           0.5

    FLOOR_ULPS = 10.  A quadrature table cut to 15 digits left I1 19 ulps
    low and the gaps at 16-20 ulps; a perimeter term g off by 1e-13
    relative moves the N = 16 gap by about 80 ulps.  Either fails here.
    """
    floor_ulps = 10
    remainder_16 = 6.05e-14  # asym - exact at N = M = 16, in 50-digit arithmetic
    gaps, floors = [], []
    for n in (16, 32, 64, 128):
        asym = massive_asymptotic_logdet(1.0, n, n).total
        exact = sinh_product_logdet(1.0, n, n).log_abs
        gaps.append(abs(asym - exact))
        floors.append(floor_ulps * math.ulp(max(abs(asym), abs(exact))))
    ok = gaps[0] <= floors[0] + remainder_16 and all(
        b <= max(0.6 * a, f) for a, b, f in zip(gaps, gaps[1:], floors[1:])
    )
    report(
        "08 massive-asymptotic-accuracy",
        ok,
        "gaps " + ", ".join(f"{g:.1e}" for g in gaps)
        + "; in ulps of ln det "
        + ", ".join(f"{g * floor_ulps / f:.0f}" for g, f in zip(gaps, floors))
        + f"; floor {floor_ulps} ulps (+ remainder {remainder_16:.2e} at N = 16)",
    )


def test_criterion_09_exchange_symmetry():
    """Massless totals N <-> M to 1e-12; sinh product vs swapped
    eigenproduct to 1e-10."""
    worst_total = 0.0
    for (N, M) in ((3, 7), (4, 16), (5, 9)):
        a = massless_asymptotic_logdet(N, M).total
        b = massless_asymptotic_logdet(M, N).total
        worst_total = max(worst_total, abs(a - b) / max(1.0, abs(a)))
    worst_swap = 0.0
    for m2 in (0.0, 1.0):
        for (N, M) in ((3, 7), (4, 16), (5, 9), (2, 12)):
            sp = sinh_product_logdet(m2, N, M).log_abs
            ep = eigenproduct_logdet_2d(m2, M, N).log_abs
            worst_swap = max(worst_swap, rel_gap(sp, ep))
    report(
        "09 exchange-symmetry",
        worst_total <= 1e-12 and worst_swap <= 1e-10,
        f"totals {worst_total:.2e}, swapped oracles {worst_swap:.2e}",
    )


def test_criterion_10_continuum_1d():
    """Constant-mass ratios hit ln(sinh(mL)/mL) to 1e-8; the Riccati
    diagnostic route agrees to 1e-6."""
    worst_lin = 0.0
    worst_ric = 0.0
    for mL in (0.5, 1.0, 5.0):
        pot = Potential1D.constant(mL * mL, 1.0)
        want = math.log(math.sinh(mL) / mL)
        worst_lin = max(
            worst_lin, abs(ratio_logdet_1d(pot, tol=1e-10).log_ratio - want)
        )
        worst_ric = max(
            worst_ric, abs(ratio_logdet_1d_riccati(pot, tol=1e-8).log_ratio - want)
        )
    report(
        "10 continuum-1d",
        worst_lin <= 1e-8 and worst_ric <= 1e-6,
        f"linear {worst_lin:.2e}, Riccati {worst_ric:.2e}",
    )


def test_criterion_11_continuum_2d():
    """Rank-1 closed form to 1e-8 independent of K; constant-mass
    truncation gap matches (m^2 W L / 2 pi) ln 2 within 20% at K = 64."""
    W = L = 1.0
    c = 3.0
    om = math.sqrt(c + math.pi**2)
    want = math.log(math.sinh(om * L) / om) - math.log(math.sinh(math.pi * L) / math.pi)
    rank1 = TransversePotential2D.finite_rank({(1, 1): c}, W)
    worst = max(
        abs(ratio_logdet_2d_truncated(rank1, L, W, K, tol=1e-10).log_ratio - want)
        for K in (1, 4, 16)
    )
    const = TransversePotential2D.constant(1.0, W)
    v64 = ratio_logdet_2d_truncated(const, L, W, 64, tol=1e-7).log_ratio
    v128 = ratio_logdet_2d_truncated(const, L, W, 128, tol=1e-7).log_ratio
    gap_want = W * L / (2.0 * math.pi) * math.log(2.0)
    gap_dev = abs((v128 - v64) - gap_want) / gap_want
    report(
        "11 continuum-2d",
        worst <= 1e-8 and gap_dev <= 0.2,
        f"rank-1 worst {worst:.2e}; truncation gap off by {gap_dev:.1%}",
    )


def test_criterion_12_scaling_claim(capsys):
    """Benchmark slope via the CLI: gy-a in [3.0, 4.5] over 16..128, dense
    in [5.0, 6.8] over 16..48 (sweep cost O(N K^3) vs O((N K)^3)).

    The gy-a window presumes the N = 16 anchor is flop-dominated.  In this
    implementation a K = 15 sweep step is mostly the f2py LAPACK calls
    (dsytrf, dlantr, dsytri) that carry little arithmetic at this size, so
    the N = 16 time sits above the flop count and the fit lands below the
    window's lower edge: five runs on a shared 2-vCPU machine gave
    2.69-2.83, against 2.72-3.05 (two passes) for the earlier kernel that
    inverted every step by a dsytrs solve against the identity (three
    times the inverse's flops, which the large-K steps paid; the current
    kernel still solves the steps whose L grows).  The local slope across
    the tail (64 -> 128), reported below, landed at 3.2-3.3 against
    3.6-3.7; the dense separation is clear.  The window is asserted as
    written regardless, so expect this test red.
    """
    code = cli_main(
        ["bench", "--dim", "2", "--sizes", "16,32,64,128", "--methods", "gy-a",
         "--repeats", "3", "--min-time", "0.2"]
    )
    out_gy = capsys.readouterr().out
    assert code == 0
    code = cli_main(
        ["bench", "--dim", "2", "--sizes", "16,24,32,48", "--methods", "dense",
         "--repeats", "3", "--min-time", "0.2"]
    )
    out_dense = capsys.readouterr().out
    assert code == 0

    def slope_of(text, method):
        for line in text.splitlines():
            if line.startswith(f"# slope {method}"):
                return float(line.split()[3])
        raise AssertionError(f"no slope line for {method}:\n{text}")

    def rows_of(text, method):
        out = {}
        for line in text.splitlines()[1:]:
            if line.startswith(method + ","):
                _, n, med, _ = line.split(",")
                out[int(n)] = float(med)
        return out

    s_gy = slope_of(out_gy, "gy-a")
    s_dense = slope_of(out_dense, "dense")
    t = rows_of(out_gy, "gy-a")
    local_tail = math.log(t[128] / t[64]) / math.log(2.0)
    report(
        "12 scaling-claim",
        3.0 <= s_gy <= 4.5 and 5.0 <= s_dense <= 6.8,
        f"gy-a slope {s_gy:.2f} (window [3.0, 4.5]; local 64->128 slope "
        f"{local_tail:.2f}), dense slope {s_dense:.2f} (window [5.0, 6.8])",
    )
