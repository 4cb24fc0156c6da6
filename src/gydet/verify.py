"""Cross-method verification suite.

Every check pits at least two independent routes against each other at a
fixed tolerance and returns None on success or a short failure message.
The CLI's verify command runs the lot and exits nonzero naming the first
offenders; the test suite runs every check at full size, so the command
and the tests cannot drift apart.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import asymptotics, continuum, gy, lattice, oracles
from .logdet import dense_logdet


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_scalar_free_laplacian(quick: bool) -> Optional[str]:
    """det(-Delta_1) on N-1 sites equals N, to 1e-12 relative in the log."""
    sizes = [2, 10, 1000] if quick else [2, 10, 1000, 10**6]
    for N in sizes:
        got = gy.scalar_logdet(np.zeros(N - 1))
        want = math.log(N)
        if got.sign != 1 or abs(got.log_abs - want) > 1e-12 * want:
            return f"N={N}: got ({got.log_abs}, {got.sign}), want ({want}, +1)"
    return None


def check_scalar_fibonacci(quick: bool) -> Optional[str]:
    """V = 1 determinants against the integer recurrence d_n = 3 d_{n-1} - d_{n-2}."""
    for N in (5, 10, 30):
        d_prev, d = 1, 3
        for _ in range(N - 2):
            d_prev, d = d, 3 * d - d_prev
        got = gy.scalar_logdet(np.ones(N - 1))
        if got.sign != 1 or not _close(got.log_abs, math.log(d), 1e-12):
            return f"N={N}: got {got.log_abs}, want ln({d})"
        y = gy.scalar_y_solution(np.ones(N - 1))
        if y[-1] != float(d):
            return f"N={N}: y_N = {y[-1]}, want {d}"
    return None


def check_four_way_agreement(quick: bool, gamma_fault: float = 0.0) -> Optional[str]:
    """gy-a, gy-y, dense, eigenproduct and sinh-product agree pairwise to
    1e-10 on constant-mass 2D lattices."""
    top = 6 if quick else 12
    for m2 in (0.0, 1.0):
        for N in range(2, top + 1):
            for M in range(2, top + 1):
                spec = lattice.LatticeSpec(d=2, N=N, M=M)
                pot = lattice.PotentialField.constant(spec, m2)
                vals = {
                    "gy-a": gy.matrix_logdet_aform(spec, pot),
                    "gy-y": gy.matrix_logdet_yform(spec, pot),
                    "dense": dense_logdet(lattice.build_interior_hamiltonian(spec, pot)),
                    "eigenproduct": oracles.eigenproduct_logdet_2d(m2, N, M),
                    "sinh-product": oracles.sinh_product_logdet(
                        m2, N, M, gamma_fault=gamma_fault
                    ),
                }
                ref = vals["dense"]
                for name, ld in vals.items():
                    if ld.sign != 1:
                        return f"m2={m2} N={N} M={M}: {name} sign {ld.sign}"
                    if not _close(ld.log_abs, ref.log_abs, 1e-10):
                        return (
                            f"m2={m2} N={N} M={M}: {name} {ld.log_abs!r} vs "
                            f"dense {ref.log_abs!r}"
                        )
    return None


def check_random_potential_agreement(quick: bool) -> Optional[str]:
    """Recursion routes vs dense factorization on seeded random potentials,
    including shifted ones with negative determinants, to 1e-9 with sign."""
    seeds = range(3) if quick else range(10)
    top = 8 if quick else 12
    for seed in seeds:
        for shift in (0.0, -5.0):
            spec = lattice.LatticeSpec(d=2, N=top, M=top - 1)
            base = lattice.PotentialField.random_uniform(spec, seed=seed)
            pot = (
                base
                if shift == 0.0
                else lattice.PotentialField(
                    spec, base.values + shift, ("seeded-random", seed, -6.0, -4.0)
                )
            )
            ref = dense_logdet(lattice.build_interior_hamiltonian(spec, pot))
            for name, ld in (
                ("gy-a", gy.matrix_logdet_aform(spec, pot)),
                ("gy-y", gy.matrix_logdet_yform(spec, pot)),
            ):
                if ld.sign != ref.sign or not _close(ld.log_abs, ref.log_abs, 1e-9):
                    return (
                        f"seed={seed} shift={shift}: {name} "
                        f"({ld.log_abs!r}, {ld.sign}) vs dense "
                        f"({ref.log_abs!r}, {ref.sign})"
                    )
    return None


def check_sinh_product_vs_eigenproduct(
    quick: bool, gamma_fault: float = 0.0
) -> Optional[str]:
    """The two closed forms agree to 1e-10, including with arguments
    swapped (the spectrum is exchange-symmetric; the sinh product sums
    over transverse modes only, so this is a nontrivial identity)."""
    top = 8 if quick else 16
    for m2 in (0.0, 0.5, 1.0, 4.0):
        for N in range(2, top + 1):
            for M in range(2, top + 1):
                sp = oracles.sinh_product_logdet(
                    m2, N, M, gamma_fault=gamma_fault
                ).log_abs
                ep = oracles.eigenproduct_logdet_2d(m2, N, M).log_abs
                if not _close(sp, ep, 1e-10):
                    return f"m2={m2} N={N} M={M}: sinh {sp!r} vs eig {ep!r}"
                ep_swapped = oracles.eigenproduct_logdet_2d(m2, M, N).log_abs
                if not _close(sp, ep_swapped, 1e-10):
                    return f"m2={m2} N={N} M={M}: swap {sp!r} vs {ep_swapped!r}"
    return None


def check_sinh_anchors(quick: bool, gamma_fault: float = 0.0) -> Optional[str]:
    """Desk anchors: ln 4, ln 192, ln 5 to 1e-12."""
    for (m2, N, M, want) in (
        (0.0, 2, 2, math.log(4.0)),
        (0.0, 3, 3, math.log(192.0)),
        (1.0, 2, 2, math.log(5.0)),
    ):
        got = oracles.sinh_product_logdet(m2, N, M, gamma_fault=gamma_fault).log_abs
        if abs(got - want) > 1e-12:
            return f"m2={m2} N={N} M={M}: {got!r} vs {want!r}"
    return None


def check_i2_identity(quick: bool) -> Optional[str]:
    """|I2(m) + g(m)/2| <= 1e-9 over the standard mass grid."""
    for m2 in (0.01, 0.1, 1.0, 4.0, 25.0):
        gap = abs(asymptotics.quad_I2(m2) + asymptotics.g_of_m(m2) / 2.0)
        if gap > 1e-9:
            return f"m2={m2}: |I2 + g/2| = {gap:.3e}"
    return None


def check_massless_asymptotic(quick: bool) -> Optional[str]:
    """Massless asymptotic vs exact eigenproduct: 0.005 at N=M=3, monotone
    decay, below 1e-3 by N=M=64."""
    sizes = [3, 8, 16] if quick else [3, 8, 16, 32, 64]
    diffs = []
    for n in sizes:
        d = abs(
            asymptotics.massless_asymptotic_logdet(n, n).total
            - oracles.eigenproduct_logdet_2d(0.0, n, n).log_abs
        )
        diffs.append(d)
    if diffs[0] > 0.005:
        return f"N=M=3 gap {diffs[0]:.4f} > 0.005"
    if any(b >= a for a, b in zip(diffs, diffs[1:])):
        return f"not monotone: {diffs}"
    if not quick and diffs[-1] > 1e-3:
        return f"N=M=64 gap {diffs[-1]:.2e} > 1e-3"
    return None


def check_exchange_symmetry(quick: bool) -> Optional[str]:
    """Massless totals invariant under N <-> M to 1e-12."""
    for N, M in ((3, 7), (4, 16), (5, 9)):
        a = asymptotics.massless_asymptotic_logdet(N, M).total
        b = asymptotics.massless_asymptotic_logdet(M, N).total
        if abs(a - b) > 1e-12 * max(1.0, abs(a)):
            return f"({N},{M}): {a!r} vs {b!r}"
    return None


def check_massless_area_density(quick: bool) -> Optional[str]:
    """Exact log-det per site approaches 4G/pi within 3/N."""
    sizes = [32, 64] if quick else [32, 64, 128]
    target = 4.0 * asymptotics.CATALAN / math.pi
    for n in sizes:
        density = oracles.eigenproduct_logdet_2d(0.0, n, n).log_abs / (n * n)
        if abs(density - target) > 3.0 / n:
            return f"N=M={n}: density {density} vs {target} (> 3/N)"
    return None


def check_continuum_1d(quick: bool) -> Optional[str]:
    """Constant-mass ratio reproduces ln(sinh(mL)/(mL)); the Riccati
    diagnostic agrees within 1e-6."""
    mls = (1.0,) if quick else (0.5, 1.0, 5.0)
    for mL in mls:
        pot = continuum.Potential1D.constant(mL * mL, 1.0)
        want = math.log(math.sinh(mL) / mL)
        got = continuum.ratio_logdet_1d(pot, tol=1e-10).log_ratio
        if abs(got - want) > 1e-8:
            return f"mL={mL}: linear route off by {got - want:.2e}"
        ric = continuum.ratio_logdet_1d_riccati(pot, tol=1e-8).log_ratio
        if abs(ric - want) > 1e-6:
            return f"mL={mL}: Riccati route off by {ric - want:.2e}"
    return None


def check_continuum_rank1(quick: bool) -> Optional[str]:
    """Rank-1 mode coupling matches its closed form for every truncation."""
    W = L = 1.0
    c = 3.0
    om = math.sqrt(c + math.pi**2)
    want = math.log(math.sinh(om * L) / om) - math.log(math.sinh(math.pi * L) / math.pi)
    pot = continuum.TransversePotential2D.finite_rank({(1, 1): c}, W)
    for K in (1, 4) if quick else (1, 4, 16):
        got = continuum.ratio_logdet_2d_truncated(pot, L, W, K, tol=1e-10).log_ratio
        if abs(got - want) > 1e-8:
            return f"K={K}: off by {got - want:.2e}"
    return None


CHECKS: list[tuple[str, Callable[[bool], Optional[str]]]] = [
    ("scalar-free-laplacian", check_scalar_free_laplacian),
    ("scalar-fibonacci", check_scalar_fibonacci),
    ("four-way-agreement", check_four_way_agreement),
    ("random-potential-agreement", check_random_potential_agreement),
    ("sinh-product-vs-eigenproduct", check_sinh_product_vs_eigenproduct),
    ("sinh-product-anchors", check_sinh_anchors),
    ("i2-identity", check_i2_identity),
    ("massless-asymptotic-accuracy", check_massless_asymptotic),
    ("exchange-symmetry", check_exchange_symmetry),
    ("massless-area-density", check_massless_area_density),
    ("continuum-1d-closed-form", check_continuum_1d),
    ("continuum-2d-rank1", check_continuum_rank1),
]


# The checks that evaluate the sinh product, which take a gamma_fault.
_SINH_CHECKS = (
    check_four_way_agreement,
    check_sinh_product_vs_eigenproduct,
    check_sinh_anchors,
)


def run_suite(
    quick: bool = False, out=None, gamma_fault: float = 0.0
) -> list[tuple[str, Optional[str]]]:
    """Run every check; print one pass/fail line each to out (default
    stderr-like quiet: no printing when out is None); return the results.

    gamma_fault, a relative corruption of every sinh-product gamma_k, goes
    to the checks that evaluate the sinh product; a nonzero value must make
    them fail.
    """
    results = []
    for name, fn in CHECKS:
        try:
            if fn in _SINH_CHECKS:
                failure = fn(quick, gamma_fault=gamma_fault)
            else:
                failure = fn(quick)
        except Exception as exc:  # surfaced as a failure, not a crash
            failure = f"raised {type(exc).__name__}: {exc}"
        results.append((name, failure))
        if out is not None:
            status = "PASS" if failure is None else f"FAIL  {failure}"
            print(f"{name:32s} {status}", file=out)
    return results
