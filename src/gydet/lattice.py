"""Lattice geometry, potentials, and the discrete Dirichlet operator.

The operator is -Delta_d + V on the interior of an N x M^(d-1) box with
Dirichlet boundaries: interior sites are i = 1..N-1 along the longitudinal
direction and j = 1..M-1 along each of the d-1 transverse directions.
Sites are ordered with the transverse multi-index varying fastest (row
major over transverse directions, last index quickest) and the
longitudinal index slowest, which makes the block-tridiagonal structure
explicit: diagonal blocks 2I - Delta_{d-1} + V_i, off-diagonal blocks -I.

The stencil is written once, in `_laplacian`, as a scipy.sparse Kronecker
sum of one-dimensional second differences; the transverse block, the
slices and the dense operator are all taken from it.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import PotentialFileError, SizeCapExceeded

#: Dense construction is refused above this many rows.
DENSE_CAP = 20000


def _check_int(name: str, value) -> None:
    """Reject a non-integer extent, count or seed; int and numpy integers pass."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class LatticeSpec:
    """Dimensionality and extents of the discrete problem.

    N is the longitudinal extent (N-1 interior sites), M the transverse
    extent per direction (M-1 interior sites each), d the dimensionality.
    The transverse block size K = (M-1)**(d-1) is derived; for d = 1 the
    transverse block is trivial (K = 1) and M is irrelevant.
    """

    d: int
    N: int
    M: int = 2

    def __post_init__(self):
        for name in ("d", "N", "M"):
            _check_int(name, getattr(self, name))
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")

    @property
    def K(self) -> int:
        """Transverse block size (M-1)**(d-1), exact integer arithmetic."""
        return (self.M - 1) ** (self.d - 1)

    @property
    def n_interior(self) -> int:
        """Total number of interior sites (N-1)*K."""
        return (self.N - 1) * self.K

    def transverse_shape(self) -> tuple[int, ...]:
        return (self.M - 1,) * (self.d - 1)


class PotentialField:
    """Interior-site potential values with provenance.

    values has shape (N-1, K): one row per longitudinal slice, transverse
    sites in lattice order within the row.  The array is frozen after
    construction.  provenance records how the field was made:
    ("constant", m2), ("seeded-random", seed, lo, hi) or ("file", path).
    """

    def __init__(self, spec: LatticeSpec, values: np.ndarray, provenance: tuple):
        values = np.asarray(values, dtype=float)
        expected = (spec.N - 1, spec.K)
        if values.shape != expected:
            raise ValueError(
                f"potential shape {values.shape} does not match lattice "
                f"(expected {expected})"
            )
        if not np.isfinite(values).all():
            raise ValueError("potential contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        self.spec = spec
        self.values = values
        self.provenance = provenance

    @classmethod
    def constant(cls, spec: LatticeSpec, m2: float) -> "PotentialField":
        vals = np.full((spec.N - 1, spec.K), float(m2))
        return cls(spec, vals, ("constant", float(m2)))

    @classmethod
    def random_uniform(
        cls, spec: LatticeSpec, seed: int, lo: float = -1.0, hi: float = 1.0
    ) -> "PotentialField":
        """Uniform values on [lo, hi) from an explicit 64-bit seed."""
        if not lo < hi:
            raise ValueError(f"empty interval [{lo}, {hi})")
        if not math.isfinite(hi - lo):
            raise ValueError(f"interval [{lo}, {hi}) is too wide: hi - lo must be finite")
        _check_int("seed", seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        rng = np.random.default_rng(np.uint64(seed))
        vals = rng.uniform(lo, hi, size=(spec.N - 1, spec.K))
        return cls(spec, vals, ("seeded-random", int(seed), float(lo), float(hi)))

    @classmethod
    def from_file(cls, spec: LatticeSpec, path: str | Path) -> "PotentialField":
        """Load from plain text: one site per line.

        Each record is whitespace separated: the longitudinal index i
        (1..N-1), then d-1 transverse indices (1..M-1 each), then the
        value.  Lines starting with '#' and blank lines are ignored.
        Every interior site must appear exactly once.
        """
        path = Path(path)
        vals = np.full((spec.N - 1, spec.K), np.nan)
        seen = np.zeros((spec.N - 1, spec.K), dtype=bool)
        n_idx = spec.d  # longitudinal + (d-1) transverse indices per line
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != n_idx + 1:
                    raise PotentialFileError(
                        f"{path}:{lineno}: expected {n_idx} indices and a "
                        f"value, got {len(parts)} fields"
                    )
                try:
                    idx = [int(p) for p in parts[:n_idx]]
                    value = float(parts[n_idx])
                except ValueError as exc:
                    raise PotentialFileError(f"{path}:{lineno}: {exc}") from None
                i = idx[0]
                if not 1 <= i <= spec.N - 1:
                    raise PotentialFileError(
                        f"{path}:{lineno}: longitudinal index {i} outside 1..{spec.N - 1}"
                    )
                t = 0
                for j in idx[1:]:
                    if not 1 <= j <= spec.M - 1:
                        raise PotentialFileError(
                            f"{path}:{lineno}: transverse index {j} outside 1..{spec.M - 1}"
                        )
                    t = t * (spec.M - 1) + (j - 1)
                if seen[i - 1, t]:
                    raise PotentialFileError(
                        f"{path}:{lineno}: duplicate record for site {tuple(idx)}"
                    )
                seen[i - 1, t] = True
                vals[i - 1, t] = value
        if not seen.all():
            missing = int((~seen).sum())
            raise PotentialFileError(
                f"{path}: {missing} interior site(s) missing "
                f"(need all {(spec.N - 1) * spec.K})"
            )
        return cls(spec, vals, ("file", str(path)))


def transverse_eigenvalues(M: int) -> np.ndarray:
    """Eigenvalues lambda_k = -2(1 - cos(pi k / M)) of the one-dimensional
    transverse Laplacian, k = 1..M-1, strictly decreasing, all in (-4, 0)."""
    _check_int("M", M)
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    k = np.arange(1, M)
    return -2.0 * (1.0 - np.cos(np.pi * k / M))


def _laplacian(shape: tuple[int, ...]):
    """Sparse Dirichlet -Delta on a box with the given interior extents.

    The Kronecker sum of one-dimensional second-difference matrices
    tridiag(-1, 2, -1), first axis slowest (lattice order); for no axes it
    is the 1x1 zero matrix.  This is the one place the stencil is written:
    the transverse block, the slices and the dense operator are all cut
    from it.  scipy.sparse is imported here, not with the module, to keep
    it out of `import gydet`.
    """
    from scipy import sparse

    L = sparse.csr_array((1, 1))
    for m in shape:
        T = sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(m, m))
        L = sparse.kronsum(T, L, format="csr")
    return L


@lru_cache(maxsize=32)
def _transverse_laplacian_cached(d: int, M: int) -> np.ndarray:
    K = (M - 1) ** (d - 1)
    if K > 4096:
        raise SizeCapExceeded(
            f"transverse block K={K} too large for a dense K x K matrix"
        )
    L = _laplacian((M - 1,) * (d - 1)).toarray()
    L.setflags(write=False)
    return L


def transverse_laplacian(spec: LatticeSpec) -> np.ndarray:
    """Dense K x K matrix of -Delta_{d-1} on the transverse block.

    The dense form of the sparse stencil `_laplacian` on the transverse
    shape; for d = 1 the transverse block is zero-dimensional and this is
    the 1x1 zero matrix.  The returned array is read-only (instances are
    cached); copy before mutating.
    """
    return _transverse_laplacian_cached(spec.d, spec.M)


def build_interior_hamiltonian(spec: LatticeSpec, pot: PotentialField) -> np.ndarray:
    """Dense (N-1)K x (N-1)K matrix of -Delta_d + V on interior sites.

    Block tridiagonal: diagonal blocks 2I - Delta_{d-1} + V_i, off-diagonal
    blocks -I.  It is the sparse stencil `_laplacian` on the whole interior
    box, made dense, with V added to its diagonal.  Refused with
    SizeCapExceeded above DENSE_CAP rows, before anything is built; large
    problems belong on the recursion route.
    """
    if pot.spec != spec:
        raise ValueError("potential was built for a different lattice")
    n = spec.n_interior
    if n > DENSE_CAP:
        raise SizeCapExceeded(
            f"dense operator would have {n} rows (cap {DENSE_CAP}); "
            "use the recursion route for problems this size"
        )
    H = _laplacian((spec.N - 1,) + spec.transverse_shape()).toarray()
    H.flat[:: n + 1] += pot.values.ravel()
    return H


def transverse_slice(spec: LatticeSpec, pot: PotentialField, i: int) -> np.ndarray:
    """K x K symmetric matrix -Delta_{d-1} + V_i for longitudinal slice i
    (1-based interior index)."""
    if not 1 <= i <= spec.N - 1:
        raise ValueError(f"slice index {i} outside 1..{spec.N - 1}")
    S = transverse_laplacian(spec).copy()
    S.flat[:: spec.K + 1] += pot.values[i - 1]
    return S
