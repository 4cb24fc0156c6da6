import numpy as np
import pytest

from gydet.asymptotics import massive_asymptotic_logdet, massless_asymptotic_logdet
from gydet.continuum import TransversePotential2D, ratio_logdet_2d_truncated
from gydet.errors import PotentialFileError, SizeCapExceeded
from gydet.gy import matrix_logdet_aform
from gydet.lattice import (
    LatticeSpec,
    PotentialField,
    build_interior_hamiltonian,
    _transverse_laplacian_cached,
    transverse_eigenvalues,
    transverse_laplacian,
    transverse_slice,
)
from gydet.oracles import eigenproduct_logdet_2d, sinh_product_logdet


def grid_stencil(spec, pot, psi):
    """-Delta_d + V applied to psi by slicing the interior grid, with zero
    Dirichlet boundaries: the reference the assembled matrix is checked
    against, written without Kronecker products."""
    shape = (spec.N - 1,) + spec.transverse_shape()
    grid = psi.reshape(shape)
    out = ((2 + 2 * (spec.d - 1)) + pot.values).reshape(shape) * grid
    for axis in range(spec.d):
        lower = [slice(None)] * spec.d
        upper = [slice(None)] * spec.d
        lower[axis] = slice(None, -1)
        upper[axis] = slice(1, None)
        out[tuple(lower)] -= grid[tuple(upper)]
        out[tuple(upper)] -= grid[tuple(lower)]
    return out.reshape(-1)


class TestLatticeSpec:
    def test_block_size(self):
        assert LatticeSpec(d=1, N=5).K == 1
        assert LatticeSpec(d=2, N=5, M=7).K == 6
        assert LatticeSpec(d=3, N=5, M=7).K == 36
        assert LatticeSpec(d=4, N=2, M=3).K == 8

    def test_big_exponent_is_exact(self):
        # integer arithmetic, no float round-off at large K
        assert LatticeSpec(d=7, N=2, M=11).K == 10**6

    @pytest.mark.parametrize("kwargs", [
        dict(d=0, N=5), dict(d=1, N=1), dict(d=2, N=3, M=1),
    ])
    def test_rejects_bad_extents(self, kwargs):
        with pytest.raises(ValueError):
            LatticeSpec(**kwargs)


@pytest.mark.parametrize("call, name", [
    (lambda: LatticeSpec(2, 4.0, 4), "N"),
    (lambda: LatticeSpec(2.0, 4, 4), "d"),
    (lambda: LatticeSpec(2, 4, 4.5), "M"),
    (lambda: PotentialField.random_uniform(LatticeSpec(1, 4), seed=1.5), "seed"),
    (lambda: sinh_product_logdet(1.0, 4.5, 4), "N"),
    (lambda: sinh_product_logdet(1.0, 4, 4.5), "M"),
    (lambda: eigenproduct_logdet_2d(1.0, 4.5, 4), "N"),
    (lambda: ratio_logdet_2d_truncated(TransversePotential2D.constant(1.0, 1.0), 1.0, 1.0, K=2.5), "K"),
    # these three returned a number for a fractional extent
    (lambda: massless_asymptotic_logdet(4.5, 4), "N"),
    (lambda: massive_asymptotic_logdet(1.0, 4, 4.5), "M"),
    (lambda: transverse_eigenvalues(4.5), "M"),
], ids=[
    "spec-N", "spec-d", "spec-M", "seed", "sinh-N", "sinh-M", "eigen-N", "continuum-K",
    "massless-N", "massive-M", "eigenvalues-M",
])
def test_integer_arguments_checked(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize("N, M", [(1, 4), (4, 1)])
@pytest.mark.parametrize("closed_form", [
    lambda N, M: sinh_product_logdet(1.0, N, M),
    lambda N, M: eigenproduct_logdet_2d(1.0, N, M),
    lambda N, M: massive_asymptotic_logdet(1.0, N, M),
    massless_asymptotic_logdet,
], ids=["sinh", "eigen", "massive", "massless"])
def test_closed_forms_name_the_short_extent(closed_form, N, M):
    # the closed forms check their box as LatticeSpec(2, N, M) does
    name, value = ("N", N) if N < 2 else ("M", M)
    with pytest.raises(ValueError, match=f"^{name} must be >= 2, got {value}$"):
        closed_form(N, M)


def test_numpy_integer_arguments_accepted():
    spec = LatticeSpec(np.int64(2), np.int64(4), np.int64(3))
    PotentialField.random_uniform(spec, seed=np.uint64(7))
    pot = TransversePotential2D.constant(1.0, 1.0)
    ratio_logdet_2d_truncated(pot, 1.0, 1.0, K=np.int64(3))


class TestPotentialField:
    def test_constant_stores_exact_value(self):
        spec = LatticeSpec(d=2, N=4, M=3)
        pot = PotentialField.constant(spec, 1.25)
        assert pot.values.shape == (3, 2)
        assert (pot.values == 1.25).all()
        assert pot.provenance == ("constant", 1.25)

    def test_values_frozen(self):
        spec = LatticeSpec(d=1, N=4)
        pot = PotentialField.constant(spec, 0.0)
        with pytest.raises(ValueError):
            pot.values[0, 0] = 1.0

    def test_seeded_random_reproducible(self):
        spec = LatticeSpec(d=2, N=6, M=6)
        a = PotentialField.random_uniform(spec, seed=42, lo=-1, hi=1)
        b = PotentialField.random_uniform(spec, seed=42, lo=-1, hi=1)
        assert (a.values == b.values).all()
        assert (a.values >= -1).all() and (a.values < 1).all()

    def test_seed_range(self):
        spec = LatticeSpec(d=1, N=3)
        PotentialField.random_uniform(spec, seed=2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                PotentialField.random_uniform(spec, seed=seed)

    def test_rejects_nonfinite(self):
        spec = LatticeSpec(d=1, N=3)
        with pytest.raises(ValueError):
            PotentialField(spec, np.array([[1.0], [np.inf]]), ("file", "x"))

    def test_shape_mismatch(self):
        spec = LatticeSpec(d=2, N=3, M=3)
        with pytest.raises(ValueError):
            PotentialField(spec, np.zeros((2, 3)), ("file", "x"))


class TestPotentialFile:
    def test_round_trip_2d(self, tmp_path):
        spec = LatticeSpec(d=2, N=3, M=4)
        lines = ["# interior potential"]
        want = np.zeros((2, 3))
        for i in range(1, 3):
            for j in range(1, 4):
                v = 10.0 * i + j
                want[i - 1, j - 1] = v
                lines.append(f"{i} {j} {v}")
        path = tmp_path / "pot.txt"
        path.write_text("\n".join(lines) + "\n")
        pot = PotentialField.from_file(spec, path)
        assert (pot.values == want).all()
        assert pot.provenance[0] == "file"

    def test_round_trip_1d(self, tmp_path):
        spec = LatticeSpec(d=1, N=4)
        path = tmp_path / "pot.txt"
        path.write_text("1 0.5\n3 -0.5\n2 0.0\n")
        pot = PotentialField.from_file(spec, path)
        assert pot.values[:, 0].tolist() == [0.5, 0.0, -0.5]

    def test_missing_site(self, tmp_path):
        spec = LatticeSpec(d=1, N=4)
        path = tmp_path / "pot.txt"
        path.write_text("1 0.5\n2 0.0\n")
        with pytest.raises(PotentialFileError, match="missing"):
            PotentialField.from_file(spec, path)

    def test_duplicate_site(self, tmp_path):
        spec = LatticeSpec(d=1, N=3)
        path = tmp_path / "pot.txt"
        path.write_text("1 0.5\n2 0.0\n1 0.7\n")
        with pytest.raises(PotentialFileError, match="duplicate"):
            PotentialField.from_file(spec, path)

    def test_out_of_range_index(self, tmp_path):
        spec = LatticeSpec(d=2, N=3, M=3)
        path = tmp_path / "pot.txt"
        path.write_text("1 3 0.5\n")
        with pytest.raises(PotentialFileError, match="transverse"):
            PotentialField.from_file(spec, path)

    def test_malformed_line(self, tmp_path):
        spec = LatticeSpec(d=2, N=3, M=3)
        path = tmp_path / "pot.txt"
        path.write_text("1 1\n")
        with pytest.raises(PotentialFileError, match="expected"):
            PotentialField.from_file(spec, path)

    def test_comment_ends_record(self, tmp_path):
        # only whole-line comments were skipped, so "1 0.5 # left end"
        # failed with "expected 1 indices and a value, got 5 fields"
        spec = LatticeSpec(d=1, N=4)
        path = tmp_path / "pot.txt"
        path.write_text("# header\n1 0.5  # left end\n2 0.0#\n3 -0.5 # 3 1.0\n")
        pot = PotentialField.from_file(spec, path)
        assert pot.values[:, 0].tolist() == [0.5, 0.0, -0.5]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_nonfinite_value_named(self, tmp_path, value):
        # was a ValueError naming neither the file nor the line
        spec = LatticeSpec(d=1, N=4)
        path = tmp_path / "pot.txt"
        path.write_text(f"1 0.5\n2 {value}\n3 -0.5\n")
        with pytest.raises(PotentialFileError, match=f"pot.txt:2: value {value} is not finite"):
            PotentialField.from_file(spec, path)

    def test_round_trip_3d_site_ordering(self, tmp_path):
        # three-dimensional records carry two transverse indices; the
        # loader must place them in lattice order (last index fastest)
        spec = LatticeSpec(d=3, N=3, M=3)
        lines = []
        for i in range(1, 3):
            for j in range(1, 3):
                for k in range(1, 3):
                    lines.append(f"{i} {j} {k} {i + 10 * j + 100 * k}")
        path = tmp_path / "pot3.txt"
        path.write_text("\n".join(lines) + "\n")
        pot = PotentialField.from_file(spec, path)
        assert pot.values.shape == (2, 4)
        # site (i=1, j=1, k=2) sits at transverse rank 1
        assert pot.values[0, 1] == 1 + 10 * 1 + 100 * 2
        # site (i=2, j=2, k=1) sits at transverse rank 2
        assert pot.values[1, 2] == 2 + 10 * 2 + 100 * 1


class TestTransverse:
    def test_eigenvalue_examples(self):
        np.testing.assert_allclose(transverse_eigenvalues(2), [-2.0], atol=1e-15)
        got = transverse_eigenvalues(3)
        np.testing.assert_allclose(got, [-1.0, -3.0], atol=1e-15)
        assert abs(transverse_eigenvalues(4)[1] - (-2.0)) < 1e-15

    @pytest.mark.parametrize("M", [2, 3, 5, 8, 17, 32])
    def test_range_and_order(self, M):
        lam = transverse_eigenvalues(M)
        assert (lam > -4.0).all() and (lam < 0.0).all()
        assert (np.diff(lam) < 0).all()

    @pytest.mark.parametrize("M", [2, 3, 4, 7, 12, 19, 32])
    def test_slice_spectrum_matches_formula(self, M):
        # eigenvalues of -Delta_1 + 0 are the negated transverse eigenvalues
        spec = LatticeSpec(d=2, N=3, M=M)
        pot = PotentialField.constant(spec, 0.0)
        S = transverse_slice(spec, pot, 1)
        got = np.sort(np.linalg.eigvalsh(S))
        want = np.sort(-transverse_eigenvalues(M))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_d3_laplacian_diagonal(self):
        spec = LatticeSpec(d=3, N=2, M=3)
        L = transverse_laplacian(spec)
        assert L.shape == (4, 4)
        assert (L.diagonal() == 4.0).all()
        assert np.array_equal(L, L.T)

    def test_cache_stays_bounded(self):
        # each cached block is dense K x K, up to 134 MB at K = 4096
        for M in (3, 4, 5, 6, 7, 8):
            spec = LatticeSpec(d=2, N=4, M=M)
            matrix_logdet_aform(spec, PotentialField.constant(spec, 0.5))
        assert _transverse_laplacian_cached.cache_info().currsize <= 4


class TestHamiltonian:
    def test_trivial_1x1_matrices(self):
        cases = [
            (LatticeSpec(d=1, N=2), 2.0),
            (LatticeSpec(d=2, N=2, M=2), 4.0),
            (LatticeSpec(d=3, N=2, M=2), 6.0),
        ]
        for spec, want in cases:
            pot = PotentialField.constant(spec, 0.0)
            H = build_interior_hamiltonian(spec, pot)
            assert H.shape == (1, 1) and H[0, 0] == want

    def test_d2_3x3_free(self):
        spec = LatticeSpec(d=2, N=3, M=3)
        pot = PotentialField.constant(spec, 0.0)
        H = build_interior_hamiltonian(spec, pot)
        assert H.shape == (4, 4)
        assert (H.diagonal() == 4.0).all()
        # nearest-neighbour pairs in lattice order (1,1),(1,2),(2,1),(2,2)
        want = np.array([
            [4, -1, -1, 0],
            [-1, 4, 0, -1],
            [-1, 0, 4, -1],
            [0, -1, -1, 4],
        ], dtype=float)
        assert np.array_equal(H, want)

    def test_exactly_symmetric(self):
        spec = LatticeSpec(d=3, N=4, M=3)
        pot = PotentialField.random_uniform(spec, seed=1)
        H = build_interior_hamiltonian(spec, pot)
        assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("spec", [
        LatticeSpec(d=1, N=6), LatticeSpec(d=2, N=4, M=5),
        LatticeSpec(d=3, N=3, M=3), LatticeSpec(d=3, N=5, M=4),
        LatticeSpec(d=4, N=4, M=3),
    ], ids=["d1", "d2", "d3", "d3-nonsquare", "d4"])
    def test_columns_equal_grid_stencil(self, spec):
        pot = PotentialField.random_uniform(spec, seed=9)
        H = build_interior_hamiltonian(spec, pot)
        for j in range(spec.n_interior):
            e = np.zeros(spec.n_interior)
            e[j] = 1.0
            assert np.array_equal(H[:, j], grid_stencil(spec, pot, e))

    def test_d1_free_chain_row_sums(self):
        spec = LatticeSpec(d=1, N=3)
        H = build_interior_hamiltonian(spec, PotentialField.constant(spec, 0.0))
        np.testing.assert_array_equal(H @ np.ones(2), [1.0, 1.0])

    def test_positive_definite_for_nonnegative_potential(self):
        spec = LatticeSpec(d=2, N=6, M=5)
        pot = PotentialField.random_uniform(spec, seed=4, lo=0.0, hi=2.0)
        H = build_interior_hamiltonian(spec, pot)
        assert np.linalg.eigvalsh(H).min() > 0

    def test_dense_cap(self):
        spec = LatticeSpec(d=2, N=200, M=200)
        pot = PotentialField.constant(spec, 0.0)
        with pytest.raises(SizeCapExceeded, match="recursion"):
            build_interior_hamiltonian(spec, pot)

    def test_potential_spec_mismatch(self):
        pot = PotentialField.constant(LatticeSpec(d=2, N=3, M=3), 0.0)
        with pytest.raises(ValueError):
            build_interior_hamiltonian(LatticeSpec(d=2, N=4, M=3), pot)
