import numpy as np
import pytest

from axiscone.errors import (
    ContractViolation,
    CorrespondenceViolation,
    DegenerateTop,
    NegativeTime,
    NonConvergence,
)
from axiscone.operators import (
    ComplexOperator,
    SymmetricOperator,
    complexify,
    correspondence_check,
    heat_semigroup,
    perp_basis,
    read_matrix,
    restricted_top,
    spectral_decompose,
    top_eigen,
    write_matrix,
)
from axiscone.seeding import rng_for


def random_symmetric(dim, seed):
    g = rng_for(seed, dim).standard_normal((dim, dim))
    return SymmetricOperator((g + g.T) / 2.0)


def expm_taylor_squaring(m, n_taylor=20, n_square=12):
    # independent oracle: scaled Taylor series plus repeated squaring
    scaled = np.asarray(m, dtype=float) / 2.0 ** n_square
    result = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, n_taylor + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(n_square):
        result = result @ result
    return result


class TestSymmetricOperator:
    def test_symmetrizes_within_tolerance(self):
        a = np.array([[1.0, 2.0 + 5e-13], [2.0, 3.0]])
        op = SymmetricOperator(a)
        assert op.matrix[0, 1] == op.matrix[1, 0]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetry"):
            SymmetricOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymmetricOperator([[np.nan, 0.0], [0.0, 1.0]])

    def test_matrix_is_readonly(self):
        op = SymmetricOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestSpectralDecompose:
    def test_diagonal(self):
        dec = spectral_decompose(SymmetricOperator(np.diag([2.0, 1.0])))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2)[:, ::-1])

    def test_swap(self):
        dec = spectral_decompose(SymmetricOperator([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_seeded_reconstruction(self):
        op = random_symmetric(8, seed=7)
        dec = spectral_decompose(op)
        scale = max(1.0, np.linalg.norm(op.matrix))
        assert np.linalg.norm(dec.reconstruct() - op.matrix) <= 1e-10 * scale
        assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(8)) <= 1e-10

    @staticmethod
    def patch_eigh(monkeypatch, corrupt):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: corrupt(*map(np.copy, eigh(m))))

    def test_corrupted_eigenvector_violates_contract(self, monkeypatch):
        def corrupt(w, q):
            q[:, 0] *= 1.01
            return w, q
        self.patch_eigh(monkeypatch, corrupt)
        with pytest.raises(ContractViolation, match="orthonormality defect"):
            spectral_decompose(random_symmetric(8, seed=7))

    def test_wrong_eigenvalue_violates_contract(self, monkeypatch):
        def corrupt(w, q):
            w[-1] += 1e-6
            return w, q
        self.patch_eigh(monkeypatch, corrupt)
        with pytest.raises(ContractViolation, match="residual"):
            spectral_decompose(random_symmetric(8, seed=7))

    def test_nonfinite_eigenpair_is_nonconvergence(self, monkeypatch):
        def corrupt(w, q):
            q[0, 0] = np.nan
            return w, q
        self.patch_eigh(monkeypatch, corrupt)
        with pytest.raises(NonConvergence, match="non-finite"):
            spectral_decompose(random_symmetric(8, seed=7))


class TestTopEigen:
    def test_simple_diagonal(self):
        lam, u0, simple = top_eigen(SymmetricOperator(np.diag([2.0, 1.0])))
        assert lam == pytest.approx(2.0)
        np.testing.assert_allclose(u0, [1.0, 0.0], atol=1e-14)
        assert simple

    def test_repeated_top(self):
        _, _, simple = top_eigen(SymmetricOperator(np.diag([2.0, 2.0, 1.0])))
        assert not simple

    def test_gap_below_tolerance(self):
        op = SymmetricOperator(np.diag([2.0, 2.0 - 1e-12, 1.0]))
        _, _, simple = top_eigen(op)
        assert not simple
        with pytest.raises(DegenerateTop):
            top_eigen(op, require_simple=True)

    def test_sign_deterministic(self):
        op = random_symmetric(6, seed=3)
        _, u_first, _ = top_eigen(op)
        _, u_second, _ = top_eigen(SymmetricOperator(op.matrix.copy()))
        assert u_first.tobytes() == u_second.tobytes()
        scale = np.max(np.abs(u_first))
        first_sig = u_first[np.argmax(np.abs(u_first) > 1e-12 * scale)]
        assert first_sig > 0


class TestHeatSemigroup:
    def test_diagonal(self):
        result = heat_semigroup(SymmetricOperator(np.diag([0.0, 1.0])), np.log(2.0))
        np.testing.assert_allclose(result.matrix, np.diag([1.0, 0.5]), atol=1e-14)

    def test_zero_time_identity(self):
        op = random_symmetric(5, seed=11)
        np.testing.assert_array_equal(heat_semigroup(op, 0.0).matrix, np.eye(5))

    def test_negative_time(self):
        with pytest.raises(NegativeTime):
            heat_semigroup(SymmetricOperator(np.eye(2)), -0.1)

    def test_against_squaring_oracle(self):
        t = SymmetricOperator([[0.0, 0.3], [0.3, 1.0]])
        expected = expm_taylor_squaring(-t.matrix)
        np.testing.assert_allclose(heat_semigroup(t, 1.0).matrix, expected, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_semigroup_law(self, seed):
        op = random_symmetric(6, seed=seed)
        rng = rng_for(seed, 99)
        s, t = rng.uniform(0.1, 1.5, size=2)
        lhs = heat_semigroup(op, s).matrix @ heat_semigroup(op, t).matrix
        rhs = heat_semigroup(op, s + t).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("seed", [4, 5])
    def test_norm_decay(self, seed):
        op = random_symmetric(5, seed=seed)
        mu = op.decomposition.min_eigenvalue
        for s in (0.25, 1.0):
            expected = np.exp(-s * mu)
            assert heat_semigroup(op, s).norm == pytest.approx(expected, rel=1e-10)


class TestComplexify:
    def test_trivial(self):
        ext = complexify(SymmetricOperator(np.diag([2.0, 1.0])))
        np.testing.assert_array_equal(ext.real_part, np.diag([2.0, 1.0]))
        np.testing.assert_array_equal(ext.imag_part, np.zeros((2, 2)))

    def test_acts_componentwise(self):
        op = random_symmetric(5, seed=21)
        ext = complexify(op)
        rng = rng_for(21, 1)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        expected = op.apply(z.real) + 1j * op.apply(z.imag)
        np.testing.assert_allclose(ext.apply(z), expected, atol=1e-12)

    def test_from_matrix_parts(self):
        ext = ComplexOperator.from_matrix(np.array([[1.0 + 2.0j, 0.0], [0.0, 1.0]]))
        assert ext.imag_part[0, 0] == 2.0
        assert ext.is_hermitian() is False


class TestCorrespondence:
    def test_diagonal(self):
        report = correspondence_check(SymmetricOperator(np.diag([2.0, 1.0])))
        assert report.ok
        assert set(report.clauses) == {"iii", "iv", "v", "vii"}

    def test_swap_equality_direction(self):
        # least eigenvalue -1: the quadratic-form lower bound is attained
        report = correspondence_check(SymmetricOperator([[0.0, 1.0], [1.0, 0.0]]))
        assert report.ok
        assert report.clauses["vii"][1] >= -1e-9

    def test_seeded_6x6(self):
        assert correspondence_check(random_symmetric(6, seed=13)).ok

    @pytest.mark.parametrize("seed", range(10))
    def test_holds_on_seeded_matrices(self, seed):
        dim = 2 + seed % 5
        assert correspondence_check(random_symmetric(dim, seed=seed), seed=seed).ok

    def test_degenerate_spectrum(self):
        assert correspondence_check(SymmetricOperator(np.diag([1.0, 1.0, 3.0]))).ok

    def test_violation_raises_with_clause(self):
        with pytest.raises(CorrespondenceViolation) as err:
            raise CorrespondenceViolation("v", "synthetic")
        assert err.value.clause == "v"


class TestPerpBasis:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_orthonormal_complement(self, seed):
        rng = rng_for(seed, 0)
        u0 = rng.standard_normal(7)
        u0 /= np.linalg.norm(u0)
        basis = perp_basis(u0)
        assert basis.shape == (7, 6)
        np.testing.assert_allclose(basis.T @ basis, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(basis.T @ u0, np.zeros(6), atol=1e-12)

    def test_restricted_top(self):
        op = SymmetricOperator(np.diag([3.0, 2.0, 1.0]))
        e1 = np.array([1.0, 0.0, 0.0])
        assert restricted_top(op, e1) == pytest.approx(2.0, abs=1e-12)
        assert restricted_top(SymmetricOperator([[5.0]]), np.array([1.0])) is None


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        op = random_symmetric(4, seed=17)
        path = tmp_path / "m.txt"
        write_matrix(op, path)
        again = read_matrix(path)
        np.testing.assert_array_equal(again.matrix, op.matrix)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="dim"):
            read_matrix(path)
