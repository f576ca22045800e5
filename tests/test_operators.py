import math
import warnings

import numpy as np
import pytest

from axiscone.cones import AxisCone, OrthantCone
from axiscone.errors import (
    ContractViolation,
    DegenerateTop,
    NegativeTime,
    NonConvergence,
)
from axiscone.operators import (
    SymmetricOperator,
    certify_positive_definite,
    checked_eigh,
    correspondence_check,
    gamma,
    heat_semigroup,
    perp_basis,
    restricted_top,
    spectral_decompose,
    spectrum_defect,
    top_eigen,
)
from axiscone.perturbation import improving_radius, radius_from_alpha
from axiscone.positivity import VerdictStatus, improves_positivity_axis, preserves_positivity
from axiscone.seeding import rng_for
from axiscone.tolerances import AXIS_TOL, RECON_TOL, TAU_GAP
from reference_loops import (
    compressed_restricted_top,
    eager_from_spectrum,
    exactly_positive_definite,
)


def random_symmetric(dim, seed):
    g = rng_for(seed, dim).standard_normal((dim, dim))
    return SymmetricOperator((g + g.T) / 2.0)


def with_repeated_eigenvalue(dim, seed):
    # eigenvalues 0, 1, 1, 2, ...: a doubly degenerate second eigenvalue
    q = np.linalg.qr(rng_for(seed, dim).standard_normal((dim, dim)))[0]
    eigs = np.concatenate([[0.0, 1.0], np.arange(1.0, dim - 1.0)])
    return SymmetricOperator((q * eigs) @ q.T)


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

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_float_limit_stay_finite(self):
        assert SymmetricOperator([[1e308, 0.0], [0.0, 1.0]]).matrix.tolist() == [
            [1e308, 0.0], [0.0, 1.0]]
        m = np.array([[-1.7e308, 1.7e308], [1.7e308 * (1.0 + 4e-16), 1.0]])
        op = SymmetricOperator(m)
        assert np.all(np.isfinite(op.matrix)) and op.matrix[0, 1] == op.matrix[1, 0]
        assert op.matrix.tobytes() == (m / 2.0 + m.T / 2.0).tobytes()
        with pytest.raises(ValueError, match="asymmetry"):
            SymmetricOperator([[0.0, 1.7e308], [-1.7e308, 0.0]])

    @pytest.mark.parametrize("exponent", [-1021, -300, 0, 300, 1023])
    def test_symmetrization_is_the_mean_bit_for_bit(self, exponent):
        # wherever (M + M^T)/2 is finite, including normal entries whose halves are subnormal
        rng = np.random.default_rng(exponent + 2000)
        g = np.ldexp(rng.uniform(1.0, 2.0, (6, 6)), exponent) * rng.choice([-1.0, 1.0], (6, 6))
        m = np.triu(g) + np.triu(g, 1).T
        m = m + np.ldexp(rng.integers(-3, 4, (6, 6)).astype(float), exponent - 50)
        m[0, 1] = m[1, 0] = np.nextafter(np.ldexp(1.0, -1022), 1.0)
        with np.errstate(over="ignore"):
            mean = (m + m.T) / 2.0
        op = SymmetricOperator(m)
        finite = np.isfinite(mean)
        assert finite[0, 1] and np.all(np.isfinite(op.matrix))
        assert op.matrix[finite].tobytes() == mean[finite].tobytes()

    def test_matrix_is_readonly(self):
        op = SymmetricOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("seed", range(3))
    def test_sums_and_multiples_match_the_checked_constructor(self, seed):
        a, b = random_symmetric(6, seed), random_symmetric(6, seed + 10)
        for result, matrix in ((a + b, a.matrix + b.matrix), (a - b, a.matrix - b.matrix),
                               (a * 0.3, a.matrix * 0.3), (-2.5 * a, -2.5 * a.matrix)):
            assert result.matrix.tobytes() == SymmetricOperator(matrix).matrix.tobytes()
            assert not result.matrix.flags.writeable

    def test_sum_overflowing_to_inf_raises(self):
        big = SymmetricOperator(np.diag([1e307, 1.0]))
        with np.errstate(over="ignore"):
            for overflow in (lambda: big * 100.0, lambda: 20.0 * big + big,
                             lambda: big - (-20.0) * big):
                with pytest.raises(ValueError, match="finite"):
                    overflow()

    def test_overflow_raises_value_error_before_any_warning(self):
        # no errstate here: the arithmetic itself must not warn first
        big = SymmetricOperator(np.diag([1e307, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for overflow in (lambda: big * 100.0, lambda: 20.0 * big + big,
                             lambda: big - (-20.0) * big, lambda: big * math.inf):
                with pytest.raises(ValueError, match="finite"):
                    overflow()


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
        q = dec.eigenvectors
        assert np.linalg.norm((q * dec.eigenvalues) @ q.T - op.matrix) <= 1e-10 * scale
        assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(8)) <= 1e-10

    def test_operator_norm_is_computed_once(self, monkeypatch):
        dec = spectral_decompose(random_symmetric(5, seed=2))
        first = dec.operator_norm
        assert first == float(np.max(np.abs(dec.eigenvalues)))
        monkeypatch.setattr(np, "max", None)   # a second read recomputes nothing
        assert dec.operator_norm == first

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

    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e160])
    def test_wrong_spectrum_is_rejected_at_any_scale(self, monkeypatch, scale):
        # at 1e160 ||M||_F and the residual's norm overflow; both are taken scaled instead
        self.patch_eigh(monkeypatch, lambda w, q: (w * 1.5, q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match="residual"):
                checked_eigh(scale * np.array([[2.0, 1.0], [1.0, 3.0]]))

    @pytest.mark.filterwarnings("error")
    def test_norm_overflow_decomposes_without_a_warning(self):
        dec = SymmetricOperator(1e160 * np.array([[0.0, 1.0], [1.0, 0.0]])).decomposition
        np.testing.assert_allclose(dec.eigenvalues, [-1e160, 1e160])

    def test_an_adopted_spectrum_passes_the_shared_test_and_apply_is_unchanged(
            self, monkeypatch):
        # P M P has the eigenvectors P Q: adopted without an eigh, while apply stays
        # the matrix product, bit for bit
        m = random_symmetric(8, seed=7).matrix
        sign = np.where(np.arange(8) % 3, 1.0, -1.0)
        w, q = checked_eigh(m)
        op = SymmetricOperator(sign[:, None] * m * sign)
        v = rng_for(0, 1).standard_normal((8, 3))
        before = op.apply(v)
        self.patch_eigh(monkeypatch, lambda *pair: pytest.fail("eigh after adoption"))
        assert spectrum_defect(op.matrix, w, sign[:, None] * q) is None
        assert op.adopt(w, sign[:, None] * q)
        assert op.decomposition.eigenvalues.tobytes() == w.tobytes()
        assert not op.decomposition.eigenvectors.flags.writeable
        assert op.apply(v).tobytes() == before.tobytes() == (op.matrix @ v).tobytes()

    @pytest.mark.parametrize("corrupt, defect", [
        (lambda w, q: (w + 1e-6, q), "residual"),
        (lambda w, q: (w, 1.01 * q), "orthonormality defect"),
        (lambda w, q: (w, q[:, ::-1]), "residual"),
    ])
    def test_a_refused_spectrum_leaves_the_operator_to_its_checked_eigh(self, corrupt,
                                                                        defect):
        op = random_symmetric(8, seed=7)
        w, q = corrupt(*np.linalg.eigh(op.matrix))
        assert defect in spectrum_defect(op.matrix, w, q)
        assert not op.adopt(w, q) and op._decomposition is None
        w_ref, q_ref = checked_eigh(op.matrix)
        assert op.decomposition.eigenvectors.tobytes() == q_ref.tobytes()

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


def near_singular(seed):
    """A seeded float matrix of dimension 1-6 and its exact least eigenvalue, in
    [-gamma_{n+1} tr, 4 gamma_{n+1} tr]: an integer Gram matrix B B^T of rank
    n - 1, exactly singular, shifted by a multiple of 2^-46, which its diagonal
    (integers below 2^6) takes without rounding."""
    rng = rng_for(seed, 95)
    n = int(rng.integers(1, 7))
    b = rng.integers(-3, 4, size=(n, n - 1)).astype(float)
    m = b @ b.T
    ulps = int(rng.uniform(-1.0, 4.0) * gamma(n + 1) * max(1.0, np.trace(m)) * 2.0**46)
    m[np.diag_indices(n)] += ulps * 2.0**-46
    return m, ulps * 2.0**-46


class TestPositiveDefiniteCertificate:
    """Every True of certify_positive_definite, confirmed in exact arithmetic."""

    def test_near_singular_matrices(self):
        certified = 0
        for seed in range(400):
            m, least = near_singular(seed)
            for error in (0.0, 0.5 * abs(least)):
                if certify_positive_definite(m, error):
                    certified += 1
                    assert exactly_positive_definite(m, error)
                    assert least > error
                elif least <= 0.0:
                    assert not exactly_positive_definite(m)
        assert certified >= 20

    def test_leaves_its_input_unchanged(self):
        # callers read m again after the call, as the near-singular check does
        for seed in range(40):
            m, least = near_singular(seed)
            before = m.tobytes()
            certify_positive_definite(m, 0.0)
            assert m.tobytes() == before

    def test_non_finite_input_proves_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not certify_positive_definite(np.eye(2), np.inf)
            assert not certify_positive_definite(np.eye(2), np.nan)
            assert not certify_positive_definite(np.diag([1.0, np.inf]), 0.0)
            assert not certify_positive_definite(np.diag([1e308, 1.0]), 1e308)

    def test_guard_is_gamma_n_times_the_trace(self):
        # diag(eps, 1, ..., 1) is shifted by about 2 gamma_{n+1} tr: eps at twice that
        # is certified, eps at a quarter of it is not (the first pivot goes negative)
        for n in (10, 100, 1000):
            m = np.eye(n)
            m[0, 0] = 4.0 * gamma(n + 1) * n
            assert certify_positive_definite(m, 0.0)
            m[0, 0] = 0.5 * gamma(n + 1) * n
            assert not certify_positive_definite(m, 0.0)

    def test_diagonal_shift_is_bracketed(self):
        m = np.diag([1.0, 2.0, 3.0])
        assert certify_positive_definite(m - 0.999999 * np.eye(3), 0.0)
        assert not certify_positive_definite(m - np.eye(3), 0.0)   # singular: not above 0
        assert not certify_positive_definite(m - 1.5 * np.eye(3), 0.0)
        # the guard doubles error: a margin of 1 admits an error just below 1/2
        assert certify_positive_definite(m, 0.499999)
        assert not certify_positive_definite(m, 0.5)

    @pytest.mark.parametrize("m, error", [
        ([[1.0, np.nan], [np.nan, 1.0]], 0.0), ([[1.0, np.inf], [np.inf, 1.0]], 0.0),
        ([[np.nan, 0.0], [0.0, 1.0]], 0.0), ([[1.0, 0.0], [0.0, 1.0]], -np.inf),
        ([[1e300, 0.0], [0.0, 1.0]], 1e308), ([[-np.inf, 0.0], [0.0, 1.0]], 0.0)])
    def test_unusable_input_proves_nothing(self, m, error):
        # numpy's Cholesky completes on some NaN and inf matrices, so these must not reach it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not certify_positive_definite(np.array(m), error)

    @pytest.mark.parametrize("seed", range(20))
    def test_a_success_lies_below_the_least_eigenvalue(self, seed):
        rng = rng_for(seed, 94)
        dim = int(rng.integers(2, 60))
        g = rng.standard_normal((dim, dim))
        a = (g + g.T) * 10.0 ** rng.uniform(-3.0, 3.0)
        w = np.linalg.eigvalsh(a)
        spread = w[1] - w[0]
        for fraction in (0.0, 0.5, 0.99, 0.999999, 1.0, 1.01):
            # least eigenvalue of the shifted matrix: (1 - fraction) spread
            m = a - (w[0] - (1.0 - fraction) * spread) * np.eye(dim)
            if certify_positive_definite(m, 0.0):
                assert fraction < 1.0
                if dim <= 12:
                    assert exactly_positive_definite(m)
        # a shift within 1e-6 of the spread of the least eigenvalue is still certified
        assert certify_positive_definite(a - (w[0] - 1e-6 * spread) * np.eye(dim), 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_gapped_matrices(self, seed):
        # Q diag(0, gap, ...) Q^T plus (1 - fraction) gap I: least eigenvalue near
        # (1 - fraction) gap, up to the rounding of the product
        certified = 0
        rng = rng_for(seed, 96)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            gap = 10.0 ** rng.uniform(-3.0, 0.0)
            eigs = np.concatenate([[0.0, gap], rng.uniform(gap, gap + 2.0, n - 2)])
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            a = (q * eigs) @ q.T
            a = (a + a.T) / 2.0
            for fraction in (0.5, 0.99, 0.999999, 1.0, 1.01):
                m = a + (1.0 - fraction) * gap * np.eye(n)
                error = 0.25 * (1.0 - fraction) * gap if fraction < 1.0 else 0.0
                if certify_positive_definite(m, error):
                    certified += 1
                    assert exactly_positive_definite(m, error)
        assert certified >= 20

    @pytest.mark.parametrize("seed", range(5))
    def test_factored_matrix_is_m_less_the_guard_bit_for_bit(self, seed, monkeypatch):
        # the guard c = 2 (error + u max d + gamma_{n+1} sum d + n (n + 1 + max d) eta)
        # is subtracted from the diagonal of a copy of m, as the docstring states
        seen = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda x: seen.append(np.array(x)) or cholesky(x))
        rng = rng_for(seed, 97)
        n = int(rng.integers(2, 40))
        g = rng.standard_normal((n, n))
        m = g @ g.T + n * np.eye(n)
        error = float(rng.uniform(0.0, 1.0))
        assert certify_positive_definite(m, error)
        d = np.abs(np.diagonal(m))
        u = np.finfo(float).eps / 2.0
        eta = np.finfo(float).smallest_subnormal
        c = 2.0 * (error + u * d.max() + gamma(n + 1) * d.sum() + n * (n + 1 + d.max()) * eta)
        want = np.array(m)
        want[np.diag_indices(n)] -= c
        assert len(seen) == 1
        assert seen[0].tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("make", [
        lambda: random_symmetric(6, seed=1),
        lambda: random_symmetric(40, seed=2),
        lambda: with_repeated_eigenvalue(5, seed=7),
    ], ids=["dim6", "dim40", "repeated_eigenvalue"])
    @pytest.mark.parametrize("s", [0.1, np.log(2.0), 1.5])
    def test_inherited_decomposition_matches_checked_eigh(self, make, s):
        semigroup = heat_semigroup(make(), s)
        inherited = semigroup.decomposition
        w, q = inherited.eigenvalues, inherited.eigenvectors
        w_ref, q_ref = checked_eigh(semigroup.matrix)
        scale = float(np.max(np.abs(w_ref)))
        assert np.max(np.abs(w - w_ref)) <= 1e-13 * scale
        assert np.all(np.diff(w) >= 0.0)
        m = semigroup.matrix
        assert np.linalg.norm((q * w) @ q.T - m) <= RECON_TOL * max(1.0, np.linalg.norm(m))
        gaps = np.minimum(np.diff(w, prepend=-np.inf), np.diff(w, append=np.inf))
        for k in np.flatnonzero(gaps > 1e-6 * scale):
            # eigenvectors of simple eigenvalues agree up to sign, to eps ||A|| / gap
            sign = 1.0 if float(q[:, k] @ q_ref[:, k]) >= 0.0 else -1.0
            defect = np.linalg.norm(q[:, k] - sign * q_ref[:, k])
            assert defect <= 1e3 * np.finfo(float).eps * scale / gaps[k]

    def test_no_eigh_for_semigroup_or_identity(self, monkeypatch):
        op = random_symmetric(6, seed=8)
        op.decomposition  # the generator's own eigh runs before counting starts
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        identity = heat_semigroup(op, 0.0)
        assert identity.decomposition.eigenvalues.tolist() == [1.0] * 6
        np.testing.assert_array_equal(identity.decomposition.eigenvectors, np.eye(6))
        assert heat_semigroup(op, 0.5).norm > 0.0
        assert calls == []

    def test_overflowing_exponential_raises(self):
        op = SymmetricOperator(np.diag([-800.0, 0.0, 1.0]))
        with pytest.raises(NonConvergence, match="non-finite"):
            heat_semigroup(op, 1.0)


def spread_generator(dim, seed):
    """Seeded T with eigenvalues spread over [0, 1000]: exp(-s lambda) underflows to
    0 for every lambda above 745 / s."""
    q = np.linalg.qr(rng_for(seed, dim).standard_normal((dim, dim)))[0]
    eigs = np.concatenate([[0.0], np.sort(rng_for(seed, dim + 1).uniform(0.5, 1000.0, dim - 1))])
    return SymmetricOperator((q * eigs) @ q.T)


def held_spectrum(T, s):
    """The (w, q) that heat_semigroup(T, s) holds, computed here from T's spectrum."""
    dec = T.decomposition
    return np.exp(-s * dec.eigenvalues[::-1]), dec.eigenvectors[:, ::-1]


class TestHeldSpectrum:
    """A semigroup or identity holds (w, q) and forms Q diag(w) Q^T on first read."""

    CASES = [(dim, seed, s) for dim, seed in [(2, 0), (7, 1), (40, 2)]
             for s in (1e-3, 0.1, np.log(2.0), 1.0, 50.0)]

    @pytest.mark.parametrize("dim, seed, s", CASES)
    def test_formed_matrix_is_bit_equal_to_the_eager_expression(self, dim, seed, s):
        T = spread_generator(dim, seed)
        semigroup = heat_semigroup(T, s)
        assert semigroup._matrix is None
        w, q = held_spectrum(T, s)
        if s == 50.0:
            assert np.count_nonzero(w == 0.0) >= 1   # underflowed eigenvalues
        eager = eager_from_spectrum(w, q)
        assert semigroup.matrix.tobytes() == eager.matrix.tobytes()
        assert not semigroup.matrix.flags.writeable
        assert semigroup.matrix is semigroup.matrix   # formed once

    def test_held_marks_how_the_operator_was_built(self):
        T = spread_generator(4, 1)
        semigroup = heat_semigroup(T, 0.5)
        assert semigroup.held and SymmetricOperator.identity(3).held
        assert not T.held and not (semigroup + semigroup).held and not (2.0 * semigroup).held
        semigroup.matrix   # forming the matrix keeps the mark
        assert semigroup.held
        with pytest.raises(AttributeError):
            semigroup.held = False

    @pytest.mark.parametrize("dim", [1, 2, 9])
    def test_identity_forms_the_exact_identity(self, dim):
        identity = SymmetricOperator.identity(dim)
        assert identity._matrix is None
        assert identity.dim == dim
        expected = eager_from_spectrum(np.ones(dim), np.eye(dim)).matrix
        assert identity.matrix.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(identity.matrix, np.eye(dim))

    @pytest.mark.parametrize("dim, seed, s", CASES)
    def test_apply_agrees_with_the_formed_matrix(self, dim, seed, s):
        semigroup = heat_semigroup(spread_generator(dim, seed), s)
        rng = rng_for(seed, 5)
        v, block = rng.standard_normal(dim), rng.standard_normal((dim, 3))
        lazy_v, lazy_block = semigroup.apply(v), semigroup.apply(block)
        assert semigroup._matrix is None
        m = semigroup.matrix
        scale = 100.0 * dim * np.finfo(float).eps * semigroup.norm
        assert np.linalg.norm(lazy_v - m @ v) <= scale * np.linalg.norm(v)
        for j in range(3):
            assert np.linalg.norm(lazy_block[:, j] - m @ block[:, j]) <= (
                scale * np.linalg.norm(block[:, j]))
        # reading the matrix leaves apply as it was, bit for bit
        assert semigroup.apply(v).tobytes() == lazy_v.tobytes()
        assert semigroup.apply(block).tobytes() == lazy_block.tobytes()

    def test_dim_sums_and_multiples_work_unformed(self):
        T = spread_generator(6, 3)
        x, y = (eager_from_spectrum(*held_spectrum(T, s)).matrix for s in (0.01, 0.2))
        a, b = heat_semigroup(T, 0.01), heat_semigroup(T, 0.2)
        assert (a.dim, b.dim) == (6, 6)
        assert a._matrix is None and b._matrix is None
        # each operand is a fresh, unformed semigroup
        for result, expected in [(a + b, x + y),
                                 (heat_semigroup(T, 0.01) - heat_semigroup(T, 0.2), x - y),
                                 (heat_semigroup(T, 0.01) * 3.0, x * 3.0),
                                 (0.5 * heat_semigroup(T, 0.2), y * 0.5)]:
            np.testing.assert_array_equal(result.matrix, expected)
        with pytest.raises(ValueError, match="dimension mismatch"):
            heat_semigroup(T, 0.1) + SymmetricOperator.identity(5)

    def test_spectral_reads_form_no_matrix(self):
        T = spread_generator(8, 4)
        semigroup = heat_semigroup(T, 0.3)
        lam, u, simple = top_eigen(semigroup)
        assert simple and semigroup.norm == lam
        assert restricted_top(semigroup, u) < lam
        assert improving_radius(semigroup, u)[0] < 1.0
        assert improves_positivity_axis(semigroup, u).status is VerdictStatus.CERTIFIED_TRUE
        closed_form = preserves_positivity(semigroup, AxisCone(u))
        assert closed_form.status is VerdictStatus.CERTIFIED_TRUE
        assert semigroup._matrix is None
        preserves_positivity(semigroup, OrthantCone(8))   # reads the entries
        assert semigroup._matrix is not None


def unitary_conjugate(t, seed):
    """U T U* for a seeded unitary U: a complex Hermitian matrix with T's spectrum."""
    rng = rng_for(seed, 41)
    g = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    u = np.linalg.qr(g)[0]
    return u @ t.matrix @ u.conj().T


class TestCorrespondence:
    def test_diagonal(self):
        t = SymmetricOperator(np.diag([2.0, 1.0]))
        assert correspondence_check(t, np.diag([2.0, 1.0]).astype(complex)) == 0.0

    def test_pauli_y_has_the_swap_spectrum(self):
        # [[0, -i], [i, 0]] is Hermitian, not real, with eigenvalues -1 and 1
        swap = SymmetricOperator([[0.0, 1.0], [1.0, 0.0]])
        assert correspondence_check(swap, np.array([[0.0, -1j], [1j, 0.0]])) <= 1e-15

    def test_seeded_6x6(self):
        t = random_symmetric(6, seed=13)
        assert correspondence_check(t, unitary_conjugate(t, 13)) <= 1e-13

    @pytest.mark.parametrize("seed", range(10))
    def test_holds_on_seeded_matrices(self, seed):
        t = random_symmetric(2 + seed % 5, seed=seed)
        assert correspondence_check(t, unitary_conjugate(t, seed)) <= 1e-13

    def test_degenerate_spectrum(self):
        t = SymmetricOperator(np.diag([1.0, 1.0, 3.0]))
        assert correspondence_check(t, unitary_conjugate(t, 3)) <= 1e-13

    def test_wrong_spectrum_raises(self):
        t = SymmetricOperator(np.diag([1.0, 2.0]))
        with pytest.raises(ContractViolation, match="deviates from T's taken twice"):
            correspondence_check(t, np.diag([1.0, 2.0 + 1e-8]).astype(complex))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            correspondence_check(SymmetricOperator(np.eye(2)), np.eye(3, dtype=complex))


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



TOPS = ("simple", "near_degenerate", "degenerate")


def psd_with_top(dim, seed, top):
    """Seeded PSD operator with top eigenvalue in [1, 3] and the named top gap.

    The gap is at least a tenth of the top when simple, 2 to 10 TAU_GAP
    relative when near-degenerate, and zero before rounding when degenerate.
    """
    rng = rng_for(seed, dim)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    lam = float(rng.uniform(1.0, 3.0))
    if top == "simple":
        second = lam * float(rng.uniform(0.1, 0.9))
    elif top == "near_degenerate":
        second = lam * (1.0 - float(rng.uniform(2.0, 10.0)) * TAU_GAP)
    else:
        second = lam
    eigs = np.concatenate([rng.uniform(0.0, second, dim - 2), [second, lam]])
    return SymmetricOperator((q * eigs) @ q.T)


AXES = ("checked", "random_tilt", "second_tilt")


def top_axis(A, kind, rng):
    """The checked top eigenvector, or that vector tilted toward a random
    orthogonal direction or toward the second eigenvector until its residual
    is 50-99% of the AXIS_TOL bound (at most 30 degrees)."""
    lam, v, _ = top_eigen(A)
    if kind == "checked":
        return v
    if kind == "second_tilt":
        w = np.array(A.decomposition.eigenvectors[:, -2])
    else:
        w = rng.standard_normal(A.dim)
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    push = float(np.linalg.norm(A.apply(w) - lam * w))
    sin = min(0.5, float(rng.uniform(0.5, 0.99)) * AXIS_TOL * max(1.0, lam) / push)
    u = np.sqrt(1.0 - sin**2) * v + sin * w
    return u / np.linalg.norm(u)


class TestRestrictedTopBound:
    """restricted_top's closed-form bound against the exact compression."""

    DIMS = (2, 3, 5, 8, 17, 32, 64)

    @staticmethod
    def instances(dim, top, axis_kind):
        for seed in range(3):
            A = psd_with_top(dim, seed, top)
            u = top_axis(A, axis_kind, rng_for(seed, 1))
            w = A.decomposition.eigenvalues
            lam, gap = float(w[-1]), float(w[-1] - w[-2])
            r = float(np.linalg.norm(A.apply(u) - lam * u))
            slack = r * r / gap if gap > 0 else np.inf
            # rounding of the compression, far below the TAU_GAP band
            rounding = 2e-15 * dim * max(1.0, lam)
            yield A, u, lam, slack, rounding, compressed_restricted_top(A, u)

    @pytest.mark.parametrize("axis_kind", AXES)
    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_bound_brackets_the_compression(self, dim, top, axis_kind):
        for A, u, lam, slack, rounding, exact in self.instances(dim, top, axis_kind):
            bound = restricted_top(A, u)
            assert exact - rounding <= bound <= min(lam, exact + slack) + rounding

    @pytest.mark.parametrize("axis_kind", AXES)
    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_verdicts_match_the_compression(self, dim, top, axis_kind):
        for A, u, lam, slack, rounding, exact in self.instances(dim, top, axis_kind):
            margin = lam - exact - TAU_GAP * max(1.0, lam)
            # the instances stay clear of the TAU_GAP band edge
            assert (margin > 0) == (top != "degenerate")
            verdict = improves_positivity_axis(A, u)
            assert verdict.status is (VerdictStatus.CERTIFIED_TRUE if margin > 0
                                      else VerdictStatus.CERTIFIED_FALSE)
            if top == "degenerate":
                assert verdict.margin == pytest.approx(margin, abs=rounding)
                with pytest.raises(DegenerateTop):
                    improving_radius(A, u)
                continue
            alpha, r = improving_radius(A, u)
            oracle = max(exact, 0.0) / lam
            assert oracle - rounding <= alpha <= oracle + (slack + rounding) / lam
            assert alpha < 1.0 and r == radius_from_alpha(alpha)

    def test_loose_bound_falls_back_to_the_compression(self):
        # gap 1.5 TAU_GAP and an axis tilted toward the bottom eigenvector by
        # a residual of 0.99 AXIS_TOL: the bound leaves the TAU_GAP band, the
        # compression (top lambda_2) does not
        lam2 = 1.0 - 1.5 * TAU_GAP
        op = SymmetricOperator(np.diag([0.0, lam2, 1.0]))
        sin = 0.99 * AXIS_TOL
        u = np.array([sin, 0.0, np.sqrt(1.0 - sin**2)])
        assert 1.0 - restricted_top(op, u) - TAU_GAP <= 0.0
        assert compressed_restricted_top(op, u) == pytest.approx(lam2, abs=1e-15)
        verdict = improves_positivity_axis(op, u)
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE
        assert verdict.detail.startswith("restricted top 0.99")
        assert verdict.margin == pytest.approx(0.5 * TAU_GAP, rel=1e-6)

    def test_dimension_one_and_exact_degeneracy(self):
        assert restricted_top(SymmetricOperator([[5.0]]), np.array([1.0])) is None
        op = SymmetricOperator(np.diag([1.0, 2.0, 2.0]))
        assert restricted_top(op, np.array([0.0, 1.0, 0.0])) == 2.0
