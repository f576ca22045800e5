import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from axiscone.errors import (
    AsymmetricPotential,
    ContractViolation,
    DegenerateBottom,
    HeatTimeUnresolved,
    SemigroupOverflow,
)
from axiscone.harness import ExperimentConfig, run
from axiscone import perturbation, schrodinger
from axiscone.cli import main
from axiscone.operators import UNIT_ROUNDOFF, SymmetricOperator, bottom_eigen
from axiscone.perturbation import _c_values
from axiscone.positivity import VerdictStatus
from axiscone.schrodinger import (
    GridSpec,
    MagneticModel,
    POTENTIAL_PRESETS,
    m1_norm_bound,
    magnetic_experiment,
    magnetic_terms,
    orthant_failure_demo,
)
from axiscone.seeding import rng_for
from axiscone.tolerances import TAU_SYM
from reference_loops import (
    assembled_magnetic,
    coefficient_norm_bound,
    complex_magnetic_terms,
    compressed_to_real,
    demo_by_complex_propagator,
    exactly_positive_definite,
    laplacian_matrix,
    momentum_matrix,
    parity_basis,
)

SQRT2 = math.sqrt(2.0)


def conjugate(f):
    """The parity conjugation (C f)_j = conj(f_{-j}): the reference map."""
    return np.conj(np.asarray(f, dtype=complex)[::-1])


def commutation_residual(h):
    """max_k || H C e_k - C H e_k || over the standard basis, column by column."""
    residual = 0.0
    for k in range(len(h)):
        e = np.zeros(len(h), dtype=complex)
        e[k] = 1.0
        residual = max(residual, float(np.linalg.norm(h @ conjugate(e) - conjugate(h @ e))))
    return residual


def real_hamiltonian(model, e):
    """H_r(e) = H0_r + e M1_r + e^2 M2_r from the closed-form restricted terms."""
    h0, m1, m2 = magnetic_terms(model)
    return SymmetricOperator(h0 + e * m1 + e**2 * m2)


def is_hermitian(m):
    """m equals its conjugate transpose to TAU_SYM relative to its largest entry."""
    return float(np.max(np.abs(m - m.conj().T))) <= TAU_SYM * max(1.0, float(np.max(np.abs(m))))


def harmonic_model(n_half=8, spacing=0.5):
    return MagneticModel.from_functions(
        GridSpec(n_half, spacing), lambda x: x * x, lambda x: math.exp(-x * x)
    )


def harmonic_experiment():
    """The default schrodinger experiment: couplings -0.008 to 0.008, s0 = 1."""
    return magnetic_experiment(harmonic_model(), e_grid=np.linspace(-0.008, 0.008, 17),
                               s0=1.0)


class TestGridAndModel:
    def test_grid_points_symmetric(self):
        grid = GridSpec(3, 0.25)
        assert grid.dim == 7
        np.testing.assert_array_equal(grid.points, -grid.points[::-1])

    def test_even_enforced_exactly(self):
        grid = GridSpec(2, 1.0)
        with pytest.raises(AsymmetricPotential):
            MagneticModel(grid=grid, v_values=np.array([1.0, 0.0, 0.0, 0.0, 2.0]),
                          a_values=np.zeros(5))

    def test_from_functions_even(self):
        model = harmonic_model(4, 0.5)
        assert np.array_equal(model.v_values, model.v_values[::-1])
        assert np.array_equal(model.a_values, model.a_values[::-1])


class TestParityStructure:
    def test_basis_isometry_onto_fixed_space(self):
        b = parity_basis(GridSpec(4, 0.5))
        np.testing.assert_allclose(b.conj().T @ b, np.eye(9), atol=1e-12)
        rng = rng_for(2, 0)
        for _ in range(10):
            x = rng.standard_normal(9)
            fixed = b @ x
            assert np.linalg.norm(conjugate(fixed) - fixed) <= 1e-12

    def test_momentum_commutes_with_conjugation(self):
        grid = GridSpec(6, 0.3)
        assert commutation_residual(momentum_matrix(grid)) <= 1e-13


class TestFreeHamiltonian:
    def test_free_stencil(self):
        model = MagneticModel.from_functions(GridSpec(1, 1.0), lambda x: 0.0,
                                             lambda x: 0.0)
        np.testing.assert_array_equal(complex_magnetic_terms(model)[0].real,
                                      [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        np.testing.assert_array_equal(magnetic_terms(model)[0],
                                      [[2.0, -SQRT2, 0.0], [-SQRT2, 2.0, 0.0], [0.0, 0.0, 2.0]])

    def test_harmonic_diagonal(self):
        model = harmonic_model(2, 0.5)
        x = model.grid.points[2:]      # x_0, x_1, x_2: delta_0, then even_j and odd_j
        np.testing.assert_allclose(np.diag(magnetic_terms(model)[0]),
                                   2.0 / 0.25 + x[[0, 1, 1, 2, 2]] ** 2)

    def test_ground_state_positive_with_gap(self):
        model = harmonic_model()
        # in the complex representation the free Hamiltonian is a real
        # irreducible Jacobi matrix: simple bottom, entrywise-positive ground
        w, u = np.linalg.eigh(complex_magnetic_terms(model)[0])
        assert w[1] - w[0] > 1e-6
        ground = u[:, 0].real
        ground *= np.sign(ground[np.argmax(np.abs(ground))])
        assert np.all(ground > 0)
        _, _, simple = bottom_eigen(real_hamiltonian(model, 0.0), require_simple=True)
        assert simple


class TestMagneticTerms:
    def test_terms_are_read_only_real_arrays(self):
        model = harmonic_model(3, 0.5)
        for term in magnetic_terms(model):
            assert isinstance(term, np.ndarray) and term.dtype == float
            assert term.shape == (model.grid.dim, model.grid.dim)
            assert not term.flags.writeable
            np.testing.assert_array_equal(term, term.T)

    def test_hand_checkable_3x3(self):
        model = MagneticModel.from_functions(GridSpec(1, 1.0), lambda x: 0.0,
                                             lambda x: 1.0)
        h = assembled_magnetic(model, 1.0)
        expected = np.array([
            [3.0, -1.0 - 1.0j, 0.0],
            [-1.0 + 1.0j, 3.0, -1.0 - 1.0j],
            [0.0, -1.0 + 1.0j, 3.0],
        ])
        np.testing.assert_allclose(h, expected, atol=1e-14)
        assert is_hermitian(h)
        np.testing.assert_array_equal(
            real_hamiltonian(model, 1.0).matrix,
            [[3.0, -SQRT2, SQRT2], [-SQRT2, 3.0, 0.0], [SQRT2, 0.0, 3.0]])

    def test_commutation_residual_small(self):
        h = assembled_magnetic(harmonic_model(), 0.1)
        scale = np.max(np.abs(h))
        assert commutation_residual(h) <= 1e-12 * scale

    @pytest.mark.parametrize("n_half", [1, 2, 3, 8, 48])
    @pytest.mark.parametrize("profiles", [
        *[(v, a) for v in POTENTIAL_PRESETS for a in POTENTIAL_PRESETS],
        # an inline even profile of both signs with a cusp at 0
        ("inline", "inline"),
    ])
    def test_terms_match_the_complex_oracle(self, n_half, profiles):
        def profile(name):
            return POTENTIAL_PRESETS.get(name, lambda x: math.cos(3.0 * x) - 0.25 * x)

        model = MagneticModel.from_functions(GridSpec(n_half, 0.25), *map(profile, profiles))
        terms = magnetic_terms(model)
        eps = np.finfo(float).eps
        # entrywise: only the sqrt(2) entries, and the oracle's products, round
        for got, term in zip(terms, complex_magnetic_terms(model)):
            want = compressed_to_real(term, model.grid)
            assert np.max(np.abs(got - want)) <= 4 * eps * max(1.0, np.max(np.abs(want)))
        # columns 0, 1, 3, ... are the even-parity sector and 2, 4, ... the odd one:
        # H0 and M2 keep each sector, M1 swaps them
        even = np.r_[0, 1:model.grid.dim:2]
        odd = np.arange(2, model.grid.dim, 2)
        h0, m1, m2 = terms
        assert not h0[np.ix_(even, odd)].any() and not m2[np.ix_(even, odd)].any()
        assert not m1[np.ix_(even, even)].any() and not m1[np.ix_(odd, odd)].any()
        # spectrally: H_r(e) has the eigenvalues of the complex H(e)
        for e in (-0.5, 0.0, 0.004, 0.5, 3.0):
            h = assembled_magnetic(model, e)
            got = np.linalg.eigvalsh(real_hamiltonian(model, e).matrix)
            assert np.max(np.abs(got - np.linalg.eigvalsh(h))) <= 1e-12 * np.linalg.norm(h, 2)


class TestRealTerms:
    def test_laplacian_spectrum_preserved(self):
        model = MagneticModel.from_functions(GridSpec(1, 1.0), lambda x: 0.0,
                                             lambda x: 0.0)
        expected = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        np.testing.assert_allclose(real_hamiltonian(model, 0.0).decomposition.eigenvalues,
                                   expected, atol=1e-12)

    def test_diagonal_even_stays_diagonal(self):
        grid = GridSpec(2, 1.0)
        values = np.array([3.0, 1.0, 5.0, 1.0, 3.0])
        m2 = magnetic_terms(MagneticModel(grid=grid, v_values=np.zeros(5), a_values=values))[2]
        np.testing.assert_array_equal(m2, np.diag(np.diag(m2)))
        np.testing.assert_array_equal(np.sort(np.diag(m2)), np.sort(values**2))

    def test_magnetic_couples_parity_blocks(self):
        model = harmonic_model(4, 0.5)
        h0 = real_hamiltonian(model, 0.0)
        h_mag = real_hamiltonian(model, 0.3)
        # columns: 0 and odd indices span the even-parity sector, even
        # indices >= 2 the odd sector; the free operator never mixes them
        plus = [0] + list(range(1, model.grid.dim, 2))
        minus = list(range(2, model.grid.dim, 2))
        assert np.max(np.abs(h0.matrix[np.ix_(plus, minus)])) == 0.0
        assert np.max(np.abs(h_mag.matrix[np.ix_(plus, minus)])) > 1e-3

    def test_spectrum_matches_complex_operator(self):
        model = harmonic_model(6, 0.4)
        np.testing.assert_allclose(
            real_hamiltonian(model, 0.2).decomposition.eigenvalues,
            np.sort(np.linalg.eigvalsh(assembled_magnetic(model, 0.2))),
            atol=1e-9,
        )

    def test_odd_vector_potential_rejected(self):
        # evenness is checked exactly on input: an odd a never reaches the terms
        grid = GridSpec(1, 1.0)
        with pytest.raises(AsymmetricPotential, match="a must be an even"):
            MagneticModel(grid=grid, v_values=np.zeros(3), a_values=[1.0, 0.0, 2.0])

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_even_models_match_the_complex_spectrum(self, seed):
        rng = rng_for(seed, 61)
        n_half = int(rng.integers(1, 16))
        grid = GridSpec(n_half, float(rng.uniform(0.1, 1.0)))
        v = rng.uniform(-2.0, 10.0, n_half + 1)
        a = rng.uniform(-1.0, 1.0, n_half + 1)
        model = MagneticModel(grid=grid, v_values=np.concatenate([v[:0:-1], v]),
                              a_values=np.concatenate([a[:0:-1], a]))
        e = float(rng.uniform(-2.0, 2.0))
        h = assembled_magnetic(model, e)
        measured = np.max(np.abs(np.linalg.eigvalsh(real_hamiltonian(model, e).matrix)
                                 - np.linalg.eigvalsh(h)))
        assert measured <= 1e-12 * np.max(np.abs(h))


class TestOrthantDemo:
    def test_zero_coupling_control(self):
        report = orthant_failure_demo(harmonic_experiment(), 0.0, s=0.5)
        assert report.status == "inapplicable_control"
        assert report.coupling == 0.0
        # the bump's image stays in the even real sector up to the rounding of
        # H_r(0)'s eigenvectors, which need not split the two parity sectors exactly
        assert report.max_imag <= 64 * np.finfo(float).eps * report.peak
        assert report.min_real > -1e-10

    def test_nonzero_coupling_leaves_cone(self):
        report = orthant_failure_demo(harmonic_experiment(), 0.5, s=0.5)
        assert report.status == "witness_found"
        assert report.coupling == 0.5
        assert report.max_imag >= 1e-10

    def test_propagator_eigendecomposition_is_checked(self, monkeypatch):
        experiment = harmonic_experiment()
        eigh, seen = np.linalg.eigh, []

        def corrupt(m):
            # the experiment is built: the only eigh left is that of the real H_r(0.5)
            seen.append(m.dtype)
            w, q = eigh(m)
            return w, 1.01 * q

        monkeypatch.setattr(np.linalg, "eigh", corrupt)
        with pytest.raises(ContractViolation, match="orthonormality"):
            orthant_failure_demo(experiment, 0.5, s=0.5)
        assert seen == [np.dtype(float)]

    @pytest.mark.parametrize("n_half", [1, 3, 8, 48])
    @pytest.mark.parametrize("e", [-0.5, 0.0, 0.004, 0.01, 0.5, 3.0])
    def test_matches_the_complex_propagator_oracle(self, n_half, e):
        # 0 reads H0's spectrum and 0.004 the held grid operator (admissible for N >= 3)
        model = harmonic_model(n_half, 0.5)
        experiment = magnetic_experiment(model, e_grid=[-0.004, 0.0, 0.004], s0=1.0)
        demo = orthant_failure_demo(experiment, e, s=0.5)
        oracle = demo_by_complex_propagator(model, e, s=0.5)
        assert demo.status == oracle.status
        tol = 1e-12 * oracle.peak
        assert abs(demo.max_imag - oracle.max_imag) <= tol
        assert abs(demo.min_real - oracle.min_real) <= tol
        assert abs(demo.peak - oracle.peak) <= tol

    def test_held_operators_are_reused(self, monkeypatch):
        # H0's spectrum at e = 0 and the budget's checked operator at an admissible
        # grid coupling; only a coupling off the held set is decomposed anew
        experiment = harmonic_experiment()
        assert experiment.budget.is_admissible(0.004)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        orthant_failure_demo(experiment, 0.0, s=0.5)
        orthant_failure_demo(experiment, 0.004, s=0.5)
        assert calls == []
        orthant_failure_demo(experiment, 0.5, s=0.5)
        assert len(calls) == 1

    @pytest.mark.parametrize("s, e, match", [
        (1e6, 0.0, "non-finite eigenvalue"),
        (1e6, 0.5, "non-finite eigenvalue"),
        # exp(-s lambda_0) = 1.2e308 is finite, but the bump's image is not
        (709.5 / 0.3487407275807798, 0.0, "bump beyond the float range"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_flow_raises(self, s, e, match):
        model = MagneticModel.from_functions(GridSpec(8, 0.5),
                                             POTENTIAL_PRESETS["gaussian_well"],
                                             lambda x: math.exp(-x * x))
        experiment = magnetic_experiment(model, e_grid=np.linspace(-0.008, 0.008, 17),
                                         s0=1.0)
        assert experiment.budget.mu == pytest.approx(-0.3487407275807798, rel=1e-12)
        with pytest.raises(SemigroupOverflow, match=match):
            orthant_failure_demo(experiment, e, s=s)


def even_model(n_half, seed, spacing=0.3):
    """A zero scalar potential and a seeded even vector potential: standard normals
    at x_0..x_N, mirrored."""
    half = rng_for(seed, 98).standard_normal(n_half + 1)
    return MagneticModel(GridSpec(n_half, spacing), np.zeros(2 * n_half + 1),
                         np.concatenate([half[:0:-1], half]))


def sectors(n_half):
    """M1's parity sectors: delta_0 and even_1..even_N, then odd_1..odd_N."""
    return np.r_[0, 1:2 * n_half:2], np.arange(2, 2 * n_half + 1, 2)


def count_eigh(monkeypatch):
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    return calls


class TestM1NormBound:
    @pytest.mark.parametrize("n_half", [1, 2, 8, 48, 128])
    def test_same_sector_blocks_are_exactly_zero(self, n_half):
        even, odd = sectors(n_half)
        for seed in range(5):
            m1 = magnetic_terms(even_model(n_half, seed))[1]
            assert not np.any(m1[np.ix_(even, even)]) and not np.any(m1[np.ix_(odd, odd)])
            assert np.any(m1[np.ix_(even, odd)])

    @pytest.mark.parametrize("preset", sorted(POTENTIAL_PRESETS))
    def test_bound_brackets_the_norm(self, preset, monkeypatch):
        calls = count_eigh(monkeypatch)
        for n_half in range(1, 257):
            model = MagneticModel.from_functions(GridSpec(n_half, 8.0 / n_half),
                                                 POTENTIAL_PRESETS["harmonic"],
                                                 POTENTIAL_PRESETS[preset])
            m1 = SymmetricOperator(magnetic_terms(model)[1])
            b1 = m1_norm_bound(m1)
            top = float(np.max(np.abs(np.linalg.eigvalsh(m1.matrix))))
            theta = 8.0 * (n_half + 2) ** 2 * UNIT_ROUNDOFF
            # svd and eigvalsh round sigma_max differently, by a few N u
            slack = 1.0 + 4.0 * (n_half + 1) * UNIT_ROUNDOFF
            assert top <= b1 <= (1.0 + theta) * slack * top, n_half
        assert calls == []   # no candidate is read from a decomposition

    @pytest.mark.parametrize("preset", sorted(POTENTIAL_PRESETS))
    def test_bound_holds_in_exact_arithmetic(self, preset):
        # b1^2 I - M1^2 is positive definite over the rationals the floats of M1
        # denote, for the vector potentials of the presets
        for n_half in range(1, 7):
            model = MagneticModel.from_functions(GridSpec(n_half, 8.0 / n_half),
                                                 POTENTIAL_PRESETS["harmonic"],
                                                 POTENTIAL_PRESETS[preset])
            m1 = SymmetricOperator(magnetic_terms(model)[1])
            square = Fraction(m1_norm_bound(m1)) ** 2
            if preset == "zero":   # M1 = 0 and b1 = 0: the family needs no proof
                assert square == 0 and not m1.matrix.any()
                continue
            a = [[Fraction(float(x)) for x in row] for row in m1.matrix]
            m = [[(square if i == j else 0) - sum(x * y for x, y in zip(a[i], a[j]))
                  for j in range(m1.dim)] for i in range(m1.dim)]
            assert exactly_positive_definite(m), n_half

    def test_sector_coupling_raises(self):
        m1 = np.array(magnetic_terms(harmonic_model(4, 0.5))[1])
        m1[1, 3] = m1[3, 1] = 1.0   # even_1 / even_2
        with pytest.raises(ContractViolation, match="parity sector"):
            m1_norm_bound(SymmetricOperator(m1))

    def test_zero_vector_potential_factors_nothing(self, monkeypatch):
        factored = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: factored.append(m) or cholesky(m))
        calls = count_eigh(monkeypatch)
        model = MagneticModel.from_functions(GridSpec(6, 0.5), lambda x: x * x,
                                             lambda x: 0.0)
        assert m1_norm_bound(SymmetricOperator(magnetic_terms(model)[1])) == 0.0
        budget = magnetic_experiment(model, e_grid=[0.0, 0.5], s0=0.5,
                                     s_samples=[0.5]).budget
        assert budget.family.b == (0.0, None) and budget.family.b_at(0.5) == 0.0
        assert factored == [] and len(calls) == 2   # H0 and H_r(0.5)

    def test_failed_certificate_falls_back_to_the_checked_eigh(self, monkeypatch):
        # where the family's certificate fails, it reads ||M1|| from M1's checked
        # eigh, and the candidate it accepts is the same b1
        config = ExperimentConfig(kind="schrodinger", seed=0, params={"N": 48, "h": 8.0 / 48})
        calls = count_eigh(monkeypatch)
        report = run(config).render(timestamp=False)
        proven = len(calls)
        monkeypatch.setattr(perturbation, "certify_positive_definite", lambda m, error: False)
        calls.clear()
        assert run(config).render(timestamp=False) == report
        assert len(calls) == proven + 1   # M1's checked eigh
        # b(e) = |e| b1 + e^2 ||M2|| bit for bit, b1 the candidate
        model = MagneticModel.from_functions(GridSpec(48, 8.0 / 48), lambda x: x * x,
                                             lambda x: math.exp(-x * x))
        budget = magnetic_experiment(model, e_grid=np.linspace(-0.008, 0.008, 17),
                                     s0=1.0).budget
        m1, m2 = budget.family.coefficients
        assert budget.family.b == (m1_norm_bound(m1), None)
        assert m1.decomposition.operator_norm <= budget.family.b[0]
        want = [coefficient_norm_bound(e, [budget.family.b[0], m2.norm]) for e in budget.kappas]
        assert budget.b_values.tobytes() == np.array(want).tobytes()

    def test_rejected_candidate_is_a_contract_violation(self, monkeypatch, tmp_path, capsys):
        # a halved candidate lies below ||M1||: no certificate proves it and the norm
        # refutes it, so the run exits 1 as a toolkit bug, not as a config error
        monkeypatch.setattr(schrodinger, "m1_norm_bound",
                            lambda m1, bound=schrodinger.m1_norm_bound: bound(m1) / 2.0)
        assert main(["schrodinger", "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ContractViolation: M1's norm bound is not proven: ")
        assert "config field 'b'" not in err
        with pytest.raises(ContractViolation, match="not certified"):
            magnetic_experiment(harmonic_model(), e_grid=[0.0, 0.004], s0=1.0)


class TestMagneticExperiment:
    def test_full_pipeline(self):
        report = magnetic_experiment(
            harmonic_model(), e_grid=np.linspace(-0.008, 0.008, 17), s0=1.0
        )
        assert report.budget.kappa_threshold > 0
        assert report.all_true
        assert all(
            v.status is VerdictStatus.CERTIFIED_TRUE for v in report.base_verdicts
        )

    def test_m2_is_held_by_its_spectrum(self):
        model = harmonic_model()
        budget = magnetic_experiment(model, e_grid=[0.0], s0=1.0).budget
        m2 = budget.family.coefficients[1]
        diagonal = np.diagonal(magnetic_terms(model)[2])
        order = np.argsort(diagonal, kind="stable")
        dec = m2.decomposition
        assert dec.eigenvalues.tobytes() == diagonal[order].tobytes()
        assert dec.eigenvectors.tobytes() == np.eye(len(order))[:, order].tobytes()
        assert m2.norm == float(np.max(diagonal))
        assert m2.matrix.tobytes() == magnetic_terms(model)[2].tobytes()

    def test_pipeline_calls_no_eigvalsh(self, monkeypatch):
        callers = {"eigh": [], "eigvalsh": []}
        for name, calls in callers.items():
            def recording(*args, _original=getattr(np.linalg, name), _calls=calls, **kwargs):
                _calls.append(sys._getframe(1).f_code.co_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        report = magnetic_experiment(harmonic_model(), e_grid=np.linspace(-0.008, 0.008, 5),
                                     s0=1.0)
        assert report.all_true
        # the checked eigh are H0's and one per mirror pair of nonzero couplings
        # (+-0.004, +-0.008), the second of each pair taking its mirror's spectrum;
        # M1's norm is proven from its parity cross block and M2 is held by its
        # spectrum, so neither norm takes one
        assert callers == {"eigh": ["checked_eigh"] * 3, "eigvalsh": []}

    @pytest.mark.parametrize("n_half, spacing", [(8, 0.5), (8, 1.0), (16, 0.5), (32, 0.25),
                                                 (64, 0.125), (128, 0.0625)])
    def test_admissible_set_equals_the_exact_norm_one(self, n_half, spacing):
        report = magnetic_experiment(harmonic_model(n_half, spacing),
                                     e_grid=np.linspace(-0.008, 0.008, 17), s0=1.0)
        budget = report.budget
        exact = np.array([np.max(np.abs(np.linalg.eigvalsh(budget.family.operator_at(e).matrix)))
                          for e in budget.kappas])
        assert np.all(budget.b_values >= exact)
        c_exact = _c_values(budget.mu, budget.epsilon, budget.a_values, exact)
        np.testing.assert_array_equal(
            budget.admissible,
            (np.abs(budget.kappas) < budget.kappa0) & (c_exact < budget.c_threshold))
        assert budget.admissible.sum() >= 1

    def test_zero_vector_potential_all_admissible(self):
        model = MagneticModel.from_functions(GridSpec(6, 0.5), lambda x: x * x,
                                             lambda x: 0.0)
        report = magnetic_experiment(model, e_grid=np.linspace(-1.0, 1.0, 5), s0=0.5,
                                     s_samples=[0.5])
        assert np.all(report.budget.admissible)
        assert np.all(report.budget.c_values == 0.0)

    def test_ground_energy_continuous_in_coupling(self):
        # Weyl's inequality: adjacent ground eigenvalues along the coupling
        # grid move by no more than the operator-norm step of the family
        model = harmonic_model(6, 0.5)
        e_grid = np.linspace(-0.05, 0.05, 11)
        restricted = [real_hamiltonian(model, e) for e in e_grid]
        grounds = [op.decomposition.min_eigenvalue for op in restricted]
        for left, right, a, b in zip(e_grid, e_grid[1:], restricted, restricted[1:]):
            step_norm = (b - a).norm
            assert abs(
                b.decomposition.min_eigenvalue - a.decomposition.min_eigenvalue
            ) <= step_norm + 1e-12
        assert min(grounds) > 0

    @pytest.mark.parametrize("e", [-0.3, -0.008, 0.001, 0.05, 0.5])
    def test_restricted_terms_match_rebuilt_hamiltonian(self, e):
        # reference: assemble the full complex Hamiltonian at e and compress it
        model = harmonic_model(6, 0.4)
        h0, m1, m2 = magnetic_terms(model)
        full = compressed_to_real(assembled_magnetic(model, e), model.grid)
        difference = e * m1 + e**2 * m2 - (full - h0)
        assert np.max(np.abs(difference)) <= 1e-12 * np.linalg.norm(full, 2)

    def test_assembly_independent_of_grid_length(self, monkeypatch):
        import axiscone.schrodinger as schrodinger

        counts = []
        terms = schrodinger.magnetic_terms
        monkeypatch.setattr(schrodinger, "magnetic_terms",
                            lambda *args: counts.append(1) or terms(*args))
        seen = []
        for num in (3, 17):
            counts.clear()
            magnetic_experiment(harmonic_model(4, 0.5),
                                e_grid=np.linspace(-0.008, 0.008, num), s0=1.0)
            seen.append(len(counts))
        assert seen == [1, 1]

    def test_full_report_builds_the_terms_once_and_decomposes_only_real_matrices(
            self, monkeypatch):
        import axiscone.schrodinger as schrodinger

        built, dtypes = [], []
        terms, eigh = schrodinger.magnetic_terms, np.linalg.eigh
        monkeypatch.setattr(schrodinger, "magnetic_terms",
                            lambda *args: built.append(1) or terms(*args))
        monkeypatch.setattr(np.linalg, "eigh", lambda m: dtypes.append(m.dtype) or eigh(m))
        report = run(ExperimentConfig(kind="schrodinger", seed=0, params={}))
        assert report.rows[-1][:4] == ["orthant_demo", "0.5", "0.5", "witness_found"]
        assert len(built) == 1
        # the restricted terms, the grid couplings and H_r(demo_e): all real
        assert dtypes and set(dtypes) == {np.dtype(float)}

    def test_degenerate_double_well_surfaces(self):
        # a huge barrier on the center site decouples the wells: the ground
        # doublet splits below tau_gap and the pipeline must refuse
        well = MagneticModel.from_functions(
            GridSpec(8, 0.5),
            lambda x: x * x + (1e12 if x == 0.0 else 0.0),
            lambda x: math.exp(-x * x),
        )
        with pytest.raises(DegenerateBottom):
            magnetic_experiment(well, e_grid=[0.0], s0=1.0)


    def test_unresolved_heat_time_stops_before_the_base_rows(self, monkeypatch):
        # exp(-1e-12 H0) splits its top by about 1e-12 delta, below tau_gap: the
        # sweep's check raises before any base verdict would read it as CertifiedFalse
        import axiscone.schrodinger as schrodinger

        calls = []
        monkeypatch.setattr(schrodinger, "improves_positivity_axis",
                            lambda *args: calls.append(args))
        with pytest.raises(HeatTimeUnresolved, match="s = 1e-12"):
            magnetic_experiment(harmonic_model(4, 0.5), e_grid=[0.5], s0=1.0,
                                s_samples=[1e-12, 1.0])
        assert calls == []


def test_laplacian_matches_momentum_squared_on_interior():
    # p^2 equals the 3-point Laplacian only up to the sublattice decoupling;
    # both are Hermitian and parity-compatible, which is what assembly needs
    grid = GridSpec(5, 0.5)
    lap = laplacian_matrix(grid)
    p = momentum_matrix(grid)
    p2 = (p @ p).real
    assert np.allclose(lap, lap.T)
    assert np.allclose(p2, p2.T)
    assert commutation_residual(lap.astype(complex)) <= 1e-12
