import math
import sys

import numpy as np
import pytest

from axiscone.errors import (
    AsymmetricPotential,
    ContractViolation,
    DegenerateBottom,
    HeatTimeUnresolved,
    NotRealCompatible,
)
from axiscone.operators import bottom_eigen
from axiscone.perturbation import _c_values
from axiscone.positivity import VerdictStatus
from axiscone.schrodinger import (
    GridSpec,
    MagneticModel,
    build_magnetic,
    commutation_residual,
    laplacian_matrix,
    magnetic_experiment,
    magnetic_terms,
    momentum_matrix,
    orthant_failure_demo,
    parity_basis,
    _spectrum_drift_bound,
    restrict_to_real,
)
from axiscone.seeding import rng_for
from axiscone.tolerances import TAU_SYM


def conjugate(f):
    """The parity conjugation (C f)_j = conj(f_{-j}): the reference map."""
    return np.conj(np.asarray(f, dtype=complex)[::-1])


def is_hermitian(m):
    """m equals its conjugate transpose to TAU_SYM relative to its largest entry."""
    return float(np.max(np.abs(m - m.conj().T))) <= TAU_SYM * max(1.0, float(np.max(np.abs(m))))


def harmonic_model(n_half=8, spacing=0.5):
    return MagneticModel.from_functions(
        GridSpec(n_half, spacing), lambda x: x * x, lambda x: math.exp(-x * x)
    )


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
        assert not b.flags.writeable
        np.testing.assert_allclose(b.conj().T @ b, np.eye(9), atol=1e-12)
        rng = rng_for(2, 0)
        for _ in range(10):
            x = rng.standard_normal(9)
            fixed = b @ x
            assert np.linalg.norm(conjugate(fixed) - fixed) <= 1e-12

    def test_momentum_commutes_with_conjugation(self):
        grid = GridSpec(6, 0.3)
        assert commutation_residual(momentum_matrix(grid)) <= 1e-13

    def test_commutation_residual_matches_column_loop(self):
        grid = GridSpec(5, 0.5)
        rng = rng_for(3, 0)
        random = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
        magnetic = build_magnetic(harmonic_model(5, 0.5), 0.3)
        for h in (random, magnetic):
            reference = 0.0
            for k in range(grid.dim):
                e = np.zeros(grid.dim, dtype=complex)
                e[k] = 1.0
                reference = max(reference, float(np.linalg.norm(
                    h @ conjugate(e) - conjugate(h @ e))))
            assert commutation_residual(h) == pytest.approx(reference, rel=1e-14,
                                                            abs=1e-14)


class TestFreeHamiltonian:
    def test_free_stencil(self):
        model = MagneticModel.from_functions(GridSpec(1, 1.0), lambda x: 0.0,
                                             lambda x: 0.0)
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        np.testing.assert_array_equal(magnetic_terms(model)[0].real, expected)

    def test_harmonic_diagonal(self):
        model = harmonic_model(2, 0.5)
        h0 = magnetic_terms(model)[0].real
        x = model.grid.points
        np.testing.assert_allclose(np.diag(h0), 2.0 / 0.25 + x**2)

    def test_ground_state_positive_with_gap(self):
        basis = parity_basis(GridSpec(8, 0.5))
        h0c = magnetic_terms(harmonic_model())[0]
        # in the complex representation the free Hamiltonian is a real
        # irreducible Jacobi matrix: simple bottom, entrywise-positive ground
        w, u = np.linalg.eigh(h0c)
        assert w[1] - w[0] > 1e-6
        ground = u[:, 0].real
        ground *= np.sign(ground[np.argmax(np.abs(ground))])
        assert np.all(ground > 0)
        restricted = restrict_to_real(h0c, basis)
        _, _, simple = bottom_eigen(restricted, require_simple=True)
        assert simple


class TestBuildMagnetic:
    def test_terms_are_read_only_complex_arrays(self):
        model = harmonic_model(3, 0.5)
        for term in (*magnetic_terms(model), build_magnetic(model, 0.2)):
            assert isinstance(term, np.ndarray) and term.dtype == complex
            assert term.shape == (model.grid.dim, model.grid.dim)
            assert not term.flags.writeable

    def test_zero_coupling_equals_h0(self):
        model = harmonic_model()
        np.testing.assert_array_equal(build_magnetic(model, 0.0), magnetic_terms(model)[0])

    @pytest.mark.parametrize("e", [-0.5, -0.008, 0.0, 0.001, 0.3, 2.0])
    def test_equals_its_terms_bit_for_bit(self, e):
        model = harmonic_model(6, 0.4)
        h0, m1, m2 = magnetic_terms(model)
        np.testing.assert_array_equal(build_magnetic(model, e), h0 + e * m1 + e**2 * m2)

    def test_hand_checkable_3x3(self):
        model = MagneticModel.from_functions(GridSpec(1, 1.0), lambda x: 0.0,
                                             lambda x: 1.0)
        h = build_magnetic(model, 1.0)
        expected = np.array([
            [3.0, -1.0 - 1.0j, 0.0],
            [-1.0 + 1.0j, 3.0, -1.0 - 1.0j],
            [0.0, -1.0 + 1.0j, 3.0],
        ])
        np.testing.assert_allclose(h, expected, atol=1e-14)
        assert is_hermitian(h)

    def test_commutation_residual_small(self):
        h = build_magnetic(harmonic_model(), 0.1)
        scale = np.max(np.abs(h))
        assert commutation_residual(h) <= 1e-12 * scale


class TestRestrictToReal:
    def test_laplacian_spectrum_preserved(self):
        model = MagneticModel.from_functions(GridSpec(1, 1.0), lambda x: 0.0,
                                             lambda x: 0.0)
        restricted = restrict_to_real(magnetic_terms(model)[0], parity_basis(model.grid))
        expected = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        np.testing.assert_allclose(restricted.decomposition.eigenvalues, expected,
                                   atol=1e-12)

    def test_diagonal_even_stays_diagonal(self):
        grid = GridSpec(2, 1.0)
        values = np.array([3.0, 1.0, 5.0, 1.0, 3.0])
        restricted = restrict_to_real(np.diag(values).astype(complex), parity_basis(grid))
        off = restricted.matrix - np.diag(np.diag(restricted.matrix))
        assert np.max(np.abs(off)) <= 1e-14
        np.testing.assert_allclose(np.sort(np.diag(restricted.matrix)),
                                   np.sort(values))

    def test_magnetic_couples_parity_blocks(self):
        model = harmonic_model(4, 0.5)
        basis = parity_basis(model.grid)
        h0 = restrict_to_real(magnetic_terms(model)[0], basis)
        h_mag = restrict_to_real(build_magnetic(model, 0.3), basis)
        # columns: 0 and odd indices span the even-parity sector, even
        # indices >= 2 the odd sector; the free operator never mixes them
        plus = [0] + list(range(1, model.grid.dim, 2))
        minus = list(range(2, model.grid.dim, 2))
        assert np.max(np.abs(h0.matrix[np.ix_(plus, minus)])) <= 1e-12
        assert np.max(np.abs(h_mag.matrix[np.ix_(plus, minus)])) > 1e-3

    def test_spectrum_matches_complex_operator(self):
        model = harmonic_model(6, 0.4)
        h = build_magnetic(model, 0.2)
        restricted = restrict_to_real(h, parity_basis(model.grid))
        np.testing.assert_allclose(
            restricted.decomposition.eigenvalues,
            np.sort(np.linalg.eigvalsh(h)),
            atol=1e-9,
        )

    def test_incompatible_operator_rejected(self):
        grid = GridSpec(1, 1.0)
        odd_diag = np.diag([1.0, 0.0, 2.0]).astype(complex)
        with pytest.raises(NotRealCompatible):
            restrict_to_real(odd_diag, parity_basis(grid))

    def test_scaled_basis_rejected(self):
        # B = 1.01 B_0 keeps every commutation and imaginary check, but B* H B has
        # the eigenvalues 1.0201 lambda_k(H): eta ||H|| = 0.0201 ||H|| is far too much
        model = harmonic_model(4, 0.5)
        with pytest.raises(NotRealCompatible, match="spectrum may drift"):
            restrict_to_real(build_magnetic(model, 0.3), 1.01 * parity_basis(model.grid))

    def test_non_square_basis_rejected(self):
        # Ostrowski's theorem needs a square basis: B* B - I has no shape for a 5 x 3 B
        grid = GridSpec(2, 1.0)
        with pytest.raises(ValueError):
            restrict_to_real(np.eye(grid.dim, dtype=complex), parity_basis(grid)[:, :3])

    @pytest.mark.parametrize("seed", range(24))
    def test_drift_bound_covers_the_measured_drift(self, seed):
        # a seeded even model and a basis scaled, then perturbed off the fixed space
        rng = rng_for(seed, 61)
        n_half = int(rng.integers(1, 16))
        grid = GridSpec(n_half, float(rng.uniform(0.1, 1.0)))
        v = rng.uniform(-2.0, 10.0, n_half + 1)
        a = rng.uniform(-1.0, 1.0, n_half + 1)
        model = MagneticModel(grid=grid, v_values=np.concatenate([v[:0:-1], v]),
                              a_values=np.concatenate([a[:0:-1], a]))
        h = build_magnetic(model, float(rng.uniform(-2.0, 2.0)))
        scale, noise = [(1.0, 0.0), (1.0 + 10.0 ** rng.uniform(-12, -4), 0.0),
                        (1.0, 10.0 ** rng.uniform(-12, -4))][seed % 3]
        g = rng.standard_normal((grid.dim, 2 * grid.dim)).view(complex)
        basis = scale * parity_basis(grid) + noise * g
        compressed = basis.conj().T @ h @ basis
        restricted = (compressed.real + compressed.real.T) / 2.0
        measured = np.max(np.abs(np.linalg.eigvalsh(restricted) - np.linalg.eigvalsh(h)))
        bound = _spectrum_drift_bound(h, basis, compressed)
        assert measured <= bound
        if seed % 3 == 0:
            # the exact basis: the bound is rounding-sized and the restriction passes
            assert bound <= 1e-12 * np.max(np.abs(h))
            restrict_to_real(h, basis)


class TestOrthantDemo:
    def test_zero_coupling_control(self):
        report = orthant_failure_demo(harmonic_model(), 0.0, s=0.5)
        assert report.status == "inapplicable_control"
        assert report.coupling == 0.0
        assert report.max_imag == 0.0
        assert report.min_real > -1e-10

    def test_nonzero_coupling_leaves_cone(self):
        report = orthant_failure_demo(harmonic_model(), 0.5, s=0.5)
        assert report.status == "witness_found"
        assert report.coupling == 0.5
        assert report.max_imag >= 1e-10

    def test_propagator_eigendecomposition_is_checked(self, monkeypatch):
        eigh = np.linalg.eigh

        def corrupt_hermitian(m):
            w, q = eigh(m)
            # only the complex Hermitian H of the propagator is corrupted
            return (w, 1.01 * q) if np.iscomplexobj(m) else (w, q)

        monkeypatch.setattr(np.linalg, "eigh", corrupt_hermitian)
        with pytest.raises(ContractViolation, match="orthonormality"):
            orthant_failure_demo(harmonic_model(), 0.5, s=0.5)


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
        # restrict_to_real bounds its spectrum drift instead of measuring it; the
        # checked eigh are H0's, one per coefficient norm (M1 and M2) and one per
        # nonzero coupling of the grid
        assert callers == {"eigh": ["checked_eigh"] * 7, "eigvalsh": []}

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
        basis = parity_basis(model.grid)
        e_grid = np.linspace(-0.05, 0.05, 11)
        restricted = [restrict_to_real(build_magnetic(model, e), basis) for e in e_grid]
        grounds = [op.decomposition.min_eigenvalue for op in restricted]
        for left, right, a, b in zip(e_grid, e_grid[1:], restricted, restricted[1:]):
            step_norm = (b - a).norm
            assert abs(
                b.decomposition.min_eigenvalue - a.decomposition.min_eigenvalue
            ) <= step_norm + 1e-12
        assert min(grounds) > 0

    @pytest.mark.parametrize("e", [-0.3, -0.008, 0.001, 0.05, 0.5])
    def test_restricted_terms_match_rebuilt_hamiltonian(self, e):
        # reference: assemble the full Hamiltonian at e and restrict it
        model = harmonic_model(6, 0.4)
        basis = parity_basis(model.grid)
        h0, m1, m2 = (restrict_to_real(term, basis) for term in magnetic_terms(model))
        full = restrict_to_real(build_magnetic(model, e), basis)
        difference = e * m1.matrix + e**2 * m2.matrix - (full - h0).matrix
        assert np.max(np.abs(difference)) <= 1e-12 * full.norm

    def test_assembly_independent_of_grid_length(self, monkeypatch):
        import axiscone.schrodinger as schrodinger

        counts = {}

        def counting(name):
            original = getattr(schrodinger, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        for name in ("build_magnetic", "restrict_to_real"):
            monkeypatch.setattr(schrodinger, name, counting(name))
        seen = []
        for num in (3, 17):
            counts.clear()
            magnetic_experiment(harmonic_model(4, 0.5),
                                e_grid=np.linspace(-0.008, 0.008, num), s0=1.0)
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0].get("build_magnetic", 0) == 0
        assert seen[0]["restrict_to_real"] == 3

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
