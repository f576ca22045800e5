import math
import re

import numpy as np
import pytest

from axiscone.errors import (
    AxisNotEigenvector,
    BudgetViolated,
    ContractViolation,
    DegenerateBottom,
    DegenerateTop,
    GapCollapsed,
    RatioSaturated,
)
from axiscone import perturbation, positivity
from axiscone.operators import (
    SymmetricOperator,
    bottom_eigen,
    restricted_top,
)
from axiscone.perturbation import (
    C_MAX,
    PerturbationFamily,
    certified_improving_under_drift,
    drift_certificate_lhs,
    drifted_axis,
    end_to_end_semigroup_check,
    ergodic_drift_check,
    improvement_threshold,
    improving_radius,
    quartic_coefficient,
    quartic_margin,
    radius_from_alpha,
    semigroup_threshold,
)
from axiscone.cones import AxisCone, sample_in_cone
from axiscone.positivity import VerdictStatus
from axiscone.seeding import rng_for
from axiscone.harness import ExperimentConfig, run
from axiscone.schrodinger import GridSpec, MagneticModel, magnetic_experiment
from reference_loops import contour_image, drift_check_by_loop, sweep_by_rebuild

E1 = np.array([1.0, 0.0])
SQRT2 = math.sqrt(2.0)


def rotated_axis(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def swap_instance():
    """T = diag(0,1) with the swap perturbation: the hand-derived reference.

    Eigenvalues of T + kappa*S are (1 +/- sqrt(1 + 4 kappa^2))/2, so every
    gap is sqrt(1 + 4 kappa^2) >= 1 and delta = 1 on any grid containing 0.
    """
    t = SymmetricOperator(np.diag([0.0, 1.0]))
    s = PerturbationFamily([SymmetricOperator([[0.0, 1.0], [1.0, 0.0]])], a=0.0, b=1.0)
    return t, s


class TestScalars:
    def test_radius_at_half(self):
        expected = 0.75 / (4.0 * SQRT2 * 1.25)
        assert radius_from_alpha(0.5) == pytest.approx(expected, abs=1e-16)
        assert radius_from_alpha(0.5) == pytest.approx(0.1060660171779821, abs=1e-12)

    def test_radius_at_zero(self):
        assert radius_from_alpha(0.0) == pytest.approx(1.0 / (4.0 * SQRT2), abs=1e-16)

    @pytest.mark.parametrize("alpha", np.arange(0.0, 0.95, 0.1))
    def test_radius_consistent_with_quartic_coefficient(self, alpha):
        assert abs(radius_from_alpha(alpha) - 1.0 / (4.0 * quartic_coefficient(alpha))) <= 1e-14

    def test_quartic_margin_reference(self):
        c = 5.0 * SQRT2 / 3.0  # the alpha = 0.5 coefficient
        assert quartic_coefficient(0.5) == pytest.approx(c, abs=1e-15)
        value = quartic_margin(c, 0.05)
        expected = 0.05**4 - 2 * 0.05**2 + c * 0.05 - 0.25
        assert value == expected
        assert value == pytest.approx(-0.13714, abs=1e-5)

    def test_quartic_margin_at_zero(self):
        assert quartic_margin(1.0, 0.0) == -0.25

    @pytest.mark.parametrize("alpha", np.arange(0.1, 0.95, 0.1))
    def test_quartic_negative_on_region(self, alpha):
        c = quartic_coefficient(alpha)
        upper = min(c / 4.0, 1.0 / (4.0 * c))
        assert upper == pytest.approx(radius_from_alpha(alpha), abs=1e-15)
        xs = np.linspace(0.0, upper, 1000, endpoint=False)
        assert all(quartic_margin(c, x) < 0 for x in xs)

    def test_monotonicity(self):
        alphas = np.linspace(0.0, 0.95, 60)
        radii = [radius_from_alpha(a) for a in alphas]
        assert all(r1 > r2 for r1, r2 in zip(radii, radii[1:]))
        rs = np.linspace(1e-4, 0.2, 60)
        thresholds = [improvement_threshold(r) for r in rs]
        assert all(f1 < f2 for f1, f2 in zip(thresholds, thresholds[1:]))


class TestImprovingRadius:
    def test_diag_two_one(self):
        alpha, r = improving_radius(SymmetricOperator(np.diag([2.0, 1.0])), E1)
        assert alpha == pytest.approx(0.5, abs=1e-14)
        assert r == pytest.approx(0.1060660171779821, abs=1e-12)

    def test_rank_one(self):
        alpha, r = improving_radius(SymmetricOperator(np.diag([1.0, 0.0])), E1)
        assert alpha == pytest.approx(0.0, abs=1e-14)
        assert r == pytest.approx(1.0 / (4.0 * SQRT2), abs=1e-12)

    def test_scale_invariance(self):
        base = SymmetricOperator(np.diag([2.0, 1.0]))
        alpha_1, r_1 = improving_radius(base, E1)
        alpha_3, r_3 = improving_radius(3.0 * base, E1)
        assert alpha_3 == pytest.approx(alpha_1, abs=1e-15)
        assert r_3 == pytest.approx(r_1, abs=1e-15)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTop):
            improving_radius(SymmetricOperator(np.diag([2.0, 2.0])), E1)

    def test_wrong_axis_raises(self):
        with pytest.raises(AxisNotEigenvector):
            improving_radius(SymmetricOperator(np.diag([2.0, 1.0])), np.array([0.0, 1.0]))


class TestErgodicDrift:
    def test_moderate_drift(self):
        a = SymmetricOperator(np.diag([2.0, 1.0]))
        u1 = rotated_axis(0.6)
        drift = np.linalg.norm(u1 - E1)
        assert drift == pytest.approx(math.sqrt(2.0 - 2.0 * math.cos(0.6)))
        assert drift < 1.0 / SQRT2
        verdict = ergodic_drift_check(a, E1, u1, sample_pairs=40, seed=3)
        assert verdict.status is VerdictStatus.SAMPLED_TRUE
        assert verdict.margin > 0

    def test_no_drift_reduces_to_base_case(self):
        a = SymmetricOperator(np.diag([2.0, 1.0]))
        verdict = ergodic_drift_check(a, E1, E1, sample_pairs=20, seed=4)
        assert verdict.status is VerdictStatus.SAMPLED_TRUE

    def test_large_drift_inapplicable(self):
        a = SymmetricOperator(np.diag([2.0, 1.0]))
        u1 = rotated_axis(1.2)
        # chord length 2 sin(0.6) >= 1/sqrt(2)
        assert np.linalg.norm(u1 - E1) == pytest.approx(2.0 * math.sin(0.6), abs=1e-12)
        assert np.linalg.norm(u1 - E1) == pytest.approx(1.1292849468, abs=1e-9)
        verdict = ergodic_drift_check(a, E1, u1)
        assert verdict.status is VerdictStatus.INAPPLICABLE

    def test_wrong_axis(self):
        with pytest.raises(AxisNotEigenvector):
            ergodic_drift_check(SymmetricOperator(np.diag([2.0, 1.0])),
                                np.array([0.0, 1.0]), E1)

    @pytest.mark.parametrize("dim, seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
    def test_matches_the_pair_loop_on_samples(self, dim, seed):
        rng = rng_for(seed, dim)
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        a = SymmetricOperator((q * np.append(rng.uniform(0.1, 1.0, dim - 1), 2.0)) @ q.T)
        u0 = a.decomposition.eigenvectors[:, -1]
        u1 = u0 + 0.3 * q[:, 0]
        u1 /= np.linalg.norm(u1)
        verdict = ergodic_drift_check(a, u0, u1, sample_pairs=30, seed=seed)
        rows = sample_in_cone(AxisCone(u1), rng_for(seed, 0), 60)
        status, margin, _ = drift_check_by_loop(a, u0, u1, rows)
        assert verdict.status is status is VerdictStatus.SAMPLED_TRUE
        assert verdict.margin == pytest.approx(margin, rel=1e-12)

    # A = 2I has a degenerate top, so the boundary pair (1, 1), (1, -1) never
    # pairs positively; (-1, 0) breaks the certificate for u1 = u0 = e1.
    @pytest.mark.parametrize("rows, exit_row, detail", [
        ([[1, 0.5], [1, 0.2], [1, 1], [1, -1], [-1, 0], [1, 0]], 2, "no positive pairing"),
        ([[1, 0.5], [1, 0.2], [1, 1], [-1, 0]], 3, "certificate"),
        ([[1, 1], [1, -1], [-1, 0], [1, 0]], 0, "no positive pairing"),
        ([[-1, 0], [1, 1], [1, 1], [1, -1]], 0, "certificate"),
        ([[1, 1], [1, 0], [1, 1], [1, -1]], 2, "no positive pairing"),
    ], ids=["probe_before_certificate", "certificate_of_v_before_its_probe",
            "probe_of_first_pair", "certificate_of_first_row", "second_pair_fails"])
    def test_early_exits_in_loop_order(self, monkeypatch, rows, exit_row, detail):
        rows = np.array(rows, dtype=float)

        def fixed_rows(cone, rng, k):
            assert k == len(rows)
            return rows

        monkeypatch.setattr(perturbation, "sample_in_cone", fixed_rows)
        a = SymmetricOperator(2.0 * np.eye(2))
        verdict = ergodic_drift_check(a, E1, E1, sample_pairs=len(rows) // 2)
        status, margin, witness = drift_check_by_loop(a, E1, E1, rows)
        assert verdict.status is status is VerdictStatus.CERTIFIED_FALSE
        assert detail in verdict.detail
        np.testing.assert_array_equal(verdict.witness, witness)
        np.testing.assert_array_equal(verdict.witness, rows[exit_row])
        assert verdict.margin == pytest.approx(margin, rel=1e-12, abs=1e-300)



class TestDriftCertificate:
    def test_small_drift_certified(self):
        a = SymmetricOperator(np.diag([2.0, 1.0]))  # alpha = 0.5
        d = 0.05
        u1 = rotated_axis(2.0 * math.asin(d / 2.0))  # exact chord length d
        assert np.linalg.norm(u1 - E1) == pytest.approx(d, abs=1e-15)
        verdict = certified_improving_under_drift(a, improving_radius(a, E1)[0], E1, u1)
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE
        assert verdict.detail.startswith("drift certificate")
        # cross-check: d < r so the quartic margin is negative
        assert quartic_margin(quartic_coefficient(0.5), d) < 0
        assert drift_certificate_lhs(0.5, d) > 1.0 / SQRT2

    def test_zero_drift(self):
        # at d = 0 the instantiated t is sqrt(2), so the left side is
        # 1/sqrt(1 + alpha^2) > 1/sqrt(2) for every alpha < 1
        assert drift_certificate_lhs(0.5, 0.0) == pytest.approx(1.0 / math.sqrt(1.25))
        assert drift_certificate_lhs(0.0, 0.0) == pytest.approx(1.0)
        assert drift_certificate_lhs(0.5, 0.0) > 1.0 / SQRT2
        a = SymmetricOperator(np.diag([2.0, 1.0]))
        verdict = certified_improving_under_drift(a, improving_radius(a, E1)[0], E1, E1)
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE

    def test_gapless_limit_falls_back(self):
        # alpha -> 1: the certificate cannot fire; the closed-form S-lemma test decides
        a = SymmetricOperator(np.diag([2.0, 2.0 - 1e-5]))
        d = 0.05
        u1 = rotated_axis(2.0 * math.asin(d / 2.0))
        alpha, _ = improving_radius(a, E1)
        assert drift_certificate_lhs(alpha, d) < 1.0 / SQRT2
        verdict = certified_improving_under_drift(a, alpha, E1, u1)
        assert verdict.detail.startswith("fallback S-lemma closed form")
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE


def gapped_instance(seed, dim):
    """Random symmetric T with eigenvalue 0 and the rest in [1, 3]."""
    rng = rng_for(seed, 40)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigs = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 3.0, size=dim - 1))])
    return SymmetricOperator((q * eigs) @ q.T)


class TestSemigroupThreshold:
    def test_hand_derived_reference(self):
        t, s = swap_instance()
        grid = np.linspace(-0.45, 0.45, 41)
        budget = semigroup_threshold(t, s, s0=math.log(2.0), kappa0=0.5, kappa_grid=grid)
        assert budget.delta == pytest.approx(1.0, abs=1e-12)
        assert budget.epsilon == pytest.approx(0.5, abs=1e-12)
        assert budget.alpha == pytest.approx(0.5, abs=1e-12)
        assert budget.r == pytest.approx(0.1060660171779821, abs=1e-12)
        # threshold and admissible bound, independently by hand
        x = budget.r * math.sqrt(1.0 - budget.r**2 / 4.0)
        assert budget.c_threshold == pytest.approx(x / (1.0 + x), abs=1e-15)
        assert budget.c_threshold == pytest.approx(0.09577287, abs=1e-7)
        assert budget.kappa_threshold == pytest.approx(budget.c_threshold / 2.0, abs=1e-15)
        assert budget.kappa_threshold == pytest.approx(0.04788645, abs=1e-7)
        np.testing.assert_allclose(budget.c_values, 2.0 * np.abs(grid), atol=1e-14)
        assert budget.is_admissible(0.04)
        assert not budget.is_admissible(0.05)

    @pytest.mark.parametrize("top, s0", [(1000.0, math.log(2.0)), (1.0, 1e300)],
                             ids=["wide_gap", "long_time"])
    def test_saturated_ratio_rejected(self, top, s0):
        _, s = swap_instance()
        t = SymmetricOperator(np.diag([0.0, top]))
        with pytest.raises(RatioSaturated, match="rounds to 1"):
            semigroup_threshold(t, s, s0=s0, kappa0=0.5, kappa_grid=[-0.1, 0.0, 0.1])

    def test_zero_perturbation_all_admissible(self):
        t = SymmetricOperator(np.diag([0.0, 1.0]))
        s = PerturbationFamily([SymmetricOperator(np.zeros((2, 2)))], a=0.0, b=0.0)
        budget = semigroup_threshold(t, s, s0=1.0, kappa0=1.0,
                                     kappa_grid=np.linspace(-0.9, 0.9, 7))
        assert np.all(budget.admissible)
        assert np.all(budget.c_values == 0.0)
        assert budget.kappa_threshold == 1.0

    def test_small_gap_shrinks_threshold(self):
        s_spec = PerturbationFamily([SymmetricOperator([[0.0, 1.0], [1.0, 0.0]])],
                                    a=0.0, b=1.0)
        wide = semigroup_threshold(SymmetricOperator(np.diag([0.0, 1.0])), s_spec,
                                   s0=2.0, kappa0=0.01, kappa_grid=[0.0])
        narrow = semigroup_threshold(SymmetricOperator(np.diag([0.0, 0.01])), s_spec,
                                     s0=2.0, kappa0=0.01, kappa_grid=[0.0])
        assert narrow.delta < wide.delta
        # a smaller gap inflates c(kappa) through epsilon = delta/2, so the
        # admissible kappa range shrinks even though f(r) itself grows
        assert narrow.kappa_threshold < wide.kappa_threshold

    def test_degenerate_bottom(self):
        t = SymmetricOperator(np.diag([0.0, 0.0, 1.0]))
        s = PerturbationFamily([SymmetricOperator(np.zeros((3, 3)))])
        with pytest.raises(DegenerateBottom):
            semigroup_threshold(t, s, s0=1.0, kappa0=0.1, kappa_grid=[0.0])

    def test_gap_collapse(self):
        t = SymmetricOperator(np.diag([0.0, 1.0]))
        # kappa = 0 is fine, but the grid endpoint closes the gap exactly
        fam = PerturbationFamily([np.diag([0.0, -1.0])], b=1.0)
        with pytest.raises(GapCollapsed):
            semigroup_threshold(t, fam, s0=1.0, kappa0=2.0, kappa_grid=[0.0, 1.0])

    def test_family_mode_tabulates(self):
        t, _ = swap_instance()
        # S(kappa) = [[0, kappa], [kappa, kappa^2]] has norm
        # (kappa^2 + sqrt(kappa^4 + 4 kappa^2)) / 2
        fam = PerturbationFamily([[[0.0, 1.0], [1.0, 0.0]], np.diag([0.0, 1.0])])
        grid = np.linspace(-0.04, 0.04, 9)
        budget = semigroup_threshold(t, fam, s0=math.log(2.0), kappa0=0.5, kappa_grid=grid)
        expected = (grid**2 + np.sqrt(grid**4 + 4.0 * grid**2)) / 2.0
        np.testing.assert_allclose(budget.b_values, expected, atol=1e-12)
        np.testing.assert_array_equal(budget.a_values, 0.0)
        assert budget.c_slope is None
        assert budget.kappa_threshold == pytest.approx(0.04, abs=1e-12)


class TestPerturbationFamily:
    def test_linear_family_arithmetic(self):
        s = SymmetricOperator([[0.0, 1.0], [1.0, 0.0]])
        fam = PerturbationFamily([s], a=0.25, b=2.0)
        np.testing.assert_array_equal(fam.operator_at(-0.3).matrix, (-0.3 * s).matrix)
        assert fam.a_at(-0.3) == 0.25 * 0.3
        assert fam.b_at(-0.3) == 2.0 * 0.3
        assert fam.c_slope(1.0, 0.5) == 0.25 + ((1.0 + 0.5) * 0.25 + 2.0) / 0.5

    def test_linear_default_bound_is_norm(self):
        s = SymmetricOperator(np.diag([3.0, -4.0]))
        assert PerturbationFamily([s]).b == 4.0

    def test_polynomial_evaluation(self):
        s1 = SymmetricOperator([[0.0, 1.0], [1.0, 0.0]])
        s2 = SymmetricOperator(np.diag([1.0, 2.0]))
        s3 = SymmetricOperator(np.diag([0.0, -1.0]))
        fam = PerturbationFamily([s1, s2, s3])
        kappa = 0.7
        expected = kappa * s1.matrix + kappa**2 * s2.matrix + kappa**3 * s3.matrix
        np.testing.assert_allclose(fam.operator_at(kappa).matrix, expected, atol=1e-15)
        assert fam.b_at(kappa) == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(expected))))
        assert fam.a_at(kappa) == 0.0
        assert fam.c_slope(0.0, 0.5) is None

    @pytest.mark.parametrize("kappa", [-0.45, 0.018, 0.7])
    def test_operators_match_the_checked_constructor(self, kappa):
        g = rng_for(5, 0).standard_normal((3, 5, 5))
        fam = PerturbationFamily([(m + m.T) / 2.0 for m in g])
        total = sum(kappa**k * c.matrix for k, c in enumerate(fam.coefficients, start=1))
        operator = fam.operator_at(kappa)
        assert operator.matrix.tobytes() == SymmetricOperator(total).matrix.tobytes()
        assert not operator.matrix.flags.writeable

    def test_threshold_builds_each_operator_once(self, monkeypatch):
        counts = {"operator_at": 0}
        original = PerturbationFamily.operator_at

        def counting(self, kappa):
            counts["operator_at"] += 1
            return original(self, kappa)

        monkeypatch.setattr(PerturbationFamily, "operator_at", counting)
        fam = PerturbationFamily([[[0.0, 1.0], [1.0, 0.0]], np.diag([0.0, 1.0])])
        grid = np.linspace(-0.2, 0.2, 9)
        budget = semigroup_threshold(SymmetricOperator(np.diag([0.0, 1.0])), fam,
                                     s0=1.0, kappa0=0.5, kappa_grid=grid)
        # kappa = 0 builds nothing: S(0) is the zero operator and T + S(0) is T
        assert counts["operator_at"] == np.count_nonzero(grid) == grid.size - 1
        for kappa, b in zip(grid, budget.b_values):
            assert b == original(fam, kappa).norm

    def test_bounds_rejected_above_degree_one(self):
        coefficients = [np.eye(2), np.eye(2)]
        with pytest.raises(ValueError, match="linear"):
            PerturbationFamily(coefficients, a=0.1)
        with pytest.raises(ValueError, match="linear"):
            PerturbationFamily(coefficients, b=1.0)

    def test_malformed_coefficients_rejected(self):
        with pytest.raises(ValueError):
            PerturbationFamily([])
        with pytest.raises(ValueError, match="dimension"):
            PerturbationFamily([np.eye(2), np.eye(3)])


class TestDriftedAxis:
    def budget(self):
        t, s = swap_instance()
        return t, s, semigroup_threshold(t, s, s0=math.log(2.0), kappa0=0.5,
                                         kappa_grid=np.linspace(-0.45, 0.45, 41))

    def test_zero_kappa(self):
        t, _, budget = self.budget()
        v, bound, actual = drifted_axis(t, E1, budget, kappa=0.0)
        np.testing.assert_allclose(v, E1, atol=1e-12)
        assert actual <= 1e-12
        assert bound == 0.0

    def test_admissible_kappa_chain(self):
        t, s, budget = self.budget()
        kappa = 0.04
        t_kappa = t + s.operator_at(kappa)
        v, bound, actual = drifted_axis(t_kappa, E1, budget, kappa=kappa)
        # hand oracle: ground eigenvector of [[0, k], [k, 1]]
        lam = (1.0 - math.sqrt(1.0 + 4.0 * kappa**2)) / 2.0
        oracle = np.array([kappa, lam])
        oracle /= np.linalg.norm(oracle)
        if oracle[0] < 0:
            oracle = -oracle
        np.testing.assert_allclose(v, oracle, atol=1e-9)
        c = 2.0 * kappa
        expected_bound = math.sqrt(2.0 * (1.0 - math.sqrt(1.0 - (c / (1.0 - c)) ** 2)))
        assert bound == pytest.approx(expected_bound, abs=1e-15)
        assert bound == pytest.approx(0.0871, abs=2e-4)
        assert actual == pytest.approx(np.linalg.norm(oracle - E1), abs=1e-9)
        assert actual <= bound + 1e-8
        assert actual < budget.r

    def test_budget_violated(self):
        t, s, budget = self.budget()
        with pytest.raises(BudgetViolated):
            drifted_axis(t + s.operator_at(0.3), E1, budget, kappa=0.3)

    def test_no_solve_and_no_eigh_beyond_the_one_decomposition(self, monkeypatch):
        t, s, budget = self.budget()
        t_kappa = t + s.operator_at(0.04)   # fresh: its decomposition is not cached yet
        calls = []
        for name in ("solve", "eigh", "eigvalsh", "inv", "lstsq"):
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        drifted_axis(t_kappa, E1, budget, kappa=0.04)
        assert calls == ["eigh"]
        calls.clear()
        drifted_axis(t_kappa, E1, budget, kappa=0.04)
        assert calls == []

    @pytest.mark.parametrize("eigenvalues, positions", [
        ([0.0, 0.3], "[0, 1]"),     # two eigenvalues within epsilon = 1/2 of mu = 0
        ([2.0, 3.0], "[]"),         # none
        ([-5.0, 0.1], "[1]"),       # one, but not the bottom one
    ], ids=["two_near_mu", "none_near_mu", "upper_one_near_mu"])
    def test_eigenvalue_count_near_mu(self, eigenvalues, positions):
        _, _, budget = self.budget()
        with pytest.raises(ContractViolation, match=re.escape(f"positions {positions}")):
            drifted_axis(SymmetricOperator(np.diag(eigenvalues)), E1, budget, kappa=0.0)


def chain_instance(seed):
    """Seeded T, S and budget built like selftest criterion 7's drift chain, dim 2-39."""
    rng = rng_for(seed, 78)
    dim = 2 + seed % 38
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigs = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 2.0, size=dim - 1))])
    t = SymmetricOperator((q * eigs) @ q.T)
    g = rng.standard_normal((dim, dim))
    s_mat = SymmetricOperator((g + g.T) / 2.0)
    s_spec = PerturbationFamily([(0.05 / s_mat.norm) * s_mat])
    budget = semigroup_threshold(t, s_spec, s0=1.0, kappa0=1.0,
                                 kappa_grid=np.linspace(-0.9, 0.9, 13))
    return t, s_spec, budget


class TestDriftedAxisAgainstContour:
    """The drifted axis against the dense-solve contour rule, which shares no eigenbasis."""

    TOL = 1e-10

    @pytest.mark.parametrize("seed", range(60))
    def test_axis_and_drift_match_contour_image(self, seed):
        t, s_spec, budget = chain_instance(seed)
        _, u0, _ = bottom_eigen(t, require_simple=True)
        kappas = budget.kappas[budget.admissible]
        assert kappas.size
        for kappa in kappas:
            t_kappa = t + s_spec.operator_at(float(kappa))
            axis, _, drift = drifted_axis(t_kappa, u0, budget, kappa=float(kappa))
            image = contour_image(t_kappa, budget.mu, budget.epsilon, u0)
            doubled = contour_image(t_kappa, budget.mu, budget.epsilon, u0, nodes=128)
            assert np.linalg.norm(image - doubled) <= self.TOL
            v = image / np.linalg.norm(image)
            v = v if v @ u0 >= 0 else -v
            assert np.linalg.norm(v - axis) <= self.TOL
            assert abs(np.linalg.norm(v - u0) - drift) <= self.TOL


class TestEndToEnd:
    def test_reference_sweep_all_true(self):
        t, s = swap_instance()
        s0 = math.log(2.0)
        budget = semigroup_threshold(t, s, s0=s0, kappa0=0.5,
                                     kappa_grid=np.linspace(-0.45, 0.45, 41))
        report = end_to_end_semigroup_check(
            t, s, budget, s_samples=[s0 / 4, s0 / 2, s0], kappas=[0.04]
        )
        assert report.all_true
        assert all(row.verdict.is_true for row in report.rows)
        assert {row.s for row in report.rows} == {s0 / 4, s0 / 2, s0}

    def test_base_case_certified_per_s(self):
        t, s = swap_instance()
        s0 = math.log(2.0)
        budget = semigroup_threshold(t, s, s0=s0, kappa0=0.5, kappa_grid=[0.0])
        report = end_to_end_semigroup_check(
            t, s, budget, s_samples=[s0 / 3, s0], kappas=[0.0]
        )
        assert all(
            row.verdict.status is VerdictStatus.CERTIFIED_TRUE for row in report.rows
        )

    def test_zero_time_rejected(self):
        t, s = swap_instance()
        budget = semigroup_threshold(t, s, s0=1.0, kappa0=0.5, kappa_grid=[0.0])
        with pytest.raises(ValueError, match="identity"):
            end_to_end_semigroup_check(t, s, budget, s_samples=[0.0], kappas=[0.0])

    @pytest.mark.parametrize("s_value, message", [
        (0.0, "s=0.0 must be positive"),
        (-0.1, "s=-0.1 must be positive"),
    ], ids=["zero", "negative"])
    def test_nonpositive_time_message_names_value(self, s_value, message):
        t, s = swap_instance()
        budget = semigroup_threshold(t, s, s0=1.0, kappa0=0.5, kappa_grid=[0.0])
        with pytest.raises(ValueError, match=re.escape(message)):
            end_to_end_semigroup_check(t, s, budget, s_samples=[s_value], kappas=[0.0])

    def sweep_instance(self):
        t = gapped_instance(3, 6)
        g = rng_for(3, 41).standard_normal((6, 6))
        s_mat = SymmetricOperator((g + g.T) / 2.0)
        s_spec = PerturbationFamily([(0.05 / s_mat.norm) * s_mat])
        budget = semigroup_threshold(t, s_spec, s0=math.log(2.0), kappa0=1.0,
                                     kappa_grid=np.linspace(-0.9, 0.9, 7))
        return t, s_spec, budget

    def test_semigroups_cost_no_eigh(self, monkeypatch):
        t, s_spec, budget = self.sweep_instance()
        kappas = [0.0, 0.3, 0.6]
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        counts = []
        for s_samples in ([0.1], [0.1, 0.2, 0.3, 0.5, math.log(2.0)]):
            calls.clear()
            report = end_to_end_semigroup_check(t, s_spec, budget, s_samples, kappas=kappas)
            assert len(report.rows) == len(kappas) * len(s_samples)
            counts.append(len(calls))
        # none for kappa = 0 (T's own spectrum) or for the grid point 0.6, whose
        # spectrum the budget holds; one for 0.3, which is not bit-equal to the
        # grid's 0.29999999999999993; none per semigroup
        assert 0.6 in budget.decompositions and 0.3 not in budget.kappas
        assert counts == [1, 1]

    def test_sweep_makes_no_eigvalsh_call(self, monkeypatch):
        # the spectral ratio comes from the checked spectrum, not a compression
        t, s_spec, budget = self.sweep_instance()
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *a, **k: calls.append(a) or eigvalsh(*a, **k))
        report = end_to_end_semigroup_check(t, s_spec, budget, [0.1, 0.3, math.log(2.0)],
                                            kappas=[-0.3, 0.0, 0.3, 0.6])
        assert len(report.rows) == 12 and report.all_true
        run(ExperimentConfig(kind="perturb_sweep", seed=0, params={}))
        assert calls == []

    def test_one_restricted_top_per_perturbed_row(self, monkeypatch):
        t, s_spec, budget = self.sweep_instance()
        calls = []
        for module in (perturbation, positivity):
            monkeypatch.setattr(module, "restricted_top",
                                lambda A, u0: calls.append(A) or restricted_top(A, u0))
        report = end_to_end_semigroup_check(t, s_spec, budget, [0.1, 0.3, math.log(2.0)],
                                            kappas=[-0.3, 0.3, 0.6])
        assert len(calls) == len(report.rows) == 9
        assert all(row.verdict.status is VerdictStatus.CERTIFIED_TRUE for row in report.rows)

    def test_perturbed_rows_go_through_the_public_drift_verdict(self, monkeypatch):
        # the tracer counts this function by name: every kappa != 0 row must
        # reach it once, and the kappa = 0 rows never
        t, s_spec, budget = self.sweep_instance()
        original = perturbation.certified_improving_under_drift
        verdicts = []

        def counting(*args, **kwargs):
            verdicts.append(original(*args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(perturbation, "certified_improving_under_drift", counting)
        report = end_to_end_semigroup_check(t, s_spec, budget, [0.1, 0.3],
                                            kappas=[0.0, 0.3, 0.6])
        perturbed = [row.verdict for row in report.rows if row.kappa != 0.0]
        assert len(report.rows) == 6 and len(perturbed) == 4
        assert len(verdicts) == 4
        assert all(a is b for a, b in zip(perturbed, verdicts))

    def test_beyond_s0_rejected(self):
        t, s = swap_instance()
        budget = semigroup_threshold(t, s, s0=1.0, kappa0=0.5, kappa_grid=[0.0])
        with pytest.raises(ValueError, match="outside theorem scope"):
            end_to_end_semigroup_check(t, s, budget, s_samples=[1.5], kappas=[0.0])

    def test_inadmissible_kappa_rejected(self):
        t, s = swap_instance()
        budget = semigroup_threshold(t, s, s0=math.log(2.0), kappa0=0.5,
                                     kappa_grid=np.linspace(-0.45, 0.45, 41))
        with pytest.raises(ValueError, match="admissible"):
            end_to_end_semigroup_check(t, s, budget, s_samples=[0.1], kappas=[0.3])


def count_eigh(monkeypatch):
    """Record the shape of every np.linalg.eigh call from here on."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    return calls


def bits(x):
    return np.float64(x).tobytes()


def assert_rows_bit_equal(rows, expected):
    assert len(rows) == len(expected) > 0
    for row, ref in zip(rows, expected):
        for name in ("kappa", "s", "c_kappa", "threshold", "drift_bound", "drift_actual",
                     "alpha_op", "alpha_uniform"):
            assert bits(getattr(row, name)) == bits(getattr(ref, name)), name
        got, want = row.verdict, ref.verdict
        assert (got.predicate, got.status, got.seed, got.detail) == \
            (want.predicate, want.status, want.seed, want.detail)
        assert bits(got.margin) == bits(want.margin)
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness.tobytes() == want.witness.tobytes()


def random_family(seed):
    """Seeded T (gap >= 1), family of degree 1 or 2 with a >= 0, grid, kappa0."""
    rng = rng_for(seed, 90)
    dim = int(rng.integers(2, 9))
    t = gapped_instance(seed, dim)
    coefficients = []
    for _ in range(int(rng.integers(1, 3))):
        g = rng.standard_normal((dim, dim))
        coefficients.append(10.0 ** rng.uniform(-2.0, 0.5) * (g + g.T) / 2.0)
    a = float(rng.uniform(0.0, 0.05)) if len(coefficients) == 1 and rng.random() < 0.5 else 0.0
    family = PerturbationFamily(coefficients, a=a) if a else PerturbationFamily(coefficients)
    grid = rng.uniform(-0.5, 0.5, size=int(rng.integers(3, 30)))
    if rng.random() < 0.5:
        grid = np.append(grid, 0.0)
    rng.shuffle(grid)
    return t, family, grid, float(rng.uniform(0.05, 0.6))


class TestDecompositionReuse:
    """One checked decomposition per operator, against the sweep that rebuilt every one."""

    S_SAMPLES = [0.05, 0.2, math.log(2.0)]

    @staticmethod
    def degree_two_instance():
        t, _ = swap_instance()
        fam = PerturbationFamily([[[0.0, 1.0], [1.0, 0.0]], np.diag([0.0, 1.0])])
        return t, fam, np.linspace(-0.04, 0.04, 9)

    def instances(self):
        t, s = swap_instance()
        yield t, s, np.linspace(-0.45, 0.45, 41), 0.5
        t, s, grid = self.degree_two_instance()
        yield t, s, grid, 0.5
        t = gapped_instance(3, 6)
        g = rng_for(3, 41).standard_normal((6, 6))
        s_mat = SymmetricOperator((g + g.T) / 2.0)
        yield t, PerturbationFamily([(0.05 / s_mat.norm) * s_mat]), np.linspace(-0.9, 0.9, 7), 1.0
        for seed in range(4):
            t, s, grid, kappa0 = random_family(seed)
            yield t, s, grid, kappa0

    def test_rows_match_the_rebuilding_sweep_bit_for_bit(self, monkeypatch):
        checked = 0
        for t, s_spec, grid, kappa0 in self.instances():
            budget = semigroup_threshold(t, s_spec, s0=math.log(2.0), kappa0=kappa0,
                                         kappa_grid=grid)
            if not budget.admissible.any():
                continue
            on_grid = [float(k) for k in budget.kappas[budget.admissible]]
            off_grid = [0.9 * k for k in on_grid if k != 0.0]
            for kappas in (None, [0.0], sorted(set(on_grid[:2] + off_grid[:2] + [0.0]))):
                calls = count_eigh(monkeypatch)
                expected = sweep_by_rebuild(t, s_spec, budget, self.S_SAMPLES, kappas)
                rebuilt = len(calls)
                calls.clear()
                report = end_to_end_semigroup_check(t, s_spec, budget, self.S_SAMPLES, kappas)
                monkeypatch.undo()
                assert_rows_bit_equal(report.rows, expected)
                swept = on_grid if kappas is None else kappas
                # no eigh for kappa = 0 or for a kappa whose spectrum the budget holds
                assert rebuilt - len(calls) == sum(k == 0.0 or k in budget.decompositions
                                                   for k in swept)
                checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("degree", [1, 2])
    def test_kappa_zero_on_the_grid_uses_t(self, degree, monkeypatch):
        t, s = swap_instance()
        if degree == 2:
            t, s, _ = self.degree_two_instance()
        grid = [-0.03, 0.0, 0.03]
        calls = count_eigh(monkeypatch)
        budget = semigroup_threshold(t, s, s0=math.log(2.0), kappa0=0.5, kappa_grid=grid)
        # T once, then T + S(kappa) and, for degree 2, ||S(kappa)|| per nonzero point
        assert len(calls) == 1 + 2 * degree
        assert budget.b_values[1] == 0.0 and budget.gaps[1] == 1.0
        calls.clear()
        expected = sweep_by_rebuild(t, s, budget, self.S_SAMPLES)
        rebuilt = len(calls)
        calls.clear()
        report = end_to_end_semigroup_check(t, s, budget, self.S_SAMPLES)
        monkeypatch.undo()
        assert rebuilt - len(calls) == 3   # T + S(kappa) at -0.03, 0.0 and 0.03
        assert_rows_bit_equal(report.rows, expected)

    def test_schrodinger_family_matches_the_rebuilding_sweep(self):
        model = MagneticModel.from_functions(GridSpec(4, 0.5), lambda x: x * x,
                                             lambda x: math.exp(-x * x), 0.0)
        report = magnetic_experiment(model, e_grid=np.linspace(-0.008, 0.008, 5), s0=0.5)
        t, family = report.budget.source
        assert family.degree == 2 and len(report.budget.decompositions) == 4
        assert_rows_bit_equal(report.sweep.rows, sweep_by_rebuild(
            t, family, report.budget, [0.125, 0.25, 0.5]))

    def test_budget_of_other_operators_is_not_reused(self, monkeypatch):
        t, s = swap_instance()
        budget = semigroup_threshold(t, s, s0=math.log(2.0), kappa0=0.5,
                                     kappa_grid=np.linspace(-0.045, 0.045, 7))
        assert len(budget.decompositions) == 6
        copy = SymmetricOperator(t.matrix)
        bottom_eigen(copy)   # decomposed before counting, as t is
        calls = count_eigh(monkeypatch)
        expected = sweep_by_rebuild(t, s, budget, self.S_SAMPLES)
        rebuilt = len(calls)
        calls.clear()
        report = end_to_end_semigroup_check(copy, s, budget, self.S_SAMPLES)
        monkeypatch.undo()
        assert rebuilt - len(calls) == 1   # only kappa = 0, which is the copy itself
        assert_rows_bit_equal(report.rows, expected)

    @pytest.mark.parametrize("seed", range(40))
    def test_held_spectra_are_exactly_the_admissible_grid_points(self, seed):
        t, s_spec, grid, kappa0 = random_family(seed)
        budget = semigroup_threshold(t, s_spec, s0=float(rng_for(seed, 91).uniform(0.1, 2.0)),
                                     kappa0=kappa0, kappa_grid=grid)
        admissible = {float(k) for k in budget.kappas[budget.admissible] if k != 0.0}
        # a point dropped while the grid loop ran never comes back, so this also
        # says that no point that ends admissible was dropped on the way
        assert set(budget.decompositions) == admissible
        for kappa, held in budget.decompositions.items():
            fresh = (t + s_spec.operator_at(kappa)).decomposition
            assert held.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
            assert held.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
        assert budget.c_threshold < C_MAX

    def test_retention_bound_is_the_alpha_zero_threshold(self):
        assert C_MAX == improvement_threshold(radius_from_alpha(0.0))
        assert C_MAX == pytest.approx(0.1497, abs=1e-4)
        for alpha in (1e-6, 0.1, 0.5, 0.999):
            assert improvement_threshold(radius_from_alpha(alpha)) < C_MAX


class TestBoundChainSeeded:
    @pytest.mark.parametrize("seed", range(5))
    def test_drift_chain_on_random_instances(self, seed):
        rng = rng_for(seed, 77)
        dim = int(rng.integers(3, 9))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        eigs = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 2.0, size=dim - 1))])
        t = SymmetricOperator((q * eigs) @ q.T)
        g = rng.standard_normal((dim, dim))
        s_mat = SymmetricOperator((g + g.T) / 2.0)
        s_spec = PerturbationFamily([(0.05 / s_mat.norm) * s_mat])
        budget = semigroup_threshold(t, s_spec, s0=1.0, kappa0=1.0,
                                     kappa_grid=np.linspace(-0.9, 0.9, 13))
        _, u0, _ = bottom_eigen(t, require_simple=True)
        for kappa in budget.kappas[budget.admissible]:
            t_kappa = t + s_spec.operator_at(kappa)
            _, bound, actual = drifted_axis(t_kappa, u0, budget, kappa=float(kappa))
            assert actual <= bound + 1e-8
            assert actual < budget.r
