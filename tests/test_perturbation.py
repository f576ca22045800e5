import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from axiscone.errors import (
    AxisNotEigenvector,
    BudgetViolated,
    ContractViolation,
    DegenerateBottom,
    DegenerateTop,
    GapCollapsed,
    HeatTimeUnresolved,
    RatioSaturated,
    RelativeBoundUncertified,
    SemigroupOverflow,
)
from axiscone import perturbation, positivity
from axiscone.operators import (
    SymmetricOperator,
    bottom_eigen,
    certify_positive_definite,
    gap_exceeds,
    heat_semigroup,
    restricted_top,
    top_eigen,
)
from axiscone.perturbation import (
    PerturbationFamily,
    _c_values,
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
from axiscone.cones import AxisCone, Region, sample_in_cone, sample_in_cone_rows
from axiscone.positivity import VerdictStatus
from axiscone.seeding import rng_for
from axiscone.harness import ExperimentConfig, run
from axiscone.tolerances import GAP_COLLAPSE_TOL, RECON_TOL
from axiscone.schrodinger import GridSpec, MagneticModel, magnetic_experiment
from reference_loops import (
    coefficient_norm_bound,
    contour_image,
    drift_check_by_loop,
    sweep_by_rebuild,
    threshold_by_decomposing,
)

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
        rows = sample_in_cone_rows(AxisCone(u1), rng_for(seed, 0), 60)
        status, margin, _ = drift_check_by_loop(a, u0, u1, rows)
        assert verdict.status is status is VerdictStatus.SAMPLED_TRUE
        # the exact least certificate lies below every sampled one
        assert 0.0 <= verdict.margin <= margin + 1e-15
        assert verdict.margin == pytest.approx(closed_form_certificate(u0, u1), abs=1e-14)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_certificate_is_the_least_over_the_drifted_cone(self, dim):
        rng = rng_for(31, dim)
        for _ in range(40):
            q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            a = SymmetricOperator((q * np.append(rng.uniform(0.1, 1.0, dim - 1), 2.0)) @ q.T)
            u0 = a.decomposition.eigenvectors[:, -1]
            tilt = rng.standard_normal(dim)
            u1 = u0 + rng.uniform(0.0, 0.7) * tilt / np.linalg.norm(tilt)
            u1 /= np.linalg.norm(u1)
            verdict = ergodic_drift_check(a, u0, u1, sample_pairs=2, seed=dim)
            if np.linalg.norm(u1 - u0) >= 1.0 / SQRT2:
                assert verdict.status is VerdictStatus.INAPPLICABLE
                continue
            assert verdict.status is VerdictStatus.SAMPLED_TRUE
            assert verdict.margin == pytest.approx(closed_form_certificate(u0, u1), abs=1e-14)
            assert verdict.margin >= 0.0
            # the boundary ray u1 - unit(u0 - <u0, u1> u1) attains the least ratio
            slack = 1.0 / SQRT2 - np.linalg.norm(u1 - u0)
            perp = u0 - (u0 @ u1) * u1
            ray = u1 - perp / np.linalg.norm(perp)
            assert AxisCone(u1).classify(ray) is Region.BOUNDARY
            assert u0 @ ray / np.linalg.norm(ray) - slack == pytest.approx(verdict.margin,
                                                                           abs=1e-12)
            samples = sample_in_cone(AxisCone(u1), rng, 400)
            ratios = samples @ u0 / np.linalg.norm(samples, axis=1) - slack
            assert ratios.min() >= verdict.margin - 1e-12

    def test_violated_certificate_returns_the_boundary_ray(self, monkeypatch):
        # a tolerance above every certificate reaches the toolkit-bug branch
        monkeypatch.setattr(perturbation, "DRIFT_CERT_TOL", -1.0)
        a = SymmetricOperator(np.diag([2.0, 1.0]))
        u1 = rotated_axis(0.6)
        verdict = ergodic_drift_check(a, E1, u1)
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE
        assert "toolkit bug" in verdict.detail
        np.testing.assert_allclose(verdict.witness, rotated_axis(0.6 + math.pi / 4) * SQRT2,
                                   atol=1e-15)
        assert verdict.margin == pytest.approx(closed_form_certificate(E1, u1), abs=1e-15)

    # A = 2I has a degenerate top, so the boundary pair (1, 1), (1, -1) never
    # pairs positively; every other pair of cone rows here pairs at once.
    @pytest.mark.parametrize("rows, exit_row", [
        ([[1, 0.5], [1, 0.2], [1, 1], [1, -1], [1, 0.3], [1, 0]], 2),
        ([[1, 1], [1, -1], [1, 0.5], [1, 0]], 0),
        ([[1, 1], [1, 0], [1, 1], [1, -1]], 2),
    ], ids=["stops_before_a_later_pair", "probe_of_first_pair", "second_pair_fails"])
    def test_early_exits_in_loop_order(self, monkeypatch, rows, exit_row):
        rows = np.array(rows, dtype=float)

        def fixed_rows(cone, rng, k):
            assert k == len(rows)
            return rows

        monkeypatch.setattr(perturbation, "sample_in_cone_rows", fixed_rows)
        a = SymmetricOperator(2.0 * np.eye(2))
        verdict = ergodic_drift_check(a, E1, E1, sample_pairs=len(rows) // 2)
        status, margin, witness = drift_check_by_loop(a, E1, E1, rows)
        assert verdict.status is status is VerdictStatus.CERTIFIED_FALSE
        assert "no positive pairing" in verdict.detail
        np.testing.assert_array_equal(verdict.witness, witness)
        np.testing.assert_array_equal(verdict.witness, rows[exit_row])
        assert verdict.margin == pytest.approx(margin, rel=1e-12, abs=1e-300)


def closed_form_certificate(u0, u1):
    """cos(theta + pi/4) - (1/sqrt(2) - ||u1 - u0||), theta the angle of two unit axes."""
    drift = float(np.linalg.norm(u1 - u0))
    theta = 2.0 * math.asin(drift / 2.0)
    return math.cos(theta + math.pi / 4.0) - (1.0 / SQRT2 - drift)


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

    def test_vanishing_ratio_rejected(self):
        # s0 delta = 1e-20: alpha = 1 - exp(-s0 delta) rounds to 0, and r(0) proves nothing
        t, s = swap_instance()
        with pytest.raises(RatioSaturated, match="rounds to 0"):
            semigroup_threshold(t, s, s0=1e-20, kappa0=0.5, kappa_grid=[-0.1, 0.0, 0.1])

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
        # (kappa^2 + sqrt(kappa^4 + 4 kappa^2)) / 2, and both coefficients norm 1
        fam = PerturbationFamily([[[0.0, 1.0], [1.0, 0.0]], np.diag([0.0, 1.0])])
        grid = np.linspace(-0.04, 0.04, 9)
        budget = semigroup_threshold(t, fam, s0=math.log(2.0), kappa0=0.5, kappa_grid=grid)
        assert budget.b_values.tolist() == [abs(k) + abs(k) * abs(k) for k in grid]
        exact = (grid**2 + np.sqrt(grid**4 + 4.0 * grid**2)) / 2.0
        assert np.all(budget.b_values[grid != 0.0] > exact[grid != 0.0])
        np.testing.assert_allclose(budget.b_values, exact, rtol=0.03)
        np.testing.assert_array_equal(budget.a_values, 0.0)
        assert_grid_reads_c_values(budget)
        assert budget.kappa_threshold == pytest.approx(0.04, abs=1e-12)


class TestRelativeBound:
    """A linear family's claimed ||S x|| <= a ||T x|| + b ||x||, checked against T."""

    def test_b_below_the_swap_norm_by_4e_10_raises(self):
        # S^2 = I on the swap: b^2 I - S^2 = -8e-10 I, inside any tolerance of 1e-9
        t, _ = swap_instance()
        family = PerturbationFamily([[[0.0, 1.0], [1.0, 0.0]]], b=0.9999999996)
        with pytest.raises(RelativeBoundUncertified,
                           match=r"^\|\|S x\|\| <= a \|\|T x\|\| \+ b \|\|x\|\| is not "
                                 r"certified: a\^2 T\^2 \+ b\^2 I - S\^2 has eigenvalue -8e-10$"):
            semigroup_threshold(t, family, s0=math.log(2.0), kappa0=0.5, kappa_grid=[0.0])

    @pytest.mark.parametrize("b, certified", [(0.6, True), (0.5, False), (0.4, False)])
    def test_b_below_the_norm_needs_the_certificate(self, b, certified, monkeypatch):
        # a^2 T^2 + b^2 I - S^2 = diag(b^2 - 0.25, b^2, b^2): positive definite only
        # for b > 0.5, although b < ||S|| = 2
        proofs = []

        def recording(m, error):
            proofs.append(certify_positive_definite(m, error))
            return proofs[-1]

        monkeypatch.setattr(perturbation, "certify_positive_definite", recording)
        t = SymmetricOperator(np.diag([0.0, 1.0, 2.0]))
        family = PerturbationFamily([np.diag([0.5, 1.0, 2.0])], a=1.0, b=b)
        if certified:
            semigroup_threshold(t, family, s0=1.0, kappa0=0.01, kappa_grid=[0.0, 0.005])
        else:
            with pytest.raises(RelativeBoundUncertified, match=f"has eigenvalue "
                                                                f"{b * b - 0.25:.6g}$"):
                semigroup_threshold(t, family, s0=1.0, kappa0=0.01, kappa_grid=[0.0])
        assert proofs == [certified]

    @pytest.mark.parametrize("b", [None, 0.5])
    def test_dimension_mismatch_is_named_before_the_bound(self, b):
        # on a grid of zeros too, which builds no T + S(kappa)
        t = SymmetricOperator(np.diag([0.0, 1.0]))
        family = PerturbationFamily([np.eye(3)], a=1.0, b=b)
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            semigroup_threshold(t, family, s0=1.0, kappa0=0.5, kappa_grid=[0.0])

    @pytest.mark.parametrize("b", [None, 1.0, 1.2])
    def test_b_at_or_above_the_norm_needs_no_certificate(self, b, monkeypatch):
        monkeypatch.setattr(perturbation, "certify_positive_definite", None)
        t, _ = swap_instance()
        family = PerturbationFamily([[[0.0, 1.0], [1.0, 0.0]]], a=0.5, b=b)
        semigroup_threshold(t, family, s0=math.log(2.0), kappa0=0.5, kappa_grid=[0.0, 0.01])


class TestPerturbationFamily:
    def test_linear_family_arithmetic(self):
        s = SymmetricOperator([[0.0, 1.0], [1.0, 0.0]])
        fam = PerturbationFamily([s], a=0.25, b=2.0)
        np.testing.assert_array_equal(fam.operator_at(-0.3).matrix, (-0.3 * s).matrix)
        assert fam.a_at(-0.3) == 0.25 * 0.3
        assert fam.b_at(-0.3) == 2.0 * 0.3
        # c(1) at mu = 1 and epsilon = 1/2, the slope of c(kappa) = c(1) |kappa|
        assert _c_values(1.0, 0.5, fam.a_at(1.0), fam.b_at(1.0)) == \
            0.25 + ((1.0 + 0.5) * 0.25 + 2.0) / 0.5

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
        # ||s1|| = 1, ||s2|| = 2 and ||s3|| = 1
        assert fam.b_at(kappa) == kappa + kappa * kappa * 2.0 + kappa * kappa * kappa
        assert fam.b_at(-kappa) == fam.b_at(kappa)
        assert fam.b_at(kappa) >= np.max(np.abs(np.linalg.eigvalsh(expected)))
        assert fam.a_at(kappa) == 0.0
        assert fam.b is None   # the claimed bound b |kappa| is for linear families

    @pytest.mark.parametrize("kappa", [-0.45, 0.018, 0.7])
    def test_operators_match_the_checked_constructor(self, kappa):
        g = rng_for(5, 0).standard_normal((3, 5, 5))
        fam = PerturbationFamily([(m + m.T) / 2.0 for m in g])
        total = sum(kappa**k * c.matrix for k, c in enumerate(fam.coefficients, start=1))
        operator = fam.operator_at(kappa)
        assert operator.matrix.tobytes() == SymmetricOperator(total).matrix.tobytes()
        assert not operator.matrix.flags.writeable

    def test_overflowing_power_raises_value_error(self):
        fam = PerturbationFamily([np.eye(2), np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="finite"):
                fam.operator_at(1e200)

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
        norms = [c.norm for c in fam.coefficients]
        for kappa, b in zip(grid, budget.b_values):
            assert bits(b) == bits(coefficient_norm_bound(kappa, norms))
            assert b >= np.max(np.abs(np.linalg.eigvalsh(original(fam, kappa).matrix)))

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


class TestBudgetOffTheGrid:
    """c(kappa) and T + S(kappa) at a kappa the grid does not hold."""

    @staticmethod
    def probe():
        # S(kappa) = (kappa - kappa^2) M vanishes at 1 and is small on [0, 1], so
        # interpolating c over the grid [-1, 0, 1] reads 0 at kappa = 1/2
        t = SymmetricOperator(np.diag([0.0, 1.0]))
        swap = [[0.0, 1.0], [1.0, 0.0]]
        family = PerturbationFamily([swap, -np.array(swap)])
        return semigroup_threshold(t, family, s0=math.log(2.0), kappa0=1.5,
                                   kappa_grid=[-1.0, 0.0, 1.0])

    def test_c_bounds_the_exact_c_between_grid_points(self):
        budget = self.probe()
        assert budget.epsilon == 0.5
        # b(1/2) = 1/2 ||M|| + 1/4 ||M|| = 3/4, while ||S(1/2)|| / epsilon = 1/2
        assert budget.c_at(0.5) == 1.5
        exact = np.max(np.abs(np.linalg.eigvalsh(budget.family.operator_at(0.5).matrix)))
        assert exact / budget.epsilon == 0.5 <= budget.c_at(0.5)
        assert budget.c_at(1.0) == budget.c_values[2] == 4.0
        assert not budget.is_admissible(0.5)

    def test_sweep_rejects_the_probe_as_a_usage_error(self):
        with pytest.raises(ValueError, match="kappa=0.5 is not admissible"):
            end_to_end_semigroup_check(self.probe(), [0.1], kappas=[0.5])

    def test_operator_off_the_grid_is_built_fresh(self):
        budget = self.probe()
        built = budget.operator_at(0.5)
        assert built is not budget.operator_at(0.5)
        expected = budget.T + budget.family.operator_at(0.5)
        assert built.matrix.tobytes() == expected.matrix.tobytes()


def polynomial_family(seed, degree):
    """Seeded T (gap >= 1) and a family of the given degree with coefficient norms
    from 0.01 to 1, a grid over [-0.3, 0.3] with 0 on it, and kappa0."""
    rng = rng_for(seed, 94)
    dim = int(rng.integers(2, 12))
    t = gapped_instance(seed, dim)
    coefficients = []
    for _ in range(degree):
        g = rng.standard_normal((dim, dim))
        coefficients.append(10.0 ** rng.uniform(-2.0, 0.0) * (g + g.T) / np.linalg.norm(g + g.T, 2))
    grid = np.append(rng.uniform(-0.3, 0.3, size=int(rng.integers(4, 20))), 0.0)
    return t, PerturbationFamily(coefficients), grid, float(rng.uniform(0.1, 0.5))


def exact_norm(operator):
    return float(np.max(np.abs(np.linalg.eigvalsh(operator.matrix))))


class TestCoefficientNormBound:
    """b(kappa) = sum_k |kappa|^k ||S_k|| against the exact ||S(kappa)||."""

    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("seed", range(12))
    def test_bound_holds_and_admits_no_more_than_the_exact_norm(self, seed, degree):
        t, family, grid, kappa0 = polynomial_family(seed, degree)
        budget = semigroup_threshold(t, family, s0=math.log(2.0), kappa0=kappa0,
                                     kappa_grid=grid)
        exact = np.array([exact_norm(family.operator_at(k)) for k in grid])
        assert np.all(budget.b_values >= exact)
        c_exact = _c_values(budget.mu, budget.epsilon, budget.a_values, exact)
        admissible_exact = (np.abs(grid) < kappa0) & (c_exact < budget.c_threshold)
        assert not np.any(budget.admissible & ~admissible_exact)
        assert budget.admissible[grid == 0.0].all()
        # off the grid, c_at is never below the exact c either
        for kappa in (0.5 * grid[0], 0.9 * grid[-2]):
            exact_c = exact_norm(family.operator_at(kappa)) / budget.epsilon
            assert budget.c_at(kappa) >= exact_c

    def test_huge_kappa_reads_inf_without_warning(self):
        family = PerturbationFamily([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert family.b_at(1e200) == math.inf
            assert family.b_at(-1e200) == math.inf
            np.testing.assert_array_equal(family.b_at(np.array([0.0, 1e200])),
                                          [0.0, math.inf])

    def test_a_zero_coefficient_adds_nothing(self):
        family = PerturbationFamily([np.zeros((2, 2)), np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert family.b_at(0.5) == 0.25
            assert family.b_at(1e200) == math.inf
        assert PerturbationFamily([np.zeros((2, 2)), np.zeros((2, 2))]).b_at(1e200) == 0.0


def assert_grid_reads_c_values(budget):
    """At every grid kappa, c_at and is_admissible read the values admissibility used."""
    for i, kappa in enumerate(budget.kappas):
        assert bits(budget.c_at(kappa)) == bits(budget.c_values[i]), kappa
        assert budget.is_admissible(kappa) == budget.admissible[i], kappa


def hand_c(budget, kappa):
    """c(kappa) = a + ((|mu| + epsilon) a + b) / epsilon written out, with a = a|kappa|
    and b = b|kappa| for a linear family, else a = 0 and the coefficient-norm bound b."""
    family, epsilon = budget.family, budget.epsilon
    if family.degree == 1:
        a, b = family.a * abs(kappa), family.b * abs(kappa)
    else:
        a, b = 0.0, coefficient_norm_bound(kappa, [c.norm for c in family.coefficients])
    return a + ((abs(budget.mu) + epsilon) * a + b) / epsilon


def c_family(kind, seed):
    """Seeded T and a family of one kind: linear with the default a and b, linear
    with claimed a and b (b above ||S_1||), or of degree 2 or 3."""
    rng = rng_for(seed, 93)
    dim = int(rng.integers(2, 9))
    degree = {"linear_default": 1, "linear_claimed": 1, "degree_2": 2, "degree_3": 3}[kind]
    coefficients = []
    for _ in range(degree):
        g = rng.standard_normal((dim, dim))
        coefficients.append(10.0 ** rng.uniform(-2.0, 0.5) * (g + g.T) / 2.0)
    if kind == "linear_claimed":
        b = SymmetricOperator(coefficients[0]).norm * float(rng.uniform(1.0, 2.0))
        family = PerturbationFamily(coefficients, a=float(rng.uniform(0.0, 0.05)), b=b)
    else:
        family = PerturbationFamily(coefficients)
    return gapped_instance(seed, dim), family


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["linear_default", "linear_claimed", "degree_2", "degree_3"])
def test_c_at_is_one_formula_on_and_off_the_grid(kind, seed):
    t, family = c_family(kind, seed)
    grid = rng_for(seed, 94).uniform(-0.5, 0.5, 25)
    budget = semigroup_threshold(t, family, s0=math.log(2.0), kappa0=0.4, kappa_grid=grid)
    assert_grid_reads_c_values(budget)
    for kappa in rng_for(seed, 95).uniform(-0.5, 0.5, 20):
        assert kappa not in budget.kappas
        assert bits(budget.c_at(kappa)) == bits(hand_c(budget, kappa)), kappa
    if family.degree == 1:
        assert budget.kappa_threshold == min(budget.kappa0,
                                             budget.c_threshold / budget.c_at(1.0))


@pytest.mark.parametrize("threshold", [semigroup_threshold, threshold_by_decomposing])
def test_delta_never_exceeds_the_gap_of_t(threshold):
    t = SymmetricOperator(np.diag([0.0, 0.1]))
    family = PerturbationFamily([np.diag([0.0, 1.0])])
    off = threshold(t, family, s0=math.log(2.0), kappa0=2.0, kappa_grid=[0.9, 1.0])
    on = threshold(t, family, s0=math.log(2.0), kappa0=2.0, kappa_grid=[0.0, 0.9, 1.0])
    if threshold is threshold_by_decomposing:
        # every gap is checked, and the grid's least gap is 1
        assert off.gaps.min() == pytest.approx(1.0)
    else:
        # both points are certified above T's gap less eta
        assert np.all(off.gaps < off.delta)
        assert np.all(off.gaps >= off.delta - max_eta(off))
    assert off.delta == on.delta == pytest.approx(0.1)
    assert not off.admissible.any()


@pytest.mark.parametrize("seed", range(6))
def test_linear_family_reads_c_values_on_the_grid(seed):
    # a T with spectrum {0} U U(1, 3) and a unit-norm S on a 41-point grid, where
    # c(1) |kappa| and the grid's c values differ in the last bit
    rng, dim = rng_for(seed, 92), 24
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    t = SymmetricOperator((q * np.concatenate([[0.0], rng.uniform(1.0, 3.0, dim - 1)])) @ q.T)
    g = rng.standard_normal((dim, dim))
    s_mat = SymmetricOperator((g + g.T) / 2.0)
    budget = semigroup_threshold(t, PerturbationFamily([(1.0 / s_mat.norm) * s_mat]),
                                 s0=math.log(2.0), kappa0=0.5,
                                 kappa_grid=np.linspace(-0.36, 0.36, 41))
    assert budget.family.degree == 1 and budget.admissible.any()
    assert_grid_reads_c_values(budget)
    assert 0.01 not in budget.kappas
    assert bits(budget.c_at(0.01)) == bits(hand_c(budget, 0.01))
    assert budget.kappa_threshold == min(budget.kappa0, budget.c_threshold / budget.c_at(1.0))


class TestEndToEnd:
    def test_reference_sweep_all_true(self):
        t, s = swap_instance()
        s0 = math.log(2.0)
        budget = semigroup_threshold(t, s, s0=s0, kappa0=0.5,
                                     kappa_grid=np.linspace(-0.45, 0.45, 41))
        rows = end_to_end_semigroup_check(
            budget, s_samples=[s0 / 4, s0 / 2, s0], kappas=[0.04]
        )
        assert all(row.verdict.is_true for row in rows)
        assert {row.s for row in rows} == {s0 / 4, s0 / 2, s0}

    def test_base_case_certified_per_s(self):
        t, s = swap_instance()
        s0 = math.log(2.0)
        budget = semigroup_threshold(t, s, s0=s0, kappa0=0.5, kappa_grid=[0.0])
        rows = end_to_end_semigroup_check(
            budget, s_samples=[s0 / 3, s0], kappas=[0.0]
        )
        assert all(
            row.verdict.status is VerdictStatus.CERTIFIED_TRUE for row in rows
        )

    def test_zero_time_rejected(self):
        t, s = swap_instance()
        budget = semigroup_threshold(t, s, s0=1.0, kappa0=0.5, kappa_grid=[0.0])
        with pytest.raises(ValueError, match="identity"):
            end_to_end_semigroup_check(budget, s_samples=[0.0], kappas=[0.0])

    @pytest.mark.parametrize("s_value, message", [
        (0.0, "s=0.0 must be positive"),
        (-0.1, "s=-0.1 must be positive"),
    ], ids=["zero", "negative"])
    def test_nonpositive_time_message_names_value(self, s_value, message):
        t, s = swap_instance()
        budget = semigroup_threshold(t, s, s0=1.0, kappa0=0.5, kappa_grid=[0.0])
        with pytest.raises(ValueError, match=re.escape(message)):
            end_to_end_semigroup_check(budget, s_samples=[s_value], kappas=[0.0])

    @pytest.mark.parametrize("top, s_value", [(1.0, 1e-12), (101.0, math.log(2.0))],
                             ids=["short_time", "decayed_top"])
    def test_unresolved_heat_time_rejected(self, top, s_value):
        # exp(-s T) splits its top by about s delta (short_time), or its top
        # exp(-100 s) sits below tau_gap itself (decayed_top)
        _, s = swap_instance()
        t = SymmetricOperator(np.diag([top - 1.0, top]))
        budget = semigroup_threshold(t, s, s0=math.log(2.0), kappa0=0.5,
                                     kappa_grid=[-0.04, 0.0, 0.04])
        assert not budget.resolves(s_value)
        with pytest.raises(HeatTimeUnresolved, match="no top gap beyond tau_gap"):
            end_to_end_semigroup_check(budget, s_samples=[math.log(2.0), s_value])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_heat_time_rejected_before_any_row(self, monkeypatch):
        # T = diag(-1000, -999): 2 s (epsilon - mu) is about 600 at s = 0.3, whose
        # rows are built, and 800 at s = 0.4, beyond ln(max float) = 709.78
        _, s = swap_instance()
        t = SymmetricOperator(np.diag([-1000.0, -999.0]))
        budget = semigroup_threshold(t, s, s0=math.log(2.0), kappa0=0.5,
                                     kappa_grid=[-0.04, 0.0, 0.04])
        assert len(end_to_end_semigroup_check(budget, s_samples=[0.3])) == 3
        built = []
        monkeypatch.setattr(perturbation, "heat_semigroup", lambda *args: built.append(args))
        with pytest.raises(SemigroupOverflow, match="leaves the float range at s = 0.4 "):
            end_to_end_semigroup_check(budget, s_samples=[0.3, 0.4])
        assert built == []

    def test_resolved_heat_times_give_simple_tops(self):
        # the rule reads mu and delta only, yet where it admits s every swept
        # semigroup has a simple top, and it admits all but a sliver of the s-axis
        budget = self.sweep_budget()
        times = np.logspace(-12.0, 1.0, 27)
        resolved = [s for s in times if budget.resolves(s)]
        assert len(resolved) >= len(times) - 7
        for kappa in budget.kappas[budget.admissible]:
            for s_value in resolved:
                assert top_eigen(heat_semigroup(budget.operator_at(kappa), s_value))[2]

    def sweep_budget(self):
        t = gapped_instance(3, 6)
        g = rng_for(3, 41).standard_normal((6, 6))
        s_mat = SymmetricOperator((g + g.T) / 2.0)
        s_spec = PerturbationFamily([(0.05 / s_mat.norm) * s_mat])
        return semigroup_threshold(t, s_spec, s0=math.log(2.0), kappa0=1.0,
                                   kappa_grid=np.linspace(-0.9, 0.9, 7))

    def test_semigroups_cost_no_eigh(self, monkeypatch):
        budget = self.sweep_budget()
        kappas = [0.0, 0.3, 0.6]
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        counts = []
        for s_samples in ([0.1], [0.1, 0.2, 0.3, 0.5, math.log(2.0)]):
            calls.clear()
            rows = end_to_end_semigroup_check(budget, s_samples, kappas=kappas)
            assert len(rows) == len(kappas) * len(s_samples)
            counts.append(len(calls))
        # none for kappa = 0 (T's own spectrum) or for the grid point 0.6, whose
        # spectrum the budget holds; one for 0.3, which is not bit-equal to the
        # grid's 0.29999999999999993; none per semigroup
        assert 0.6 in budget.operators and 0.3 not in budget.kappas
        assert counts == [1, 1]

    def test_sweep_makes_no_eigvalsh_call(self, monkeypatch):
        # the spectral ratio comes from the checked spectrum, not a compression
        budget = self.sweep_budget()
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *a, **k: calls.append(a) or eigvalsh(*a, **k))
        rows = end_to_end_semigroup_check(budget, [0.1, 0.3, math.log(2.0)],
                                          kappas=[-0.3, 0.0, 0.3, 0.6])
        assert len(rows) == 12 and all(row.verdict.is_true for row in rows)
        run(ExperimentConfig(kind="perturb_sweep", seed=0, params={}))
        assert calls == []

    def test_one_restricted_top_per_perturbed_row(self, monkeypatch):
        budget = self.sweep_budget()
        calls = []
        for module in (perturbation, positivity):
            monkeypatch.setattr(module, "restricted_top",
                                lambda A, u0: calls.append(A) or restricted_top(A, u0))
        rows = end_to_end_semigroup_check(budget, [0.1, 0.3, math.log(2.0)],
                                          kappas=[-0.3, 0.3, 0.6])
        assert len(calls) == len(rows) == 9
        assert all(row.verdict.status is VerdictStatus.CERTIFIED_TRUE for row in rows)

    def test_perturbed_rows_go_through_the_public_drift_verdict(self, monkeypatch):
        # the tracer counts this function by name: every kappa != 0 row must
        # reach it once, and the kappa = 0 rows never
        budget = self.sweep_budget()
        original = perturbation.certified_improving_under_drift
        verdicts = []

        def counting(*args, **kwargs):
            verdicts.append(original(*args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(perturbation, "certified_improving_under_drift", counting)
        rows = end_to_end_semigroup_check(budget, [0.1, 0.3],
                                          kappas=[0.0, 0.3, 0.6])
        perturbed = [row.verdict for row in rows if row.kappa != 0.0]
        assert len(rows) == 6 and len(perturbed) == 4
        assert len(verdicts) == 4
        assert all(a is b for a, b in zip(perturbed, verdicts))

    def test_beyond_s0_rejected(self):
        t, s = swap_instance()
        budget = semigroup_threshold(t, s, s0=1.0, kappa0=0.5, kappa_grid=[0.0])
        with pytest.raises(ValueError, match="outside theorem scope"):
            end_to_end_semigroup_check(budget, s_samples=[1.5], kappas=[0.0])

    def test_inadmissible_kappa_rejected(self):
        t, s = swap_instance()
        budget = semigroup_threshold(t, s, s0=math.log(2.0), kappa0=0.5,
                                     kappa_grid=np.linspace(-0.45, 0.45, 41))
        with pytest.raises(ValueError, match="admissible"):
            end_to_end_semigroup_check(budget, s_samples=[0.1], kappas=[0.3])


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
        for name in ("kappa", "s", "c_kappa", "drift_bound", "drift_actual", "alpha_op"):
            assert bits(getattr(row, name)) == bits(getattr(ref, name)), name
        got, want = row.verdict, ref.verdict
        assert (got.predicate, got.status, got.detail) == \
            (want.predicate, want.status, want.detail)
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
                swept = on_grid if kappas is None else kappas
                decomposed = []
                eigh = np.linalg.eigh
                monkeypatch.setattr(np.linalg, "eigh",
                                    lambda m: decomposed.append(m.tobytes()) or eigh(m))
                rows = end_to_end_semigroup_check(budget, self.S_SAMPLES, kappas)
                swept_calls = len(decomposed)
                expected = sweep_by_rebuild(t, s_spec, budget, self.S_SAMPLES, kappas)
                rebuilt = len(decomposed) - swept_calls
                monkeypatch.undo()
                assert_rows_bit_equal(rows, expected)
                # c(kappa) is closed form on the grid and off it: the sweep decomposes
                # no S(kappa) and no coefficient, for any family
                norms = [s_spec.operator_at(k).matrix.tobytes() for k in swept if k != 0.0]
                norms += [c.matrix.tobytes() for c in s_spec.coefficients]
                assert not any(m in norms for m in decomposed[:swept_calls])
                # no eigh of T + S(kappa) for kappa = 0 or for a kappa the budget holds
                assert rebuilt - swept_calls == sum(k == 0.0 or k in budget.operators
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
        # T once, then T + S(kappa) at both nonzero points and, for degree 2, the
        # norms of its two coefficients; the swap's claimed b = 1 = ||S|| is no
        # certificate's (b^2 I - S^2 = 0), so its check reads ||S||
        assert len(calls) == 1 + 2 * degree + (degree == 1)
        assert budget.b_values[1] == 0.0 and budget.gaps[1] == 1.0
        calls.clear()
        expected = sweep_by_rebuild(t, s, budget, self.S_SAMPLES)
        rebuilt = len(calls)
        calls.clear()
        rows = end_to_end_semigroup_check(budget, self.S_SAMPLES)
        monkeypatch.undo()
        assert rebuilt - len(calls) == 3   # T + S(kappa) at -0.03, 0.0 and 0.03
        assert_rows_bit_equal(rows, expected)

    def test_schrodinger_family_matches_the_rebuilding_sweep(self):
        model = MagneticModel.from_functions(GridSpec(4, 0.5), lambda x: x * x,
                                             lambda x: math.exp(-x * x))
        report = magnetic_experiment(model, e_grid=np.linspace(-0.008, 0.008, 5), s0=0.5)
        t, family = report.budget.T, report.budget.family
        assert family.degree == 2 and len(report.budget.operators) == 4
        assert_rows_bit_equal(report.sweep, sweep_by_rebuild(
            t, family, report.budget, [0.125, 0.25, 0.5]))

    @pytest.mark.parametrize("seed", range(40))
    def test_held_spectra_are_exactly_the_admissible_grid_points(self, seed):
        t, s_spec, grid, kappa0 = random_family(seed)
        budget = semigroup_threshold(t, s_spec, s0=float(rng_for(seed, 91).uniform(0.1, 2.0)),
                                     kappa0=kappa0, kappa_grid=grid)
        admissible = {float(k) for k in budget.kappas[budget.admissible] if k != 0.0}
        assert set(budget.operators) == admissible
        assert_grid_reads_c_values(budget)
        assert budget.operator_at(0.0) is t
        for kappa, held in budget.operators.items():
            assert budget.operator_at(kappa) is held
            assert held._decomposition is not None   # checked before the budget returned
            fresh = t + s_spec.operator_at(kappa)
            assert held.matrix.tobytes() == fresh.matrix.tobytes()
            assert held.decomposition.eigenvalues.tobytes() == \
                fresh.decomposition.eigenvalues.tobytes()
            assert held.decomposition.eigenvectors.tobytes() == \
                fresh.decomposition.eigenvectors.tobytes()


def certificate_family(seed):
    """Seeded T, family, s0, kappa0 and grid over dims 2-39, degrees 1-2 and gaps of T
    from 1e-6 to 1e-1; seed % 4 picks a shape: 0 generic, 1 a gap minimum inside the
    grid, 2 gaps tied to within 1e-12 to 1e-6, 3 a degenerate lambda_1(T)."""
    rng = rng_for(seed, 92)
    shape = seed % 4
    dim = int(rng.integers(3 if shape == 3 else 2, 40))
    gap = 10.0 ** rng.uniform(-6.0, -1.0)
    rest = np.sort(rng.uniform(gap, gap + 3.0, size=dim - 2))
    if shape == 3:
        rest[0] = gap
    eigs = np.concatenate([[0.0, gap], rest])
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    t = SymmetricOperator((q * eigs) @ q.T)
    g = rng.standard_normal((dim, dim))
    noise = (g + g.T) / np.linalg.norm(g + g.T, 2)
    grid = rng.uniform(-0.5, 0.5, size=int(rng.integers(3, 17)))
    if rng.random() < 0.5:
        grid = np.append(grid, 0.0)
    if shape == 1:
        # lambda_1 moves by c (kappa^2 - 2 kappa kappa*): the gap is least at kappa*
        star = float(rng.uniform(-0.3, 0.3))
        c = float(rng.uniform(0.1, 0.9)) * gap / star**2
        lift = c * np.outer(q[:, 1], q[:, 1])
        small = 1e-3 * gap * noise
        coefficients = [-2.0 * star * lift + small, lift]
        grid = np.append(grid, [star, np.nextafter(star, 1.0)])
    elif shape == 2:
        # the identity moves every eigenvalue alike; the noise splits the gaps
        coefficients = [np.eye(dim) + 10.0 ** rng.uniform(-12.0, -6.0) * noise]
    else:
        coefficients = [gap * 10.0 ** rng.uniform(-2.0, 0.5) * noise]
    if shape != 1 and rng.random() < 0.5:
        h = rng.standard_normal((dim, dim))
        coefficients.append(gap * 10.0 ** rng.uniform(-2.0, 0.5) * (h + h.T)
                            / np.linalg.norm(h + h.T, 2))
    rng.shuffle(grid)
    family = PerturbationFamily(coefficients)
    return t, family, float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.05, 0.6)), grid


def budget_or_error(threshold, t, family, s0, kappa0, grid):
    try:
        return threshold(t, family, s0=s0, kappa0=kappa0, kappa_grid=grid)
    except (GapCollapsed, RatioSaturated, DegenerateBottom) as exc:
        return type(exc), str(exc)


def max_eta(budget):
    """Largest eta = 5 RECON_TOL max(1, ||T||_F + sum_j |kappa|^j ||S_j||_F) over the
    budget's grid and kappa = 0: a checked gap of T + S(kappa) lies within eta of the
    true one."""
    norms = [float(np.linalg.norm(c.matrix)) for c in budget.family.coefficients]
    bound = float(np.linalg.norm(budget.T.matrix)) + max(
        sum(abs(k) ** j * norm for j, norm in enumerate(norms, start=1))
        for k in np.append(budget.kappas, 0.0))
    return 5.0 * RECON_TOL * max(1.0, bound)


def assert_budget_matches(got, want, floors):
    """The budget against the decomposing oracle's.

    Every field that does not depend on delta agrees bit for bit, admissible and
    the held operators with their spectra too, and so does every gap the toolkit
    checked.  Each other gap is the floor its certificate proved (floors lists
    the proved floors of this call) and lies at least delta - eta.  delta lies in
    [oracle delta, oracle delta + 2 eta]; it is bit-equal, and with it every field
    read from delta, when the oracle's two least gaps (T's among them) are more
    than 2 eta apart.  Above degree one the oracle reads each ||S_k|| from
    eigvalsh, the toolkit from its checked eigh: there b and c agree to rounding,
    and bit for bit with the coefficient-norm bound of the family's own norms.
    Returns the number of certified gaps."""
    for name in ("mu", "s0", "kappa0"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    linear = got.family.degree == 1
    for name in ("kappas", "a_values", "admissible") + linear * ("b_values",):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    if not linear:
        norms = [c.norm for c in got.family.coefficients]
        assert got.b_values.tolist() == [coefficient_norm_bound(k, norms) for k in got.kappas]
        np.testing.assert_allclose(got.b_values, want.b_values, rtol=1e-13, atol=0.0)
    eta = max_eta(got)
    certified = got.gaps != want.gaps
    assert sorted(got.gaps[certified]) == sorted(floors)
    assert np.all(got.gaps[certified] >= got.delta - eta)
    assert want.delta <= got.delta <= want.delta + 2.0 * eta
    t_eigs = want.T.decomposition.eigenvalues
    least = np.unique(np.append(want.gaps, t_eigs[1] - t_eigs[0]))
    if least.size == 1 or least[1] - least[0] > 2.0 * eta:
        assert bits(got.delta) == bits(want.delta)
    if bits(got.delta) == bits(want.delta):
        for name in ("epsilon", "alpha", "r", "c_threshold", "kappa_threshold"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name
        assert bits(got.c_at(1.0)) == bits(want.c_at(1.0))
        if linear:
            assert got.c_values.tobytes() == want.c_values.tobytes()
        else:
            np.testing.assert_allclose(got.c_values, want.c_values, rtol=1e-13, atol=0.0)
    assert list(got.operators) == list(want.operators)
    for kappa, op in got.operators.items():
        ref = want.operators[kappa]
        assert op._decomposition is not None
        assert op.matrix.tobytes() == ref.matrix.tobytes()
        assert op.decomposition.eigenvalues.tobytes() == ref.decomposition.eigenvalues.tobytes()
        assert op.decomposition.eigenvectors.tobytes() == \
            ref.decomposition.eigenvectors.tobytes()
    return int(np.count_nonzero(certified))


def dense_config(seed, dim):
    """A perturb_sweep config: T with spectrum {0} and U(1, 3), S of norm 1, 41 grid points."""
    rng = rng_for(seed, 93)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigs = np.concatenate([[0.0], rng.uniform(1.0, 3.0, dim - 1)])
    t = (q * eigs) @ q.T
    g = rng.standard_normal((dim, dim))
    s = (g + g.T) / np.linalg.norm(g + g.T, 2)
    return ExperimentConfig(kind="perturb_sweep", seed=seed, params={
        "t": ((t + t.T) / 2.0).tolist(), "s": s.tolist(),
        "kappa_grid": {"start": -0.36, "stop": 0.36, "num": 41}})


class TestGapCertificate:
    """Grid gaps certified by one Cholesky against the loop that decomposed every point."""

    @pytest.mark.parametrize("block", range(10))
    def test_budgets_match_the_decomposing_loop(self, block, monkeypatch):
        successes = []

        def recording(A, x, floor, frobenius_bound):
            certified = gap_exceeds(A, x, floor, frobenius_bound)
            if certified:
                successes.append((A.matrix, floor))
            return certified

        monkeypatch.setattr(perturbation, "gap_exceeds", recording)
        certified, interior, tied, tied_certified = Counter(), Counter(), Counter(), Counter()
        for seed in range(100 * block, 100 * block + 100):
            shape = seed % 4
            t, family, s0, kappa0, grid = certificate_family(seed)
            want = budget_or_error(threshold_by_decomposing, t, family, s0, kappa0, grid)
            first = len(successes)
            got = budget_or_error(semigroup_threshold, t, family, s0, kappa0, grid)
            if isinstance(want, tuple):
                assert got == want
                continue
            count = assert_budget_matches(got, want, [f for _, f in successes[first:]])
            certified[shape] += count
            least = want.kappas[np.argmin(want.gaps)]
            interior[shape] += bool(want.kappas.min() < least < want.kappas.max())
            # gaps tied to within eta of delta are certified against delta - eta
            if np.ptp(want.gaps) < 2e-10:
                tied[shape] += 1
                tied_certified[shape] += count
        # every shape certifies, the interior-minimum shape has its least gap inside
        # the grid, and the near-tied shape certifies gaps tied closer than eta
        assert min(certified[shape] for shape in range(4)) >= 20
        assert interior[1] >= 20 and tied[2] >= 1 and tied_certified[2] >= 1
        assert sum(certified.values()) == len(successes)
        # each certificate, confirmed independently: the gap lies above the floor
        for matrix, floor in successes:
            w = np.linalg.eigvalsh(matrix)
            assert w[1] - w[0] > floor - 1e-12 * max(1.0, float(np.linalg.norm(matrix)))

    def test_failed_certificates_fall_back_to_the_decomposing_loop(self, monkeypatch):
        def failing(m):
            raise np.linalg.LinAlgError("not positive definite")

        for seed in range(40):
            calls = count_eigh(monkeypatch)
            want = budget_or_error(threshold_by_decomposing, *certificate_family(seed))
            decomposed = len(calls)
            calls.clear()
            monkeypatch.setattr(np.linalg, "cholesky", failing)
            # a fresh T, whose spectrum is not cached yet
            got = budget_or_error(semigroup_threshold, *certificate_family(seed))
            monkeypatch.undo()
            if isinstance(want, tuple):
                assert got == want
                continue
            assert assert_budget_matches(got, want, []) == 0
            assert bits(got.delta) == bits(want.delta)
            # above degree one the toolkit decomposes each coefficient once for its
            # norm, where the oracle takes eigvalsh
            degree = got.family.degree
            assert len(calls) == decomposed + (degree > 1) * degree

    @pytest.mark.parametrize("config", [
        ExperimentConfig(kind="perturb_sweep", seed=0, params={}),
        dense_config(0, 24),
        dense_config(1, 40),
        ExperimentConfig(kind="schrodinger", seed=0, params={"N": 48, "h": 8.0 / 48}),
    ], ids=["default", "dense-24", "dense-40", "schrodinger-48"])
    def test_reports_match_the_decomposing_loop(self, config, monkeypatch):
        from axiscone import harness, schrodinger

        def failing(m):
            raise np.linalg.LinAlgError("not positive definite")

        def report_and_eigh_calls():
            calls = count_eigh(monkeypatch)
            text = run(ExperimentConfig(kind=config.kind, seed=config.seed,
                                        params=dict(config.params))).render(timestamp=False)
            monkeypatch.undo()
            return text, len(calls)

        report, eigh_calls = report_and_eigh_calls()
        for module in (harness, schrodinger):
            monkeypatch.setattr(module, "semigroup_threshold", threshold_by_decomposing)
        reference, reference_calls = report_and_eigh_calls()
        monkeypatch.setattr(np.linalg, "cholesky", failing)
        fallback, fallback_calls = report_and_eigh_calls()
        assert report == reference == fallback
        # the magnetic family has degree two: the oracle takes eigvalsh for its
        # coefficients' norms, and the sweep's c_at reads b(kappa) from the family's
        # norm bounds, which decompose no coefficient while Cholesky works; with it
        # failing, M1's norm certificate fails too and falls back to M1's checked eigh
        assert fallback_calls == reference_calls + (config.kind == "schrodinger")
        assert eigh_calls < reference_calls

    @pytest.mark.parametrize("n_half", [16, 32, 48, 64, 128, 512])
    def test_magnetic_grid_certifies_every_inadmissible_point(self, n_half, monkeypatch):
        proved = []

        def recording(A, x, floor, frobenius_bound):
            proved.append(gap_exceeds(A, x, floor, frobenius_bound))
            return proved[-1]

        monkeypatch.setattr(perturbation, "gap_exceeds", recording)
        model = MagneticModel.from_functions(GridSpec(n_half, 8.0 / n_half), lambda x: x * x,
                                             lambda x: math.exp(-x * x))
        budget = magnetic_experiment(model, e_grid=np.linspace(-0.008, 0.008, 17),
                                     s0=1.0).budget
        # the grid's gaps tie H0's to within eta, so none is decomposed for delta
        t_eigs = budget.T.decomposition.eigenvalues
        assert bits(budget.delta) == bits(t_eigs[1] - t_eigs[0])
        outside = (budget.kappas != 0.0) & ~budget.admissible
        assert proved == [True] * int(np.count_nonzero(outside))
        assert np.all(budget.gaps[outside] < budget.delta)
        assert np.all(budget.gaps[outside] >= budget.delta - max_eta(budget))
        for i in np.flatnonzero(budget.admissible & (budget.kappas != 0.0)):
            eigs = budget.operators[float(budget.kappas[i])].decomposition.eigenvalues
            assert bits(budget.gaps[i]) == bits(eigs[1] - eigs[0])
        assert (n_half >= 32) <= outside.any()

    def test_a_late_gap_below_delta_fails_its_certificate_and_sets_delta(self, monkeypatch):
        # gaps 1 + kappa: the estimates are exact, so negating them visits the
        # least gap, 0.5 at kappa = -0.5, last
        t = SymmetricOperator(np.diag([0.0, 1.0, 3.0]))
        family = PerturbationFamily([np.diag([0.0, 1.0, 0.0])])
        grid = [-0.5, 0.2, 0.1]
        gap_estimates = perturbation._gap_estimates

        def negated(*args):
            estimates, *rest = gap_estimates(*args)
            return (-estimates, *rest)

        monkeypatch.setattr(perturbation, "_gap_estimates", negated)
        proved = []

        def recording(A, x, floor, frobenius_bound):
            proved.append((A.matrix[1, 1], gap_exceeds(A, x, floor, frobenius_bound)))
            return proved[-1][1]

        monkeypatch.setattr(perturbation, "gap_exceeds", recording)
        budget = semigroup_threshold(t, family, s0=1.0, kappa0=0.05, kappa_grid=grid)
        # T's gap 1 is the running minimum until the last point, whose gap lies
        # far more than eta below it
        assert [certified for _, certified in proved] == [True, True, False]
        np.testing.assert_allclose([entry for entry, _ in proved], [1.2, 1.1, 0.5])
        want = threshold_by_decomposing(t, family, s0=1.0, kappa0=0.05, kappa_grid=grid)
        assert bits(budget.delta) == bits(want.delta) == bits(want.gaps[0])
        assert bits(budget.gaps[0]) == bits(want.gaps[0])
        assert np.all((budget.gaps[1:] >= 1.0 - max_eta(budget)) & (budget.gaps[1:] < 1.0))

    def test_collapsed_grid_gap_raises_below_eta(self):
        # T's gap 2e-9 passes tau_gap but lies below eta = 5 RECON_TOL ||T||_F ~ 5e-8,
        # so the certificates' floor is GAP_COLLAPSE_TOL ||T||; kappa = 1 closes the gap
        t = SymmetricOperator(np.diag([0.0, 2e-9, 100.0]))
        family = PerturbationFamily([np.diag([0.0, -2e-9, 0.0])])
        assert 2e-9 < 5.0 * RECON_TOL * np.linalg.norm(t.matrix)
        for threshold in (semigroup_threshold, threshold_by_decomposing):
            with pytest.raises(GapCollapsed, match=r"^uniform gap 0\.000e\+00 collapsed on "
                                                   r"the grid$"):
                threshold(t, family, s0=1.0, kappa0=0.1, kappa_grid=[0.5, 1.0, 0.25])
        assert GAP_COLLAPSE_TOL * t.norm < 2e-9

    def test_default_magnetic_experiment_attempts_no_cholesky(self, monkeypatch):
        # no grid-gap certificate at N = 8: the one Cholesky is M1's norm certificate
        from axiscone import schrodinger

        gaps, norms, calls = [], [], []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m) or cholesky(m))
        monkeypatch.setattr(perturbation, "gap_exceeds",
                            lambda *args: gaps.append(args) or gap_exceeds(*args))
        monkeypatch.setattr(schrodinger, "certify_positive_definite",
                            lambda *args: norms.append(certify_positive_definite(*args))
                            or norms[-1])
        run(ExperimentConfig(kind="schrodinger", seed=0, params={}))
        assert gaps == [] and norms == [True] and len(calls) == 1


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
