import numpy as np
import pytest

from axiscone.cones import AxisCone, OrthantCone, Region
from axiscone.errors import (
    AxisNotEigenvector,
    ContractViolation,
    DimensionMismatch,
    NotInCone,
    NotPositiveSemidefinite,
    PrereqFailed,
)
from axiscone.operators import SymmetricOperator, top_eigen
from axiscone.positivity import (
    Verdict,
    VerdictStatus,
    ergodic_probe,
    improves_positivity_axis,
    improves_positivity_general,
    perron_frobenius_check,
    preserves_positivity,
)
from axiscone.seeding import rng_for

E1 = np.array([1.0, 0.0])


def psd_with_simple_top(dim, seed, gap=0.5):
    rng = rng_for(seed, dim)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigs = np.sort(rng.uniform(0.1, 1.0, size=dim))
    eigs[-1] = eigs[-2] + gap
    return SymmetricOperator((q * eigs) @ q.T)


def psd_with_degenerate_top(dim, seed):
    rng = rng_for(seed, dim)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigs = np.sort(rng.uniform(0.1, 0.8, size=dim))
    eigs[-1] = 1.0
    eigs[-2] = 1.0
    return SymmetricOperator((q * eigs) @ q.T)


class TestPreserves:
    def test_axis_certificate(self):
        verdict = preserves_positivity(SymmetricOperator(np.diag([2.0, 1.0])), AxisCone(E1))
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE

    def test_orthant_negative_entry(self):
        a = SymmetricOperator([[1.0, -0.5], [-0.5, 1.0]])
        verdict = preserves_positivity(a, OrthantCone(2))
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE
        np.testing.assert_array_equal(verdict.witness, [0.0, 1.0])
        image = a.apply(verdict.witness)
        assert OrthantCone(2).classify(image) is Region.OUTSIDE

    def test_identity_everywhere(self):
        eye = SymmetricOperator(np.eye(3))
        axis = np.array([1.0, 0.0, 0.0])
        assert preserves_positivity(eye, AxisCone(axis)).status is VerdictStatus.CERTIFIED_TRUE
        assert preserves_positivity(eye, OrthantCone(3)).status is VerdictStatus.CERTIFIED_TRUE

    def test_identity_any_axis(self):
        axis = np.array([3.0, 4.0]) / 5.0
        verdict = preserves_positivity(SymmetricOperator(np.eye(2)), AxisCone(axis))
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE

    def test_misaligned_axis_falls_back_to_sampling(self):
        a = SymmetricOperator(np.diag([2.0, 1.0]))
        verdict = preserves_positivity(a, AxisCone(np.array([0.0, 1.0])), seed=5)
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE
        assert AxisCone(np.array([0.0, 1.0])).classify(a.apply(verdict.witness)) is Region.OUTSIDE

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            preserves_positivity(SymmetricOperator(np.eye(3)), OrthantCone(2))


class TestImprovesAxis:
    def test_simple_top(self):
        verdict = improves_positivity_axis(SymmetricOperator(np.diag([2.0, 1.0])), E1)
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE

    def test_degenerate_top_witness(self):
        a = SymmetricOperator(np.diag([2.0, 2.0, 1.0]))
        u0 = np.array([1.0, 0.0, 0.0])
        verdict = improves_positivity_axis(a, u0)
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE
        cone = AxisCone(u0)
        assert cone.classify(verdict.witness) is Region.BOUNDARY
        image = a.apply(verdict.witness)
        assert cone.classify(image) is Region.BOUNDARY
        np.testing.assert_allclose(np.abs(verdict.witness), [1.0, 1.0, 0.0], atol=1e-12)

    def test_witness_eigendecomposition_is_checked(self, monkeypatch):
        a = SymmetricOperator(np.diag([2.0, 2.0, 1.0]))
        a.decomposition  # cached, so only the witness block reaches eigh below
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], 1.01 * eigh(m)[1]))
        with pytest.raises(ContractViolation, match="orthonormality"):
            improves_positivity_axis(a, np.array([1.0, 0.0, 0.0]))

    def test_dim_one_vacuous(self):
        verdict = improves_positivity_axis(SymmetricOperator([[3.0]]), np.array([1.0]))
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE

    def test_rejects_wrong_axis(self):
        with pytest.raises(AxisNotEigenvector):
            improves_positivity_axis(SymmetricOperator(np.diag([2.0, 1.0])), np.array([0.0, 1.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            improves_positivity_axis(SymmetricOperator(np.diag([2.0, -1.0])), E1)


class TestImprovesGeneral:
    def test_dim2_sweep_true(self):
        verdict = improves_positivity_general(
            SymmetricOperator(np.diag([2.0, 1.0])), AxisCone(E1)
        )
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE

    def test_dim2_sweep_false_on_orthogonal_axis(self):
        cone = AxisCone(np.array([0.0, 1.0]))
        a = SymmetricOperator(np.diag([2.0, 1.0]))
        verdict = improves_positivity_general(a, cone)
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE
        assert cone.classify(a.apply(verdict.witness)) is not Region.INTERIOR

    def test_zero_operator(self):
        verdict = improves_positivity_general(
            SymmetricOperator(np.zeros((2, 2))), AxisCone(E1)
        )
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE

    def test_matches_axis_criterion_in_dim3(self):
        a = psd_with_simple_top(3, seed=31)
        _, u0, _ = top_eigen(a)
        assert improves_positivity_axis(a, u0).status is VerdictStatus.CERTIFIED_TRUE
        verdict = improves_positivity_general(a, AxisCone(u0), seed=2)
        assert verdict.status is VerdictStatus.SAMPLED_TRUE


class TestErgodicProbe:
    def test_immediate(self):
        result = ergodic_probe(SymmetricOperator(np.diag([2.0, 1.0])), AxisCone(E1), E1, E1)
        assert result.found and result.n == 1
        assert result.value == pytest.approx(2.0)

    def test_permutation_orthant(self):
        swap = SymmetricOperator([[0.0, 1.0], [1.0, 0.0]])
        e2 = np.array([0.0, 1.0])
        result = ergodic_probe(swap, OrthantCone(2), E1, e2)
        assert result.found and result.n == 1
        assert result.value == pytest.approx(1.0)

    def test_boundary_rays_of_drifted_axis(self):
        # axis at angle 0.6; boundary rays at 0.6 +/- pi/4; n = 1 value from
        # explicit 2x2 arithmetic with A^n = diag(2^n, 1)
        theta = 0.6
        axis = np.array([np.cos(theta), np.sin(theta)])
        u = np.array([np.cos(theta + np.pi / 4), np.sin(theta + np.pi / 4)])
        v = np.array([np.cos(theta - np.pi / 4), np.sin(theta - np.pi / 4)])
        expected = 2.0 * u[0] * v[0] + u[1] * v[1]
        result = ergodic_probe(SymmetricOperator(np.diag([2.0, 1.0])), AxisCone(axis), u, v)
        assert result.found and result.n == 1
        assert result.value == pytest.approx(expected)
        assert expected == pytest.approx(0.18, abs=0.01)

    def test_degenerate_pair_never_found(self):
        a = SymmetricOperator(np.diag([2.0, 2.0]))
        u = np.array([1.0, 1.0])
        v = np.array([1.0, -1.0])
        result = ergodic_probe(a, AxisCone(E1), u, v)
        assert not result.found

    def test_rejects_outside(self):
        with pytest.raises(NotInCone):
            ergodic_probe(SymmetricOperator(np.eye(2)), AxisCone(E1), -E1, E1)

    def test_large_powers_renormalize(self):
        a = SymmetricOperator(np.diag([3e4, 1.0]))
        u = np.array([1.0, 1.0]) * 1e-8
        result = ergodic_probe(a, AxisCone(E1), u, u)
        assert result.found and result.n == 1


class TestPerronFrobenius:
    def test_simple_axis_agrees(self):
        report = perron_frobenius_check(
            SymmetricOperator(np.diag([2.0, 1.0])), AxisCone(E1), seed=1
        )
        assert report.agree
        assert report.eigen_side and report.ergodic_sampled

    def test_ones_matrix_orthant(self):
        # 2x2 eigenproblem by hand: top eigenvalue 2 simple, eigenvector
        # (1,1)/sqrt(2) strictly positive, ergodic
        report = perron_frobenius_check(
            SymmetricOperator([[1.0, 1.0], [1.0, 1.0]]), OrthantCone(2), seed=1
        )
        assert report.top_eigenvalue == pytest.approx(2.0)
        assert report.agree and report.eigen_side and report.ergodic_sampled

    def test_degenerate_agrees_on_not_ergodic(self):
        report = perron_frobenius_check(
            SymmetricOperator(np.diag([2.0, 2.0])), AxisCone(E1), seed=1
        )
        assert not report.top_simple
        assert not report.ergodic_sampled
        assert report.agree
        u, v = report.failing_pair
        result = ergodic_probe(
            SymmetricOperator(np.diag([2.0, 2.0])), AxisCone(E1), u, v
        )
        assert not result.found

    def test_prereq_failure(self):
        with pytest.raises(PrereqFailed):
            perron_frobenius_check(
                SymmetricOperator(np.diag([1.0, -1.0])), OrthantCone(2)
            )


class TestInvariants:
    @pytest.mark.parametrize("seed", range(30))
    def test_axis_verdict_tracks_simplicity(self, seed):
        dim = 3 + seed % 5
        simple_op = psd_with_simple_top(dim, seed)
        _, u0, _ = top_eigen(simple_op)
        assert improves_positivity_axis(simple_op, u0).status is VerdictStatus.CERTIFIED_TRUE

        degenerate_op = psd_with_degenerate_top(dim, seed)
        _, u0, _ = top_eigen(degenerate_op)
        verdict = improves_positivity_axis(degenerate_op, u0)
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE
        cone = AxisCone(u0)
        assert cone.classify(degenerate_op.apply(verdict.witness)) is not Region.INTERIOR

    @pytest.mark.parametrize("seed", [3, 4])
    def test_improving_implies_ergodic_at_one(self, seed):
        a = psd_with_simple_top(4, seed)
        _, u0, _ = top_eigen(a)
        cone = AxisCone(u0)
        assert improves_positivity_axis(a, u0).status is VerdictStatus.CERTIFIED_TRUE
        rng = rng_for(seed, 9)
        from axiscone.cones import sample_in_cone

        for _ in range(25):
            u = sample_in_cone(cone, rng)
            v = sample_in_cone(cone, rng)
            result = ergodic_probe(a, cone, u, v)
            assert result.found and result.n == 1

    @pytest.mark.parametrize("factor", [0.5, 3.0])
    def test_scaling_invariance(self, factor):
        base = SymmetricOperator(np.diag([2.0, 1.0]))
        scaled = factor * base
        for cone in (AxisCone(E1), AxisCone(np.array([0.0, 1.0]))):
            assert (
                improves_positivity_general(base, cone).status
                is improves_positivity_general(scaled, cone).status
            )
        assert (
            preserves_positivity(base, OrthantCone(2)).status
            is preserves_positivity(scaled, OrthantCone(2)).status
        )
        assert (
            improves_positivity_axis(base, E1).status
            is improves_positivity_axis(scaled, E1).status
        )


def test_verdict_csv_row():
    verdict = Verdict(
        "demo", VerdictStatus.CERTIFIED_FALSE, margin=-0.5,
        witness=np.array([1.0, -1.0]), seed=7,
    )
    row = verdict.csv_row()
    assert row[0] == "demo"
    assert row[1] == "CertifiedFalse"
    assert row[3] == "1 -1"
    assert row[4] == "7"


def test_certified_false_requires_witness():
    with pytest.raises(ValueError):
        Verdict("demo", VerdictStatus.CERTIFIED_FALSE, margin=-1.0)
