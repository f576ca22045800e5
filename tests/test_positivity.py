import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from axiscone.cones import (
    AxisCone,
    OrthantCone,
    Region,
    regions,
    sample_in_cone,
    sample_in_cone_rows,
)
from axiscone.errors import (
    AxisNotEigenvector,
    ContractViolation,
    DimensionMismatch,
    NotInCone,
    NotPositiveSemidefinite,
    PrereqFailed,
)
from axiscone import positivity
from axiscone.harness import FLAVORS, generate_instance
from axiscone.operators import SymmetricOperator, gamma, heat_semigroup, top_eigen
from axiscone.positivity import (
    MAX_POWER,
    PRESERVATION_SAMPLES,
    Verdict,
    VerdictStatus,
    ergodic_probe,
    improves_positivity_axis,
    improves_positivity_general,
    perron_frobenius_check,
    preserves_positivity,
)
from axiscone.seeding import derive_seed, rng_for
from axiscone.tolerances import AXIS_TOL, RECON_TOL, TAU_GAP, TAU_STRICT, UNIT_AXIS_TOL
from reference_loops import (
    arc_sweep_margin,
    compressed_restricted_top,
    exactly_positive_definite,
    preserves_by_loop,
    probe_by_loop,
    probe_by_power_loop,
    probe_by_spectrum,
)

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


E3 = np.eye(3)


def window_instance():
    """diag(1, 1 - 1.5 TAU_GAP, 0.5) and its top axis tilted toward e3 to a
    residual of 0.99 AXIS_TOL: lambda_2 < lambda_1 - TAU_GAP <= lambda_2 + r^2/gap,
    so neither restricted_top's bound nor the second eigenvalue decides."""
    sin = 2.0 * 0.99 * AXIS_TOL
    a = SymmetricOperator(np.diag([1.0, 1.0 - 1.5 * TAU_GAP, 0.5]))
    return a, np.array([math.sqrt(1.0 - sin**2), 0.0, sin])


def count_eigh(monkeypatch):
    """Record the matrix of every np.linalg.eigh call from now on."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    return calls


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
        a, u0 = window_instance()
        a.decomposition  # cached, so only the compression reaches eigh below
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], 1.01 * eigh(m)[1]))
        with pytest.raises(ContractViolation, match="orthonormality"):
            improves_positivity_axis(a, u0)

    def test_window_is_decided_by_one_compression_eigh(self, monkeypatch):
        a, u0 = window_instance()
        a.decomposition  # A's own eigh, before the count starts
        calls = count_eigh(monkeypatch)
        verdict = improves_positivity_axis(a, u0)
        assert len(calls) == 1 and calls[0].shape == (2, 2)
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE
        assert verdict.margin == pytest.approx(0.5 * TAU_GAP, rel=1e-6)

    @pytest.mark.parametrize("gap", [3e-10, 5e-10, 9e-10])
    def test_band_margin_with_an_interior_witness_image_is_sampled(self, gap):
        # the margin gap - TAU_GAP is negative, but the boundary ray e1 + e2 maps
        # to (1, 1 - gap, 0), whose membership margin gap/2 clears TAU_MEMBERSHIP
        a = SymmetricOperator(np.diag([1.0, 1.0 - gap, 0.5]))
        verdict = improves_positivity_axis(a, E3[0])
        assert verdict.status is VerdictStatus.SAMPLED_TRUE
        assert verdict.margin == pytest.approx(gap - TAU_GAP, abs=1e-15)
        assert verdict.detail.endswith("margin inside tolerance band")
        assert AxisCone(E3[0]).classify(a.apply(E3[0] + E3[1])) is Region.INTERIOR

    def test_band_edges_stay_certified(self):
        a = SymmetricOperator(np.diag([1.0, 1.0 - 1e-12, 0.5]))
        verdict = improves_positivity_axis(a, E3[0])
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE
        assert AxisCone(E3[0]).classify(a.apply(verdict.witness)) is Region.BOUNDARY
        a = SymmetricOperator(np.diag([1.0, 1.0 - 1.1e-9, 0.5]))
        assert improves_positivity_axis(a, E3[0]).status is VerdictStatus.CERTIFIED_TRUE

    def test_small_top_uses_top_eigens_simplicity_rule(self):
        # gap 5e-10 below TAU_GAP max(1, 0.01): top_eigen calls this top degenerate,
        # so the axis test may not certify it; the witness image e1 + e2 maps to
        # the interior, so the margin reads as inside the band
        a = SymmetricOperator(np.diag([0.01, 0.01 - 5e-10, 0.005]))
        assert not top_eigen(a)[2]
        verdict = improves_positivity_axis(a, E3[0])
        assert verdict.status is VerdictStatus.SAMPLED_TRUE
        assert verdict.margin == pytest.approx(5e-10 - TAU_GAP, abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 8, 16, 32, 64])
    def test_degenerate_tops_match_the_compression_oracle(self, dim, monkeypatch):
        # axes: the checked top eigenvector, the second top column (the first
        # then projects longer onto its complement) and their bisector
        for seed in (0, 7, 303, 2024):
            a = generate_instance("degenerate-top", dim, seed)
            q, lam = a.decomposition.eigenvectors, a.decomposition.max_eigenvalue
            rounding = 2e-15 * dim * max(1.0, lam)
            for u0 in (top_eigen(a)[1], q[:, -2], (q[:, -1] + q[:, -2]) / math.sqrt(2.0)):
                oracle = (lam - compressed_restricted_top(a, u0)
                          - TAU_GAP * max(1.0, abs(lam)))
                with monkeypatch.context() as patch:
                    calls = count_eigh(patch)
                    verdict = improves_positivity_axis(a, u0)
                assert calls == []
                assert verdict.status is VerdictStatus.CERTIFIED_FALSE and oracle <= 0.0
                cone = AxisCone(u0 / np.linalg.norm(u0))
                assert cone.classify(verdict.witness) is Region.BOUNDARY
                assert cone.classify(a.apply(verdict.witness)) is not Region.INTERIOR
                assert verdict.margin >= oracle - rounding

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
        verdict = improves_positivity_general(a, AxisCone(u0))
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE

    def test_dim_one(self):
        assert improves_positivity_general(
            SymmetricOperator([[2.0]]), AxisCone(np.array([-1.0]))
        ).status is VerdictStatus.CERTIFIED_TRUE
        verdict = improves_positivity_general(SymmetricOperator([[0.0]]), AxisCone([1.0]))
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE

    def test_rank_one_projection_onto_the_axis_improves(self):
        u1 = np.array([0.6, 0.8, 0.0])
        a = SymmetricOperator(np.outer(u1, u1))
        verdict = improves_positivity_general(a, AxisCone(u1))
        assert verdict.status is VerdictStatus.CERTIFIED_TRUE
        assert verdict.margin == pytest.approx(1.0)

    def test_boundary_image_is_certified_false(self):
        # A = v v^T with v on the cone boundary maps every cone point to the boundary
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        cone = AxisCone(E1)
        verdict = improves_positivity_general(SymmetricOperator(np.outer(v, v)), cone)
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE
        np.testing.assert_array_equal(verdict.witness, E1)  # A u1 itself is not interior

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_degenerate_top_is_certified_false(self, dim):
        a = psd_with_degenerate_top(dim, seed=dim)
        u0 = a.decomposition.eigenvectors[:, -1]
        cone = AxisCone(u0 / np.linalg.norm(u0))
        verdict = improves_positivity_general(a, cone)
        assert improves_positivity_axis(a, cone.axis).status is VerdictStatus.CERTIFIED_FALSE
        assert verdict.status is VerdictStatus.CERTIFIED_FALSE
        assert cone.classify(verdict.witness) is not Region.OUTSIDE
        assert cone.classify(a.apply(verdict.witness)) is not Region.INTERIOR

    def test_orthant_rejected(self):
        with pytest.raises(TypeError, match="axis cones"):
            improves_positivity_general(SymmetricOperator(np.eye(2)), OrthantCone(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            improves_positivity_general(SymmetricOperator(np.diag([2.0, -1.0])), AxisCone(E1))

    def test_negative_margin_without_a_witness_is_a_contract_violation(self, monkeypatch):
        # shifted down by 2, G = diag(2, -1) reads diag(0, -3): the margin is negative,
        # but A = diag(2, 1) improves the cone, so no witness can replay
        monkeypatch.setattr(positivity, "SymmetricOperator",
                            lambda m: SymmetricOperator(np.asarray(m) - 2.0 * np.eye(len(m))))
        with pytest.raises(ContractViolation, match="witness image is interior"):
            improves_positivity_general(SymmetricOperator(np.diag([2.0, 1.0])), AxisCone(E1))


def closed_form_instance(kind, seed):
    """(A, top eigenvector, drifted unit axis) for the closed-form S-lemma tests.

    kind "pd": eigenvalues in [0.01, 3]; "psd": about a third of them exactly 0;
    "semigroup": exp(-s T) for T with spectrum 0, [0.5, 3] and 1000, s in
    [0.75, 1], so that its smallest eigenvalue underflows to 0.  The axis is
    the top eigenvector for one instance in five, else turned from it by an
    angle in [0, 0.9) towards a random direction.
    """
    rng = rng_for(seed, 77)
    dim = int(rng.integers(2, 17))
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    if kind == "semigroup":
        lam = np.concatenate([[0.0], rng.uniform(0.5, 3.0, dim - 2), [1000.0]])
        a = heat_semigroup(SymmetricOperator((q * lam) @ q.T), rng.uniform(0.75, 1.0))
    else:
        w = rng.uniform(0.01, 3.0, dim)
        if kind == "psd":
            w[rng.random(dim) < 0.3] = 0.0
        a = SymmetricOperator((q * w) @ q.T)
    top = np.array(a.decomposition.eigenvectors[:, -1])
    d = rng.standard_normal(dim)
    d -= (d @ top) * top
    angle = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 0.9)
    axis = math.cos(angle) * top + math.sin(angle) * d / np.linalg.norm(d)
    return a, top, axis / np.linalg.norm(axis)


class TestClosedFormImprovement:
    @pytest.mark.parametrize("kind", ["pd", "psd", "semigroup"])
    def test_verdicts_replay_or_pass_an_independent_cholesky(self, kind):
        statuses = []
        for seed in range(150):
            a, _, axis = closed_form_instance(kind, seed)
            if kind == "semigroup":
                assert a.decomposition.eigenvalues[0] == 0.0  # exp(-s 1000) underflowed
            cone = AxisCone(axis)
            verdict = improves_positivity_general(a, cone)
            statuses.append(verdict.status)
            if verdict.status is VerdictStatus.CERTIFIED_FALSE:
                assert cone.classify(verdict.witness) is not Region.OUTSIDE
                assert cone.classify(a.apply(verdict.witness)) is not Region.INTERIOR
                continue
            assert verdict.status is VerdictStatus.CERTIFIED_TRUE
            # independent of the toolkit's spectra: sqrt(A) and nu from numpy directly
            w, q = np.linalg.eigh(a.matrix)
            root = (q * np.sqrt(np.maximum(w, 0.0))) @ q.T
            j = 2.0 * np.outer(axis, axis) - np.eye(a.dim)
            nu = np.linalg.eigvalsh(root @ j @ root)
            mu = (nu[-1] ** 2 + nu[0] ** 2) / 2.0
            np.linalg.cholesky(a.matrix @ j @ a.matrix - mu * j)  # raises unless positive
            assert cone.classify(a.apply(axis)) is Region.INTERIOR
        # the instances exercise both answers
        assert VerdictStatus.CERTIFIED_TRUE in statuses
        assert VerdictStatus.CERTIFIED_FALSE in statuses

    @pytest.mark.parametrize("kind", ["pd", "psd", "semigroup"])
    def test_top_eigenvector_axis_agrees_with_axis_criterion(self, kind):
        for seed in range(60):
            a, top, _ = closed_form_instance(kind, seed)
            assert (improves_positivity_general(a, AxisCone(top)).status
                    is improves_positivity_axis(a, top).status)

    def test_dim2_sign_agrees_with_arc_sweep(self):
        checked = 0
        for seed in range(300):
            rng = rng_for(seed, 78)
            q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            w = rng.uniform(0.0, 2.0, 2)
            if seed % 3 == 0:
                w[0] = 0.0
            a = SymmetricOperator((q * w) @ q.T)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            axis = np.array([math.cos(theta), math.sin(theta)])
            verdict = improves_positivity_general(a, AxisCone(axis))
            if abs(verdict.margin) <= TAU_STRICT * max(1.0, a.norm):
                continue
            sweep, _ = arc_sweep_margin(a, axis)
            assert (verdict.status is VerdictStatus.CERTIFIED_TRUE) == (sweep > 0.0)
            checked += 1
        assert checked >= 290


class TestErgodicProbe:
    def test_immediate(self):
        result = ergodic_probe(SymmetricOperator(np.diag([2.0, 1.0])), AxisCone(E1), [E1], [E1])
        assert result.found and result.n == 1
        assert result.value == pytest.approx(2.0)

    def test_permutation_orthant(self):
        swap = SymmetricOperator([[0.0, 1.0], [1.0, 0.0]])
        e2 = np.array([0.0, 1.0])
        result = ergodic_probe(swap, OrthantCone(2), [E1], [e2])
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
        result = ergodic_probe(SymmetricOperator(np.diag([2.0, 1.0])), AxisCone(axis), [u], [v])
        assert result.found and result.n == 1
        assert result.value == pytest.approx(expected)
        assert expected == pytest.approx(0.18, abs=0.01)

    def test_degenerate_pair_never_found(self):
        a = SymmetricOperator(np.diag([2.0, 2.0]))
        u = np.array([1.0, 1.0])
        v = np.array([1.0, -1.0])
        result = ergodic_probe(a, AxisCone(E1), [u], [v])
        assert not result.found

    def test_rejects_outside(self):
        with pytest.raises(NotInCone):
            ergodic_probe(SymmetricOperator(np.eye(2)), AxisCone(E1), [-E1], [E1])

    def test_large_powers_renormalize(self):
        a = SymmetricOperator(np.diag([3e4, 1.0]))
        u = np.array([1.0, 1.0]) * 1e-8
        result = ergodic_probe(a, AxisCone(E1), [u], [u])
        assert result.found and result.n == 1

    @pytest.mark.filterwarnings("error")
    def test_squared_norm_overflow_keeps_the_pairing(self):
        # ||A e1||^2 = 1e320 overflows; the pairing <e1, A^2 e1> = 1e320 is positive
        a = SymmetricOperator(1e160 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        result = ergodic_probe(a, OrthantCone(2), [E1], [E1])
        assert result.found and result.n == 2
        assert result.value == math.inf

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_decisions_are_scale_invariant(self, flavor):
        # <u, A^n v> > TAU_STRICT ||u|| ||A^n v|| is homogeneous: A times 2^k, u times 2^i
        # and v times 2^j keep found, n and pair, and move the value by 2^(n k + i + j)
        checked = 0
        for dim in (3, 8, 16):
            base = generate_instance(flavor, dim, seed=dim)
            cone = AxisCone(top_eigen(base)[1])
            w = base.decomposition.eigenvectors[:, -2]
            w = w - (cone.axis @ w) * cone.axis
            w /= np.linalg.norm(w)
            u, v = sample_in_cone(cone, rng_for(dim, 1), 2)
            for pu, pv in ((u, v), (cone.axis + w, cone.axis - w)):
                if regions(cone, np.array([pu, pv])).min() == -1:
                    continue
                want = ergodic_probe(SymmetricOperator(base.matrix), cone, [pu], [pv])
                for k, i, j in itertools.product((-1000, -400, 400, 1000), (-300, 300),
                                                 (-300, 300)):
                    a = SymmetricOperator(np.ldexp(base.matrix, k))
                    got = ergodic_probe(a, cone, [np.ldexp(pu, i)], [np.ldexp(pv, j)])
                    assert (got.found, got.n, got.pair) == (want.found, want.n, want.pair)
                    with np.errstate(over="ignore"):
                        value = np.ldexp(want.value, want.n * k + i + j)
                    if np.isfinite(value) and value != 0.0:
                        assert np.float64(got.value).tobytes() == value.tobytes()
                    checked += 1
        assert checked >= 64

    @pytest.mark.filterwarnings("error")
    def test_product_overflow_keeps_the_pairing(self):
        # A v = (3e308, 3e308) overflows to inf; <u, A v> is still positive
        a = SymmetricOperator(1.5e308 * np.ones((2, 2)))
        result = ergodic_probe(a, OrthantCone(2), [[1.0, 1.0]], [[1.0, 1.0]])
        assert (result.found, result.n, result.value) == (True, 1, math.inf)


def held_probe_pairs(a, seed, pairs):
    """The top-eigenvector cone of a held pf instance, and a block of sampled pairs
    followed by the boundary pair u0 +/- w, w along the second eigenvector."""
    cone = AxisCone(top_eigen(a)[1])
    w = a.decomposition.eigenvectors[:, -2]
    w = w - (cone.axis @ w) * cone.axis
    w /= np.linalg.norm(w)
    rows = sample_in_cone_rows(cone, rng_for(seed, 1), 2 * pairs)
    us, vs = np.vstack([rows[0::2], [cone.axis + w]]), np.vstack([rows[1::2], [cone.axis - w]])
    inside = (regions(cone, us) != -1) & (regions(cone, vs) != -1)
    return cone, us[inside], vs[inside]


HELD_FLAVORS = ("psd-simple", "degenerate-top")


class TestHeldSpectrumProbe:
    """An operator built from its spectrum is probed by powers of the matrix it
    forms, and decides as the pair-by-pair sums over its spectrum do."""

    @pytest.mark.parametrize("flavor", HELD_FLAVORS)
    @pytest.mark.parametrize("dim", [2, 3, 8, 32, 64])
    def test_matches_the_spectral_loop(self, flavor, dim):
        # (found, n, pair) as the spectral loop decides, the value the power loop's bit for bit
        for seed in range(3):
            a = generate_instance(flavor, dim, seed)
            cone, us, vs = held_probe_pairs(a, seed, 20)
            for block_us, block_vs in [(us, vs), (us[-1:], vs[-1:]), (us[:3], vs[:3])]:
                result = ergodic_probe(a, cone, block_us, block_vs)
                expected = probe_by_spectrum(a, block_us, block_vs)
                assert (result.found, result.n, result.pair) == (
                    expected.found, expected.n, expected.pair)
                assert_same_probe(result, probe_by_power_loop(a, block_us, block_vs))

    @pytest.mark.parametrize("flavor", HELD_FLAVORS)
    def test_decisions_match_the_power_loop_on_the_formed_matrix(self, flavor):
        # the held operator keeps its evaluation once its matrix is formed, and a copy
        # built from that matrix decides the same
        checked = 0
        for dim, seed in itertools.product((2, 3, 5, 8, 16, 33, 64), range(2)):
            a = generate_instance(flavor, dim, seed)
            cone, us, vs = held_probe_pairs(a, seed, 10)
            blocks = [(us, vs)] + [([u], [v]) for u, v in zip(us, vs)]
            before = [ergodic_probe(a, cone, block_us, block_vs) for block_us, block_vs in blocks]
            formed = SymmetricOperator(a.matrix)
            assert a.held and not formed.held
            for got, (block_us, block_vs) in zip(before, blocks):
                assert_same_probe(ergodic_probe(a, cone, block_us, block_vs), got)
                assert_same_probe(ergodic_probe(formed, cone, block_us, block_vs), got)
                checked += 1
        assert checked >= 150

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["axis", "tilted", "late-hit", "mixed-block"])
    def test_columns_reaching_only_small_eigenvalues_keep_their_decisions(self, case):
        # v reaches only eigenvalues of at most 2^-10 ||A||, so mu^2n underflows by n = 54
        # while the pairing is still a normal float: the probe must not read that as a hit
        r, tilt = 2 ** -0.5, 1e-200
        w, q, us, vs = {
            "axis": ([2 ** -10, 1.0], np.eye(2), [[1e-11, 1.0]], [E1]),
            "tilted": ([2 ** -10, 1.0], [[1.0, -tilt], [tilt, 1.0]], [[1e-11, 1.0]], [E1]),
            # the pairing's ratio grows like n 1.8e-12 and first passes TAU_STRICT at n = 56
            "late-hit": ([2 ** -10 * (1 - 1.8e-12), 2 ** -10 * (1 + 1.8e-12), 1.0],
                         [[r, r, 0.0], [-r, r, 0.0], [0.0, 0.0, 1.0]],
                         [[0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0]]),
            "mixed-block": ([2 ** -10, 1.0], np.eye(2),
                            [[1.0, 1.0], [1.0, 0.0], [1e-11, 1.0]], [[1.0, 1.0], E1, E1]),
        }[case]
        a = SymmetricOperator.from_spectrum(w, q)
        cone = OrthantCone(a.dim)
        got = ergodic_probe(a, cone, us, vs)
        expected = probe_by_spectrum(a, us, vs)
        assert (got.found, got.n, got.pair) == (expected.found, expected.n, expected.pair)
        assert_same_probe(got, probe_by_power_loop(a, us, vs))
        want = ergodic_probe(SymmetricOperator(a.matrix), cone, us, vs)
        assert (got.found, got.n, got.pair) == (want.found, want.n, want.pair)
        for k in (-3, 3) if len(us) == 1 else ():   # one pair: n is its power
            b = SymmetricOperator.from_spectrum(np.ldexp(w, k), q)
            scaled = ergodic_probe(b, cone, us, vs)
            assert (scaled.found, scaled.n, scaled.pair) == (got.found, got.n, got.pair)
            assert scaled.value == np.ldexp(got.value, got.n * k)

    @pytest.mark.parametrize("flavor", HELD_FLAVORS)
    def test_decisions_are_scale_invariant(self, flavor):
        # w times 2^k, u times 2^i and v times 2^j keep found, n and pair, and move the
        # value by exactly 2^(n k + i + j)
        checked = 0
        for dim in (3, 8, 16):
            base = generate_instance(flavor, dim, seed=dim)
            cone, us, vs = held_probe_pairs(base, dim, 1)
            dec = base.decomposition
            for pu, pv in zip(us, vs):
                want = ergodic_probe(base, cone, [pu], [pv])
                for k, i, j in itertools.product((-1000, -400, 400, 1000), (-300, 300),
                                                 (-300, 300)):
                    a = SymmetricOperator.from_spectrum(np.ldexp(dec.eigenvalues, k),
                                                        dec.eigenvectors)
                    got = ergodic_probe(a, cone, [np.ldexp(pu, i)], [np.ldexp(pv, j)])
                    assert (got.found, got.n, got.pair) == (want.found, want.n, want.pair)
                    with np.errstate(over="ignore"):
                        value = np.ldexp(want.value, want.n * k + i + j)
                    assert np.float64(got.value).tobytes() == value.tobytes()
                    checked += 1
        assert checked >= 64

    @pytest.mark.parametrize("flavor", HELD_FLAVORS)
    def test_a_pf_check_forms_no_matrix_and_decomposes_nothing(self, flavor, monkeypatch):
        a = generate_instance(flavor, 8, seed=1)
        calls = count_eigh(monkeypatch)
        probes = count_probes(monkeypatch)
        report = perron_frobenius_check(a, AxisCone(top_eigen(a)[1]), seed=1)
        assert report.agree and report.ergodic is (flavor == "psd-simple")
        assert report.route == {"psd-simple": "improvement certificate",
                                "degenerate-top": "invariant pair"}[flavor]
        assert a._matrix is None and calls == [] and probes == []
        assert a.held

    @pytest.mark.filterwarnings("error")
    def test_zero_spectrum_pairs_nothing(self):
        a = SymmetricOperator.from_spectrum(np.zeros(2), np.eye(2))
        result = ergodic_probe(a, OrthantCone(2), [E1], [E1])
        assert (result.found, result.n, result.pair) == (False, MAX_POWER, 0)
        assert np.float64(result.value).tobytes() == np.float64(0.0).tobytes()


class TestPerronFrobenius:
    def test_simple_axis_agrees(self):
        report = perron_frobenius_check(
            SymmetricOperator(np.diag([2.0, 1.0])), AxisCone(E1), seed=1
        )
        assert report.agree and report.route == "sampled"
        assert report.eigen_side and report.ergodic

    def test_ones_matrix_orthant(self):
        # 2x2 eigenproblem by hand: top eigenvalue 2 simple, eigenvector
        # (1,1)/sqrt(2) strictly positive, ergodic
        report = perron_frobenius_check(
            SymmetricOperator([[1.0, 1.0], [1.0, 1.0]]), OrthantCone(2), seed=1
        )
        assert report.top_eigenvalue == pytest.approx(2.0)
        assert report.agree and report.eigen_side and report.ergodic
        assert report.route == "sampled"

    def test_degenerate_agrees_on_not_ergodic(self):
        report = perron_frobenius_check(
            SymmetricOperator(np.diag([2.0, 2.0])), AxisCone(E1), seed=1
        )
        assert not report.top_simple
        assert not report.ergodic and report.route == "sampled"
        assert report.agree
        u, v = report.failing_pair
        result = ergodic_probe(
            SymmetricOperator(np.diag([2.0, 2.0])), AxisCone(E1), [u], [v]
        )
        assert not result.found

    def test_adversarial_pair_on_an_axis_along_the_second_top_column(self):
        # the second column projects to 0 on the axis complement: the pair comes
        # from the top column, which projects longer
        a = SymmetricOperator(np.diag([2.0, 2.0, 1.0]))
        cone = AxisCone(np.array(a.decomposition.eigenvectors[:, -2]))
        us, vs = positivity._adversarial_pairs(a, cone)
        assert us.shape == vs.shape == (1, 3)
        assert regions(cone, np.vstack([us, vs])).tolist() == [0, 0]
        assert us[0] @ vs[0] == pytest.approx(0.0, abs=1e-15)
        assert not ergodic_probe(a, cone, us, vs).found

    def test_prereq_failure(self):
        with pytest.raises(PrereqFailed):
            perron_frobenius_check(
                SymmetricOperator(np.diag([1.0, -1.0])), OrthantCone(2)
            )

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_block_sampled_pairs_keep_the_per_row_verdicts(self, monkeypatch, flavor):
        # the sampled route draws its pairs with the block sampler; the per-row sampler's
        # pairs, drawn from the same distribution, give the same verdicts.  The route is
        # driven directly, since certificates decide the held instances' checks before
        # any pair is drawn, and it finds the verdict each check reports
        cases = []
        for dim, seed in itertools.product(range(2, 17), range(4)):
            a = generate_instance(flavor, dim, seed)
            if flavor == "generic":   # PSD, as the check requires
                a = SymmetricOperator(a.matrix @ a.matrix)
            for cone in (AxisCone(top_eigen(a)[1]), OrthantCone(dim)):
                try:
                    report = perron_frobenius_check(a, cone, seed=seed)
                except PrereqFailed:
                    continue
                cases.append((a, cone, seed, report.ergodic))

        def outcomes():
            return [positivity._sampled_ergodicity(a, cone, seed, 40)[0] is None
                    for a, cone, seed, _ in cases]

        block = outcomes()
        assert block == [ergodic for *_, ergodic in cases]
        monkeypatch.setattr(positivity, "sample_in_cone_rows", sample_in_cone)
        assert outcomes() == block
        assert len(block) >= 60


def count_probes(monkeypatch):
    """Record the pair blocks of every ergodic_probe call from now on."""
    calls, probe = [], positivity.ergodic_probe
    monkeypatch.setattr(positivity, "ergodic_probe",
                        lambda a, cone, us, vs: calls.append(len(us)) or probe(a, cone, us, vs))
    return calls


def pf_instances(seed, dims, flavors=HELD_FLAVORS):
    """(flavor, instance, top-eigenvector cone, instance seed) of a pf_verify run's
    first instance per flavor and dim, its seed derived as the runner derives it."""
    for dim, flavor in itertools.product(dims, flavors):
        if flavor == "degenerate-top" and dim < 2:
            continue
        instance_seed = derive_seed(seed, dim, FLAVORS.index(flavor), 0)
        a = generate_instance(flavor, dim, instance_seed)
        yield flavor, a, AxisCone(top_eigen(a)[1]), instance_seed


def exact(x):
    return np.vectorize(Fraction)(np.asarray(x, dtype=float)).astype(object)


class TestErgodicityCertificates:
    """The two proofs of the Perron-Frobenius check's ergodicity side."""

    @pytest.mark.parametrize("seed", [0, 303, 4242])
    def test_each_certificate_agrees_with_the_probe(self, seed):
        # psd-simple: proved improving, and every sampled pair pairs at n = 1;
        # degenerate-top: the invariant pair, which neither probe ever pairs
        decided = 0
        for flavor, a, cone, instance_seed in pf_instances(seed, range(1, 65)):
            improving = positivity._improvement_certified(a, cone)
            pair = positivity._invariant_pair(a, cone)
            failing, pairs = positivity._sampled_ergodicity(a, cone, instance_seed, 20)
            if flavor == "psd-simple":
                assert improving and pair is None and failing is None
                us, vs = positivity._adversarial_pairs(a, cone)
                rows = sample_in_cone_rows(cone, rng_for(instance_seed, 1), 40)
                us, vs = np.vstack([rows[0::2], us]), np.vstack([rows[1::2], vs])
                probe = ergodic_probe(a, cone, us, vs)
                assert probe.found and probe.n == pairs == len(us)   # each at power 1
            else:
                assert pair is not None and not improving and failing is not None
                us, vs = [pair[0]], [pair[1]]
                probe = ergodic_probe(a, cone, us, vs)
                assert not probe.found and probe.n == MAX_POWER
            expected = probe_by_spectrum(a, us, vs)
            assert (expected.found, expected.n, expected.pair) == (probe.found, probe.n,
                                                                   probe.pair)
            decided += 1
        assert decided == 127

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_the_certificate_matrix_is_exactly_positive_definite(self, dim, monkeypatch):
        # the Cholesky's claim, every matrix within error of m positive definite, and
        # the claim it serves: M = A J_b A - mu J_1 of the held A, in rationals
        proved, certify = [], positivity.certify_positive_definite
        monkeypatch.setattr(positivity, "certify_positive_definite",
                            lambda m, error: proved.append((m, error)) or certify(m, error))
        for seed in range(3):
            a = generate_instance("psd-simple", dim, seed)
            cone = AxisCone(top_eigen(a)[1])
            assert positivity._improvement_certified(a, cone)
            m, error = proved[-1]
            assert exactly_positive_definite(m, shift=error)
            dec = a.decomposition
            w = np.ldexp(dec.eigenvalues, -int(np.frexp(dec.max_eigenvalue)[1]))
            mu = Fraction(float(w[-1]) * max(float(w[-2]), float(w[-1]) / 4.0))
            q, axis = exact(dec.eigenvectors), exact(cone.axis)
            held = (q * exact(w)) @ q.T
            outer, eye = np.outer(axis, axis), np.identity(dim, dtype=object) * Fraction(1)
            b = Fraction(1.0 + 5.0 * UNIT_AXIS_TOL)
            s_lemma = held @ (2 * outer - b * eye) @ held - mu * (2 * outer - eye)
            assert exactly_positive_definite(s_lemma)
            # m is within error of D Q^T M Q D, D = 2^-f on the rest, f the exponent of
            # sqrt(mu), and 1 on the top; the Frobenius norm bounds the 2-norm
            d = exact([2.0 ** -int(np.frexp(math.sqrt(mu))[1])] * (dim - 1) + [1.0])
            scaled = np.outer(d, d) * (q.T @ s_lemma @ q)
            assert sum((exact(m) - scaled).ravel() ** 2) <= Fraction(error) ** 2

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_the_invariant_pair_bound_holds_exactly(self, dim, monkeypatch):
        # L = |sum_T y z| + sum_R |y z| <= TAU_STRICT (1 - RECON_TOL) ||u|| ||z_T||, with
        # y and z exact, squared; and the held Q within RECON_TOL of orthonormal
        charges, charge_of = [], positivity._pairing_charge
        monkeypatch.setattr(positivity, "_pairing_charge",
                            lambda *args: charges.append(charge_of(*args)) or charges[-1])
        for seed in range(3):
            a = generate_instance("degenerate-top", dim, seed)
            u, v = positivity._invariant_pair(a, AxisCone(top_eigen(a)[1]))
            w, q = a.decomposition.eigenvalues, exact(a.decomposition.eigenvectors)
            y, z = q.T @ exact(u), q.T @ exact(v)
            top = w == w[-1]
            pairing = abs(sum(y[top] * z[top])) + sum(abs(t) for t in y[~top] * z[~top])
            factor = Fraction(TAU_STRICT) * (1 - Fraction(RECON_TOL))
            assert pairing ** 2 <= factor ** 2 * sum(exact(u) ** 2) * sum(z[top] ** 2)
            defect = q.T @ q - np.identity(dim, dtype=object)
            assert sum(defect.ravel() ** 2) <= Fraction(RECON_TOL) ** 2
            # the componentwise charge: the computed y and z within gamma_n |Q|^T |u| and
            # gamma_n |Q|^T |v|, so that L moves by at most gamma_n (p . |z| + |y| . r +
            # gamma_n p . r), within the charge the certificate computed
            g, held = Fraction(gamma(dim)), a.decomposition.eigenvectors
            fy, fz = held.T @ u, held.T @ v
            p, r = (abs(q).T @ abs(exact(x)) for x in (u, v))
            assert all(abs(y - exact(fy)) <= g * p) and all(abs(z - exact(fz)) <= g * r)
            terms = exact(fy) * exact(fz)
            computed = abs(sum(terms[top])) + sum(abs(terms[~top]))
            shift = g * (p @ abs(exact(fz)) + abs(exact(fy)) @ r + g * (p @ r))
            assert abs(pairing - computed) <= shift
            assert len(charges) == seed + 1
            assert shift <= Fraction(charges[-1])
            fterms = fy * fz
            fpairing = abs(float(fterms[top].sum())) + float(np.abs(fterms[~top]).sum())
            assert pairing <= Fraction(fpairing) + Fraction(charges[-1])

    def test_an_exact_tie_at_dim_2304_is_proved_without_a_matrix(self, monkeypatch):
        # the componentwise charge, 5.0e-12 here, proves the tie where the norm bound's,
        # 2.09e-10, passed the 2.0e-10 threshold and left the pair to the probe
        a = generate_instance("degenerate-top", 2304, 5)
        probes = count_probes(monkeypatch)
        report = perron_frobenius_check(a, AxisCone(top_eigen(a)[1]), seed=5)
        assert report.route == "invariant pair" and report.n_pairs == 1
        assert not report.ergodic and report.agree
        assert a._matrix is None and probes == []

    @pytest.mark.parametrize("second", [0.5, 1e-3, 1e-12, 0.0])
    def test_a_small_second_eigenvalue_keeps_the_certificate(self, second):
        # mu = w_1 max(w_2, w_1 / 4): w_2 -> 0 does not inflate the scaled error
        a = SymmetricOperator.from_spectrum([0.0, second, 1.0], np.eye(3))
        report = perron_frobenius_check(a, AxisCone(np.eye(3)[2]), seed=1)
        assert report.route == "improvement certificate" and report.ergodic and report.agree

    def test_no_invariant_pair_past_a_negative_eigenvalue(self):
        # a tie at 1e-12 beside an eigenvalue -1e-10, which require_psd admits: the pair
        # a +/- e2 of a tilted axis reaches it, and pairs positively at n = 2
        a = SymmetricOperator.from_spectrum([-1e-10, 1e-12, 1e-12], np.eye(3))
        tilt = 1e-6
        cone = AxisCone(np.array([math.sin(tilt), 0.0, math.cos(tilt)]))
        assert positivity._invariant_pair(a, cone) is None
        us, vs = positivity._adversarial_pairs(a, cone)
        assert len(us) == 1 and ergodic_probe(a, cone, us, vs).n == 2

    @pytest.mark.parametrize("case", ["orthant", "axis-not-eigenvector", "near-tie",
                                      "matrix-tie", "zero"])
    def test_the_probe_decides_where_no_certificate_applies(self, case, monkeypatch):
        rotation = np.linalg.qr(rng_for(7, 3).standard_normal((3, 3)))[0]
        a, cone, ergodic = {
            "orthant": (SymmetricOperator.from_spectrum([0.0, 2.0], np.array(
                [[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)), OrthantCone(2), True),
            "axis-not-eigenvector": (SymmetricOperator.from_spectrum([1.0, 2.0], np.eye(2)),
                                     AxisCone(np.array([math.sin(0.1), math.cos(0.1)])), True),
            "near-tie": (SymmetricOperator.from_spectrum([0.5, 1.0 - 1e-12, 1.0], rotation),
                         AxisCone(rotation[:, -1]), False),
            "matrix-tie": (SymmetricOperator(np.diag([2.0, 2.0])), AxisCone(E1), False),
            "zero": (SymmetricOperator(np.zeros((2, 2))), AxisCone(E1), False),
        }[case]
        probes = count_probes(monkeypatch)
        report = perron_frobenius_check(a, cone, seed=3)
        assert report.route == "sampled" and len(probes) == 1
        assert report.n_pairs == probes[0] >= 40
        assert report.ergodic is ergodic and report.agree

    def test_a_held_zero_operator_has_an_invariant_pair(self):
        # tied at 0: no power pairs any vector, which the matrix-built zero shows sampled
        a = SymmetricOperator.from_spectrum(np.zeros(3), np.eye(3))
        report = perron_frobenius_check(a, AxisCone(np.eye(3)[0]), seed=3)
        assert report.route == "invariant pair" and report.n_pairs == 1
        assert not report.ergodic and report.agree
        assert not ergodic_probe(a, AxisCone(np.eye(3)[0]), *map(np.atleast_2d,
                                                                  report.failing_pair)).found


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
        rows = sample_in_cone(cone, rng_for(seed, 9), 50)
        result = ergodic_probe(a, cone, rows[0::2], rows[1::2])
        assert result.found and result.n == 25  # 25 pairs, each found at power 1

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


def test_certified_false_requires_witness():
    with pytest.raises(ValueError):
        Verdict("demo", VerdictStatus.CERTIFIED_FALSE, margin=-1.0)


def generic_on_top_axis(dim, seed):
    g = rng_for(seed, dim).standard_normal((dim, dim))
    a = SymmetricOperator((g + g.T) / 2.0)
    return a, AxisCone(top_eigen(a)[1])


def psd_on_random_axis(dim, seed):
    axis = rng_for(seed, 99).standard_normal(dim)
    return psd_with_simple_top(dim, seed), AxisCone(axis / np.linalg.norm(axis))


def orthant_with_tiny_negative_entry(dim, seed):
    m = np.abs(rng_for(seed, dim).standard_normal((dim, dim)))
    m = (m + m.T) / 2.0
    m[0, 1] = m[1, 0] = -1e-11  # below -ORTHANT_NONNEG_TOL, inside the membership band
    return SymmetricOperator(m), OrthantCone(dim)


def assert_same_probe(result, expected):
    """Equal ProbeResults, the value compared bit for bit (inf and signed zeros included)."""
    assert (result.found, result.n, result.pair) == (expected.found, expected.n, expected.pair)
    assert np.float64(result.value).tobytes() == np.float64(expected.value).tobytes()


PATH4 = np.diag([1.0, 1.0, 1.0], 1) + np.diag([1.0, 1.0, 1.0], -1)  # path graph 0-1-2-3
# scaled by 2^-1, A^n e2 ~ (2^-n 1e-150, (5e-31)^n): its largest entry leaves [1e-100,
# 1e100] at n = 4, inside the block of powers 2-33, and <e1, A^n e2> / ||A^n e2||
# first exceeds TAU_STRICT at n = 5
INSIDE_A_BLOCK = np.array([[1.0, 1e-150], [1e-150, 1e-30]])


class TestBlockVerdictsMatchLoops:
    """The block forms against the per-sample loops they replaced (reference_loops)."""

    INSTANCES = ([generic_on_top_axis(dim, seed) for dim in (3, 8, 16) for seed in range(8)]
                 + [psd_on_random_axis(dim, seed) for dim in (3, 8) for seed in range(4)]
                 + [orthant_with_tiny_negative_entry(dim, seed) for dim in (3, 8)
                    for seed in range(4)])

    def test_preservation_status_witness_and_margin(self):
        statuses = set()
        for index, (a, cone) in enumerate(self.INSTANCES):
            verdict = preserves_positivity(a, cone, seed=index)
            status, row, margin = preserves_by_loop(a, cone, index)
            rows = sample_in_cone(cone, rng_for(index, 0), PRESERVATION_SAMPLES)
            assert verdict.status is status
            np.testing.assert_array_equal(verdict.witness, rows[row])
            assert verdict.margin == pytest.approx(margin, rel=1e-12, abs=1e-15)
            statuses.add((type(cone), status))
        assert statuses == {(AxisCone, VerdictStatus.CERTIFIED_FALSE),
                            (AxisCone, VerdictStatus.SAMPLED_TRUE),
                            (OrthantCone, VerdictStatus.SAMPLED_TRUE)}

    @staticmethod
    def assert_probe_matches_loop(a, cone, us, vs):
        result = ergodic_probe(a, cone, us, vs)
        assert_same_probe(result, probe_by_power_loop(a, us, vs))
        expected = [probe_by_loop(a, u, v) for u, v in zip(us, vs)]
        singles = [ergodic_probe(a, cone, [u], [v]) for u, v in zip(us, vs)]
        assert [single.n for single in singles] == [n for _, n, _ in expected]
        assert [single.found for single in singles] == [found for found, _, _ in expected]
        first = next((i for i, (found, _, _) in enumerate(expected) if not found), None)
        assert result.pair == first and result.found is (first is None)
        stop = len(expected) - 1 if first is None else first
        assert result.n == sum(n for _, n, _ in expected[:stop + 1])
        assert result.value == pytest.approx(expected[stop][2], rel=1e-12)
        return result

    def test_probe_on_sampled_pairs(self):
        for seed in range(6):
            a = psd_with_simple_top(6, seed)
            cone = AxisCone(top_eigen(a)[1])
            rows = sample_in_cone(cone, rng_for(seed, 1), 40)
            assert self.assert_probe_matches_loop(a, cone, rows[0::2], rows[1::2]).found

    def test_probe_block_mixing_found_and_unfound_pairs(self):
        a = psd_with_degenerate_top(5, seed=2)
        cone = AxisCone(top_eigen(a)[1])
        w = a.decomposition.eigenvectors[:, -2]
        w = w - (cone.axis @ w) * cone.axis
        w /= np.linalg.norm(w)
        rows = sample_in_cone(cone, rng_for(2, 1), 12)
        us = np.vstack([rows[0:6:2], [cone.axis + w], rows[6::2], [cone.axis + w]])
        vs = np.vstack([rows[1:6:2], [cone.axis - w], rows[7::2], [cone.axis - w]])
        result = self.assert_probe_matches_loop(a, cone, us, vs)
        assert result.pair == 3 and result.n == 3 + MAX_POWER

    @pytest.mark.parametrize("matrix, pairs, powers", [
        (1e60 * np.array([[0.0, 1.0], [1.0, 0.0]]), [(E1, E1), (E1, [0.0, 1.0])], [2, 1]),
        (1e150 * PATH4, [(np.eye(4)[0], np.eye(4)[0]), (np.eye(4)[0], np.eye(4)[3])], [2, 3]),
        (1e-60 * np.array([[0.0, 1.0], [1.0, 0.0]]), [(E1, E1), ([0.0, 1.0], E1)], [2, 1]),
        (np.diag([1.0, 0.0]), [(E1, E1), (E1, [0.0, 1.0]), (E1, E1)], [1, MAX_POWER, 1]),
        (1e10 * np.eye(2), [([0.0, 1.0], E1), (E1, E1)], [MAX_POWER, 1]),
        (INSIDE_A_BLOCK, [(E1, [0.0, 1.0])], [5]),
    ], ids=["renormalize_up", "rescaled_value_overflows", "renormalize_down", "zero_image",
            "unfound_while_renormalizing", "renormalize_inside_a_block"])
    def test_probe_edge_pairs(self, matrix, pairs, powers):
        us, vs = (np.array([pair[i] for pair in pairs], dtype=float) for i in (0, 1))
        a, cone = SymmetricOperator(matrix), OrthantCone(len(matrix))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow to inf is expected, not warned
            result = self.assert_probe_matches_loop(a, cone, us, vs)
        assert [ergodic_probe(a, cone, [u], [v]).n for u, v in zip(us, vs)] == powers
        if len(matrix) == 4:  # three renormalized powers of 1e150: the value is inf
            assert result.value == math.inf

    def test_a_column_is_rescaled_inside_a_block(self, monkeypatch):
        # the renormalize_inside_a_block case rescales its column once, at power 4
        rescaled, exponents = [], positivity._exponents
        monkeypatch.setattr(positivity, "_exponents", lambda x, axis=None: (
            axis == 0 and rescaled.append(x.copy())) or exponents(x, axis))
        a, cone = SymmetricOperator(INSIDE_A_BLOCK), OrthantCone(2)
        result = ergodic_probe(a, cone, [E1], [[0.0, 1.0]])
        assert result.found and result.n == 5
        assert len(rescaled) == 1 and np.max(np.abs(rescaled[0])) < 1e-100

    @pytest.mark.parametrize("matrix, pair, expected", [
        (1.5e308 * np.ones((2, 2)), ([1.0, 1.0], [1.0, 1.0]), (True, 1, math.inf)),
        # power 1 is 1e40 (1, -1), unpaired, but its largest entry scales to about 4e-261,
        # whose square underflows to 0; power 2 is (2e80, 1e340)
        (np.array([[1e40, -1e40], [-1e40, -1e300]]), ([1.0, 1.0], E1), (True, 2, math.inf)),
        # A v is finite, its norm 3e308 is not
        (1.5e308 * np.eye(4), (np.ones(4), np.ones(4)), (True, 1, math.inf)),
        # A v = 0, with partial sums of +-1.5e308 that would reach inf - inf = nan
        # unscaled: the image vanishes, no power pairs
        (1.5e308 * np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0]),
         (np.eye(4)[0], np.ones(4)), (False, MAX_POWER, 0.0)),
    ], ids=["product_inf", "product_inf_after_a_power", "norm_inf", "product_nan"])
    def test_probe_values_past_the_float_range(self, matrix, pair, expected):
        a, cone = SymmetricOperator(matrix), OrthantCone(len(matrix))
        us, vs = np.array([pair[0]], dtype=float), np.array([pair[1]], dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ergodic_probe(a, cone, us, vs)
            assert_same_probe(result, probe_by_power_loop(a, us, vs))
        assert (result.found, result.n, result.value) == expected

    @pytest.mark.parametrize("scale", [1.0, 1e15, 1e-40])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_probe_on_pf_instances(self, flavor, scale):
        # sampled pairs plus the boundary pair u0 +/- w, w the second eigenvector;
        # scaled operators renormalize every few powers
        for dim, pairs in [(2, 1), (3, 50), (5, 7), (8, 13), (16, 2), (33, 50), (64, 1)]:
            base = generate_instance(flavor, dim, seed=dim)
            a = SymmetricOperator(scale * base.matrix)
            cone = AxisCone(top_eigen(base)[1])
            w = base.decomposition.eigenvectors[:, -2]
            w = w - (cone.axis @ w) * cone.axis
            w /= np.linalg.norm(w)
            rows = sample_in_cone(cone, rng_for(dim, 1), 2 * pairs)
            us = np.vstack([rows[0::2], [cone.axis + w]])
            vs = np.vstack([rows[1::2], [cone.axis - w]])
            inside = (regions(cone, us) != -1) & (regions(cone, vs) != -1)
            us, vs = us[inside], vs[inside]
            assert_same_probe(ergodic_probe(a, cone, us, vs), probe_by_power_loop(a, us, vs))

    FIRST_POWERS = (1, 2, 3, 33, 63, 64, None)   # None: the pair never resolves

    @staticmethod
    def coupled_blocks(dim, offset):
        """Orthant pairs (e_2b, e_2b+1) that first resolve at chosen powers, and the A
        that makes them: block b of A is s_b (I + eps_b X), X the 2 x 2 swap, so
        <e_2b, A^n e_2b+1> / ||A^n e_2b+1|| is about n eps_b, and eps_b = TAU_STRICT /
        (p - 1/2) first passes TAU_STRICT at power p (eps_b = 0: never).  Beside the
        blocks at scale 1, those at 1e-5 and 1e-2 leave [1e-100, 1e100] every 20 and
        50 powers, so their columns are rescaled inside blocks of powers."""
        a, us, vs, firsts = np.zeros((dim, dim)), [], [], []
        for b in range(dim // 2):
            p = TestBlockVerdictsMatchLoops.FIRST_POWERS[(b + offset) % 7]
            eps = 0.0 if p is None else TAU_STRICT / (p - 0.5)
            a[2 * b:2 * b + 2, 2 * b:2 * b + 2] = (1.0, 1e-5, 1e-2)[b % 3] * np.array(
                [[1.0, eps], [eps, 1.0]])
            us.append(np.eye(dim)[2 * b])
            vs.append(np.eye(dim)[2 * b + 1])
            firsts.append(p)
        return SymmetricOperator(a), np.array(us), np.array(vs), firsts

    @pytest.mark.parametrize("dim", [2, 8, 64, 200])
    def test_probe_first_powers_match_the_power_loop(self, dim):
        cone = OrthantCone(dim)
        for offset in range(7) if dim == 2 else (0, 3):
            a, us, vs, firsts = self.coupled_blocks(dim, offset)
            singles = [ergodic_probe(a, cone, [u], [v]) for u, v in zip(us, vs)]
            for single, u, v in zip(singles, us, vs):
                assert_same_probe(single, probe_by_power_loop(a, [u], [v]))
            assert ([(single.found, single.n) for single in singles]
                    == [(p is not None, p or MAX_POWER) for p in firsts])
            # many columns: the coupled pairs alone, and followed by pairs across two
            # blocks (never resolved) and by pairs of one basis vector (power 1)
            cross = np.roll(vs, 1, axis=0) if len(vs) > 1 else vs[:0]
            for block_us, block_vs in [(us, vs), (np.vstack([us, us[:len(cross)], us]),
                                                 np.vstack([vs, cross, us]))]:
                assert_same_probe(ergodic_probe(a, cone, block_us, block_vs),
                                  probe_by_power_loop(a, block_us, block_vs))

    @pytest.mark.parametrize("dim", [2, 5, 16, 40])
    def test_probe_on_orthant_instances(self, dim):
        # a path graph resolves (e0, e_j) at power j, so hits land inside blocks
        path = np.diag(np.ones(dim - 1), 1) + np.diag(np.ones(dim - 1), -1)
        dense = np.abs(rng_for(dim, 7).standard_normal((dim, dim)))
        cone = OrthantCone(dim)
        for matrix in (path, 1e20 * path, (dense + dense.T) / 2.0):
            a = SymmetricOperator(matrix)
            us, vs = positivity._adversarial_pairs(a, cone)
            rows = sample_in_cone(cone, rng_for(dim, 2), 40)
            us = np.vstack([us, np.eye(dim)[:1].repeat(dim, axis=0), rows[0::2]])
            vs = np.vstack([vs, np.eye(dim), rows[1::2]])
            assert_same_probe(ergodic_probe(a, cone, us, vs), probe_by_power_loop(a, us, vs))

    @pytest.mark.parametrize("seed", range(4))
    def test_probe_on_drift_check_rows(self, seed):
        dim = 3 + 4 * seed
        a = psd_with_simple_top(dim, seed)
        u0 = top_eigen(a)[1]
        tilt = rng_for(seed, 5).standard_normal(dim)
        tilt -= (u0 @ tilt) * u0
        u1 = u0 + 0.3 * tilt / np.linalg.norm(tilt)
        cone = AxisCone(u1 / np.linalg.norm(u1))
        rows = sample_in_cone_rows(cone, rng_for(seed, 0), 100)  # as ergodic_drift_check draws them
        us, vs = rows[0::2], rows[1::2]
        assert_same_probe(ergodic_probe(a, cone, us, vs), probe_by_power_loop(a, us, vs))

    @pytest.mark.parametrize("us, vs", [
        ([[0.0, 0.0]], [E1]), ([E1], [[0.0, 0.0]]), ([E1, E1], [E1, -E1]),
    ], ids=["zero_u", "zero_v", "outside_v"])
    def test_probe_requires_nonzero_cone_rows(self, us, vs):
        with pytest.raises(NotInCone):
            ergodic_probe(SymmetricOperator(np.eye(2)), AxisCone(E1), us, vs)

    def test_probe_requires_paired_blocks(self):
        with pytest.raises(ValueError, match="pair"):
            ergodic_probe(SymmetricOperator(np.eye(2)), AxisCone(E1), [E1], [E1, E1])
