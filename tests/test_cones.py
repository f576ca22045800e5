import numpy as np
import pytest

from axiscone import cones
from axiscone.cones import (
    AxisCone,
    MoreauSplit,
    OrthantCone,
    Region,
    boundary_orthogonal_partner,
    cone_check,
    duality_witness,
    moreau_check,
    moreau_decompose,
    pair_check,
    partner_check,
    perp_rows,
    project_rows,
    regions,
    sample_in_cone,
    sample_in_cone_rows,
    sample_outside,
    selfduality_probe,
    witness_check,
)
from axiscone.errors import NotBoundary, NotOutside
from axiscone.seeding import rng_for
from reference_loops import one_vector_sample

E1 = np.array([1.0, 0.0])


def axis_cone_2d():
    return AxisCone(E1)


class TestClassify:
    def test_boundary_equality(self):
        assert axis_cone_2d().classify([1.0, 1.0]) is Region.BOUNDARY

    def test_interior_margin(self):
        cone = axis_cone_2d()
        u = np.array([2.0, 1.0])
        margin = cone.margin(u)
        assert margin == pytest.approx(2.0 - np.sqrt(5.0) / np.sqrt(2.0))
        assert margin == pytest.approx(0.4188611699158102)
        assert cone.classify(u) is Region.INTERIOR

    def test_outside(self):
        assert axis_cone_2d().classify([0.0, 1.0]) is Region.OUTSIDE

    def test_zero_vector_is_boundary(self):
        assert axis_cone_2d().classify([0.0, 0.0]) is Region.BOUNDARY
        assert OrthantCone(3).classify([0.0, 0.0, 0.0]) is Region.BOUNDARY

    def test_orthant_zero_entry(self):
        assert OrthantCone(3).classify([1.0, 0.0, 2.0]) is Region.BOUNDARY

    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            AxisCone(np.array([1.0, 1.0]))


class TestStrictlyPositive:
    def test_axis_is_interior(self):
        assert axis_cone_2d().is_strictly_positive(E1)

    def test_boundary_is_not(self):
        assert not axis_cone_2d().is_strictly_positive(np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_orthant(self):
        assert OrthantCone(2).is_strictly_positive([0.1, 0.2])
        assert not OrthantCone(2).is_strictly_positive([0.1, 0.0])


class TestMoreau:
    def test_closed_form_split(self):
        split = moreau_decompose(axis_cone_2d(), [[0.0, 1.0]])
        np.testing.assert_allclose(split.u, [[0.5, 0.5]], atol=1e-15)
        np.testing.assert_allclose(split.v, [[0.5, -0.5]], atol=1e-15)
        assert abs(split.u[0] @ split.v[0]) <= 1e-15

    def test_inside_fixed_point(self):
        split = moreau_decompose(axis_cone_2d(), [[3.0, 1.0]])
        np.testing.assert_allclose(split.u, [[3.0, 1.0]])
        np.testing.assert_allclose(split.v, [[0.0, 0.0]])

    def test_orthant_sign_split(self):
        split = moreau_decompose(OrthantCone(3), [[1.0, -2.0, 0.0]])
        np.testing.assert_array_equal(split.u, [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(split.v, [[0.0, 2.0, 0.0]])

    def test_collinear_branches(self):
        cone = axis_cone_2d()
        np.testing.assert_allclose(cone.project(2.0 * E1), 2.0 * E1)
        np.testing.assert_array_equal(cone.project(-2.0 * E1), np.zeros(2))

    @pytest.mark.parametrize("dim", [2, 3, 7, 12])
    def test_split_properties_seeded(self, dim):
        rng = rng_for(100, dim)
        axis = rng.standard_normal(dim)
        axis /= np.linalg.norm(axis)
        for cone in (AxisCone(axis), OrthantCone(dim)):
            ws = np.array([rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
                           for _ in range(200)])
            split = moreau_decompose(cone, ws)
            for w, u, v, residual in zip(ws, split.u, split.v, split.residual):
                norm_w = np.linalg.norm(w)
                assert residual <= 1e-10 * norm_w
                scale = max(1.0, np.linalg.norm(u) * np.linalg.norm(v))
                assert abs(u @ v) <= 1e-10 * scale
                assert cone.classify(u) is not Region.OUTSIDE
                assert cone.classify(v) is not Region.OUTSIDE

    @pytest.mark.parametrize("dim", [2, 5])
    def test_projection_is_nearest_point(self, dim):
        rng = rng_for(101, dim)
        axis = rng.standard_normal(dim)
        axis /= np.linalg.norm(axis)
        cone = AxisCone(axis)
        for _ in range(50):
            w = rng.standard_normal(dim) * 3.0
            u = cone.project(w)
            d_proj = np.linalg.norm(w - u)
            for p in sample_in_cone(cone, rng, 40):
                assert d_proj <= np.linalg.norm(w - p) + 1e-9


class TestDualityWitness:
    def test_antipodal(self):
        v = duality_witness(axis_cone_2d(), [-E1])[0]
        np.testing.assert_array_equal(v, E1)
        assert (-E1) @ v == pytest.approx(-1.0)

    def test_right_angle_point(self):
        u = np.array([0.0, 1.0])
        v = duality_witness(axis_cone_2d(), [u])[0]
        np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-15)
        assert u @ v == pytest.approx(-1.0)
        assert axis_cone_2d().classify(v) is Region.BOUNDARY

    def test_slanted_point(self):
        u = np.array([1.0, 2.0])
        v = duality_witness(axis_cone_2d(), [u])[0]
        np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-15)
        assert u @ v == pytest.approx(-1.0)

    def test_requires_outside(self):
        with pytest.raises(NotOutside):
            duality_witness(axis_cone_2d(), [2.0 * E1])

    def test_orthant_negative_part(self):
        u = np.array([1.0, -2.0, 0.5])
        v = duality_witness(OrthantCone(3), [u])[0]
        np.testing.assert_array_equal(v, [0.0, 2.0, 0.0])
        assert u @ v < 0

    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_seeded_outside_points(self, dim):
        rng = rng_for(55, dim)
        axis = rng.standard_normal(dim)
        axis /= np.linalg.norm(axis)
        cone = AxisCone(axis)
        us = sample_outside(cone, rng, 100)
        for u, v in zip(us, duality_witness(cone, us)):
            assert cone.classify(v) is not Region.OUTSIDE
            assert u @ v < 0


class TestBoundaryPartner:
    def test_reflection(self):
        partner = boundary_orthogonal_partner(axis_cone_2d(), np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(partner, [[1.0, -1.0]], atol=1e-15)

    def test_three_dim(self):
        cone = AxisCone(np.array([1.0, 0.0, 0.0]))
        partner = boundary_orthogonal_partner(cone, np.array([[1.0, 0.0, 1.0]]))
        np.testing.assert_allclose(partner, [[1.0, 0.0, -1.0]], atol=1e-15)

    def test_seeded_dim7(self):
        rng = rng_for(7, 7)
        axis = rng.standard_normal(7)
        axis /= np.linalg.norm(axis)
        cone = AxisCone(axis)
        g = rng.standard_normal(7)
        g -= (axis @ g) * axis
        u = axis + g / np.linalg.norm(g)  # boundary ray
        partner = boundary_orthogonal_partner(cone, [u])[0]
        assert abs(partner @ u) <= 1e-12 * np.linalg.norm(u) ** 2
        assert np.linalg.norm(partner) == pytest.approx(np.linalg.norm(u), rel=1e-9)
        assert cone.classify(partner) is Region.BOUNDARY

    def test_involution(self):
        cone = axis_cone_2d()
        u = np.array([[1.0, -1.0]])
        twice = boundary_orthogonal_partner(
            cone, boundary_orthogonal_partner(cone, u)
        )
        np.testing.assert_allclose(twice, u, atol=1e-12)

    def test_requires_boundary(self):
        with pytest.raises(NotBoundary):
            boundary_orthogonal_partner(axis_cone_2d(), np.array([[2.0, 0.5]]))
        with pytest.raises(NotBoundary):
            boundary_orthogonal_partner(axis_cone_2d(), np.zeros((1, 2)))


class TestSelfDuality:
    def test_axis_cone_probe(self):
        report = selfduality_probe(AxisCone(E1), n_samples=1000, seed=42)
        assert report.ok
        assert report.worst_pair_inner >= -1e-12
        assert report.worst_witness_inner < 0

    def test_orthant_probe(self):
        report = selfduality_probe(OrthantCone(4), n_samples=1000, seed=42)
        assert report.ok

    def test_exhaustive_angle_sweep(self):
        # dim-2 sweep in 1-degree steps: in-cone pairs have nonnegative inner
        # product, with equality exactly at the full 90-degree spread
        cone = axis_cone_2d()
        angles = np.radians(np.arange(-45.0, 45.0 + 0.5, 1.0))
        rays = np.vstack([np.cos(angles), np.sin(angles)])
        gram = rays.T @ rays
        assert gram.min() >= -1e-12
        assert gram.min() == pytest.approx(0.0, abs=1e-12)

    def test_dim1_sampling_respects_axis_sign(self):
        cone = AxisCone(np.array([-1.0]))
        rng = rng_for(0, 0)
        for u in sample_in_cone(cone, rng, 20):
            assert cone.classify(u) is not Region.OUTSIDE

    def test_cone_axioms_sampled(self):
        rng = rng_for(9, 0)
        for cone in (AxisCone(E1), OrthantCone(2)):
            rows = sample_in_cone(cone, rng, 400)
            for u, v, t in zip(rows[0::2], rows[1::2], rng.uniform(0.0, 5.0, 200)):
                assert cone.classify(u + v) is not Region.OUTSIDE
                if np.linalg.norm(t * u) > 0:
                    assert cone.classify(t * u) is not Region.OUTSIDE


class TestConeCheck:
    def test_counts_violations_and_worst(self, monkeypatch):
        monkeypatch.setattr(cones, "BLOCK_FLOATS", 4)  # two rows per block at dim 2
        blocks = iter([np.array([0.5, -1.0]), np.array([2.0])])

        def check(cone, rng, k):
            defects = next(blocks)
            assert defects.size == k
            return defects, defects < 1.0

        assert cone_check(axis_cone_2d(), check, rng_for(0, 0), 3) == (2.0, 1)

    def test_witness_check_requires_witness_in_cone(self, monkeypatch):
        cone = axis_cone_2d()
        assert witness_check(cone, rng_for(4, 0), 5)[1].all()
        # <u, v> < 0 alone is not enough: v = -e2 is outside the cone
        monkeypatch.setattr(cones, "sample_outside",
                            lambda cone, rng, k: np.array([[0.0, 1.0]]))
        monkeypatch.setattr(cones, "duality_witness",
                            lambda cone, u: np.array([[0.0, -1.0]]))
        defects, ok = witness_check(cone, rng_for(4, 0), 1)
        assert defects.tolist() == [-1.0] and ok.tolist() == [False]

    @pytest.mark.parametrize("dim, count", [(200, 1001), (200, 17), (8, 5000), (9000, 3)])
    def test_block_edges_count_every_row_once(self, dim, count):
        rng = rng_for(12, dim)
        axis = rng.standard_normal(dim)
        cone = AxisCone(axis / np.linalg.norm(axis))
        sizes = []

        def failing_partner_check(cone, rng, k):
            sizes.append(k)
            defects, ok = partner_check(cone, rng, k)
            assert ok.all()
            return defects, np.zeros(k, dtype=bool)

        worst, violations = cone_check(cone, failing_partner_check, rng, count)
        block = max(1, cones.BLOCK_FLOATS // dim)
        assert violations == count == sum(sizes)
        assert sizes == [block] * (count // block) + [count % block] * (count % block > 0)
        assert 0.0 <= worst <= 1e-10

    @pytest.mark.parametrize("check", [pair_check, witness_check, moreau_check, partner_check])
    def test_checks_pass_and_repeat_for_a_seed(self, check):
        cone = AxisCone(np.array([0.6, 0.0, 0.8]))
        first = cone_check(cone, check, rng_for(3, 0), 300)
        assert first[1] == 0
        assert cone_check(cone, check, rng_for(3, 0), 300) == first

    def test_dim1_axis_self_duality(self):
        report = selfduality_probe(AxisCone(np.array([-1.0])), n_samples=200, seed=1)
        assert report.ok
        inside = sample_in_cone_rows(AxisCone(np.array([-1.0])), rng_for(0, 0), 20)
        assert (inside < 0.0).all()

    def test_perp_rows_rejects_dim_one(self):
        with pytest.raises(ValueError, match="1-dim"):
            perp_rows(np.array([1.0]), rng_for(0, 0), 4)

    def test_perp_rows_redraws_rows_on_the_axis(self):
        class AxisFirst:
            """Generator whose first draw puts rows 0 and 2 on the axis e1."""

            def __init__(self):
                self.rng, self.first = rng_for(0, 0), True

            def standard_normal(self, shape):
                if self.first:
                    self.first = False
                    return np.array([[2.0, 0.0], [0.5, 0.3], [-1.0, 0.0]])
                return self.rng.standard_normal(shape)

        w = perp_rows(E1, AxisFirst(), 3)
        np.testing.assert_allclose(np.abs(w), np.tile([0.0, 1.0], (3, 1)), atol=1e-15)

    def test_sample_outside_falls_back(self):
        rng = rng_for(0, 0)
        np.testing.assert_array_equal(sample_outside(axis_cone_2d(), rng, 2, max_tries=0),
                                      [-E1, -E1])
        np.testing.assert_array_equal(sample_outside(OrthantCone(2), rng, 1, max_tries=0),
                                      [[-1.0, -1.0]])

    def test_rows_must_be_finite_2d(self):
        with pytest.raises(ValueError, match="block"):
            moreau_decompose(axis_cone_2d(), [1.0, 0.0])
        with pytest.raises(ValueError, match="finite rows"):
            duality_witness(axis_cone_2d(), [[np.nan, 1.0]])

    def test_classify_is_shared_and_defined_per_class(self):
        assert "classify" in vars(AxisCone) and "classify" in vars(OrthantCone)
        assert AxisCone.classify is OrthantCone.classify


REGION_CODE = {Region.OUTSIDE: -1, Region.BOUNDARY: 0, Region.INTERIOR: 1}


def scalar_witness(cone, u):
    """Per-vector duality witness, the reference for the row form."""
    if isinstance(cone, OrthantCone):
        return np.maximum(-u, 0.0)
    s = cone.axis @ u
    if s < 0.0:
        return cone.axis
    perp = u - s * cone.axis
    return cone.axis - perp / np.linalg.norm(perp)


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_row_primitives_match_scalar_primitives(dim):
    rng = rng_for(202, dim)
    axis = rng.standard_normal(dim)
    for cone in (AxisCone(axis / np.linalg.norm(axis)), OrthantCone(dim)):
        inside = sample_in_cone_rows(cone, rng, 100)
        rows = np.vstack([rng.standard_normal((200, dim)) * rng.uniform(0.1, 10.0, (200, 1)),
                          inside, -inside, np.zeros((1, dim)),
                          sample_outside(cone, rng, 50)])
        codes = regions(cone, rows)
        assert codes.tolist() == [REGION_CODE[cone.classify(r)] for r in rows]
        assert {-1, 0, 1} <= set(codes.tolist())

        def close(batch, scalar, scale):
            assert np.linalg.norm(batch - scalar) <= 1e-14 * scale

        split = moreau_decompose(cone, rows)
        for w, p, u, v in zip(rows, project_rows(cone, rows), split.u, split.v):
            scale = np.linalg.norm(w)
            close(p, cone.project(w), scale)
            close(u, cone.project(w), scale)
            close(v, cone.project(-w), scale)
        outside = rows[codes == -1]
        for u, v in zip(outside, duality_witness(cone, outside)):
            close(v, scalar_witness(cone, u), 1.0)
        if isinstance(cone, AxisCone):
            boundary = rows[(codes == 0) & rows.any(axis=1)]
            assert len(boundary) > 0
            for u, p in zip(boundary, boundary_orthogonal_partner(cone, boundary)):
                close(p, 2.0 * (cone.axis @ u) * cone.axis - u, np.linalg.norm(u))


def test_moreau_split_type():
    split = moreau_decompose(OrthantCone(2), [[1.0, -1.0]])
    assert isinstance(split, MoreauSplit)
    assert split.residual.tolist() == [0.0]


def assert_one_vector_stream(cone, block, rng, exact):
    """Rows of `block` against the one-vector sampler drawing from `rng`.

    Exact when nothing is projected; otherwise the two projections (row sums
    against a BLAS dot) differ by rounding: at most about (n + 2) eps ||g||
    in the complement, amplified by ||g|| / ||g_perp|| and scales below 2.
    """
    rows, growth = zip(*(one_vector_sample(cone, rng) for _ in range(len(block))))
    if exact:
        np.testing.assert_array_equal(block, np.vstack(rows))
        return
    bound = 4.0 * (cone.dim + 2) * np.finfo(float).eps * np.array(growth)
    assert np.all(np.abs(block - np.vstack(rows)) <= bound[:, None])


def random_axis_cone(dim):
    axis = rng_for(23, dim).standard_normal(dim)
    return AxisCone(axis / np.linalg.norm(axis))


class OnAxisFirst:
    """Generator double whose first normal row lies on the axis; its state counts normals."""

    def __init__(self, axis, seed):
        self.rng, self.axis, self.normals = rng_for(seed, 0), axis, 0
        self.bit_generator = self

    @property
    def state(self):
        return self.normals, self.rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.normals, self.rng.bit_generator.state = value

    def standard_normal(self, size):
        self.normals += 1
        row = self.rng.standard_normal(size)
        return 3.0 * self.axis if self.normals == 1 else row

    def random(self, size=None):
        return self.rng.random(size)

    def uniform(self, low, high):
        return self.rng.uniform(low, high)


SAMPLED_CONES = [random_axis_cone(dim) for dim in (1, 2, 8, 64)] + [
    OrthantCone(dim) for dim in (1, 2, 8)]
SAMPLED_IDS = ["axis1", "axis2", "axis8", "axis64", "orthant1", "orthant2", "orthant8"]


class TestSampleInCone:
    @pytest.mark.parametrize("cone", SAMPLED_CONES, ids=SAMPLED_IDS)
    def test_block_is_one_row_blocks_in_turn(self, cone):
        block_rng, row_rng = rng_for(5, cone.dim), rng_for(5, cone.dim)
        block = sample_in_cone(cone, block_rng, 37)
        rows = np.vstack([sample_in_cone(cone, row_rng, 1) for _ in range(37)])
        np.testing.assert_array_equal(block, rows)
        assert block_rng.bit_generator.state == row_rng.bit_generator.state
        split = np.vstack([sample_in_cone(cone, row_rng, k) for k in (5, 1, 31)])
        np.testing.assert_array_equal(split, sample_in_cone(cone, block_rng, 37))

    @pytest.mark.parametrize("cone", SAMPLED_CONES, ids=SAMPLED_IDS)
    def test_rows_follow_the_one_vector_stream(self, cone):
        block_rng, ref_rng = rng_for(6, cone.dim), rng_for(6, cone.dim)
        block = sample_in_cone(cone, block_rng, 200)
        assert_one_vector_stream(cone, block, ref_rng, exact=isinstance(cone, OrthantCone))
        assert block_rng.bit_generator.state == ref_rng.bit_generator.state
        assert not np.any(regions(cone, block) == -1) and np.all(block.any(axis=1))
        assert {0, 1} <= set(regions(cone, block).tolist()) or cone.dim == 1

    def test_row_on_the_axis_replays_the_block_with_a_redraw(self):
        cone = random_axis_cone(8)
        block_rng, row_rng, ref_rng = (OnAxisFirst(cone.axis, 1) for _ in range(3))
        block = sample_in_cone(cone, block_rng, 6)
        assert block_rng.normals == 7  # row 0 drew twice
        rows = np.vstack([sample_in_cone(cone, row_rng, 1) for _ in range(6)])
        np.testing.assert_array_equal(block, rows)
        assert_one_vector_stream(cone, block, ref_rng, exact=False)
        assert block_rng.state == row_rng.state == ref_rng.state
        assert np.all(np.isfinite(block)) and not np.any(regions(cone, block) == -1)
