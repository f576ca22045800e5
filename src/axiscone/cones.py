"""Self-dual cone geometry: the 45-degree axis cone and the nonnegative orthant.

An axis cone around unit vector u0 is {u : <u0, u> >= ||u|| / sqrt(2)}; its
aperture is fixed at 45 degrees, which is what makes it self-dual.  The
per-vector primitives (classify, project, strict positivity) and the block
sampler `sample_in_cone` serve `positivity` and `perturbation`.  Every
sampled cone-axiom check runs through one loop, `cone_check`, in blocks of
rows: the Moreau split, duality witnesses, boundary partners and outside
sampling take (k, n) blocks, with row forms of the primitives beside them.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotBoundary, NotOutside
from .operators import as_vector
from .seeding import rng_for
from .tolerances import MOREAU_TOL, PAIR_TOL, PARTNER_TOL, TAU_MEMBERSHIP, UNIT_AXIS_TOL

SQRT2 = np.sqrt(2.0)
BLOCK_FLOATS = 8192      # floats per array in one cone_check block; bounds memory at any dim


class Region(enum.Enum):
    OUTSIDE = "outside"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


def _classify(cone, u):
    """Region of u from the cone's margin, with ||u|| computed once."""
    u = as_vector(u)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        return Region.BOUNDARY  # zero vector is in the cone, not interior
    m = cone.margin(u, nrm)
    if m > TAU_MEMBERSHIP * nrm:
        return Region.INTERIOR
    if m < -TAU_MEMBERSHIP * nrm:
        return Region.OUTSIDE
    return Region.BOUNDARY


def _is_strictly_positive(cone, u):
    """Strictly positive elements are exactly the interior points."""
    return cone.classify(u) is Region.INTERIOR


@dataclass(frozen=True)
class AxisCone:
    """Cone of vectors within 45 degrees of a unit axis."""

    axis: np.ndarray

    def __post_init__(self):
        axis = as_vector(self.axis)
        if abs(np.linalg.norm(axis) - 1.0) > UNIT_AXIS_TOL:
            raise ValueError(f"axis must be a unit vector to {UNIT_AXIS_TOL:.0e}")
        axis = axis.copy()
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)

    @property
    def dim(self):
        return self.axis.size

    def margin(self, u, nrm=None):
        """<axis, u> - ||u||/sqrt(2); positive inside, negative outside."""
        u = np.asarray(u, dtype=float)
        if nrm is None:
            nrm = np.linalg.norm(u)
        return float(self.axis @ u - nrm / SQRT2)

    classify = _classify
    is_strictly_positive = _is_strictly_positive

    def project(self, w):
        """Nearest cone point, in closed form.

        Split w = s*axis + w_perp.  Inside (s >= ||w_perp||) is fixed; the
        polar opposite (s <= -||w_perp||) maps to 0; in between the image is
        ((s + ||w_perp||)/2) * (axis + w_perp/||w_perp||).
        """
        w = as_vector(w)
        s = float(self.axis @ w)
        perp = w - s * self.axis
        p = float(np.linalg.norm(perp))
        if p == 0.0:  # collinear with the axis; decide by the sign of s
            return w.copy() if s >= 0.0 else np.zeros_like(w)
        if s >= p:
            return w.copy()
        if s <= -p:
            return np.zeros_like(w)
        return ((s + p) / 2.0) * (self.axis + perp / p)

    def serialize(self):
        return "axis {} {}".format(
            self.dim, " ".join(format(x, ".17g") for x in self.axis)
        )


@dataclass(frozen=True)
class OrthantCone:
    """Entrywise-nonnegative vectors in the given dimension."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def margin(self, u, nrm=None):
        """Least entry; the norm is not needed."""
        return float(np.min(np.asarray(u, dtype=float)))

    classify = _classify
    is_strictly_positive = _is_strictly_positive

    def project(self, w):
        return np.maximum(as_vector(w), 0.0)

    def serialize(self):
        return f"orthant {self.dim}"


def as_rows(entries):
    """Validate and return a nonempty (k, n) float block of finite rows."""
    rows = np.asarray(entries, dtype=float)
    if rows.ndim != 2 or rows.size == 0 or not np.all(np.isfinite(rows)):
        raise ValueError("expected a nonempty (k, n) block of finite rows")
    return rows


def row_margins(cone, rows, nrm):
    """Row form of `cone.margin`, given the row norms."""
    return rows.min(axis=1) if isinstance(cone, OrthantCone) else rows @ cone.axis - nrm / SQRT2


def regions(cone, rows):
    """Row form of `classify`: -1 outside, 0 boundary (zero rows too), 1 interior."""
    nrm = np.linalg.norm(rows, axis=1)
    margin = row_margins(cone, rows, nrm)
    return np.where(np.abs(margin) > TAU_MEMBERSHIP * nrm, np.sign(margin), 0.0).astype(int)


def project_rows(cone, rows):
    """Row form of `cone.project`, with the same three branches per row."""
    if isinstance(cone, OrthantCone):
        return np.maximum(rows, 0.0)
    s = rows @ cone.axis
    perp = rows - np.outer(s, cone.axis)
    p = np.linalg.norm(perp, axis=1)
    middle = ((s + p) / 2.0)[:, None] * (cone.axis + perp / np.where(p > 0.0, p, 1.0)[:, None])
    return np.where((s >= p)[:, None], rows, np.where((s <= -p)[:, None], 0.0, middle))


def perp_rows(axis, rng, k):
    """k uniform unit rows in the orthogonal complement of the axis."""
    if axis.size < 2:
        raise ValueError("a 1-dim axis has no orthogonal complement")
    g = rng.standard_normal((k, axis.size))
    g -= np.outer(g @ axis, axis)
    nrm = np.linalg.norm(g, axis=1)
    small = nrm < 1e-12
    if small.any():  # essentially impossible, but stay total: redraw those rows
        g[small], nrm[small] = perp_rows(axis, rng, int(small.sum())), 1.0
    return g / nrm[:, None]


def sample_in_cone_rows(cone, rng, k):
    """k nonzero cone rows, half boundary rays, half interior points, in one draw per quantity."""
    if isinstance(cone, OrthantCone):
        u = np.abs(rng.standard_normal((k, cone.dim)))
        zeroed = (rng.random(k) < 0.5) & (cone.dim > 1)
        u[zeroed, rng.integers(cone.dim, size=k)[zeroed]] = 0.0
        u[~u.any(axis=1), 0] = 1.0
        return u
    w = perp_rows(cone.axis, rng, k) if cone.dim > 1 else np.zeros((k, 1))
    t = np.where(rng.random(k) < 0.5, 1.0, rng.uniform(0.0, 0.999, k))
    return rng.uniform(0.1, 2.0, (k, 1)) * (cone.axis + t[:, None] * w)


@dataclass(frozen=True)
class MoreauSplit:
    """w = u - v row by row, with u, v in the cone and <u, v> = 0."""

    u: np.ndarray
    v: np.ndarray
    residual: np.ndarray


def moreau_decompose(cone, w):
    """Orthogonal two-sided decomposition of each row through the nearest-point map.

    For a self-dual cone the projection of w and the projection of -w are
    orthogonal and differ by w exactly.
    """
    w = as_rows(w)
    u = project_rows(cone, w)
    v = project_rows(cone, -w)
    return MoreauSplit(u=u, v=v, residual=np.linalg.norm((u - v) - w, axis=1))


def duality_witness(cone, u):
    """Cone rows v with <u, v> < 0, certifying each row u is outside the dual (= the cone).

    Axis cone: v = axis when <axis, u> < 0, otherwise
    v = axis - (u - <axis,u> axis)/||u - <axis,u> axis||, a boundary element.
    Orthant: v = -min(u, 0), supported on the violating coordinates.
    """
    u = as_rows(u)
    if np.any(regions(cone, u) != -1):
        raise NotOutside("duality witness requires points outside the cone")
    if isinstance(cone, OrthantCone):
        return np.maximum(-u, 0.0)
    s = u @ cone.axis
    perp = u - np.outer(s, cone.axis)
    nrm = np.where(s < 0.0, 1.0, np.linalg.norm(perp, axis=1))
    return np.where((s < 0.0)[:, None], cone.axis, cone.axis - perp / nrm[:, None])


def boundary_orthogonal_partner(cone, u):
    """Reflect boundary rows across the axis: u' = 2 <axis,u> axis - u.

    The partner lies on the boundary, has the same norm, and is orthogonal
    to u, which certifies that boundary points are not strictly positive.
    """
    if not isinstance(cone, AxisCone):
        raise TypeError("boundary partner is defined for axis cones")
    u = as_rows(u)
    if not np.all(u.any(axis=1)) or np.any(regions(cone, u) != 0):
        raise NotBoundary("orthogonal partner requires nonzero boundary points")
    return 2.0 * np.outer(u @ cone.axis, cone.axis) - u


def _complement(axis, g):
    """Rows of g minus their axis components, and their norms, each row on its own."""
    perp = g - np.outer((g * axis).sum(axis=1), axis)
    return perp, np.sqrt((perp * perp).sum(axis=1))


def sample_in_cone(cone, rng, k):
    """k random nonzero cone rows, each a boundary ray or an interior point, even odds.

    Axis-cone boundary rays are axis + w, w a unit vector orthogonal to the
    axis: the extreme rays, which determine cone images under operators.
    Each row's draws come in turn (axis cone: n normals, a coin, a spread
    U(0, 0.999) on interior coins, a scale U(0.1, 2); dim 1: the scale only;
    orthant: n normals, a coin, a zeroed index on boundary coins if n > 1).
    The block is projected and scaled row by row, so k one-row calls give
    the same rows; a complement row shorter than 1e-12 replays the block.
    """
    n, normal, random = cone.dim, rng.standard_normal, rng.random
    g = np.empty((k, n))
    if isinstance(cone, OrthantCone):
        for i in range(k):
            g[i] = normal(n)
            if random() < 0.5 and n > 1:
                g[i, rng.integers(n)] = 0.0
        u = np.abs(g)
        u[~u.any(axis=1), 0] = 1.0
        return u
    # U[0, 1) draws become scales U(0.1, 2) and spreads U(0, 0.999) as in rng.uniform
    if n == 1:
        return (0.1 + 1.9 * random(k))[:, None] * cone.axis
    axis, spread, scale = cone.axis, np.empty(k), np.empty(k)
    start = rng.bit_generator.state
    for replay in (False, True):
        for i in range(k):
            g[i] = normal(n)
            while replay and _complement(axis, g[i:i + 1])[1][0] < 1e-12:
                g[i] = normal(n)
            spread[i] = 1.0 if random() < 0.5 else 0.999 * random()
            scale[i] = random()
        perp, nrm = _complement(axis, g)
        if not np.any(nrm < 1e-12):
            break
        rng.bit_generator.state = start
    return (0.1 + 1.9 * scale)[:, None] * (axis + spread[:, None] * (perp / nrm[:, None]))


def sample_outside(cone, rng, k, max_tries=64):
    """k random rows classified Outside, with up to max_tries draws per row."""
    out = np.empty((k, cone.dim))
    todo = np.arange(k)
    for _ in range(max_tries):
        if not todo.size:
            break
        g = rng.standard_normal((todo.size, cone.dim))
        hit = regions(cone, g) == -1
        out[todo[hit]] = g[hit]
        todo = todo[~hit]
    # deterministic fallback: negate an interior direction
    out[todo] = -1.0 if isinstance(cone, OrthantCone) else -cone.axis
    return out


@dataclass(frozen=True)
class SelfDualityReport:
    """Sampled check that the cone equals its dual."""

    cone: str
    n_samples: int
    seed: int
    worst_pair_inner: float      # min <u, v> over unit in-cone pairs; >= -PAIR_TOL
    worst_witness_inner: float   # max <u, witness> over outside points; < 0
    pair_violations: int
    witness_violations: int

    @property
    def ok(self):
        return self.pair_violations == 0 and self.witness_violations == 0


def pair_check(cone, rng, k):
    """k pairs of in-cone rows: defect -cos(u, v), which must stay <= PAIR_TOL."""
    u = sample_in_cone_rows(cone, rng, k)
    v = sample_in_cone_rows(cone, rng, k)
    inner = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
    return -inner, inner >= -PAIR_TOL


def witness_check(cone, rng, k):
    """k outside rows u: each duality witness v lies in the cone with <u, v> < 0."""
    u = sample_outside(cone, rng, k)
    v = duality_witness(cone, u)
    inner = (u * v).sum(axis=1)
    return inner, (inner < 0.0) & (regions(cone, v) != -1)


def moreau_check(cone, rng, k):
    """k random rows w: each split w = u - v is exact, orthogonal and in the cone."""
    w = rng.standard_normal((k, cone.dim)) * rng.uniform(0.1, 10.0, (k, 1))
    split = moreau_decompose(cone, w)
    scale = np.maximum(1.0, np.linalg.norm(split.u, axis=1) * np.linalg.norm(split.v, axis=1))
    defect = np.maximum(split.residual / np.linalg.norm(w, axis=1),
                        np.abs((split.u * split.v).sum(axis=1)) / scale)
    in_cone = (regions(cone, split.u) != -1) & (regions(cone, split.v) != -1)
    return defect, (defect <= MOREAU_TOL) & in_cone


def partner_check(cone, rng, k):
    """k boundary rows u (axis cones): each partner is orthogonal and in the cone."""
    u = (cone.axis + perp_rows(cone.axis, rng, k)) * rng.uniform(0.1, 10.0, (k, 1))
    partner = boundary_orthogonal_partner(cone, u)
    defect = np.abs((partner * u).sum(axis=1)) / (u * u).sum(axis=1)
    return defect, (defect <= PARTNER_TOL) & (regions(cone, partner) != -1)


def cone_check(cone, check, rng, count):
    """Run one check on `count` samples, block by block: (worst defect, violations).

    A check takes (cone, rng, k), draws k rows and returns length-k arrays
    (defects, ok).  Blocks have max(1, BLOCK_FLOATS // dim) rows; each random
    quantity of a block is one draw, in this order.  pair_check: in-cone
    blocks u, v, each axis-cone complement normals, k coins, k spreads and k
    scales (orthant: (k, n) normals, k coins, k zeroed columns).
    witness_check: one (pending, n) normal draw per `sample_outside` round.
    moreau_check: (k, n) normals, (k, 1) magnitudes.  partner_check:
    complement normals (then any redraws), (k, 1) magnitudes.
    """
    block = max(1, BLOCK_FLOATS // cone.dim)
    worst, violations = -math.inf, 0
    for start in range(0, count, block):
        defects, ok = check(cone, rng, min(block, count - start))
        worst = max(worst, float(np.max(defects)))
        violations += int(np.count_nonzero(~np.asarray(ok)))
    return worst, violations


def selfduality_probe(cone, n_samples, seed=0):
    """Sample the two directions of self-duality.

    (a) inner products of unit in-cone pairs stay >= -PAIR_TOL;
    (b) every sampled outside point admits a duality witness v in the cone
        with <u, v> < 0.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    worst_pair, pair_violations = cone_check(cone, pair_check, rng_for(seed, 0), n_samples)
    worst_witness, witness_violations = cone_check(cone, witness_check, rng_for(seed, 1),
                                                   n_samples)
    return SelfDualityReport(
        cone=cone.serialize(),
        n_samples=n_samples,
        seed=seed,
        worst_pair_inner=-worst_pair,
        worst_witness_inner=worst_witness,
        pair_violations=pair_violations,
        witness_violations=witness_violations,
    )
