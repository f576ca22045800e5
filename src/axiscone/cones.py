"""Self-dual cone geometry: the 45-degree axis cone and the nonnegative orthant.

An axis cone around unit vector u0 is {u : <u0, u> >= ||u|| / sqrt(2)}; its
aperture is fixed at 45 degrees, which is what makes it self-dual.  Each
primitive has one form, on a (k, n) block of rows: `row_margins`, `regions`
and `project_rows`; a cone's `classify` is `regions` on a one-row block.  The
per-row stream sampler `sample_in_cone` (each row's draws in turn) serves
sampled preservation alone; the block sampler `sample_in_cone_rows` (one draw
per quantity) serves `cone_check`, the Perron-Frobenius probe's pairs and the
drift check's probe pairs.  Both take their complement rows from one routine,
which projects a row off the axis twice where once leaves too large an axis
component.  Each sampled cone axiom (self-duality both ways, as `pair_check`
and `witness_check`; the Moreau split; boundary partners) is one `cone_check`
call, which runs it in blocks of rows; the primitives those checks call take
(k, n) blocks too.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotBoundary, NotOutside
from .operators import as_vector
from .tolerances import MOREAU_TOL, PAIR_TOL, PARTNER_TOL, TAU_MEMBERSHIP, UNIT_AXIS_TOL

SQRT2 = np.sqrt(2.0)
BLOCK_FLOATS = 8192      # floats per array in one cone_check block; bounds memory at any dim


class Region(enum.Enum):
    OUTSIDE = "outside"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


_REGIONS = (Region.OUTSIDE, Region.BOUNDARY, Region.INTERIOR)   # code of `regions` + 1


def _classify(cone, u):
    """Region of one vector: `regions` on the one-row block, so zero is BOUNDARY."""
    return _REGIONS[regions(cone, as_vector(u)[None])[0] + 1]


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

    classify = _classify


@dataclass(frozen=True)
class OrthantCone:
    """Entrywise-nonnegative vectors in the given dimension."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    classify = _classify


def as_rows(entries):
    """Validate and return a nonempty (k, n) float block of finite rows."""
    rows = np.asarray(entries, dtype=float)
    if rows.ndim != 2 or rows.size == 0 or not np.all(np.isfinite(rows)):
        raise ValueError("expected a nonempty (k, n) block of finite rows")
    return rows


def row_margins(cone, rows, nrm):
    """Membership margin of each row, given the row norms: positive inside, negative
    outside.  Axis cone: <axis, u> - ||u||/sqrt(2); orthant: the least entry."""
    return rows.min(axis=1) if isinstance(cone, OrthantCone) else rows @ cone.axis - nrm / SQRT2


def regions(cone, rows):
    """Region code of each row: -1 outside, 0 boundary (zero rows too), 1 interior."""
    nrm = np.linalg.norm(rows, axis=1)
    margin = row_margins(cone, rows, nrm)
    return np.where(np.abs(margin) > TAU_MEMBERSHIP * nrm, np.sign(margin), 0.0).astype(int)


def project_rows(cone, rows):
    """Nearest cone point of each row, in closed form: the orthant's positive part;
    for the axis cone, with w = s*axis + w_perp, w itself if s >= ||w_perp||, 0 if
    s <= -||w_perp||, else ((s + ||w_perp||)/2) * (axis + w_perp/||w_perp||)."""
    if isinstance(cone, OrthantCone):
        return np.maximum(rows, 0.0)
    s = rows @ cone.axis
    perp = rows - np.outer(s, cone.axis)
    p = np.linalg.norm(perp, axis=1)
    middle = ((s + p) / 2.0)[:, None] * (cone.axis + perp / np.where(p > 0.0, p, 1.0)[:, None])
    return np.where((s >= p)[:, None], rows, np.where((s <= -p)[:, None], 0.0, middle))


def _complement(axis, g):
    """Rows of g minus their axis components, and their norms, each row on its own.

    One projection leaves an axis component of order u ||g|| (u the unit
    roundoff), which is large beside a short remainder: two boundary rays
    axis +/- w would then pair at about -2 <w, axis>, not 0.  A row whose
    axis component |s| exceeds its remainder ||g_perp|| (so ||g|| > sqrt(2)
    ||g_perp||) is therefore projected a second time, which leaves a component
    of order u ||g_perp|| ("twice is enough", Parlett ch. 6).
    """
    s = (g * axis).sum(axis=1)
    perp = g - np.outer(s, axis)
    nrm = np.sqrt((perp * perp).sum(axis=1))
    again = np.abs(s) > nrm
    if again.any():
        p = perp[again]
        p -= np.outer((p * axis).sum(axis=1), axis)
        perp[again], nrm[again] = p, np.sqrt((p * p).sum(axis=1))
    return perp, nrm


def perp_rows(axis, rng, k):
    """k uniform unit rows in the orthogonal complement of the axis."""
    if axis.size < 2:
        raise ValueError("a 1-dim axis has no orthogonal complement")
    g, nrm = _complement(axis, rng.standard_normal((k, axis.size)))
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

