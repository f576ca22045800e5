"""Self-dual cone geometry: the 45-degree axis cone and the nonnegative orthant.

An axis cone around unit vector u0 is {u : <u0, u> >= ||u|| / sqrt(2)}; its
aperture is fixed at 45 degrees, which is what makes it self-dual.  Both cone
kinds expose exactly three primitives (classify, project, strict positivity),
and both classify through one shared routine; the Moreau split, duality
witnesses and all verifier sampling are built on those.

Every sampled cone-axiom check runs through one loop, `cone_check`, with one
per-sample function per axiom (`pair_check`, `witness_check`, `moreau_check`,
`partner_check`); the self-duality probe, the `cone_axioms` report and the
acceptance cone suite all call it.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotBoundary, NotInCone, NotOutside
from .operators import as_vector
from .seeding import rng_for

SQRT2 = np.sqrt(2.0)
TAU_MEMBERSHIP = 1e-10   # relative to ||u||; the underlying inequalities are exact


class Region(enum.Enum):
    OUTSIDE = "outside"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


def _classify(cone, u, tau=TAU_MEMBERSHIP):
    """Region of u from the cone's margin, with ||u|| computed once."""
    u = as_vector(u)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        return Region.BOUNDARY  # zero vector is in the cone, not interior
    m = cone.margin(u, nrm)
    if m > tau * nrm:
        return Region.INTERIOR
    if m < -tau * nrm:
        return Region.OUTSIDE
    return Region.BOUNDARY


def _is_strictly_positive(cone, u, tau=TAU_MEMBERSHIP):
    """Strictly positive elements are exactly the interior points."""
    return cone.classify(u, tau) is Region.INTERIOR


@dataclass(frozen=True)
class AxisCone:
    """Cone of vectors within 45 degrees of a unit axis."""

    axis: np.ndarray

    def __post_init__(self):
        axis = as_vector(self.axis)
        if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            raise ValueError("axis must be a unit vector to 1e-12")
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


def parse_cone(line):
    tokens = line.split()
    if not tokens:
        raise ValueError("empty cone line")
    if tokens[0] == "orthant":
        return OrthantCone(int(tokens[1]))
    if tokens[0] == "axis":
        dim = int(tokens[1])
        entries = [float(t) for t in tokens[2:]]
        if len(entries) != dim:
            raise ValueError(f"expected {dim} axis entries, found {len(entries)}")
        return AxisCone(np.array(entries))
    raise ValueError(f"unknown cone kind {tokens[0]!r}")


@dataclass(frozen=True)
class MoreauSplit:
    """w = u - v with u, v in the cone and <u, v> = 0."""

    u: np.ndarray
    v: np.ndarray
    residual: float


def moreau_decompose(cone, w):
    """Orthogonal two-sided decomposition through the nearest-point map.

    For a self-dual cone the projection of w and the projection of -w are
    orthogonal and differ by w exactly.
    """
    w = as_vector(w)
    u = cone.project(w)
    v = cone.project(-w)
    residual = float(np.linalg.norm((u - v) - w))
    return MoreauSplit(u=u, v=v, residual=residual)


def duality_witness(cone, u, tau=TAU_MEMBERSHIP):
    """Cone element v with <u, v> < 0, certifying u is outside the dual (= the cone).

    Axis cone: v = axis when <axis, u> < 0, otherwise
    v = axis - (u - <axis,u> axis)/||u - <axis,u> axis||, a boundary element.
    Orthant: v = -min(u, 0), supported on the violating coordinates.
    """
    u = as_vector(u)
    if cone.classify(u, tau) is not Region.OUTSIDE:
        raise NotOutside("duality witness requires a point outside the cone")
    if isinstance(cone, OrthantCone):
        return np.maximum(-u, 0.0)
    s = float(cone.axis @ u)
    if s < 0.0:
        return cone.axis.copy()
    perp = u - s * cone.axis
    return cone.axis - perp / np.linalg.norm(perp)


def boundary_orthogonal_partner(cone, u, tau=TAU_MEMBERSHIP):
    """Reflect a boundary element across the axis: u' = 2 <axis,u> axis - u.

    The partner lies on the boundary, has the same norm, and is orthogonal
    to u, which certifies that boundary points are not strictly positive.
    """
    if not isinstance(cone, AxisCone):
        raise TypeError("boundary partner is defined for axis cones")
    u = as_vector(u)
    if np.linalg.norm(u) == 0.0 or cone.classify(u, tau) is not Region.BOUNDARY:
        raise NotBoundary("orthogonal partner requires a nonzero boundary point")
    return 2.0 * float(cone.axis @ u) * cone.axis - u


def require_in_cone(cone, u, tau=TAU_MEMBERSHIP):
    u = as_vector(u)
    if np.linalg.norm(u) == 0.0 or cone.classify(u, tau) is Region.OUTSIDE:
        raise NotInCone("expected a nonzero cone element")
    return u


def unit_perp(axis, rng):
    """Uniform unit vector in the orthogonal complement of the axis."""
    if axis.size < 2:
        raise ValueError("a 1-dim axis has no orthogonal complement")
    g = rng.standard_normal(axis.size)
    g -= (axis @ g) * axis
    nrm = np.linalg.norm(g)
    while nrm < 1e-12:  # essentially impossible, but stay total
        g = rng.standard_normal(axis.size)
        g -= (axis @ g) * axis
        nrm = np.linalg.norm(g)
    return g / nrm


def sample_in_cone(cone, rng, boundary_fraction=0.5):
    """Random nonzero cone element; mixes boundary rays and interior points.

    Axis-cone boundary rays are axis + w with w a unit vector orthogonal to
    the axis; these extreme rays determine cone images under operators.
    """
    if isinstance(cone, OrthantCone):
        u = np.abs(rng.standard_normal(cone.dim))
        if rng.random() < boundary_fraction and cone.dim > 1:
            u[rng.integers(cone.dim)] = 0.0
        if np.linalg.norm(u) == 0.0:
            u[0] = 1.0
        return u
    if cone.dim == 1:
        return cone.axis * float(rng.uniform(0.1, 2.0))
    w = unit_perp(cone.axis, rng)
    t = 1.0 if rng.random() < boundary_fraction else float(rng.uniform(0.0, 0.999))
    scale = float(rng.uniform(0.1, 2.0))
    return scale * (cone.axis + t * w)


def sample_outside(cone, rng, max_tries=64):
    """Random point classified Outside."""
    for _ in range(max_tries):
        g = rng.standard_normal(cone.dim)
        if cone.classify(g) is Region.OUTSIDE:
            return g
    # deterministic fallback: negate an interior direction
    if isinstance(cone, OrthantCone):
        return -np.ones(cone.dim)
    return -cone.axis.copy()


@dataclass(frozen=True)
class SelfDualityReport:
    """Sampled check that the cone equals its dual."""

    cone: str
    n_samples: int
    seed: int
    worst_pair_inner: float      # min <u, v> over unit in-cone pairs; >= -1e-12
    worst_witness_inner: float   # max <u, witness> over outside points; < 0
    pair_violations: int
    witness_violations: int

    @property
    def ok(self):
        return self.pair_violations == 0 and self.witness_violations == 0


def pair_check(cone, rng):
    """Two in-cone samples: defect -cos(u, v), which must stay <= 1e-12."""
    u = sample_in_cone(cone, rng)
    v = sample_in_cone(cone, rng)
    inner = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return -inner, inner >= -1e-12


def witness_check(cone, rng):
    """An outside sample u: its duality witness v lies in the cone with <u, v> < 0."""
    u = sample_outside(cone, rng)
    v = duality_witness(cone, u)
    inner = float(u @ v)
    return inner, inner < 0.0 and cone.classify(v) is not Region.OUTSIDE


def moreau_check(cone, rng):
    """A random w: the split w = u - v is exact, orthogonal and in the cone."""
    w = rng.standard_normal(cone.dim) * rng.uniform(0.1, 10.0)
    split = moreau_decompose(cone, w)
    scale = max(1.0, float(np.linalg.norm(split.u) * np.linalg.norm(split.v)))
    defect = max(split.residual / float(np.linalg.norm(w)), abs(split.u @ split.v) / scale)
    in_cone = (cone.classify(split.u) is not Region.OUTSIDE
               and cone.classify(split.v) is not Region.OUTSIDE)
    return defect, defect <= 1e-9 and in_cone


def partner_check(cone, rng):
    """A boundary sample u (axis cones): its partner is orthogonal and in the cone."""
    u = (cone.axis + unit_perp(cone.axis, rng)) * rng.uniform(0.1, 10.0)
    partner = boundary_orthogonal_partner(cone, u)
    defect = abs(partner @ u) / float(u @ u)
    return defect, defect <= 1e-10 and cone.classify(partner) is not Region.OUTSIDE


def cone_check(cone, check, rng, count):
    """Run one per-sample check `count` times: (worst defect, violations).

    A check draws its sample from rng and returns (defect, ok); the worst
    defect is the largest one seen.
    """
    worst = -math.inf
    violations = 0
    for _ in range(count):
        defect, ok = check(cone, rng)
        worst = max(worst, defect)
        violations += not ok
    return worst, violations


def selfduality_probe(cone, n_samples, seed=0):
    """Sample the two directions of self-duality.

    (a) inner products of unit in-cone pairs stay >= -1e-12;
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
