"""Positivity preservation, positivity improvement, and ergodicity verdicts.

Verdicts come in three honesty levels: CertifiedTrue when a closed-form
criterion applies (or an exhaustive dim-2 sweep ran), CertifiedFalse with a
replayable witness, and SampledTrue when only a multistart search over the
cone was possible (global optimality over a cone is not certified in
dimension > 2).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cones import (
    AxisCone,
    OrthantCone,
    Region,
    require_in_cone,
    sample_in_cone,
    unit_perp,
)
from .errors import (
    AxisNotEigenvector,
    DimensionMismatch,
    NotPositiveSemidefinite,
    PrereqFailed,
)
from .operators import SymmetricOperator, as_vector, perp_basis, restricted_top, top_eigen
from .seeding import rng_for
from .tolerances import AXIS_TOL, ORTHANT_NONNEG_TOL, PSD_TOL, TAU_GAP, TAU_STRICT

SWEEP_STEP_DEG = 0.01
PRESERVATION_SAMPLES = 200   # sampled cone points when no closed-form criterion applies
DESCENT_STEPS = 200          # projected-descent iterations per start
SEARCH_RESTARTS = 8          # seeded boundary-ray starts of the improvement search
MAX_POWER = 64               # largest power A^n tried by the ergodicity probe


class VerdictStatus(enum.Enum):
    CERTIFIED_TRUE = "CertifiedTrue"
    SAMPLED_TRUE = "SampledTrue"
    CERTIFIED_FALSE = "CertifiedFalse"
    INAPPLICABLE = "Inapplicable"


@dataclass(frozen=True)
class Verdict:
    predicate: str
    status: VerdictStatus
    margin: float = math.nan
    witness: np.ndarray | None = None
    seed: int | None = None
    detail: str = ""

    def __post_init__(self):
        if self.status is VerdictStatus.CERTIFIED_FALSE and self.witness is None:
            raise ValueError("CertifiedFalse verdicts must carry a witness")

    @property
    def is_true(self):
        return self.status in (VerdictStatus.CERTIFIED_TRUE, VerdictStatus.SAMPLED_TRUE)

    def csv_row(self):
        witness = (
            " ".join(format(x, ".17g") for x in self.witness)
            if self.witness is not None
            else ""
        )
        return [
            self.predicate,
            self.status.value,
            format(self.margin, ".17g"),
            witness,
            "" if self.seed is None else str(self.seed),
        ]


def require_psd(A):
    low = A.decomposition.min_eigenvalue
    if low < -PSD_TOL * max(1.0, A.norm):
        raise NotPositiveSemidefinite(f"least eigenvalue {low:.3e} below -{PSD_TOL:.0e}")


def require_top_eigenvector(A, u0):
    """Largest eigenvalue of A, once u0 is checked to be a unit top eigenvector."""
    lam = A.decomposition.max_eigenvalue
    resid = float(np.linalg.norm(A.apply(u0) - lam * u0))
    if abs(np.linalg.norm(u0) - 1.0) > AXIS_TOL or resid > AXIS_TOL * max(1.0, abs(lam)):
        raise AxisNotEigenvector(f"axis is not a unit top eigenvector (residual {resid:.3e})")
    return lam


def _check_dims(A, cone):
    if A.dim != cone.dim:
        raise DimensionMismatch(f"operator dim {A.dim} != cone dim {cone.dim}")


def preserves_positivity(A, cone, seed=0):
    """Does A map the cone into itself?

    Certified for an axis cone whose axis is a top eigenvector of a PSD
    operator (then ||A|| <u0,u> >= ||Au||/sqrt(2) holds on the whole cone),
    and for an orthant with an entrywise-nonnegative matrix.  Otherwise the
    verdict comes from classifying images of sampled cone points.
    """
    _check_dims(A, cone)
    m = A.matrix
    if isinstance(cone, OrthantCone):
        low = float(np.min(m))
        if low >= -ORTHANT_NONNEG_TOL:
            return Verdict("preserves_positivity", VerdictStatus.CERTIFIED_TRUE,
                           margin=low, seed=seed, detail="entrywise nonnegative")
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        witness = np.zeros(A.dim)
        witness[j] = 1.0
        if cone.classify(A.apply(witness)) is Region.OUTSIDE:
            return Verdict("preserves_positivity", VerdictStatus.CERTIFIED_FALSE,
                           margin=low, witness=witness, seed=seed,
                           detail=f"entry ({i},{j}) negative; basis image leaves cone")
    else:
        try:
            require_psd(A)
            lam = require_top_eigenvector(A, cone.axis)
        except (NotPositiveSemidefinite, AxisNotEigenvector):
            pass
        else:
            return Verdict("preserves_positivity", VerdictStatus.CERTIFIED_TRUE,
                           margin=lam, seed=seed,
                           detail="axis is a top eigenvector of a PSD operator")

    rng = rng_for(seed, 0)
    worst = math.inf
    worst_point = None
    for _ in range(PRESERVATION_SAMPLES):
        u = sample_in_cone(cone, rng)
        image = A.apply(u)
        nrm = float(np.linalg.norm(image))
        margin = cone.margin(image) / max(nrm, 1e-300)
        if margin < worst:
            worst, worst_point = margin, u
        if nrm > 0 and cone.classify(image) is Region.OUTSIDE:
            return Verdict("preserves_positivity", VerdictStatus.CERTIFIED_FALSE,
                           margin=margin, witness=u, seed=seed,
                           detail="sampled cone point maps outside")
    return Verdict("preserves_positivity", VerdictStatus.SAMPLED_TRUE,
                   margin=worst, witness=worst_point, seed=seed,
                   detail=f"{PRESERVATION_SAMPLES} sampled images stayed in the cone")


def improves_positivity_axis(A, u0):
    """Certified improvement test when the cone axis is a top eigenvector.

    For u = s*u0 + w in the cone, <u0, Au> > ||Au||/sqrt(2) reduces to
    s^2 ||A||^2 > ||Aw||^2 with the worst case on boundary rays, so A im-
    proves positivity iff the top eigenvalue restricted to u0-perp stays
    below ||A||: iff ||A|| is simple.  At equality the boundary ray built
    from a restricted top eigenvector maps to the boundary, which is the
    returned witness.
    """
    u0 = as_vector(u0)
    if u0.size != A.dim:
        raise DimensionMismatch(f"axis dim {u0.size} != operator dim {A.dim}")
    require_psd(A)
    lam = require_top_eigenvector(A, u0)
    lam_perp = restricted_top(A, u0)
    if lam_perp is None:
        return Verdict("improves_positivity_axis", VerdictStatus.CERTIFIED_TRUE,
                       margin=lam, detail="dimension 1: empty orthogonal complement")
    margin = lam - lam_perp - TAU_GAP * abs(lam)
    if margin > 0:
        return Verdict("improves_positivity_axis", VerdictStatus.CERTIFIED_TRUE,
                       margin=margin,
                       detail=f"restricted top {lam_perp:.12g} < top {lam:.12g}")
    basis = perp_basis(u0)
    block = basis.T @ A.matrix @ basis
    w = SymmetricOperator(block).decomposition.eigenvectors[:, -1]
    witness = u0 + basis @ w
    return Verdict("improves_positivity_axis", VerdictStatus.CERTIFIED_FALSE,
                   margin=margin, witness=witness,
                   detail="degenerate top: boundary ray maps to the boundary")


def _improvement_margin(A, axis, u):
    """sqrt(2) <axis, Au> - ||Au|| for unit u; positive iff Au is interior."""
    image = A.apply(u)
    return math.sqrt(2.0) * float(axis @ image) - float(np.linalg.norm(image))


def _sweep_margins(A, cone):
    """Exhaustive margin over the dim-2 cone arc at SWEEP_STEP_DEG granularity."""
    theta1 = math.atan2(cone.axis[1], cone.axis[0])
    step = math.radians(SWEEP_STEP_DEG)
    thetas = theta1 + np.arange(-math.pi / 4, math.pi / 4 + step, step)
    rays = np.vstack([np.cos(thetas), np.sin(thetas)])
    images = A.matrix @ rays
    margins = math.sqrt(2.0) * (cone.axis @ images) - np.linalg.norm(images, axis=0)
    k = int(np.argmin(margins))
    return float(margins[k]), rays[:, k]


def _descend(A, cone, start):
    """Projected descent of the improvement margin over the unit-sphere cone slice."""
    axis = cone.axis
    a_axis = A.apply(axis)
    u = start / np.linalg.norm(start)
    best = _improvement_margin(A, axis, u)
    step = 0.5
    for _ in range(DESCENT_STEPS):
        image = A.apply(u)
        n_image = float(np.linalg.norm(image))
        if n_image < 1e-300:
            return 0.0, u  # image vanishes: u already witnesses non-improvement
        grad = math.sqrt(2.0) * a_axis - A.apply(image) / n_image
        cand = cone.project(u - step * grad)
        n_cand = float(np.linalg.norm(cand))
        if n_cand < 1e-300:
            step *= 0.5
            if step < 1e-12:
                break
            continue
        cand /= n_cand
        value = _improvement_margin(A, axis, cand)
        if value < best - 1e-18:
            u, best = cand, value
            step = min(step * 1.5, 1.0)
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return best, u


def improves_positivity_general(A, cone, seed=0):
    """Search-based improvement verdict for an arbitrary axis cone.

    Minimizes sqrt(2) <axis, Au> - ||Au|| over the cone-intersected unit
    sphere by multistart projected descent from seeded boundary rays plus
    the adversarial directions of the leading eigenvectors.  In dimension 2
    an exhaustive angular sweep upgrades the verdict to certified.
    """
    if not isinstance(cone, AxisCone):
        raise TypeError("general improvement search targets axis cones")
    _check_dims(A, cone)
    tau = TAU_STRICT * max(1.0, A.norm)

    if A.dim == 2:
        best, argmin = _sweep_margins(A, cone)
        detail = "exhaustive sweep"
        certified = True
    else:
        starts = [cone.axis.copy()]
        dec = A.decomposition
        for col in (dec.eigenvectors[:, -1], dec.eigenvectors[:, -2]):
            for sgn in (1.0, -1.0):
                w = sgn * col - float(cone.axis @ (sgn * col)) * cone.axis
                nrm = float(np.linalg.norm(w))
                if nrm > 1e-12:
                    starts.append(cone.axis + w / nrm)
        for k in range(SEARCH_RESTARTS):
            starts.append(cone.axis + unit_perp(cone.axis, rng_for(seed, k)))
        best, argmin = math.inf, None
        for start in starts:
            value, point = _descend(A, cone, start)
            if value < best:
                best, argmin = value, point
        detail = f"multistart search, {len(starts)} starts"
        certified = False

    if best > tau:
        status = VerdictStatus.CERTIFIED_TRUE if certified else VerdictStatus.SAMPLED_TRUE
        return Verdict("improves_positivity_general", status, margin=best,
                       seed=seed, detail=detail)
    image_region = cone.classify(A.apply(argmin))
    if image_region is not Region.INTERIOR:
        return Verdict("improves_positivity_general", VerdictStatus.CERTIFIED_FALSE,
                       margin=best, witness=argmin, seed=seed,
                       detail=f"{detail}; witness image is {image_region.value}")
    return Verdict("improves_positivity_general", VerdictStatus.SAMPLED_TRUE,
                   margin=best, seed=seed,
                   detail=f"{detail}; margin inside tolerance band")


@dataclass(frozen=True)
class ProbeResult:
    found: bool
    n: int
    value: float


def ergodic_probe(A, cone, u, v):
    """Smallest n in [1, MAX_POWER] with <u, A^n v> strictly positive.

    The iterate is renormalized when its norm leaves [1e-100, 1e100]; the
    reported value is rescaled back (it can overflow to inf for huge powers,
    which still witnesses positivity).
    """
    _check_dims(A, cone)
    u = require_in_cone(cone, u)
    v = require_in_cone(cone, v)
    u_norm = float(np.linalg.norm(u))
    w = v.copy()
    log_scale = 0.0
    for n in range(1, MAX_POWER + 1):
        w = A.apply(w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return ProbeResult(False, MAX_POWER, 0.0)
        if nw > 1e100 or nw < 1e-100:
            log_scale += math.log(nw)
            w = w / nw
            nw = 1.0
        inner = float(u @ w)
        if inner > TAU_STRICT * u_norm * nw:
            try:
                value = inner * math.exp(log_scale)
            except OverflowError:
                value = math.inf
            return ProbeResult(True, n, value)
    return ProbeResult(False, MAX_POWER, float(u @ w) * math.exp(min(log_scale, 700.0)))


@dataclass(frozen=True)
class PerronFrobeniusReport:
    """Both directions of the eigenvalue/ergodicity equivalence, independently."""

    top_eigenvalue: float
    top_simple: bool
    top_strictly_positive: bool
    ergodic_sampled: bool
    n_pairs: int
    failing_pair: tuple | None
    agree: bool
    detail: str = ""
    seed: int = 0

    @property
    def eigen_side(self):
        return self.top_simple and self.top_strictly_positive


def _adversarial_pairs(A, cone):
    """Cone pairs designed to defeat ergodicity when the top eigenvalue repeats.

    Random cone pairs almost never witness non-ergodicity: for a degenerate
    top eigenvalue on an axis cone, the failing pair u0 +/- w (w a second top
    eigenvector) has measure zero.  For the orthant, coordinate basis pairs
    play the same role.
    """
    pairs = []
    if isinstance(cone, OrthantCone):
        for i in range(min(cone.dim, 6)):
            ei = np.zeros(cone.dim)
            ei[i] = 1.0
            for j in range(i + 1, min(cone.dim, 6)):
                ej = np.zeros(cone.dim)
                ej[j] = 1.0
                pairs.append((ei, ej))
        return pairs
    dec = A.decomposition
    lam = dec.max_eigenvalue
    if A.dim >= 2 and lam - float(dec.eigenvalues[-2]) <= TAU_GAP * max(1.0, abs(lam)):
        w = dec.eigenvectors[:, -2]
        w = w - float(cone.axis @ w) * cone.axis
        nrm = float(np.linalg.norm(w))
        if nrm > 1e-9:
            w = w / nrm
            pairs.append((cone.axis + w, cone.axis - w))
    return pairs


def perron_frobenius_check(A, cone, seed=0, n_pairs=40):
    """Cross-check sampled ergodicity against top-eigenvalue structure.

    Side (i): every sampled nonzero cone pair (plus adversarial pairs) finds
    some power with strictly positive pairing.  Side (ii): the top eigenvalue
    is simple and its eigenvector is strictly positive for the cone.  The two
    sides are equivalent for PSD self-adjoint operators preserving the cone;
    disagreement beyond sampling caveats indicates an implementation bug.
    """
    _check_dims(A, cone)
    try:
        require_psd(A)
    except NotPositiveSemidefinite as exc:
        raise PrereqFailed(str(exc)) from exc
    preserved = preserves_positivity(A, cone, seed=seed)
    if preserved.status is VerdictStatus.CERTIFIED_FALSE:
        raise PrereqFailed("operator does not preserve the cone")

    lam, u0, simple = top_eigen(A)
    strictly_positive = bool(
        cone.is_strictly_positive(u0) or cone.is_strictly_positive(-u0)
    )

    rng = rng_for(seed, 1)
    pairs = [(sample_in_cone(cone, rng), sample_in_cone(cone, rng)) for _ in range(n_pairs)]
    for pair in _adversarial_pairs(A, cone):
        if (cone.classify(pair[0]) is not Region.OUTSIDE
                and cone.classify(pair[1]) is not Region.OUTSIDE):
            pairs.append(pair)

    failing = None
    for u, v in pairs:
        result = ergodic_probe(A, cone, u, v)
        if not result.found:
            failing = (u, v)
            break
    ergodic_sampled = failing is None
    eigen_side = simple and strictly_positive
    agree = ergodic_sampled == eigen_side
    detail = "" if agree else (
        "sampled ergodicity disagrees with eigenvalue structure; "
        "either a sampling caveat (missed witness pair) or a toolkit bug"
    )
    return PerronFrobeniusReport(
        top_eigenvalue=lam,
        top_simple=simple,
        top_strictly_positive=strictly_positive,
        ergodic_sampled=ergodic_sampled,
        n_pairs=len(pairs),
        failing_pair=failing,
        agree=agree,
        detail=detail,
        seed=seed,
    )
