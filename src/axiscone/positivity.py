"""Positivity preservation, positivity improvement, and ergodicity verdicts.

Verdicts come in three honesty levels: CertifiedTrue when a closed-form
criterion applies, CertifiedFalse with a replayable witness, and SampledTrue
only from sampled preservation, sampled ergodicity, or an improvement margin
inside its tolerance band (TAU_STRICT for the S-lemma test, TAU_GAP for the
axis test) whose boundary witness maps to the cone's interior.  The axis test
reads the operator's checked spectrum: restricted_top's bound certifies a
simple top, the second eigenvalue (by interlacing) a degenerate one, and only
a margin between the two decomposes the compression to the axis complement.
Sampled verdicts take their cone points as one
block: preservation classifies the block's images at once, and the
ergodicity probe iterates A on every unresolved pair of a block together,
judging the first power alone and then blocks of as many powers as its
buffer holds with array operations, each cut at the first power where a
pair resolves or a column is rescaled.  The probe's test is homogeneous,
so it scales A, u and v by exact powers of two and decides the same at
every scale.  A Verdict is plain data; the harness
renders its report cells.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cones import (
    AxisCone,
    OrthantCone,
    Region,
    as_rows,
    regions,
    row_margins,
    sample_in_cone,
    sample_in_cone_rows,
)
from .errors import (
    AxisNotEigenvector,
    ContractViolation,
    DimensionMismatch,
    NotInCone,
    NotPositiveSemidefinite,
    PrereqFailed,
)
from .operators import SymmetricOperator, as_vector, perp_basis, restricted_top, top_eigen
from .seeding import rng_for
from .tolerances import AXIS_TOL, ORTHANT_NONNEG_TOL, PSD_TOL, TAU_GAP, TAU_STRICT

PRESERVATION_SAMPLES = 200   # sampled cone points when no closed-form criterion applies
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
    detail: str = ""

    def __post_init__(self):
        if self.status is VerdictStatus.CERTIFIED_FALSE and self.witness is None:
            raise ValueError("CertifiedFalse verdicts must carry a witness")

    @property
    def is_true(self):
        return self.status in (VerdictStatus.CERTIFIED_TRUE, VerdictStatus.SAMPLED_TRUE)


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
    verdict comes from classifying images of sampled cone points.  Only the
    orthant and sampled branches read A's matrix, so the axis-cone closed
    form forms none for an operator held by its spectrum.
    """
    _check_dims(A, cone)
    if isinstance(cone, OrthantCone):
        m = A.matrix
        low = float(np.min(m))
        if low >= -ORTHANT_NONNEG_TOL:
            return Verdict("preserves_positivity", VerdictStatus.CERTIFIED_TRUE,
                           margin=low, detail="entrywise nonnegative")
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        witness = np.zeros(A.dim)
        witness[j] = 1.0
        if cone.classify(A.apply(witness)) is Region.OUTSIDE:
            return Verdict("preserves_positivity", VerdictStatus.CERTIFIED_FALSE,
                           margin=low, witness=witness,
                           detail=f"entry ({i},{j}) negative; basis image leaves cone")
    else:
        try:
            require_psd(A)
            lam = require_top_eigenvector(A, cone.axis)
        except (NotPositiveSemidefinite, AxisNotEigenvector):
            pass
        else:
            return Verdict("preserves_positivity", VerdictStatus.CERTIFIED_TRUE,
                           margin=lam,
                           detail="axis is a top eigenvector of a PSD operator")

    u = sample_in_cone(cone, rng_for(seed, 0), PRESERVATION_SAMPLES)
    images = u @ A.matrix  # row i is A u_i: the matrix is symmetric
    nrm = np.linalg.norm(images, axis=1)
    margins = row_margins(cone, images, nrm) / np.maximum(nrm, 1e-300)
    outside = np.flatnonzero((nrm > 0.0) & (regions(cone, images) == -1))
    if outside.size:
        return Verdict("preserves_positivity", VerdictStatus.CERTIFIED_FALSE,
                       margin=float(margins[outside[0]]), witness=u[outside[0]],
                       detail="sampled cone point maps outside")
    i = int(np.argmin(margins))
    return Verdict("preserves_positivity", VerdictStatus.SAMPLED_TRUE,
                   margin=float(margins[i]), witness=u[i],
                   detail=f"{PRESERVATION_SAMPLES} sampled images stayed in the cone")


def improves_positivity_axis(A, u0):
    """Certified improvement test when the cone axis is a top eigenvector.

    For u = s*u0 + w in the cone, <u0, Au> > ||Au||/sqrt(2) reduces to
    s^2 ||A||^2 > ||Aw||^2 with the worst case on boundary rays, so A im-
    proves positivity iff the top eigenvalue lambda_perp on u0-perp stays
    below lambda_1 = ||A||: iff ||A|| is simple.  The margin lambda_1 -
    lambda_perp - tau, tau = TAU_GAP max(1, |lambda_1|) (top_eigen's rule), is
    read from A's checked spectrum: restricted_top's bound lambda_perp <=
    lambda_2 + r^2/gap certifies a positive one, and interlacing (lambda_perp
    >= lambda_2) a nonpositive one when lambda_1 - lambda_2 - tau <= 0, with
    the boundary ray u0 + w (w from _top_pair_direction) as the witness.  Only
    between the two, or when that witness image is interior, does one checked
    eigh of the compression to u0-perp decide.  No CertifiedFalse witness
    image is interior: a nonpositive margin whose witness image is interior is
    SampledTrue, inside the tolerance band.
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
    tau = TAU_GAP * max(1.0, abs(lam))
    if lam - lam_perp - tau > 0:
        return Verdict("improves_positivity_axis", VerdictStatus.CERTIFIED_TRUE,
                       margin=lam - lam_perp - tau,
                       detail=f"restricted top bound {lam_perp:.12g} < top {lam:.12g}")
    cone = AxisCone(u0 / np.linalg.norm(u0))   # u0 is a unit vector only to AXIS_TOL
    lam2 = float(A.decomposition.eigenvalues[-2])
    if lam - lam2 - tau <= 0:
        witness = u0 + _top_pair_direction(A, u0)
        region = cone.classify(A.apply(witness))
        if region is not Region.INTERIOR:
            return Verdict("improves_positivity_axis", VerdictStatus.CERTIFIED_FALSE,
                           margin=lam - lam2 - tau, witness=witness,
                           detail=f"second eigenvalue {lam2:.12g} within tau_gap of top "
                                  f"{lam:.12g}; witness image is {region.value}")
    basis = perp_basis(u0)
    block = SymmetricOperator(basis.T @ A.matrix @ basis).decomposition
    lam_perp = block.max_eigenvalue
    margin = lam - lam_perp - tau
    if margin > 0:
        return Verdict("improves_positivity_axis", VerdictStatus.CERTIFIED_TRUE,
                       margin=margin, detail=f"restricted top {lam_perp:.12g} < top {lam:.12g}")
    witness = u0 + basis @ block.eigenvectors[:, -1]
    region = cone.classify(A.apply(witness))
    detail = f"restricted top {lam_perp:.12g} within tau_gap of top {lam:.12g}"
    if region is not Region.INTERIOR:
        return Verdict("improves_positivity_axis", VerdictStatus.CERTIFIED_FALSE,
                       margin=margin, witness=witness,
                       detail=f"{detail}; witness image is {region.value}")
    return Verdict("improves_positivity_axis", VerdictStatus.SAMPLED_TRUE,
                   margin=margin, detail=f"{detail}; margin inside tolerance band")


def improves_positivity_general(A, cone):
    """Exact improvement verdict for a PSD operator and an arbitrary axis cone.

    With J = 2 u1 u1^T - I the cone is {u : u^T J u >= 0, <u1, u> >= 0}, so by
    the strict S-lemma A improves it iff A J A - mu J > 0 for some mu.  The
    eigenvectors of J A diagonalise that pencil J-orthogonally with
    eigenvalues nu^2, the nu being the spectrum of G = A^1/2 J A^1/2 =
    2 g g^T - A with g = A^1/2 u1; so A improves the cone iff nu_max + nu_min
    > 0, and one eigh of G decides.  Otherwise u = v+/sqrt(v+^T J v+) +
    v-/sqrt(-v-^T J v-), with v = J A^1/2 y / nu = A^-1/2 y for the extreme
    eigenvectors y of G, is a boundary ray whose image is not interior (u1
    itself when A u1 is not interior).
    """
    if not isinstance(cone, AxisCone):
        raise TypeError("the closed-form improvement test targets axis cones")
    _check_dims(A, cone)
    require_psd(A)
    tau = TAU_STRICT * max(1.0, A.norm)
    dec = A.decomposition
    q, axis = dec.eigenvectors, cone.axis
    roots = np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    g = q @ (roots * (q.T @ axis))
    g_dec = SymmetricOperator(2.0 * np.outer(g, g) - A.matrix).decomposition
    nu, y = g_dec.eigenvalues, g_dec.eigenvectors
    margin = float(nu[0] + nu[-1])
    detail = f"S-lemma closed form: nu_max + nu_min = {margin:.6g}"
    if margin > tau:
        return Verdict("improves_positivity_general", VerdictStatus.CERTIFIED_TRUE,
                       margin=margin, detail=detail)
    witness = axis
    if cone.classify(A.apply(axis)) is Region.INTERIOR and nu[0] < 0.0 < nu[-1]:
        z = y[:, -1] / math.sqrt(nu[-1]) - y[:, 0] / math.sqrt(-nu[0])
        h = q @ (roots * (q.T @ z))
        witness = 2.0 * float(axis @ h) * axis - h  # J A^1/2 z: no inverse of A is formed
        if float(axis @ witness) < 0.0:
            witness = -witness
    image_region = cone.classify(A.apply(witness))
    if image_region is not Region.INTERIOR:
        return Verdict("improves_positivity_general", VerdictStatus.CERTIFIED_FALSE,
                       margin=margin, witness=witness,
                       detail=f"{detail}; witness image is {image_region.value}")
    if margin < -tau:
        raise ContractViolation(f"{detail} < 0, but the boundary witness image is interior")
    return Verdict("improves_positivity_general", VerdictStatus.SAMPLED_TRUE,
                   margin=margin, detail=f"{detail}; margin inside tolerance band")


@dataclass(frozen=True)
class ProbeResult:
    """A probed block, read as a pair-by-pair loop that stops at the first failure.

    `pair` is that failing pair (None if none), `value` its pairing (else the
    last pair's), and `n` the sum of the first powers up to it (MAX_POWER for
    a pair without one).
    """

    found: bool
    n: int
    value: float
    pair: int | None


def _exponents(x, axis=None):
    """e with the largest |entry| (along axis) in [2^(e-1), 2^e): 2^-e x peaks in [0.5, 1)."""
    return np.frexp(np.abs(x).max(axis=axis))[1]


def ergodic_probe(A, cone, us, vs):
    """Smallest n in [1, MAX_POWER] with <u, A^n v> strictly positive, per row pair.

    The hit test <u, A^n v> > TAU_STRICT ||u|| ||A^n v|| is homogeneous in A,
    u and v, so the probe first scales A, each u row and each v row by the
    exact power of two that puts its largest |entry| in [0.5, 1).  It then
    iterates W <- A W on the unresolved columns v, dropping each once its
    pairing is positive or its image vanishes (no power then), and rescales a
    column by an exact power of two whenever its largest |entry| leaves
    [1e-100, 1e100].  Every scaling is exact, so no decision depends on the
    scale of A, u or v; integer exponents carry it, and each value is its
    scaled pairing times 2^exponent (inf past the float range, which still
    witnesses positivity).

    The first power is judged alone, since most pairs resolve there; the
    powers after it are taken in blocks as large as the buffer allows (at
    most max(dim, 32) * dim floats, so a lone column runs up to MAX_POWER in
    two or three blocks): the block's products run back to back, and its
    peaks, norms, pairings and hits are judged with array operations.  A
    block is cut at its first power where a column hits, vanishes or leaves
    the range; that power alone is rescaled and judged as one power, the
    powers after it are dropped, and the next block starts from it with the
    remaining columns.  Every product therefore sees the same columns and
    every judged value the same bits as a power-by-power loop.
    """
    _check_dims(A, cone)
    us, vs = as_rows(us), as_rows(vs)
    if us.shape != vs.shape:
        raise ValueError(f"{len(us)} rows u cannot pair with {len(vs)} rows v")
    rows = np.vstack([us, vs])
    if not np.all(np.linalg.norm(rows, axis=1) > 0.0) or np.any(regions(cone, rows) == -1):
        raise NotInCone("expected nonzero cone elements")
    k = len(us)
    powers, found = np.full(k, MAX_POWER), np.zeros(k, dtype=bool)
    inners, exponents = np.zeros(k), np.zeros(k, dtype=int)  # value = inner 2^exponent
    e_a, e_u, e_v = _exponents(A.matrix), _exponents(us, axis=1), _exponents(vs, axis=1)
    a = np.ldexp(A.matrix, -e_a)
    u, w = np.ldexp(us.T, -e_u), np.ldexp(vs.T, -e_v)
    tol = TAU_STRICT * np.linalg.norm(u, axis=0)
    live, shift = np.arange(k), e_u + e_v   # <u, A^n v> = <u', w> 2^(shift + n e_a)
    n = 0
    while n < MAX_POWER and live.size:
        # a block of more than one power holds at most max(dim, 32) * dim floats
        size = 1 if n == 0 else max(1, min(MAX_POWER - n, max(A.dim, 32) // live.size))
        block = np.empty((size, A.dim, live.size))
        # powers past the cut may overflow; they are never judged
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(size):
                w = block[i] = a @ w
            peak = np.abs(block).max(axis=1)
            nw = np.sqrt((block * block).sum(axis=1))
            # a largest entry outside [1e-100, 1e100], nan included, or a hit
            event = ~((peak >= 1e-100) & (peak <= 1e100)) | ((u * block).sum(axis=1) > tol * nw)
        cuts = np.flatnonzero(event.any(axis=1))
        if not cuts.size:
            n += size
            continue
        cut = int(cuts[0])
        n += cut + 1
        w, peak = block[cut], peak[cut]   # a times in-range columns: finite
        far = ((peak > 1e100) | (peak < 1e-100)) & (peak > 0.0)
        if far.any():
            e = _exponents(w[:, far], axis=0)
            w[:, far] = np.ldexp(w[:, far], -e)
            shift[far] += e
        inner = (u * w).sum(axis=0)
        hit = inner > tol * np.sqrt((w * w).sum(axis=0))  # never for a vanished image
        done = hit | (peak == 0.0)
        if done.any():
            powers[live[hit]], found[live[hit]] = n, True
            inners[live[hit]], exponents[live[hit]] = inner[hit], shift[hit] + n * e_a
            keep = ~done
            live, u, w, tol, shift = live[keep], u[:, keep], w[:, keep], tol[keep], shift[keep]
    inners[live], exponents[live] = (u * w).sum(axis=0), shift + n * e_a
    with np.errstate(over="ignore"):  # a value past the float range is inf, as documented
        values = np.ldexp(inners, exponents)
    unfound = np.flatnonzero(~found)
    stop = int(unfound[0]) if unfound.size else k - 1
    return ProbeResult(found=not unfound.size, n=int(powers[:stop + 1].sum()),
                       value=float(values[stop]), pair=stop if unfound.size else None)


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


def _top_pair_direction(A, axis):
    """Unit projection onto axis-perp of whichever top-two eigenvector column projects longer.

    For a unit axis the two orthonormal columns v have projections v - <axis,
    v> axis whose squared lengths sum to 2 - <axis, v_1>^2 - <axis, v_2>^2 >= 1
    (Bessel), so the longer has length at least 1/sqrt(2): none is too short
    to normalize.  Ties go to the second column.
    """
    q = A.decomposition.eigenvectors
    projections = [v - float(axis @ v) * axis for v in (q[:, -2], q[:, -1])]
    lengths = [float(np.linalg.norm(w)) for w in projections]
    longer = int(lengths[1] > lengths[0])
    return projections[longer] / lengths[longer]


def _adversarial_pairs(A, cone):
    """Cone pairs designed to defeat ergodicity when the top eigenvalue repeats, as rows.

    Random cone pairs almost never witness non-ergodicity: for a degenerate
    top eigenvalue on an axis cone, the failing pair u0 +/- w (w a unit
    direction of the top eigenspace orthogonal to u0, _top_pair_direction)
    has measure zero.  For the orthant, coordinate basis pairs play the same
    role.
    """
    if isinstance(cone, OrthantCone):
        i, j = np.triu_indices(min(cone.dim, 6), 1)
        return np.eye(cone.dim)[i], np.eye(cone.dim)[j]
    dec = A.decomposition
    lam = dec.max_eigenvalue
    if A.dim >= 2 and lam - float(dec.eigenvalues[-2]) <= TAU_GAP * max(1.0, abs(lam)):
        w = _top_pair_direction(A, cone.axis)
        return (cone.axis + w)[None], (cone.axis - w)[None]
    return np.empty((0, A.dim)), np.empty((0, A.dim))


def perron_frobenius_check(A, cone, seed=0, n_pairs=40):
    """Cross-check sampled ergodicity against top-eigenvalue structure.

    Side (i): every sampled nonzero cone pair (plus adversarial pairs) finds
    some power with strictly positive pairing.  Side (ii): the top eigenvalue
    is simple and its eigenvector is strictly positive for the cone.  The two
    sides are equivalent for PSD self-adjoint operators preserving the cone;
    disagreement beyond sampling caveats indicates an implementation bug.
    The n_pairs sampled pairs come from one block of the block sampler
    (sample_in_cone_rows): consecutive rows pair up.
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
    strictly_positive = (cone.classify(u0) is Region.INTERIOR
                         or cone.classify(-u0) is Region.INTERIOR)

    rows = sample_in_cone_rows(cone, rng_for(seed, 1), 2 * n_pairs)
    extra_u, extra_v = _adversarial_pairs(A, cone)
    keep = (regions(cone, extra_u) != -1) & (regions(cone, extra_v) != -1)
    us, vs = np.vstack([rows[0::2], extra_u[keep]]), np.vstack([rows[1::2], extra_v[keep]])
    probe = ergodic_probe(A, cone, us, vs)
    failing = None if probe.found else (us[probe.pair], vs[probe.pair])
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
        n_pairs=len(us),
        failing_pair=failing,
        agree=agree,
        detail=detail,
        seed=seed,
    )
