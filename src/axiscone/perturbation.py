"""Quantitative stability: drift radii, spectral-gap budgets, drifted axes.

The chain implemented here: a positive operator with a simple extremal
eigenvalue tolerates an axis drift up to r(alpha) = (1 - alpha^2) /
(4 sqrt(2) (1 + alpha^2)) while staying positivity improving, where alpha is
the spectral ratio on the axis complement.  For heat semigroups of a
perturbed generator T + S(kappa), a relative-bound budget bounds the drift of
the ground axis (Kato), and the admissible region is where that drift stays
below r.  The budget owns that problem: it checks each given b_k against T,
holds T, the family S and the checked operators at its admissible grid points,
builds T + S(kappa) in one place (PerturbationBudget.operator_at), and bounds
c(kappa) at every kappa, on the grid or off it (PerturbationBudget.c_at); the
end-to-end sweep takes the budget alone and returns plain SweepRows, which the
harness renders.
The budget's gap delta is the least checked gap over kappa = 0 and the grid
points it examines.  It examines, by decomposing, every grid point admissible
at the running minimum of the checked gaps, and repeats until none is left
unexamined, so it reads no gap at a coupling it rejects.  A checked gap lies
within eta of the true one, so delta is within eta of the least true gap over
kappa = 0 and the examined points.  Where the family carries a parity
signature, a point whose mirror was examined takes its spectrum instead, once
that passes a checked eigh's test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import AxisCone, sample_in_cone_rows
from .errors import (
    BudgetViolated,
    ContractViolation,
    DegenerateBottom,
    GapCollapsed,
    HeatTimeUnresolved,
    RatioSaturated,
    RelativeBoundUncertified,
    SemigroupOverflow,
)
from .operators import (
    SymmetricOperator,
    as_vector,
    bottom_eigen,
    certify_positive_definite,
    gamma,
    heat_semigroup,
    restricted_top,
    top_eigen,
)
from .positivity import (
    MAX_POWER,
    Verdict,
    VerdictStatus,
    ergodic_probe,
    improves_positivity_axis,
    improves_positivity_general,
    require_psd,
    require_top_eigenvector,
)
from .seeding import rng_for
from .tolerances import (
    AXIS_TOL,
    DRIFT_BOUND_SLACK,
    DRIFT_CERT_TOL,
    GAP_COLLAPSE_TOL,
    RADIUS_RECOMPUTE_TOL,
    RECON_TOL,
    TAU_GAP,
)

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2
LOG_FLOAT_MAX = math.log(np.finfo(float).max)   # exp(x) is finite iff x <= this


def radius_from_alpha(alpha):
    """Admissible axis-drift radius for spectral ratio alpha in [0, 1)."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha={alpha} must lie in [0, 1)")
    return (1.0 - alpha**2) / (4.0 * SQRT2 * (1.0 + alpha**2))


def quartic_coefficient(alpha):
    """Linear coefficient c = sqrt(2)(1+alpha^2)/(1-alpha^2) of the margin quartic."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha={alpha} must lie in [0, 1)")
    return SQRT2 * (1.0 + alpha**2) / (1.0 - alpha**2)


def quartic_margin(c, x):
    """g(x) = x^4 - 2 x^2 + c x - 1/4; negative g certifies the drift bound."""
    if c <= 0:
        raise ValueError("c must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    return x**4 - 2.0 * x**2 + c * x - 0.25


def improvement_threshold(r):
    """c-threshold f(r) = r sqrt(1 - r^2/4) / (1 + r sqrt(1 - r^2/4))."""
    x = r * math.sqrt(1.0 - r**2 / 4.0)
    return x / (1.0 + x)


def drift_certificate_lhs(alpha, d):
    """Left side of the drift-improvement inequality.

    With t = (1/sqrt(2) - d)^{-1}, returns 1/sqrt(1 + alpha^2 (t^2 - 1)) - d.
    Improvement w.r.t. the drifted axis is certified when this exceeds
    1/sqrt(2).
    """
    if d >= INV_SQRT2:
        raise ValueError("the drift certificate requires drift below 1/sqrt(2)")
    t = 1.0 / (INV_SQRT2 - d)
    return 1.0 / math.sqrt(1.0 + alpha**2 * (t**2 - 1.0)) - d


def improving_radius(A, u0):
    """Spectral ratio alpha and drift radius r for a PSD operator.

    u0 must be a unit top eigenvector; any unit axis within r of u0 keeps
    the operator positivity improving for the corresponding cone.  alpha is
    read from restricted_top's closed-form bound, an upper bound on the
    exact ratio, so r can only shrink; the top is simple and u0's residual
    is below the gap, so alpha < 1.
    """
    require_psd(A)
    u0 = as_vector(u0)
    top_eigen(A, require_simple=True)  # raises DegenerateTop
    lam = require_top_eigenvector(A, u0)
    lam_perp = restricted_top(A, u0)
    alpha = 0.0 if lam_perp is None else max(lam_perp, 0.0) / lam
    return alpha, radius_from_alpha(alpha)


def ergodic_drift_check(A, u0, u1, sample_pairs=50, seed=0):
    """Ergodicity for a drifted axis with the positivity certificate.

    Applicable when ||u1 - u0|| < 1/sqrt(2); then every nonzero element u of
    the drifted cone satisfies <u0, u> >= (1/sqrt(2) - ||u1-u0||) ||u|| > 0.
    The certificate is exact: with c = <u0, u1> and s = ||u0 - c u1||, the
    least <u0, w>/||w|| over w in K(u1) is cos(theta + pi/4) = (c - s)/sqrt(2),
    attained on the boundary ray u1 - (u0 - c u1)/s, and it never lies below
    1/sqrt(2) - ||u1 - u0||.  The power probe then runs on sampled pairs.
    """
    require_psd(A)
    u0 = as_vector(u0)
    u1 = as_vector(u1)
    require_top_eigenvector(A, u0)
    if abs(np.linalg.norm(u1) - 1.0) > AXIS_TOL:
        raise ValueError("u1 must be a unit vector")
    drift = float(np.linalg.norm(u1 - u0))
    slack = INV_SQRT2 - drift
    if slack <= 0.0:
        return Verdict("ergodic_drift_check", VerdictStatus.INAPPLICABLE,
                       margin=slack,
                       detail=f"drift {drift:.6g} >= 1/sqrt(2); theorem silent here")
    c = float(u0 @ u1)
    perp = u0 - c * u1
    s = float(np.linalg.norm(perp))
    certificate = (c - s) * INV_SQRT2 - slack
    if certificate < -DRIFT_CERT_TOL:
        return Verdict("ergodic_drift_check", VerdictStatus.CERTIFIED_FALSE,
                       margin=certificate, witness=u1 - perp / s,
                       detail="positivity certificate violated (toolkit bug)")
    cone = AxisCone(u1)
    rows = sample_in_cone_rows(cone, rng_for(seed, 0), 2 * sample_pairs)
    probe = ergodic_probe(A, cone, rows[0::2], rows[1::2])
    if not probe.found:
        return Verdict("ergodic_drift_check", VerdictStatus.CERTIFIED_FALSE,
                       margin=probe.value, witness=rows[2 * probe.pair],
                       detail=f"no positive pairing within {MAX_POWER} powers")
    return Verdict("ergodic_drift_check", VerdictStatus.SAMPLED_TRUE,
                   margin=certificate,
                   detail=f"{sample_pairs} pairs ergodic; certificate slack "
                          f"{certificate:.3e}")


def certified_improving_under_drift(A, alpha, u0, u1):
    """Improvement w.r.t. a drifted axis: drift certificate, then the exact test.

    alpha is the spectral ratio improving_radius(A, u0)[0].  Evaluates the
    drift inequality at d = ||u1 - u0||; when its left side exceeds
    1/sqrt(2) the verdict is certified in O(1).  Otherwise (including the
    gapless limit alpha -> 1) the closed-form S-lemma test of
    improves_positivity_general decides, with one eigh.
    """
    u1 = as_vector(u1)
    d = float(np.linalg.norm(u1 - u0))
    if d < INV_SQRT2:
        lhs = drift_certificate_lhs(alpha, d)
        margin = lhs - INV_SQRT2
        if margin > DRIFT_CERT_TOL:
            return Verdict("certified_improving_under_drift",
                           VerdictStatus.CERTIFIED_TRUE, margin=margin,
                           detail=f"drift certificate: alpha={alpha:.6g} d={d:.6g}")
    fallback = improves_positivity_general(A, AxisCone(u1))
    return Verdict("certified_improving_under_drift", fallback.status,
                   margin=fallback.margin, witness=fallback.witness,
                   detail=f"fallback {fallback.detail}")


class PerturbationFamily:
    """Polynomial family S(kappa) = sum_{k=1..d} kappa^k S_k of symmetric operators.

    It carries the relative bounds a(kappa) = a |kappa| and b(kappa) =
    sum_k |kappa|^k b_k, so that ||S(kappa) x|| <= a(kappa) ||T x|| +
    b(kappa) ||x|| (Kato) once ||S_1 x|| <= a ||T x|| + b_1 ||x|| and ||S_k
    x|| <= b_k ||x|| for k >= 2.  b takes one entry per coefficient: a given
    bound b_k, which semigroup_threshold checks against T
    (_check_relative_bound), or None for ||S_k|| from S_k's checked spectrum.
    At finite dimension the tightest defaults are a = 0 and b_k = ||S_k||,
    because the unbounded-operator analysis these constants usually come
    from trivializes here; a applies to linear families only.  A linear
    family's c(kappa) = c(1) |kappa| bounds its admissible range in closed
    form; a family of higher degree reads it off the kappa grid.
    parity is None or signs sigma, P = diag(sigma), with P T P = T and P S_k P
    = (-1)^k S_k, so T + S(-kappa) = P (T + S(kappa)) P; a wrong sigma costs
    only the eigh that semigroup_threshold would have saved.
    """

    def __init__(self, coefficients, a=0.0, b=None, parity=None):
        coefficients = tuple(
            c if isinstance(c, SymmetricOperator) else SymmetricOperator(c)
            for c in coefficients
        )
        if not coefficients:
            raise ValueError("need at least one coefficient")
        if any(c.dim != coefficients[0].dim for c in coefficients):
            raise ValueError("coefficients differ in dimension")
        if len(coefficients) > 1 and a != 0.0:
            raise ValueError("the relative bound a applies to linear families only")
        if b is None:
            b = (None,) * len(coefficients)
        if np.ndim(b) != 1 or len(b) != len(coefficients):
            raise ValueError("b takes one entry per coefficient: a bound b_k or None")
        self.coefficients = coefficients
        self.a = float(a)
        self.b = tuple(None if b_k is None else float(b_k) for b_k in b)
        if not (self.a >= 0.0 and all(b_k is None or b_k >= 0.0 for b_k in self.b)):
            raise ValueError("relative bounds must be nonnegative")
        if parity is not None:
            parity = np.array(parity, dtype=float)
            if parity.shape != (coefficients[0].dim,) or not np.all(np.abs(parity) == 1.0):
                raise ValueError("parity takes one sign, +1 or -1, per dimension")
            parity.setflags(write=False)
        self.parity = parity

    @property
    def degree(self):
        return len(self.coefficients)

    def operator_at(self, kappa):
        kappa = np.float64(kappa)   # kappa**k overflows to inf, not OverflowError
        with np.errstate(over="ignore", invalid="ignore"):  # _exact rejects inf and nan
            total = kappa * self.coefficients[0].matrix
            for k, coefficient in enumerate(self.coefficients[1:], start=2):
                total = total + kappa**k * coefficient.matrix
            return SymmetricOperator._exact(total)

    def a_at(self, kappa):
        return self.a * abs(kappa)

    def b_at(self, kappa):
        """b(kappa) = sum_k |kappa|^k b_k, elementwise on an array (k ascending,
        |kappa|^k by repeated products, inf past the float range), with b_k the
        given bound or ||S_k||."""
        power, total = 1.0, 0.0 * np.abs(kappa)
        with np.errstate(over="ignore"):
            for b_k, coefficient in zip(self.b, self.coefficients):
                b_k = coefficient.norm if b_k is None else b_k
                power = power * np.abs(kappa)
                if b_k:   # a zero bound adds nothing, not 0 * inf
                    total = total + power * b_k
        return total


@dataclass(frozen=True)
class PerturbationBudget:
    """The perturbation problem T + S(kappa) and all scalars of the semigroup
    stability argument over its kappa grid."""

    T: SymmetricOperator
    family: PerturbationFamily
    mu: float
    delta: float
    epsilon: float
    s0: float
    alpha: float
    r: float
    c_threshold: float
    kappa0: float
    kappas: np.ndarray
    # checked gaps of T + S(kappa), each within eta of the true gap, NaN where
    # never examined
    gaps: np.ndarray
    a_values: np.ndarray
    b_values: np.ndarray
    c_values: np.ndarray
    admissible: np.ndarray
    kappa_threshold: float
    # checked T + S(kappa) at the admissible nonzero grid kappas; not part of the report
    operators: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        recomputed = radius_from_alpha(self.alpha)
        if abs(recomputed - self.r) > RADIUS_RECOMPUTE_TOL:
            raise ContractViolation("budget radius is not recomputable from alpha")
        if not 0.0 < self.alpha < 1.0:
            raise ContractViolation("budget alpha must lie in (0, 1)")

    def operator_at(self, kappa):
        """T + S(kappa): T at 0, the held operator at an admissible grid point,
        built anew anywhere else."""
        if kappa == 0.0:
            return self.T
        return self.operators.get(kappa) or self.T + self.family.operator_at(kappa)

    def c_at(self, kappa):
        """c(kappa) = a + ((|mu| + epsilon) a + b) / epsilon with a = a(kappa) and
        b = b(kappa): the formula of the grid's c_values, so c_at and admissible
        agree bit for bit at a grid point."""
        return float(_c_values(self.mu, self.epsilon, self.family.a_at(kappa),
                               self.family.b_at(kappa)))

    def is_admissible(self, kappa):
        return abs(kappa) < self.kappa0 and self.c_at(kappa) < self.c_threshold

    def resolves(self, s):
        """Whether exp(-s T) has a top eigenvalue simple beyond TAU_GAP, judged
        from mu and delta alone.

        Its top exp(-s mu) and relative top gap 1 - exp(-s g), with T's gap g
        at least delta, clear top_eigen's test gap > TAU_GAP max(1, top) when
        (1 - exp(-s delta)) min(1, exp(-s mu)) > TAU_GAP.  A swept T +
        S(kappa) has its bottom eigenvalue within epsilon of mu and its gap
        near delta or above, so the test predicts its semigroup's too, up to
        the margin by which their tops and gaps differ.
        """
        relative_gap = 1.0 - math.exp(-s * self.delta)
        return relative_gap * math.exp(min(0.0, -s * self.mu)) > TAU_GAP


def semigroup_threshold(T, family, s0, kappa0, kappa_grid):
    """Budget for the heat semigroups of T + S(kappa) over a kappa grid.

    delta is, to within eta, the smallest gap between the bottom eigenvalue
    of T + S(kappa) and the rest of its spectrum at kappa = 0, on the grid
    or not, and over the grid points the budget examines, among them every
    point it admits (grid density is the caller's responsibility, and a
    caller that sweeps couplings off the grid puts them on it); epsilon =
    delta/2 is the radius around mu that holds each drifted bottom
    eigenvalue alone (drifted_axis); alpha = 1 - exp(-s0 delta) feeds the
    drift radius r; admissible kappas satisfy c(kappa) < f(r).  Every given
    bound b_k is checked first (_check_relative_bound).

    kappa = 0 reads T's own spectrum (S has no constant term, so S(0) = 0
    and b(0) = 0), and the running minimum delta_run of the checked gaps
    starts at T's gap.  The grid loop examines each nonzero point admissible
    at delta_run, in ascending order of estimated gap (_gap_estimates), and
    repeats until every point admissible at delta_run has been examined: a
    pass can lower delta_run, and a lower delta_run can admit points that
    were rejected before, since c(kappa) grows but f(r) grows too as delta
    shrinks (delta f(delta) peaks near s0 delta = 0.98).  To examine a point
    is to decompose it, and its checked gap can lower delta_run; a pending
    point that delta_run no longer admits when its turn comes is skipped, and
    only a later pass examines it, if a lower delta_run admits it again.
    budget.gaps is NaN at every point never examined, each of them rejected.
    delta is delta_run at the end: every checked gap lies within eta = 5
    RECON_TOL max(1, ||T||_F + sum_j |kappa|^j ||S_j||_F) of the true gap, so
    delta - eta <= (least true gap over kappa = 0 and the examined points) <=
    delta + eta.

    The budget keeps the checked T + S(kappa) of its admissible nonzero grid
    points, each the operator the grid loop examined, which budget.operator_at
    returns.  Given the family's parity P, a point first takes the spectrum (w',
    P Q') of the examined point nearest -kappa (_adopt_mirror) and is decomposed
    only if that fails checked_eigh's test, whose eta bound it then shares.
    """
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    if kappa0 <= 0:
        raise ValueError("kappa0 must be positive")
    kappas = np.atleast_1d(np.asarray(kappa_grid, dtype=float))
    if kappas.size == 0:
        raise ValueError("kappa grid must be nonempty")
    if family.coefficients[0].dim != T.dim:
        raise ValueError("dimension mismatch")
    _check_relative_bound(T, family)
    mu, _, _ = bottom_eigen(T, require_simple=True)
    if T.dim < 2:
        raise DegenerateBottom("need dimension >= 2 for a spectral gap")
    eigs = T.decomposition.eigenvalues
    t_gap = float(eigs[1] - eigs[0])

    gaps = np.full(kappas.size, np.nan)
    gaps[kappas == 0.0] = t_gap
    a_values, b_values = family.a_at(kappas), family.b_at(kappas)
    if np.any(kappas):   # a grid of zeros reads T alone, and nothing is pending
        order = np.argsort(_gap_estimates(T, family, kappas), kind="stable")

    def admitted(delta):   # the admissible set at a running delta
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c = _c_values(mu, delta / 2.0, a_values, b_values)
        return (np.abs(kappas) < kappa0) & (c < _threshold_at(s0, delta))

    delta_run = t_gap   # smallest checked gap so far
    admissible = admitted(delta_run)
    decomposed = {}   # grid index -> checked T + S(kappa)
    while np.any(pending := admissible & np.isnan(gaps)):
        for i in order[pending[order]]:
            if not admissible[i]:   # rejected mid-pass: left NaN unless admitted again
                continue
            t_kappa = T + family.operator_at(kappas[i])
            if family.parity is not None and decomposed:
                mirror = min(decomposed, key=lambda j: abs(kappas[j] + kappas[i]))
                _adopt_mirror(t_kappa, decomposed[mirror], family.parity)
            decomposed[i] = t_kappa
            eigs = t_kappa.decomposition.eigenvalues
            gaps[i] = float(eigs[1] - eigs[0])
            if gaps[i] < delta_run:
                delta_run = float(gaps[i])
                admissible = admitted(delta_run)

    delta = delta_run
    if delta <= GAP_COLLAPSE_TOL * max(1.0, T.norm):
        raise GapCollapsed(f"uniform gap {delta:.3e} collapsed on the grid")
    epsilon = delta / 2.0
    alpha = 1.0 - math.exp(-s0 * delta)
    if not 0.0 < alpha < 1.0:
        raise RatioSaturated(f"alpha = 1 - exp(-s0 delta) rounds to {alpha:g}: s0 delta = "
                             f"{s0 * delta:.6g} (s0 = {s0:g}, gap delta = {delta:.6g})")
    r = radius_from_alpha(alpha)
    c_threshold = improvement_threshold(r)
    c_values = _c_values(mu, epsilon, a_values, b_values)
    admissible = (np.abs(kappas) < kappa0) & (c_values < c_threshold)

    if family.degree == 1:   # c(kappa) = c(1) |kappa|
        slope = _c_values(mu, epsilon, family.a_at(1.0), family.b_at(1.0))
        kappa_threshold = min(kappa0, math.inf if slope == 0 else c_threshold / slope)
    else:
        # largest grid |kappa| whose whole symmetric interval stays admissible
        magnitudes = np.abs(kappas)
        first_out = magnitudes[~admissible].min(initial=math.inf)
        kappa_threshold = float(magnitudes[magnitudes < first_out].max(initial=0.0))
    operators = {float(kappas[j]): decomposed[j]
                 for j in np.flatnonzero(admissible & (kappas != 0.0))}
    return PerturbationBudget(
        T=T, family=family, mu=mu, delta=delta, epsilon=epsilon, s0=float(s0),
        alpha=alpha, r=r, c_threshold=c_threshold, kappa0=float(kappa0),
        kappas=kappas, gaps=gaps, a_values=a_values, b_values=b_values,
        c_values=c_values, admissible=admissible, kappa_threshold=kappa_threshold,
        operators=operators,
    )


def _check_relative_bound(T, family):
    """Raise RelativeBoundUncertified unless each given b_k proves ||S_k x|| <=
    a_k ||T x|| + b_k ||x||, with a_1 = a and a_k = 0 above degree one.

    A zero S_k needs no proof.  Else m = a_k^2 T^2 + b_k^2 I - S_k^2 >= 0 gives
    ||S_k x||^2 <= (a_k ||T x|| + b_k ||x||)^2, and certify_positive_definite
    proves it with error = gamma_{n+8} (||a_k T||_F^2 + ||S_k||_F^2 + b_k^2) on
    the rounding of m: gamma_{n+3} ||a_k T||_F^2 from a_k T and its square,
    gamma_n ||S_k||_F^2 from S_k^2, u of each term from the subtraction and the
    diagonal sum, u b_k^2 from b_k^2, with spare units for the rounding of error.
    Only where that fails is b_k >= ||S_k|| read from S_k's checked spectrum, as
    a claim at the norm itself (m singular) needs."""
    for k, (b, coefficient) in enumerate(zip(family.b, family.coefficients), start=1):
        if b is None or not coefficient.matrix.any():
            continue
        s = coefficient.matrix
        m, error = -(s @ s), 0.0
        a = family.a if k == 1 else 0.0
        if a:   # a^2 T^2 is formed only where it adds
            a_t = a * T.matrix
            m += a_t @ a_t
            error = np.linalg.norm(a_t) ** 2
        m[np.diag_indices(T.dim)] += b ** 2
        error = gamma(T.dim + 8) * (error + np.linalg.norm(s) ** 2 + b ** 2)
        if certify_positive_definite(m, error) or b >= coefficient.norm:
            continue
        sub = f"_{k}" if family.degree > 1 else ""
        raise RelativeBoundUncertified(
            f"||S{sub} x|| <= a ||T x|| + b{sub} ||x|| is not certified: a^2 T^2 + b{sub}^2 I "
            f"- S{sub}^2 has eigenvalue {SymmetricOperator(m).decomposition.min_eigenvalue:.6g}")


def _adopt_mirror(t_kappa, mirror, parity):
    """Offer M = T + S(kappa) the spectrum (w', P Q') of its examined mirror M',
    P = diag(parity), if ||M - P M' P||_F < RECON_TOL max(1, ||M||_F)."""
    m = t_kappa.matrix
    with np.errstate(over="ignore", invalid="ignore"):   # inf and nan offer nothing
        distance = float(np.linalg.norm(m - parity[:, None] * mirror.matrix * parity))
        room = RECON_TOL * max(1.0, float(np.linalg.norm(m)))
    if distance < room:
        dec = mirror.decomposition
        t_kappa.adopt(dec.eigenvalues, parity[:, None] * dec.eigenvectors)


def _gap_estimates(T, family, kappas):
    """Second-order estimates of the gaps of T + S(kappa) over the grid, which
    order the grid loop of semigroup_threshold but decide nothing.

    From T's checked spectrum (Q, w) and p_jk = Q^T S_j q_k (k = 0, 1), the
    estimate is w_1 - w_0 + sum_j kappa^j (q_1^T S_j q_1 - q_0^T S_j q_0) less
    the second-order terms, read through the reduced resolvents at w_0 and w_1.
    """
    w, q = T.decomposition.eigenvalues, T.decomposition.eigenvectors
    p0 = np.array([q.T @ s.apply(q[:, 0]) for s in family.coefficients])
    p1 = np.array([q.T @ s.apply(q[:, 1]) for s in family.coefficients])
    # a degenerate w_1 or a huge kappa leaves inf or nan; the estimate then only
    # orders the grid
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r0, r1 = 1.0 / (w - w[0]), 1.0 / (w - w[1])   # reduced resolvents at w_0, w_1
        r0[0] = r1[1] = 0.0
        powers = kappas[:, None] ** np.arange(1, family.degree + 1)
        curvature = (p1 * r1) @ p1.T - (p0 * r0) @ p0.T
        return ((w[1] - w[0]) + powers @ (p1[:, 1] - p0[:, 0])
                - np.einsum("kj,jl,kl->k", powers, curvature, powers))


def _threshold_at(s0, delta):
    """f(r) at alpha = 1 - exp(-s0 delta), and 0 where alpha rounds to 1."""
    alpha = 1.0 - math.exp(-s0 * delta)
    return improvement_threshold(radius_from_alpha(alpha)) if alpha < 1.0 else 0.0


def _c_values(mu, epsilon, a_values, b_values):
    """c(kappa) = a + ((|mu| + epsilon) a + b) / epsilon at each grid point."""
    return a_values + ((abs(mu) + epsilon) * a_values + b_values) / epsilon


def drifted_axis(T_kappa, u0, budget, kappa):
    """Perturbed ground axis of T_kappa, with its drift bounds.

    Requires c(kappa) < 1/2; then the eigenprojection difference is bounded
    by c/(1-c) and the normalized drift by sqrt(2(1 - sqrt(1 - (c/(1-c))^2))),
    and exactly one eigenvalue of T_kappa, its bottom one, lies within epsilon
    of mu.  The axis is T_kappa's checked bottom eigenvector, signed toward
    u0.  Violations restate proven inequalities, so they raise as toolkit bugs.
    The computed drift carries the rounding of that eigenvector, so both its
    checks, against the bound and, at an admissible kappa, against r, admit
    DRIFT_BOUND_SLACK: a budget whose r lies below that rounding (alpha near
    1) is no toolkit bug.
    """
    u0 = as_vector(u0)
    c = budget.c_at(kappa)
    if c >= 0.5:
        raise BudgetViolated(f"c(kappa)={c:.6g} >= 1/2: eigenvector argument fails")
    near = np.flatnonzero(np.abs(T_kappa.decomposition.eigenvalues - budget.mu)
                          < budget.epsilon)
    if near.tolist() != [0]:
        raise ContractViolation(
            f"eigenvalues within epsilon={budget.epsilon:.6g} of mu={budget.mu:.6g} sit "
            f"at positions {near.tolist()} of T_kappa's ascending spectrum, not at [0]"
        )
    _, v_kappa, _ = bottom_eigen(T_kappa, require_simple=True)
    if float(v_kappa @ u0) < 0:
        v_kappa = -v_kappa
    drift_actual = float(np.linalg.norm(v_kappa - u0))
    ratio = c / (1.0 - c)
    drift_bound = math.sqrt(2.0 * (1.0 - math.sqrt(max(0.0, 1.0 - ratio**2))))
    if drift_actual > drift_bound + DRIFT_BOUND_SLACK:
        raise ContractViolation(
            f"axis drift {drift_actual:.6g} exceeds bound {drift_bound:.6g}"
        )
    if c < budget.c_threshold and drift_actual >= budget.r + DRIFT_BOUND_SLACK:
        raise ContractViolation(
            f"admissible kappa produced drift {drift_actual:.6g} >= r {budget.r:.6g} "
            f"+ {DRIFT_BOUND_SLACK:.0e}"
        )
    return v_kappa, drift_bound, drift_actual


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    s: float
    c_kappa: float
    drift_bound: float
    drift_actual: float
    verdict: Verdict
    alpha_op: float


def end_to_end_semigroup_check(budget, s_samples, kappas=None):
    """Drive the full pipeline over admissible (kappa, s) pairs of the budget.

    Each pair exponentiates budget.operator_at(kappa), recomputes the
    spectral ratio of the exponential once (the uniform alpha of the budget
    is the worst case), and asks for improvement w.r.t. the unperturbed
    axis.  The base case kappa = 0 is T itself, verified directly through
    the certified axis criterion for every s.  An admissible grid point
    reuses the budget's checked operator, so only a kappa off the grid is
    decomposed here.  Each s must lie in (0, s0], resolve the budget
    (PerturbationBudget.resolves; else HeatTimeUnresolved) and keep the square
    of exp(-s (mu - epsilon)), which bounds every swept semigroup's norm, in
    the float range (else SemigroupOverflow), checked before any row is
    built.  Returns the SweepRows as a tuple, kappa ascending.
    """
    s_samples = [float(s) for s in s_samples]
    for s in s_samples:
        if s <= 0:
            raise ValueError(f"s={s} must be positive (s = 0 gives the identity)")
        if s > budget.s0:
            raise ValueError(f"s={s} > s0={budget.s0}: outside theorem scope")
        if not budget.resolves(s):
            raise HeatTimeUnresolved(
                f"exp(-s T) has no top gap beyond tau_gap={TAU_GAP:.1e} at s = {s:g} "
                f"(mu = {budget.mu:.6g}, gap delta = {budget.delta:.6g})")
        if 2.0 * s * (budget.epsilon - budget.mu) > LOG_FLOAT_MAX:
            raise SemigroupOverflow(
                f"exp(-s (mu - epsilon))^2 leaves the float range at s = {s:g} "
                f"(mu = {budget.mu:.6g}, epsilon = {budget.epsilon:.6g})")
    if kappas is None:
        kappas = [float(k) for k in budget.kappas[budget.admissible]]
    else:
        kappas = [float(k) for k in kappas]
        for kappa in kappas:
            if not budget.is_admissible(kappa):
                raise ValueError(f"kappa={kappa} is not admissible for this budget")
    _, u0, _ = bottom_eigen(budget.T, require_simple=True)

    rows = []
    for kappa in sorted(kappas):
        t_kappa = budget.operator_at(kappa)
        c_kappa = budget.c_at(kappa)
        axis_kappa, drift_bound, drift_actual = drifted_axis(t_kappa, u0, budget, kappa)
        for s in s_samples:
            semigroup = heat_semigroup(t_kappa, s)
            alpha_op, _ = improving_radius(semigroup, axis_kappa)
            if kappa == 0.0:
                verdict = improves_positivity_axis(semigroup, axis_kappa)
            else:
                verdict = certified_improving_under_drift(semigroup, alpha_op, axis_kappa, u0)
            rows.append(SweepRow(
                kappa=kappa, s=s, c_kappa=c_kappa, drift_bound=drift_bound,
                drift_actual=drift_actual, verdict=verdict, alpha_op=alpha_op,
            ))
    return tuple(rows)
