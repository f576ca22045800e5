"""Quantitative stability: drift radii, spectral-gap budgets, drifted axes.

The chain implemented here: a positive operator with a simple extremal
eigenvalue tolerates an axis drift up to r(alpha) = (1 - alpha^2) /
(4 sqrt(2) (1 + alpha^2)) while staying positivity improving, where alpha is
the spectral ratio on the axis complement.  For heat semigroups of a
perturbed generator, a relative-bound budget bounds the drift of the ground
axis (Kato), and the admissible region is where that drift stays below r.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import AxisCone, sample_in_cone
from .errors import (
    BudgetViolated,
    ContractViolation,
    DegenerateBottom,
    GapCollapsed,
    RatioSaturated,
)
from .operators import (
    SymmetricOperator,
    as_vector,
    bottom_eigen,
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
)

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2


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


# f(r(0)): every threshold f(r(alpha)) with alpha > 0 lies below it
C_MAX = improvement_threshold(radius_from_alpha(0.0))


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
    the drifted cone satisfies <u0, u> >= (1/sqrt(2) - ||u1-u0||) ||u|| > 0,
    which is verified for every sample alongside the power probe.
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
                       margin=slack, seed=seed,
                       detail=f"drift {drift:.6g} >= 1/sqrt(2); theorem silent here")
    cone = AxisCone(u1)
    rows = sample_in_cone(cone, rng_for(seed, 0), 2 * sample_pairs)
    certificates = rows @ u0 / np.linalg.norm(rows, axis=1) - slack
    bad = np.flatnonzero(certificates < -DRIFT_CERT_TOL)
    # pair i is probed after the certificates of its rows 2i and 2i + 1
    probed = bad[0] // 2 if bad.size else sample_pairs
    if probed:
        probe = ergodic_probe(A, cone, rows[0:2 * probed:2], rows[1:2 * probed:2])
        if not probe.found:
            return Verdict("ergodic_drift_check", VerdictStatus.CERTIFIED_FALSE,
                           margin=probe.value, witness=rows[2 * probe.pair], seed=seed,
                           detail=f"no positive pairing within {MAX_POWER} powers")
    if bad.size:
        return Verdict("ergodic_drift_check", VerdictStatus.CERTIFIED_FALSE,
                       margin=float(certificates[bad[0]]), witness=rows[bad[0]], seed=seed,
                       detail="positivity certificate violated (toolkit bug)")
    worst_certificate = float(certificates.min(initial=math.inf))
    return Verdict("ergodic_drift_check", VerdictStatus.SAMPLED_TRUE,
                   margin=worst_certificate, seed=seed,
                   detail=f"{sample_pairs} pairs ergodic; certificate slack "
                          f"{worst_certificate:.3e}")


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

    A linear family (d = 1) carries the relative bounds a|kappa| and
    b|kappa| with the closed-form c-slope; at finite dimension the tightest
    defaults are a = 0 and b = ||S_1||, because the unbounded-operator
    analysis these constants usually come from trivializes here.  A family
    of higher degree takes a(kappa) = 0 and the exact b(kappa) = ||S(kappa)||,
    and its admissible range is read off the kappa grid.
    """

    def __init__(self, coefficients, a=0.0, b=None):
        coefficients = tuple(
            c if isinstance(c, SymmetricOperator) else SymmetricOperator(c)
            for c in coefficients
        )
        if not coefficients:
            raise ValueError("need at least one coefficient")
        if any(c.dim != coefficients[0].dim for c in coefficients):
            raise ValueError("coefficients differ in dimension")
        if len(coefficients) > 1 and (a != 0.0 or b is not None):
            raise ValueError("relative bounds a, b apply to linear families only")
        self.coefficients = coefficients
        self.a = float(a)
        self.b = None   # higher degrees take b(kappa) = ||S(kappa)|| instead
        if len(coefficients) == 1:
            self.b = coefficients[0].norm if b is None else float(b)

    @property
    def degree(self):
        return len(self.coefficients)

    def operator_at(self, kappa):
        kappa = float(kappa)
        with np.errstate(over="ignore", invalid="ignore"):  # _exact rejects inf and nan
            total = kappa * self.coefficients[0].matrix
            for k, coefficient in enumerate(self.coefficients[1:], start=2):
                total = total + kappa**k * coefficient.matrix
            return SymmetricOperator._exact(total)

    def a_at(self, kappa):
        return self.a * abs(kappa)

    def b_at(self, kappa, operator=None):
        """b(kappa); operator is S(kappa) when the caller has built it already."""
        if self.degree == 1:
            return self.b * abs(kappa)
        if operator is None:
            operator = self.operator_at(kappa)
        return operator.norm

    def c_slope(self, mu, epsilon):
        if self.degree > 1:
            return None
        return self.a + ((abs(mu) + epsilon) * self.a + self.b) / epsilon


@dataclass(frozen=True)
class PerturbationBudget:
    """All scalars of the semigroup stability argument over a kappa grid."""

    regime: str
    mu: float
    delta: float
    epsilon: float
    s0: float
    alpha: float
    r: float
    c_threshold: float
    kappa0: float
    kappas: np.ndarray
    gaps: np.ndarray
    a_values: np.ndarray
    b_values: np.ndarray
    c_values: np.ndarray
    admissible: np.ndarray
    kappa_threshold: float
    c_slope: float | None = None
    # checked spectra of T + S(kappa) at the admissible nonzero grid kappas, for
    # a sweep over the same T and family (source); not part of the report
    decompositions: dict = field(default_factory=dict, repr=False)
    source: tuple = field(default=(None, None), repr=False)

    def __post_init__(self):
        recomputed = radius_from_alpha(self.alpha)
        if abs(recomputed - self.r) > RADIUS_RECOMPUTE_TOL:
            raise ContractViolation("budget radius is not recomputable from alpha")
        if self.regime == "semigroup" and not 0.0 < self.alpha < 1.0:
            raise ContractViolation("semigroup-regime alpha must lie in (0, 1)")

    def c_at(self, kappa):
        if self.c_slope is not None:
            return self.c_slope * abs(kappa)
        exact = np.nonzero(np.abs(self.kappas - kappa) <= 1e-12)[0]
        if exact.size:
            return float(self.c_values[exact[0]])
        order = np.argsort(self.kappas)
        return float(np.interp(kappa, self.kappas[order], self.c_values[order]))

    def is_admissible(self, kappa):
        return abs(kappa) < self.kappa0 and self.c_at(kappa) < self.c_threshold

    def header_items(self):
        return [
            ("regime", self.regime),
            ("mu", format(self.mu, ".17g")),
            ("delta", format(self.delta, ".17g")),
            ("epsilon", format(self.epsilon, ".17g")),
            ("s0", format(self.s0, ".17g")),
            ("alpha", format(self.alpha, ".17g")),
            ("r", format(self.r, ".17g")),
            ("c_threshold", format(self.c_threshold, ".17g")),
            ("kappa0", format(self.kappa0, ".17g")),
            ("kappa_threshold", format(self.kappa_threshold, ".17g")),
        ]


def semigroup_threshold(T, S_spec, s0, kappa0, kappa_grid):
    """Budget for the perturbed heat semigroup over a kappa grid.

    delta is the smallest gap between the bottom eigenvalue of T + S(kappa)
    and the rest of its spectrum over the grid (grid density is the caller's
    responsibility); epsilon = delta/2 is the radius around mu that holds
    each drifted bottom eigenvalue alone (drifted_axis); alpha =
    1 - exp(-s0 delta) feeds the drift radius r; admissible kappas satisfy
    c(kappa) < f(r).

    Each distinct operator is decomposed once: kappa = 0 reads T's own
    spectrum (S has no constant term, so S(0) = 0 and b(0) = 0).  The
    checked spectrum of T + S(kappa) is held only while the point can still
    become admissible: with a, b >= 0, c(kappa) only grows as epsilon
    shrinks with each new gap, so a point is dropped once |kappa| >= kappa0
    or c(kappa) at the running epsilon reaches C_MAX.  The budget keeps the
    spectra of its admissible grid points for end_to_end_semigroup_check.
    """
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    if kappa0 <= 0:
        raise ValueError("kappa0 must be positive")
    kappas = np.atleast_1d(np.asarray(kappa_grid, dtype=float))
    if kappas.size == 0:
        raise ValueError("kappa grid must be nonempty")
    mu, _, _ = bottom_eigen(T, require_simple=True)

    gaps = np.empty(kappas.size)
    a_values = np.zeros(kappas.size)
    b_values = np.zeros(kappas.size)
    held = {}   # grid index -> checked spectrum of T + S(kappa)
    for i, kappa in enumerate(kappas):
        if kappa == 0.0:
            t_kappa = T
        else:
            s_kappa = S_spec.operator_at(kappa)
            t_kappa = T + s_kappa
            a_values[i] = S_spec.a_at(kappa)
            b_values[i] = S_spec.b_at(kappa, s_kappa)
            if abs(kappa) < kappa0:
                held[i] = t_kappa.decomposition
        eigs = t_kappa.decomposition.eigenvalues
        if eigs.size < 2:
            raise DegenerateBottom("need dimension >= 2 for a spectral gap")
        gaps[i] = float(eigs[1] - eigs[0])
        if held:
            # a collapsed gap gives inf or nan here and drops every point
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                c_run = _c_values(mu, float(np.min(gaps[:i + 1])) / 2.0, a_values, b_values)
            held = {j: dec for j, dec in held.items() if c_run[j] < C_MAX}

    delta = float(np.min(gaps))
    if delta <= GAP_COLLAPSE_TOL * max(1.0, T.norm):
        raise GapCollapsed(f"uniform gap {delta:.3e} collapsed on the grid")
    epsilon = delta / 2.0
    alpha = 1.0 - math.exp(-s0 * delta)
    if alpha >= 1.0:
        raise RatioSaturated(f"alpha = 1 - exp(-s0 delta) rounds to 1: s0 delta = "
                             f"{s0 * delta:.6g} (s0 = {s0:g}, gap delta = {delta:.6g})")
    r = radius_from_alpha(alpha)
    c_threshold = improvement_threshold(r)
    c_values = _c_values(mu, epsilon, a_values, b_values)
    admissible = (np.abs(kappas) < kappa0) & (c_values < c_threshold)

    slope = S_spec.c_slope(mu, epsilon)
    if slope is not None:
        kappa_threshold = min(kappa0, math.inf if slope == 0 else c_threshold / slope)
    else:
        # largest grid |kappa| whose whole symmetric interval stays admissible
        magnitudes = np.unique(np.abs(kappas))
        kappa_threshold = 0.0
        for mag in magnitudes:
            covered = np.abs(kappas) <= mag
            if np.all(admissible[covered]):
                kappa_threshold = float(mag)
            else:
                break
    return PerturbationBudget(
        regime="semigroup", mu=mu, delta=delta, epsilon=epsilon, s0=float(s0),
        alpha=alpha, r=r, c_threshold=c_threshold, kappa0=float(kappa0),
        kappas=kappas, gaps=gaps, a_values=a_values, b_values=b_values,
        c_values=c_values, admissible=admissible, kappa_threshold=kappa_threshold,
        c_slope=slope,
        decompositions={float(kappas[j]): dec for j, dec in held.items() if admissible[j]},
        source=(T, S_spec),
    )


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
    if c < budget.c_threshold and drift_actual >= budget.r:
        raise ContractViolation(
            f"admissible kappa produced drift {drift_actual:.6g} >= r {budget.r:.6g}"
        )
    return v_kappa, drift_bound, drift_actual


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    s: float
    c_kappa: float
    threshold: float
    drift_bound: float
    drift_actual: float
    verdict: Verdict
    alpha_op: float
    alpha_uniform: float

    def csv_row(self):
        return [
            format(self.kappa, ".17g"),
            format(self.s, ".17g"),
            format(self.c_kappa, ".17g"),
            format(self.threshold, ".17g"),
            format(self.drift_bound, ".17g"),
            format(self.drift_actual, ".17g"),
            self.verdict.status.value,
            format(self.alpha_op, ".17g"),
            format(self.alpha_uniform, ".17g"),
        ]


SWEEP_CSV_COLUMNS = [
    "kappa", "s", "c_kappa", "threshold", "drift_bound", "drift_actual",
    "verdict", "alpha_op", "alpha_uniform",
]


@dataclass(frozen=True)
class SweepReport:
    budget: PerturbationBudget
    rows: tuple

    @property
    def failures(self):
        return [row for row in self.rows if not row.verdict.is_true]

    @property
    def all_true(self):
        return not self.failures


def end_to_end_semigroup_check(T, S_spec, budget, s_samples, kappas=None):
    """Drive the full pipeline over admissible (kappa, s) pairs.

    Each pair exponentiates T + S(kappa), recomputes the spectral ratio of
    the exponential once (the uniform alpha of the budget is the worst case;
    both are reported), and asks for improvement w.r.t. the unperturbed axis.
    The base case kappa = 0 is T itself, verified directly through the
    certified axis criterion for every s.  A kappa whose checked spectrum the
    budget holds (an admissible grid point, when T and S_spec are the ones the
    budget was built from) is not decomposed again; any other kappa is.
    """
    s_samples = [float(s) for s in s_samples]
    for s in s_samples:
        if s <= 0:
            raise ValueError(f"s={s} must be positive (s = 0 gives the identity)")
        if s > budget.s0:
            raise ValueError(f"s={s} > s0={budget.s0}: outside theorem scope")
    if kappas is None:
        kappas = [float(k) for k in budget.kappas[budget.admissible]]
    else:
        kappas = [float(k) for k in kappas]
        for kappa in kappas:
            if not budget.is_admissible(kappa):
                raise ValueError(f"kappa={kappa} is not admissible for this budget")
    mu0, u0, _ = bottom_eigen(T, require_simple=True)
    source_t, source_s = budget.source
    held = budget.decompositions if source_t is T and source_s is S_spec else {}

    rows = []
    for kappa in sorted(kappas):
        if kappa == 0.0:
            t_kappa = T
        else:
            t_kappa = T + S_spec.operator_at(kappa)
            if kappa in held:   # the same bits the budget decomposed
                t_kappa._decomposition = held[kappa]
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
                kappa=kappa, s=s, c_kappa=c_kappa, threshold=budget.c_threshold,
                drift_bound=drift_bound, drift_actual=drift_actual,
                verdict=verdict, alpha_op=alpha_op, alpha_uniform=budget.alpha,
            ))
    return SweepReport(budget=budget, rows=tuple(rows))
