"""Acceptance criteria, runnable both from pytest and the selftest command.

Each criterion returns a CriterionResult whose detail string is fully
deterministic (timing lives in the elapsed field only), so selftest reports
are byte-reproducible for a fixed master seed.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .cones import (
    AxisCone,
    OrthantCone,
    Region,
    cone_check,
    moreau_check,
    partner_check,
    witness_check,
)
from .errors import ContractViolation
from .operators import SymmetricOperator, bottom_eigen, correspondence_check, top_eigen
from .perturbation import (
    PerturbationFamily,
    drifted_axis,
    end_to_end_semigroup_check,
    ergodic_drift_check,
    improving_radius,
    quartic_coefficient,
    quartic_margin,
    radius_from_alpha,
    semigroup_threshold,
)
from .positivity import VerdictStatus, improves_positivity_axis
from .schrodinger import POTENTIAL_PRESETS, GridSpec, MagneticModel, magnetic_experiment
from .schrodinger import magnetic_terms, orthant_failure_demo
from .seeding import derive_seed, rng_for
from .tolerances import (
    CLOSED_FORM_TOL,
    DEMO_WITNESS_TOL,
    DERIVATION_TOL,
    DRIFT_BOUND_SLACK,
    DRIFT_CERT_TOL,
)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(number, name, passed, detail, started):
    return CriterionResult(number=number, name=name, passed=bool(passed), detail=detail,
                           elapsed=time.perf_counter() - started)


def criterion_1_radius_formula(seed):
    started = time.perf_counter()
    alpha, r = improving_radius(SymmetricOperator(np.diag([2.0, 1.0])),
                                np.array([1.0, 0.0]))
    closed = (1.0 - 0.25) / (4.0 * SQRT2 * 1.25)
    gap_closed = abs(r - closed)
    worst_consistency = 0.0
    for a in np.arange(0.0, 0.95, 0.1):
        worst_consistency = max(
            worst_consistency,
            abs(radius_from_alpha(a) - 1.0 / (4.0 * quartic_coefficient(a))),
        )
    passed = (abs(alpha - 0.5) <= CLOSED_FORM_TOL and gap_closed <= CLOSED_FORM_TOL
              and worst_consistency <= CLOSED_FORM_TOL)
    detail = (f"r={r:.17g} |r-closed|={gap_closed:.3g} "
              f"max|r-1/(4c)|={worst_consistency:.3g}")
    return _result(1, "radius_formula", passed, detail, started)


def criterion_2_threshold_reproduction(seed):
    started = time.perf_counter()
    t = SymmetricOperator(np.diag([0.0, 1.0]))
    s_spec = PerturbationFamily([SymmetricOperator([[0.0, 1.0], [1.0, 0.0]])], b=[1.0])
    s0 = math.log(2.0)
    budget = semigroup_threshold(t, s_spec, s0=s0, kappa0=0.5,
                                 kappa_grid=np.linspace(-0.45, 0.45, 41))
    # independent hand derivation: gaps are sqrt(1 + 4 k^2) with minimum 1
    delta = 1.0
    epsilon = delta / 2.0
    alpha = 1.0 - math.exp(-s0 * delta)
    r = (1.0 - alpha**2) / (4.0 * SQRT2 * (1.0 + alpha**2))
    x = r * math.sqrt(1.0 - r**2 / 4.0)
    f_r = x / (1.0 + x)
    kappa_adm = f_r / 2.0  # c(kappa) = 2 |kappa|
    errors = [
        abs(budget.epsilon - epsilon),
        abs(budget.alpha - alpha),
        abs(budget.c_threshold - f_r),
        abs(budget.kappa_threshold - kappa_adm),
    ]
    rows = end_to_end_semigroup_check(
        budget,
        s_samples=[s0 / 5.0, 2.0 * s0 / 5.0, 3.0 * s0 / 5.0, 4.0 * s0 / 5.0, s0],
        kappas=np.linspace(-0.045, 0.045, 10),
    )
    failures = sum(not row.verdict.is_true for row in rows)
    passed = max(errors) <= DERIVATION_TOL and not failures and len(rows) == 50
    detail = (f"f(r)={budget.c_threshold:.17g} kappa_adm={budget.kappa_threshold:.17g} "
              f"max_err={max(errors):.3g} rows={len(rows)} failures={failures}")
    return _result(2, "threshold_reproduction", passed, detail, started)


def criterion_3_cone_suite(seed):
    started = time.perf_counter()
    checked = 0
    violations = 0
    worst = {moreau_check: 0.0, witness_check: -math.inf, partner_check: 0.0}
    for dim in range(2, 17):
        rng = rng_for(derive_seed(seed, 3, dim), 0)
        axis = rng.standard_normal(dim)
        axis /= np.linalg.norm(axis)
        axis_cone, orthant = AxisCone(axis), OrthantCone(dim)
        for cone, check, count in ((axis_cone, moreau_check, 250), (orthant, moreau_check, 250),
                                   (axis_cone, witness_check, 150), (orthant, witness_check, 50),
                                   (axis_cone, partner_check, 100)):
            defect, bad = cone_check(cone, check, rng, count)
            worst[check] = max(worst[check], defect)
            checked += count
            violations += bad
    passed = violations == 0 and checked >= 10_000
    detail = (f"checked={checked} violations={violations} "
              f"worst_split={worst[moreau_check]:.3g} "
              f"worst_witness={worst[witness_check]:.3g} "
              f"worst_partner={worst[partner_check]:.3g}")
    return _result(3, "cone_suite", passed, detail, started)


def criterion_4_improvement_equivalence(seed):
    started = time.perf_counter()
    from .harness import generate_instance

    failures = 0
    for index in range(100):
        dim = 3 + index % 8
        simple = generate_instance("psd-simple", dim, derive_seed(seed, 4, 0, index))
        _, u0, _ = top_eigen(simple)
        if improves_positivity_axis(simple, u0).status is not VerdictStatus.CERTIFIED_TRUE:
            failures += 1
        degenerate = generate_instance("degenerate-top", dim, derive_seed(seed, 4, 1, index))
        _, u0, _ = top_eigen(degenerate)
        verdict = improves_positivity_axis(degenerate, u0)
        cone = AxisCone(u0)
        if (verdict.status is not VerdictStatus.CERTIFIED_FALSE
                or cone.classify(degenerate.apply(verdict.witness)) is Region.INTERIOR):
            failures += 1
    detail = f"instances=200 failures={failures}"
    return _result(4, "improvement_equivalence", failures == 0, detail, started)


def criterion_5_drift_suite(seed):
    started = time.perf_counter()
    a = SymmetricOperator(np.diag([2.0, 1.0]))
    e1 = np.array([1.0, 0.0])
    rng = rng_for(derive_seed(seed, 5), 0)
    failures = 0
    worst_certificate = math.inf
    for index in range(50):
        drift = float(rng.uniform(0.0, 1.0 / SQRT2))
        theta = 2.0 * math.asin(drift / 2.0)
        u1 = np.array([math.cos(theta), math.sin(theta)])
        verdict = ergodic_drift_check(a, e1, u1, sample_pairs=20,
                                      seed=derive_seed(seed, 5, index))
        if (verdict.status is not VerdictStatus.SAMPLED_TRUE
                or verdict.margin < -DRIFT_CERT_TOL):
            failures += 1
        else:
            worst_certificate = min(worst_certificate, verdict.margin)
    detail = f"axes=50 failures={failures} worst_certificate={worst_certificate:.3g}"
    return _result(5, "drift_suite", failures == 0, detail, started)


def criterion_6_quartic_grid(seed):
    started = time.perf_counter()
    violations = 0
    for alpha in np.arange(0.1, 0.95, 0.1):
        c = quartic_coefficient(alpha)
        upper = min(c / 4.0, 1.0 / (4.0 * c))
        xs = np.linspace(0.0, upper, 1000, endpoint=False)
        violations += int(np.sum([quartic_margin(c, x) >= 0 for x in xs]))
    detail = f"grid_points=9000 violations={violations}"
    return _result(6, "quartic_grid", violations == 0, detail, started)


def criterion_7_drift_chain(seed):
    started = time.perf_counter()
    chain_checks = 0
    failures = 0
    for index in range(5):
        rng = rng_for(derive_seed(seed, 7, 100 + index), 0)
        dim = int(rng.integers(3, 9))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        eigs = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 2.0, size=dim - 1))])
        t = SymmetricOperator((q * eigs) @ q.T)
        g = rng.standard_normal((dim, dim))
        s_mat = SymmetricOperator((g + g.T) / 2.0)
        s_spec = PerturbationFamily([(0.05 / s_mat.norm) * s_mat])
        budget = semigroup_threshold(t, s_spec, s0=1.0, kappa0=1.0,
                                     kappa_grid=np.linspace(-0.9, 0.9, 13))
        _, u0, _ = bottom_eigen(t, require_simple=True)
        for kappa in budget.kappas[budget.admissible]:
            _, bound, actual = drifted_axis(budget.operator_at(float(kappa)),
                                            u0, budget, kappa=float(kappa))
            chain_checks += 1
            if actual > bound + DRIFT_BOUND_SLACK or actual >= budget.r:
                failures += 1
    detail = f"chain_checks={chain_checks} failures={failures}"
    return _result(7, "drift_chain", failures == 0, detail, started)


def _complex_hamiltonian(model, e):
    """H(e) = p^2 + V + e (p a + a p) + e^2 a^2 on the whole grid, complex, Dirichlet:
    p^2 the 3-point Laplacian, (p f)_j = -i (f_{j+1} - f_{j-1}) / (2h)."""
    grid = model.grid
    n, h, a = grid.dim, grid.spacing, model.a_values
    laplacian = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
    p = (np.eye(n, k=-1) - np.eye(n, k=1)) * (0.5j / h)
    return (laplacian + np.diag(model.v_values) + e * (p * a + a[:, None] * p)
            + e**2 * np.diag(a**2))


def criterion_8_correspondence(seed):
    """H_r(e), built as the pipeline builds it, restricts the complex H(e) for each
    pair of presets at 3 seeded (N, h, e): see operators.correspondence_check."""
    started = time.perf_counter()
    rng = rng_for(derive_seed(seed, 8), 0)
    failures = 0
    presets = POTENTIAL_PRESETS.values()
    pairs = [(v_fn, a_fn) for v_fn in presets for a_fn in presets] * 3
    for v_fn, a_fn in pairs:
        grid = GridSpec(int(rng.integers(1, 65)), float(rng.uniform(0.05, 1.0)))
        e = float(rng.uniform(-1.0, 1.0))
        model = MagneticModel.from_functions(grid, v_fn, a_fn)
        h0, m1, m2 = magnetic_terms(model)
        h_r = SymmetricOperator(h0) + PerturbationFamily((m1, m2)).operator_at(e)
        try:
            correspondence_check(h_r, _complex_hamiltonian(model, e))
        except ContractViolation:
            failures += 1
    detail = f"models={len(pairs)} failures={failures}"
    return _result(8, "correspondence", failures == 0, detail, started)


def criterion_9_schrodinger(seed):
    started = time.perf_counter()
    model = MagneticModel.from_functions(
        GridSpec(8, 0.5), lambda x: x * x, lambda x: math.exp(-x * x)
    )
    report = magnetic_experiment(model, e_grid=np.linspace(-0.008, 0.008, 17), s0=1.0)
    base_ok = all(
        v.status is VerdictStatus.CERTIFIED_TRUE for v in report.base_verdicts
    )
    demo = orthant_failure_demo(report, 0.5, s=0.5)
    budget = report.budget
    passed = (base_ok and budget.kappa_threshold > 0.0 and report.all_true
              and demo.max_imag >= DEMO_WITNESS_TOL)
    detail = (f"ground={budget.mu:.12g} "
              f"e0={budget.kappa_threshold:.12g} "
              f"sweep_rows={len(report.sweep)} "
              f"failures={sum(not row.verdict.is_true for row in report.sweep)} "
              f"demo_imag={demo.max_imag:.6g}")
    return _result(9, "schrodinger_pipeline", passed, detail, started)


CRITERIA = (
    criterion_1_radius_formula,
    criterion_2_threshold_reproduction,
    criterion_3_cone_suite,
    criterion_4_improvement_equivalence,
    criterion_5_drift_suite,
    criterion_6_quartic_grid,
    criterion_7_drift_chain,
    criterion_8_correspondence,
    criterion_9_schrodinger,
)

RUNTIME_BUDGETS = {1: 1.0, 2: 5.0, 3: 30.0, 4: 30.0, 5: 10.0, 6: 1.0,
                   7: 30.0, 8: 10.0, 9: 60.0}


def run_criteria(seed):
    """Execute criteria 1-9 for a master seed, in order."""
    return [criterion(seed) for criterion in CRITERIA]
