"""Reference forms that faster or simpler code in the toolkit replaced.

The per-sample loops are the one-vector code as it stood before the block
forms of the positivity layer; `contour_image` is the dense-solve contour
rule that the drift layer used before it took the drifted axis from the
eigenbasis; `arc_sweep_margin` is the exhaustive dim-2 sweep that the
improvement verdict ran before its closed-form S-lemma test;
`compressed_restricted_top` is the exact restricted top eigenvalue that
`restricted_top` computed before it returned its closed-form bound;
`probe_by_power_loop` is the block ergodicity probe as it stood before it
judged its powers in blocks; `sweep_by_rebuild` is the semigroup sweep as it
stood before it reused the budget's decompositions.  Tests compare the
toolkit against them on seeded instances.
"""

import math

import numpy as np

from axiscone.cones import OrthantCone, Region, as_rows, sample_in_cone
from axiscone.operators import bottom_eigen, heat_semigroup, perp_basis
from axiscone.perturbation import (
    SweepRow,
    certified_improving_under_drift,
    drifted_axis,
    improving_radius,
)
from axiscone.positivity import (
    MAX_POWER,
    PRESERVATION_SAMPLES,
    ProbeResult,
    VerdictStatus,
    _column_norms,
    _overflow_shift,
    improves_positivity_axis,
)
from axiscone.seeding import rng_for
from axiscone.tolerances import DRIFT_CERT_TOL, TAU_STRICT


def one_vector_sample(cone, rng):
    """The one-vector sampler that `sample_in_cone` replaced, kept as its stream reference.

    Also returns ||g|| / ||g_perp|| of the projected normal row (1 when none
    is projected): rounding in the projection grows by that factor.
    """
    if isinstance(cone, OrthantCone):
        u = np.abs(rng.standard_normal(cone.dim))
        if rng.random() < 0.5 and cone.dim > 1:
            u[rng.integers(cone.dim)] = 0.0
        if np.linalg.norm(u) == 0.0:
            u[0] = 1.0
        return u, 1.0
    if cone.dim == 1:
        return cone.axis * float(rng.uniform(0.1, 2.0)), 1.0
    g = rng.standard_normal(cone.dim)
    g_norm = np.linalg.norm(g)
    g -= (cone.axis @ g) * cone.axis
    nrm = np.linalg.norm(g)
    while nrm < 1e-12:
        g = rng.standard_normal(cone.dim)
        g_norm = np.linalg.norm(g)
        g -= (cone.axis @ g) * cone.axis
        nrm = np.linalg.norm(g)
    t = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.999))
    scale = float(rng.uniform(0.1, 2.0))
    return scale * (cone.axis + t * (g / nrm)), g_norm / nrm


def preserves_by_loop(A, cone, seed):
    """Sampled branch of preserves_positivity, sample by sample with its early exit.

    Returns (status, index of the witness row in the sampled block, margin).
    """
    worst, worst_index = math.inf, None
    for index, u in enumerate(sample_in_cone(cone, rng_for(seed, 0), PRESERVATION_SAMPLES)):
        image = A.apply(u)
        nrm = float(np.linalg.norm(image))
        margin = cone.margin(image) / max(nrm, 1e-300)
        if margin < worst:
            worst, worst_index = margin, index
        if nrm > 0 and cone.classify(image) is Region.OUTSIDE:
            return VerdictStatus.CERTIFIED_FALSE, index, margin
    return VerdictStatus.SAMPLED_TRUE, worst_index, worst


def probe_by_loop(A, u, v):
    """One-pair ergodic probe: (found, first power, value)."""
    u_norm = float(np.linalg.norm(u))
    w = np.array(v, dtype=float)
    log_scale = 0.0
    for n in range(1, MAX_POWER + 1):
        w = A.apply(w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return False, MAX_POWER, 0.0
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
            return True, n, value
    return False, MAX_POWER, float(u @ w) * math.exp(min(log_scale, 700.0))


def probe_by_power_loop(A, us, vs):
    """ergodic_probe on a block of pairs, judged one power at a time.

    Every power redoes an overflowed product on a 2^-k scaled copy,
    renormalizes, judges and drops columns before the next product; the
    toolkit's probe must return the same ProbeResult bit for bit.
    """
    us, vs = as_rows(us), as_rows(vs)
    k = len(us)
    powers, found = np.full(k, MAX_POWER), np.zeros(k, dtype=bool)
    inners, scales = np.zeros(k), np.zeros(k)
    tol = TAU_STRICT * np.linalg.norm(us, axis=1)
    live, u, w, log_scale = np.arange(k), us.T, vs.T, np.zeros(k)
    for n in range(1, MAX_POWER + 1):
        previous = w
        with np.errstate(over="ignore", invalid="ignore"):
            w = A.matrix @ w
        nw = _column_norms(w)
        overflowed = ~np.isfinite(nw)
        if overflowed.any():
            shift = _overflow_shift(A.matrix, previous[:, overflowed])
            w[:, overflowed] = A.matrix @ np.ldexp(previous[:, overflowed], -shift)
            log_scale[overflowed] += shift * math.log(2.0)
            nw[overflowed] = _column_norms(w[:, overflowed])
        far = (nw > 1e100) | ((nw < 1e-100) & (nw > 0.0))
        if far.any():
            log_scale[far] += np.log(nw[far])
            w[:, far] /= nw[far]
            nw[far] = 1.0
        inner = (u * w).sum(axis=0)
        hit = inner > tol * nw
        done = hit | (nw == 0.0)
        if done.any():
            powers[live[hit]], found[live[hit]] = n, True
            inners[live[hit]], scales[live[hit]] = inner[hit], log_scale[hit]
            keep = ~done
            live, u, w = live[keep], u[:, keep], w[:, keep]
            tol, log_scale = tol[keep], log_scale[keep]
            if not live.size:
                break
    inners[live], scales[live] = (u * w).sum(axis=0), np.minimum(log_scale, 700.0)
    with np.errstate(over="ignore"):
        values = inners * np.exp(scales)
    unfound = np.flatnonzero(~found)
    stop = int(unfound[0]) if unfound.size else k - 1
    return ProbeResult(found=not unfound.size, n=int(powers[:stop + 1].sum()),
                       value=float(values[stop]), pair=stop if unfound.size else None)


def drift_check_by_loop(A, u0, u1, rows):
    """ergodic_drift_check's pair loop over sampled rows: (status, margin, witness).

    Pair i is rows 2i and 2i + 1.  Checks the certificates of u_i and v_i,
    then probes pair i, and stops at the first failure.
    """
    slack = 1.0 / math.sqrt(2.0) - float(np.linalg.norm(u1 - u0))
    worst = math.inf
    for u, v in zip(rows[0::2], rows[1::2]):
        for w in (u, v):
            certificate = float(u0 @ w) / float(np.linalg.norm(w)) - slack
            worst = min(worst, certificate)
            if certificate < -DRIFT_CERT_TOL:
                return VerdictStatus.CERTIFIED_FALSE, certificate, w
        found, _, value = probe_by_loop(A, u, v)
        if not found:
            return VerdictStatus.CERTIFIED_FALSE, value, u
    return VerdictStatus.SAMPLED_TRUE, worst, None


def contour_image(t, center, radius, rhs, nodes=64):
    """P rhs for the spectral projector P of t inside |z - center| = radius.

    The trapezoidal rule P = (radius/nodes) sum_k w_k (z_k - t)^{-1} on the
    full circle, z_k = center + radius w_k with w_k the nodes-th roots of
    unity: one complex dense solve per node and no eigendecomposition.
    """
    eye = np.eye(t.dim)
    acc = np.zeros(t.dim, dtype=complex)
    for k in range(nodes):
        w = np.exp(2j * np.pi * k / nodes)
        acc += w * np.linalg.solve((center + radius * w) * eye - t.matrix, rhs)
    return (radius / nodes) * acc.real


def arc_sweep_margin(A, axis, step_deg=0.01):
    """Least sqrt(2) <axis, A u> - ||A u|| over unit u on the dim-2 cone arc.

    Sweeps the arc of half-width 45 degrees around the axis at step_deg,
    both boundary rays included; the margin is positive iff A u is interior.
    Returns (margin, argmin).
    """
    theta1 = math.atan2(axis[1], axis[0])
    thetas = theta1 + np.linspace(-math.pi / 4, math.pi / 4, round(90.0 / step_deg) + 1)
    rays = np.vstack([np.cos(thetas), np.sin(thetas)])
    images = A.matrix @ rays
    margins = math.sqrt(2.0) * (axis @ images) - np.linalg.norm(images, axis=0)
    k = int(np.argmin(margins))
    return float(margins[k]), rays[:, k]


def compressed_restricted_top(A, u0):
    """Largest eigenvalue of the compression of A to the complement of u0.

    One O(n^3) product and one eigvalsh; None in dimension 1.
    """
    basis = perp_basis(u0)
    if basis.shape[1] == 0:
        return None
    block = basis.T @ A.matrix @ basis
    return float(np.max(np.linalg.eigvalsh((block + block.T) / 2.0)))


def sweep_by_rebuild(T, S_spec, budget, s_samples, kappas=None):
    """end_to_end_semigroup_check's rows, rebuilding and decomposing T + S(kappa) anew
    for every kappa, kappa = 0 included."""
    if kappas is None:
        kappas = [float(k) for k in budget.kappas[budget.admissible]]
    _, u0, _ = bottom_eigen(T, require_simple=True)
    rows = []
    for kappa in sorted(float(k) for k in kappas):
        t_kappa = T + S_spec.operator_at(kappa)
        axis_kappa, drift_bound, drift_actual = drifted_axis(t_kappa, u0, budget, kappa)
        for s in s_samples:
            semigroup = heat_semigroup(t_kappa, s)
            alpha_op, _ = improving_radius(semigroup, axis_kappa)
            if kappa == 0.0:
                verdict = improves_positivity_axis(semigroup, axis_kappa)
            else:
                verdict = certified_improving_under_drift(semigroup, alpha_op, axis_kappa, u0)
            rows.append(SweepRow(
                kappa=kappa, s=float(s), c_kappa=budget.c_at(kappa),
                threshold=budget.c_threshold, drift_bound=drift_bound,
                drift_actual=drift_actual, verdict=verdict, alpha_op=alpha_op,
                alpha_uniform=budget.alpha,
            ))
    return tuple(rows)
